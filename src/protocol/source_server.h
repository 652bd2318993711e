#ifndef FUSION_PROTOCOL_SOURCE_SERVER_H_
#define FUSION_PROTOCOL_SOURCE_SERVER_H_

#include <memory>
#include <string>

#include "protocol/message.h"
#include "source/source_wrapper.h"

namespace fusion {

/// The wrapper-side endpoint of the FUSIONP/1 protocol: owns a concrete
/// SourceWrapper and answers serialized requests. Conditions arrive as text
/// and are re-parsed; load/fetch relations leave as CSV lines; the costs the
/// wrapped source charged travel back as charge summaries so the mediator
/// side can keep its ledger accurate.
class SourceServer {
 public:
  explicit SourceServer(std::unique_ptr<SourceWrapper> impl)
      : impl_(std::move(impl)) {}

  const SourceWrapper& impl() const { return *impl_; }

  /// Handles one serialized request and returns the serialized response.
  /// Malformed requests and wrapper errors become ERROR responses (the
  /// protocol layer never fails out-of-band).
  std::string Handle(const std::string& request_text);

 private:
  SourceResponse HandleParsed(const SourceRequest& request);

  std::unique_ptr<SourceWrapper> impl_;
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_SOURCE_SERVER_H_

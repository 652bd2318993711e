#ifndef FUSION_PROTOCOL_MESSAGE_H_
#define FUSION_PROTOCOL_MESSAGE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "protocol/wire.h"
#include "source/capabilities.h"

namespace fusion {

/// The wire protocol between the mediator and source wrappers ("FUSIONP/1"),
/// realizing the wrapper boundary the paper assumes (Section 2.1, [19]): the
/// mediator ships small text messages; wrappers answer with item lists or
/// CSV relations plus the cost they charged. Line-oriented, human-readable,
/// and fully round-trip tested — conditions travel in their textual form and
/// are re-parsed server-side.
///
/// Request grammar (one field per line, terminated by `end`):
///   FUSIONP/1 <SELECT|SEMIJOIN|LOAD|FETCH|HELLO>
///   merge <attribute>            (SELECT / SEMIJOIN / FETCH)
///   cond <condition text>        (SELECT / SEMIJOIN)
///   bind <value>                 (0+ times; SEMIJOIN / FETCH)
///   trace <trace-id> <parent-span>  (optional; distributed trace context —
///                                 sent only to servers whose HELLO
///                                 advertised the `trace` feature)
///   end
///
/// Both parsers ignore unknown fields (matching FUSIONQ/1), so optional
/// fields added later degrade gracefully against older peers; capabilities
/// are negotiated via the HELLO response's `features` line.
struct SourceRequest {
  enum class Kind { kHello, kSelect, kSemiJoin, kLoad, kFetch };

  Kind kind = Kind::kHello;
  std::string merge_attribute;
  std::string condition_text;   // parseable by ParseCondition
  std::vector<Value> bindings;  // semijoin candidates / fetch items
  /// Distributed trace context the server should adopt (0 = none): the
  /// mediator's ambient trace at the time of the call, so daemon and source
  /// spans stitch into one trace.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

/// Response grammar:
///   FUSIONP/1 <OK|ERROR>
///   error <CodeName> <message>   (ERROR only; StatusCodeName text, one
///                                 shared taxonomy with local calls and the
///                                 FUSIONQ/1 client dialect)
///   item <value>                 (0+; SELECT / SEMIJOIN answers)
///   relation-line <csv line>     (0+; LOAD / FETCH relations, HELLO schema)
///   name <source name>           (HELLO)
///   semijoin <native|bindings|none>  (HELLO)
///   load <yes|no>                (HELLO)
///   features <csv>               (HELLO; e.g. trace)
///   charge <kind> <sent> <recv> <scanned> <cost>   (0+; metering transfer)
///   end
struct ChargeSummary {
  std::string kind;  // ChargeKindName text
  size_t items_sent = 0;
  size_t items_received = 0;
  size_t tuples_scanned = 0;
  double cost = 0.0;
};

struct SourceResponse {
  bool ok = true;
  StatusCode error_code = StatusCode::kOk;
  std::string error_message;

  std::vector<Value> items;                 // select / semijoin
  std::vector<std::string> relation_lines;  // load / fetch CSV, hello schema
  std::string name;                         // hello
  std::string semijoin_support;             // hello: native|bindings|none
  bool supports_load = true;                // hello
  std::vector<std::string> features;        // hello: e.g. {"trace"}
  std::vector<ChargeSummary> charges;
};

/// The HELLO `semijoin` capability words.
inline constexpr WireWords<SemijoinSupport> kSemijoinWireWords[] = {
    {SemijoinSupport::kNative, "native"},
    {SemijoinSupport::kPassedBindingsOnly, "bindings"},
    {SemijoinSupport::kUnsupported, "none"},
};

/// Longest line either FUSIONP/1 parser accepts (256 KiB — relation CSV
/// lines are wide, but not unbounded): longer lines are rejected with a
/// clean kParseError, mirroring FUSIONQ/1's
/// kMaxClientProtocolLineBytes so a malicious or corrupted peer cannot
/// drive an allocation storm through either dialect.
inline constexpr size_t kMaxSourceProtocolLineBytes = 256 * 1024;
/// Receive cap on one whole FUSIONP/1 frame, both directions: far above
/// any legitimate frame (load and fetch ship relations), low enough that a
/// garbage-spewing peer is cut off cleanly.
inline constexpr size_t kMaxSourceFrameBytes = 64 * 1024 * 1024;

std::string SerializeRequest(const SourceRequest& request);
Result<SourceRequest> ParseRequest(const std::string& text);

std::string SerializeResponse(const SourceResponse& response);
Result<SourceResponse> ParseResponse(const std::string& text);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_MESSAGE_H_

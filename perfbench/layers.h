#ifndef FUSION_PERFBENCH_LAYERS_H_
#define FUSION_PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace fusion {
namespace perfbench {

/// One timed request as the client saw it: the trace it ran under and its
/// round-trip time.
struct RequestTiming {
  uint64_t trace_id = 0;
  double latency_us = 0.0;
};

/// Where the client-view latency of the traced requests went, as means per
/// request in microseconds. The parts add up to `latency_us` exactly:
///
///   latency = edge.overhead + session.other + session.optimize
///           + session.learn + session.execute
///   session.execute = exec.op_us.{sq,sjq,lq,select,setop} + cache.span
///                   + source.call + exec.other
///
/// edge.overhead is the round trip minus the server's service.request span
/// (wire, codec, connection thread, admission wait, and on a fleet the
/// router hop); session.other is service.request's own time outside its
/// optimize/execute/learn phases; phase figures include their children;
/// exec.* are self times (a span minus its children) inside execute, and
/// exec.other is execute's own self time.
struct LayerBreakdown {
  size_t requests = 0;   // traced requests with a service.request span
  size_t unmatched = 0;  // traced requests without one
  std::map<std::string, double> mean_us;
};

LayerBreakdown AccountLayers(const std::vector<SpanRecord>& spans,
                             const std::vector<RequestTiming>& requests);

/// `span`'s duration minus the union of its children's intervals.
double SelfTimeUs(const SpanRecord& span,
                  const std::vector<const SpanRecord*>& children);

}  // namespace perfbench
}  // namespace fusion

#endif  // FUSION_PERFBENCH_LAYERS_H_

#include "perfbench/layers.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace fusion {
namespace perfbench {
namespace {

using Children = std::unordered_map<uint64_t, std::vector<const SpanRecord*>>;

const std::vector<const SpanRecord*>& ChildrenOf(const Children& children,
                                                 const SpanRecord& span) {
  static const std::vector<const SpanRecord*> kNone;
  const auto it = children.find(span.span_id);
  return it == children.end() ? kNone : it->second;
}

const SpanRecord* ChildNamed(const Children& children, const SpanRecord& span,
                             const char* name) {
  for (const SpanRecord* child : ChildrenOf(children, span)) {
    if (child->name == name) return child;
  }
  return nullptr;
}

/// The exec.* bucket a span's self time lands in.
const char* ExecBucket(const SpanRecord& span) {
  switch (span.category) {
    case SpanCategory::kPlanOp:
      if (span.name == "sq") return "exec.op_us.sq";
      if (span.name == "sjq") return "exec.op_us.sjq";
      if (span.name == "lq") return "exec.op_us.lq";
      if (span.name == "local-sq") return "exec.op_us.select";
      return "exec.op_us.setop";  // union / intersect / difference
    case SpanCategory::kCache:
      return "cache.span_us";
    case SpanCategory::kSourceCall:
    case SpanCategory::kRetry:
      return "source.call_us";
    default:
      return "exec.other_us";
  }
}

void AddExecSelfTimes(const Children& children, const SpanRecord& span,
                      bool is_root, std::map<std::string, double>& sums) {
  const auto& kids = ChildrenOf(children, span);
  sums[is_root ? "exec.other_us" : ExecBucket(span)] +=
      SelfTimeUs(span, kids);
  for (const SpanRecord* child : kids) {
    AddExecSelfTimes(children, *child, false, sums);
  }
}

}  // namespace

double SelfTimeUs(const SpanRecord& span,
                  const std::vector<const SpanRecord*>& children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const SpanRecord* child : children) {
    const double lo = std::max(child->start_us, span.start_us);
    const double hi = std::min(child->end_us, span.end_us);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0.0;
  double reach = span.start_us;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_us() - busy;
}

LayerBreakdown AccountLayers(const std::vector<SpanRecord>& spans,
                             const std::vector<RequestTiming>& requests) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& span : spans) {
    by_trace[span.trace_id].push_back(&span);
  }
  static const char* const kKeys[] = {
      "edge.overhead_us", "session.other_us", "session.optimize_us",
      "session.learn_us", "session.execute_us", "exec.op_us.sq",
      "exec.op_us.sjq",   "exec.op_us.lq",    "exec.op_us.select",
      "exec.op_us.setop", "cache.span_us",    "source.call_us",
      "exec.other_us"};
  LayerBreakdown out;
  std::map<std::string, double> sums;
  for (const char* key : kKeys) sums[key] = 0.0;
  double latency_sum = 0.0;
  for (const RequestTiming& request : requests) {
    const auto trace = by_trace.find(request.trace_id);
    const SpanRecord* served = nullptr;
    Children children;
    if (trace != by_trace.end()) {
      for (const SpanRecord* span : trace->second) {
        children[span->parent_id].push_back(span);
        if (span->name == "service.request") served = span;
      }
    }
    if (served == nullptr) {
      ++out.unmatched;
      continue;
    }
    ++out.requests;
    latency_sum += request.latency_us;
    sums["edge.overhead_us"] += request.latency_us - served->duration_us();
    double phases = 0.0;
    const std::pair<const char*, const char*> kPhases[] = {
        {"optimize", "session.optimize_us"},
        {"learn", "session.learn_us"},
        {"execute", "session.execute_us"}};
    for (const auto& [name, key] : kPhases) {
      const SpanRecord* phase = ChildNamed(children, *served, name);
      if (phase == nullptr) continue;
      sums[key] += phase->duration_us();
      phases += phase->duration_us();
      if (std::strcmp(name, "execute") == 0) {
        AddExecSelfTimes(children, *phase, /*is_root=*/true, sums);
      }
    }
    sums["session.other_us"] += served->duration_us() - phases;
  }
  if (out.requests == 0) return out;
  const double n = static_cast<double>(out.requests);
  for (const auto& [key, sum] : sums) out.mean_us[key] = sum / n;
  out.mean_us["latency_us"] = latency_sum / n;
  return out;
}

}  // namespace perfbench
}  // namespace fusion

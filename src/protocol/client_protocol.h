#ifndef FUSION_PROTOCOL_CLIENT_PROTOCOL_H_
#define FUSION_PROTOCOL_CLIENT_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "protocol/features.h"

namespace fusion {

/// The client-facing dialect of the line protocol ("FUSIONQ/1"): what an
/// investigation client speaks to a fusionqd mediator service, the sibling
/// of FUSIONP/1 (protocol/message.h) which the mediator speaks to source
/// wrappers. Same idioms throughout — line-oriented, human-readable,
/// `end`-terminated, conditions and SQL travelling as escaped text, error
/// codes travelling as StatusCodeName from the one shared taxonomy — so a
/// deployment debugging either side of the mediator reads the same wire
/// format.
///
/// Request grammar (one field per line, terminated by `end`):
///   FUSIONQ/1 <HELLO|SUBMIT|STATUS|CANCEL|STATS|INVALIDATE>
///   client <client id>           (optional; the fair-scheduling key and the
///                                 per-tenant SLO accounting key)
///   sql <escaped query text>     (SUBMIT)
///   ticket <id>                  (STATUS / CANCEL)
///   source <escaped name>        (INVALIDATE: the source whose cached
///                                 entries must be dropped)
///   version <u64>                (INVALIDATE: monotonically increasing
///                                 stamp; replays at or below the highest
///                                 applied version are idempotent no-ops.
///                                 0 = unconditional, always applied)
///   wait <yes|no>                (SUBMIT: block for the answer — the
///                                 default — or return a ticket immediately)
///   explain <yes|no>             (SUBMIT wait=yes: annotate the response
///                                 with the executed plan)
///   features <csv>               (HELLO: capabilities the client speaks,
///                                 e.g. trace,stats,explain)
///   trace-id <u64>               (SUBMIT: distributed trace to join)
///   parent-span <u64>            (SUBMIT: the client-side parent span)
///   request-id <u64>             (SUBMIT: client-minted idempotency key —
///                                 a re-SUBMIT after a dropped connection
///                                 replays the original outcome instead of
///                                 executing twice)
///   end
///
/// Forward compatibility: both parsers *ignore* unknown fields, so a newer
/// peer can add fields (the way trace-id/parent-span were added) and an
/// older peer degrades gracefully instead of erroring. Capabilities a peer
/// acts on are negotiated explicitly via HELLO `features`.
struct ClientRequest {
  enum class Kind { kHello, kSubmit, kStatus, kCancel, kStats, kInvalidate };

  Kind kind = Kind::kHello;
  std::string client_id;
  std::string sql;
  uint64_t ticket = 0;
  bool wait = true;
  /// SUBMIT wait=yes: ask the server to render the executed plan (per-op
  /// timings, cache provenance, metered cost) into the response.
  bool explain = false;
  /// HELLO: feature tokens the sender understands (comma-separated on the
  /// wire). See kClientProtocolFeatures for what this build speaks.
  std::vector<std::string> features;
  /// Distributed trace context to adopt for this request (0 = none). The
  /// daemon's service/session/exec/source-RPC spans join this trace.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  /// Client-minted idempotency key for SUBMIT (0 = none). A service keyed
  /// dedup table maps (client, request-id) to the original ticket, so a
  /// client that reconnects and re-SUBMITs after a transport failure gets
  /// the first execution's answer — never a second execution, never double
  /// metering. Sent only to servers that advertised `idempotency`.
  uint64_t request_id = 0;
  /// INVALIDATE: the source whose cached call results / witnesses must be
  /// dropped (the source changed upstream).
  std::string source;
  /// INVALIDATE: version stamp making fan-out replays idempotent. The
  /// service records the highest version applied per source; a replay at
  /// or below it answers `state stale` without touching the cache again.
  /// Version 0 is unconditional (always applied, never recorded).
  uint64_t version = 0;
};

/// Response grammar:
///   FUSIONQ/1 <OK|ERROR>
///   error <CodeName> <message>   (ERROR only; same codes as local Status)
///   server <name>                (HELLO)
///   ticket <id>                  (SUBMIT / STATUS / CANCEL)
///   state <queued|running|done|failed|cancelled>   (SUBMIT wait=no, STATUS)
///                                (INVALIDATE reuses it: applied|stale)
///   item <value>                 (0+; the fused answer, in set order)
///   cost <metered total>         (RESULT)
///   source-queries <n>           (RESULT)
///   cache-hits <n>               (RESULT)
///   cache-misses <n>             (RESULT)
///   items-sent <n>               (RESULT; items shipped mediator -> sources)
///   items-received <n>           (RESULT; items shipped sources -> mediator)
///   cache-containment <n>        (RESULT; subset of cache-misses answered
///                                 by containment derivation)
///   calibration-cost <c>         (RESULT, when probes were charged)
///   complete <yes|no>            (RESULT; no = sound but degraded answer)
///   features <csv>               (HELLO; capabilities the server speaks)
///   stats <escaped line>         (0+; STATS — one exposition line each,
///                                 reassembled with newlines client-side)
///   explain <escaped line>       (0+; SUBMIT explain=yes — one annotated
///                                 plan line each)
///   end
///
/// Hardening: both parsers reject any line longer than
/// kMaxClientProtocolLineBytes with a clean kParseError — a peer streaming
/// an absurd sql/client line gets an ERROR response, never an allocation
/// storm or a crash.
struct ClientResponse {
  bool ok = true;
  StatusCode error_code = StatusCode::kOk;
  std::string error_message;

  std::string server;      // hello
  uint64_t ticket = 0;
  std::string state;       // queued|running|done|failed|cancelled (or empty)
  std::vector<Value> items;
  double cost = 0.0;
  size_t source_queries = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Merge-attribute items shipped to / from sources (bindings out, answer
  /// items back) — the bytes-moved proxy the cost model charges per item.
  size_t items_sent = 0;
  size_t items_received = 0;
  /// Subset of cache_misses whose answer was still derived locally from a
  /// containing cached entry (no source call).
  size_t cache_containment_hits = 0;
  double calibration_cost = 0.0;
  bool complete = true;
  /// HELLO: feature tokens the server understands.
  std::vector<std::string> features;
  /// STATS: the versioned exposition (obs/exposition.h), line by line.
  std::vector<std::string> stats_lines;
  /// SUBMIT explain=yes: the executed plan annotated with per-op timings,
  /// cache provenance, and metered cost, line by line.
  std::vector<std::string> explain_lines;
};

/// Longest line either FUSIONQ/1 parser accepts (64 KiB): a longer line is
/// rejected with kParseError, and no line is ever copied to be checked.
inline constexpr size_t kMaxClientProtocolLineBytes = 64 * 1024;
/// Receive cap on one whole FUSIONQ/1 frame at a server (fusionqd,
/// fusionrd): a peer streaming more without an `end` line is cut off.
inline constexpr size_t kMaxClientFrameBytes = 8 * kMaxClientProtocolLineBytes;

/// The feature tokens this build of the protocol speaks, advertised on
/// HELLO in both directions: FeatureSet::All().Names() from the registry
/// in protocol/features.h. A peer only *sends* optional fields (trace-id,
/// explain) or optional verbs (STATS, INVALIDATE) after the other side
/// advertised the matching token — unknown-field tolerance is the safety
/// net, negotiation is the contract.
std::vector<std::string> ClientProtocolFeatures();

std::string SerializeClientRequest(const ClientRequest& request);
Result<ClientRequest> ParseClientRequest(const std::string& text);

std::string SerializeClientResponse(const ClientResponse& response);
Result<ClientResponse> ParseClientResponse(const std::string& text);

/// The router's relay of a shard's whole response frame, without decoding
/// the answer: checks the header line, rewrites each nonzero `ticket` t to
/// (t << 8) | shard, and copies every other byte unchanged. The client's
/// ParseClientResponse still validates every line. kParseError for a bad
/// header, a bad ticket line, an oversized line or a missing `end`.
Result<std::string> RelayClientResponse(std::string_view frame, uint8_t shard);

/// Builds the ERROR response for `status` (which must not be OK).
ClientResponse ClientErrorResponse(const Status& status);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_CLIENT_PROTOCOL_H_

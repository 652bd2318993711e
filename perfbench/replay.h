#ifndef FUSION_PERFBENCH_REPLAY_H_
#define FUSION_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fusion {
namespace perfbench {

/// The traffic half of a workload: how many clients send what, and when.
/// Everything here is drawn from the benchmark's --seed; the dataset (the
/// federation and its query pool) is not.
struct TrafficSpec {
  size_t pool_size = 64;
  /// Popularity skew over the pool: rank r is asked ∝ 1/(r+1)^theta times
  /// (0 is uniform). Lists hold exact quotas in seeded order, so every seed
  /// asks the same multiset of queries.
  double zipf_theta = 1.1;
  size_t clients = 3;
  /// Warm-up: every client first sends its share of the whole pool (when
  /// `warm_covers_pool`), then this many popularity draws.
  size_t warmup_per_client = 0;
  bool warm_covers_pool = false;
  /// Timed requests for queries nothing asked before: pool indices from
  /// `pool_size` on, each sent once, at seeded positions. They are the
  /// steady trickle of new queries that keeps a warm cache paying some
  /// source cost, in the same amount whatever the seed.
  size_t fresh_per_client = 0;
  /// Closed loop: requests each client sends in the timed phase.
  size_t timed_per_client = 0;
  /// Closed loop: the timed lists run in blocks of this many requests per
  /// client (0 = one block, no invalidations). Every block starts with one
  /// INVALIDATE and a refill, so which requests follow an invalidation is
  /// fixed by the list, and every block asks the same multiset. The
  /// sources are named in a seeded order, every source once per cycle.
  size_t invalidate_every = 0;
  size_t num_sources = 8;
  /// Open loop (rate > 0): one seeded Poisson schedule of this many
  /// requests at this mean rate replaces the per-client timed lists.
  double open_rate_qps = 0.0;
  size_t open_requests = 0;
  /// Share of timed requests whose answers the oracle re-checks.
  double oracle_share = 0.1;
};

/// One closed-loop client's timed list.
struct ClientPlan {
  std::vector<size_t> requests;  // pool indices, in send order
  /// 1 where the answer to requests[i] goes to the oracle.
  std::vector<char> oracle;
};

/// The open-loop schedule: request k is due `due_s[k]` seconds after the
/// timed phase starts (ascending).
struct OpenPlan {
  std::vector<size_t> requests;
  std::vector<double> due_s;
  std::vector<char> oracle;
};

struct Traffic {
  std::vector<std::vector<size_t>> warmup;  // per client
  std::vector<ClientPlan> timed;            // closed loop; empty when open
  /// Closed loop: the source each block's INVALIDATE names, and the
  /// queries the client then re-asks, in this order: every distinct query
  /// of a block, ascending.
  std::vector<size_t> invalidate_sources;
  std::vector<size_t> refill;
  OpenPlan open;                            // open loop; empty when closed
};

/// Deterministic in (spec, seed): the same seed gives identical lists,
/// INVALIDATE positions and arrival times. Fresh requests always go to the
/// oracle.
Traffic MakeTraffic(const TrafficSpec& spec, uint64_t seed);

}  // namespace perfbench
}  // namespace fusion

#endif  // FUSION_PERFBENCH_REPLAY_H_

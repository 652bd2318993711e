#include "perfbench/replay.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace fusion {
namespace perfbench {
namespace {

// Salts for the per-component streams (see MixSeed).
constexpr uint64_t kWarmupSalt = 0x100;
constexpr uint64_t kTimedSalt = 0x200;
constexpr uint64_t kInvalidateSalt = 0x300;
constexpr uint64_t kOracleSalt = 0x400;
constexpr uint64_t kOpenSalt = 0x500;
constexpr uint64_t kFreshSalt = 0x600;

/// `n` pool indices whose counts follow the popularity law exactly
/// (largest-remainder rounding, ties to the more popular rank), in seeded
/// order. Every seed asks the same multiset of queries; only the order
/// differs, so counted metrics do not move with the seed.
std::vector<size_t> QuotaList(size_t pool, double theta, size_t n, Rng& rng) {
  std::vector<double> share(pool);
  double total = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    share[r] = std::pow(static_cast<double>(r + 1), -theta);
    total += share[r];
  }
  std::vector<size_t> count(pool);
  std::vector<std::pair<double, size_t>> remainder;
  size_t placed = 0;
  for (size_t r = 0; r < pool; ++r) {
    const double exact = share[r] / total * static_cast<double>(n);
    count[r] = static_cast<size_t>(exact);
    placed += count[r];
    remainder.emplace_back(-(exact - static_cast<double>(count[r])), r);
  }
  std::stable_sort(remainder.begin(), remainder.end());
  for (size_t k = 0; placed < n; ++k, ++placed) ++count[remainder[k].second];
  std::vector<size_t> list;
  list.reserve(n);
  for (size_t r = 0; r < pool; ++r) list.insert(list.end(), count[r], r);
  std::shuffle(list.begin(), list.end(), rng.engine());
  return list;
}

/// Deals `list` out in `parts` equal contiguous chunks.
std::vector<std::vector<size_t>> Deal(const std::vector<size_t>& list,
                                      size_t parts) {
  std::vector<std::vector<size_t>> out(parts);
  const size_t each = parts == 0 ? 0 : list.size() / parts;
  for (size_t c = 0; c < parts; ++c) {
    out[c].assign(list.begin() + c * each, list.begin() + (c + 1) * each);
  }
  return out;
}

std::vector<char> DrawOracle(size_t n, double share, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> flags(n);
  for (char& flag : flags) flag = rng.Bernoulli(share) ? 1 : 0;
  return flags;
}

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

/// Puts `count` fresh pool indices, starting at `first`, at seeded distinct
/// positions of `requests` and marks them for the oracle.
void PlaceFresh(size_t first, size_t count, uint64_t seed,
                std::vector<size_t>& requests, std::vector<char>& oracle) {
  Rng rng(seed);
  const std::vector<size_t> positions = Permutation(requests.size(), rng);
  for (size_t f = 0; f < count && f < positions.size(); ++f) {
    requests[positions[f]] = first + f;
    oracle[positions[f]] = 1;
  }
}

}  // namespace

Traffic MakeTraffic(const TrafficSpec& spec, uint64_t seed) {
  Traffic traffic;
  Rng warm_rng(MixSeed(seed, kWarmupSalt));
  const std::vector<size_t> cover = Permutation(spec.pool_size, warm_rng);
  const std::vector<std::vector<size_t>> draws =
      Deal(QuotaList(spec.pool_size, spec.zipf_theta,
                     spec.clients * spec.warmup_per_client, warm_rng),
           spec.clients);
  for (size_t c = 0; c < spec.clients; ++c) {
    std::vector<size_t> warmup;
    if (spec.warm_covers_pool) {
      for (size_t i = c; i < cover.size(); i += spec.clients) {
        warmup.push_back(cover[i]);
      }
    }
    warmup.insert(warmup.end(), draws[c].begin(), draws[c].end());
    traffic.warmup.push_back(std::move(warmup));
  }
  const size_t fresh_total = spec.clients * spec.fresh_per_client;
  if (spec.open_rate_qps > 0.0) {
    OpenPlan& open = traffic.open;
    Rng rng(MixSeed(seed, kOpenSalt));
    open.requests =
        QuotaList(spec.pool_size, spec.zipf_theta, spec.open_requests, rng);
    // Exponential inter-arrival gaps by inversion, from their own stream so
    // the arrival times do not shift when the request mix changes. The gaps
    // are scaled so the last request is due at exactly n / rate: every seed
    // offers the same mean rate, and only the burstiness varies.
    Rng arrivals(MixSeed(seed, kOpenSalt + 1));
    double t = 0.0;
    for (size_t k = 0; k < spec.open_requests; ++k) {
      t -= std::log(1.0 - arrivals.NextDouble());
      open.due_s.push_back(t);
    }
    const double scale =
        static_cast<double>(spec.open_requests) / spec.open_rate_qps / t;
    for (double& due : open.due_s) due *= scale;
    open.oracle = DrawOracle(spec.open_requests, spec.oracle_share,
                             MixSeed(seed, kOracleSalt));
    PlaceFresh(spec.pool_size, fresh_total, MixSeed(seed, kFreshSalt),
               open.requests, open.oracle);
    return traffic;
  }
  // With invalidations, every block between two of them holds the same
  // multiset, so the refills one invalidation causes do not vary with the
  // seed either.
  const size_t block = spec.invalidate_every > 0 ? spec.invalidate_every
                                                 : spec.timed_per_client;
  const size_t blocks = block == 0 ? 0 : spec.timed_per_client / block;
  Rng timed_rng(MixSeed(seed, kTimedSalt));
  std::vector<std::vector<size_t>> lists(spec.clients);
  std::vector<size_t> block_queries;
  for (size_t b = 0; b < blocks; ++b) {
    block_queries = QuotaList(spec.pool_size, spec.zipf_theta,
                              spec.clients * block, timed_rng);
    const std::vector<std::vector<size_t>> parts =
        Deal(block_queries, spec.clients);
    for (size_t c = 0; c < spec.clients; ++c) {
      lists[c].insert(lists[c].end(), parts[c].begin(), parts[c].end());
    }
  }
  for (size_t c = 0; c < spec.clients; ++c) {
    ClientPlan plan;
    plan.requests = std::move(lists[c]);
    plan.oracle = DrawOracle(plan.requests.size(), spec.oracle_share,
                             MixSeed(seed, kOracleSalt + c));
    PlaceFresh(spec.pool_size + c * spec.fresh_per_client,
               spec.fresh_per_client, MixSeed(seed, kFreshSalt + c),
               plan.requests, plan.oracle);
    traffic.timed.push_back(std::move(plan));
  }
  if (spec.invalidate_every > 0) {
    Rng inv(MixSeed(seed, kInvalidateSalt));
    const std::vector<size_t> order = Permutation(spec.num_sources, inv);
    for (size_t b = 0; b < blocks; ++b) {
      traffic.invalidate_sources.push_back(order[b % order.size()]);
    }
    traffic.refill = block_queries;
    std::sort(traffic.refill.begin(), traffic.refill.end());
    traffic.refill.erase(
        std::unique(traffic.refill.begin(), traffic.refill.end()),
        traffic.refill.end());
  }
  return traffic;
}

}  // namespace perfbench
}  // namespace fusion

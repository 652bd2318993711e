#ifndef FUSION_ROUTER_SHARD_MAP_H_
#define FUSION_ROUTER_SHARD_MAP_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace fusion {

/// One fusionqd shard of the fleet, as the router sees it.
struct Shard {
  std::string name;      // display name ("shard-0"; defaults from the index)
  std::string endpoint;  // host:port the shard's FUSIONQ/1 listener binds
};

/// FNV-1a, 64-bit. Spelled out (not std::hash) because routing must be
/// deterministic *across processes and restarts*: the shard a query key
/// lands on is where its plan memo and SourceCallCache warm up, and a
/// router restart must keep sending that key to the same shard.
uint64_t Fnv1a64(std::string_view text);

/// The routing key for one SUBMIT: the parsed query's canonicalized text
/// (same normalization the session plan-memo keys use, so two spellings of
/// one query land on one shard and replay one memo). Unparsable sql falls
/// back to the trimmed raw text — still deterministic, routed like any
/// other key, and the shard will produce the parse error.
std::string CanonicalQueryKey(const std::string& sql);

/// CanonicalQueryKey memoized per SQL text: a router sees the same texts
/// over and over, and each key costs a full parse. Bounded like the
/// router's warm-locality ledger: cleared wholesale past kMaxEntries texts.
/// Thread-safe.
class QueryKeyMemo {
 public:
  static constexpr size_t kMaxEntries = 64 * 1024;

  /// CanonicalQueryKey(sql), parsed once per text while it stays memoized.
  std::string Key(const std::string& sql);
  /// Texts memoized right now (for tests).
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> keys_;
};

/// The fleet membership plus the rendezvous (highest-random-weight) hash
/// that assigns every query key an owner shard. Rendezvous hashing gives
/// the two properties the fleet needs with no ring maintenance:
///
///  - determinism: owner(key) depends only on (key, shard names), so every
///    router replica — and a restarted router — agrees;
///  - minimal disruption: removing a shard only remaps the keys it owned
///    (each key's score per shard is independent), so a shard dying does
///    not cold-start the whole fleet's caches.
///
/// Ranked() returns all shards in descending score order — element 0 is
/// the owner, the rest are the failover order when the owner is down.
class ShardMap {
 public:
  /// Validates and builds: at least one shard, at most 256 (the router
  /// packs the shard index into the low byte of its tickets), non-empty
  /// unique names, non-empty endpoints. Empty names default to "shard-<i>".
  static Result<ShardMap> Make(std::vector<Shard> shards);

  size_t size() const { return shards_.size(); }
  const Shard& shard(size_t index) const { return shards_[index]; }

  /// All shard indices by descending rendezvous score for `key`
  /// (deterministic total order; ties broken by index).
  std::vector<size_t> Ranked(const std::string& key) const;

  /// The owner shard for `key` — Ranked(key)[0] without the allocation.
  size_t Owner(const std::string& key) const;

 private:
  ShardMap() = default;

  std::vector<Shard> shards_;
  /// Precomputed Fnv1a64(shard name), mixed per key at routing time.
  std::vector<uint64_t> name_hashes_;
};

}  // namespace fusion

#endif  // FUSION_ROUTER_SHARD_MAP_H_

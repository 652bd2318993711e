#include "router/shard_map.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/str_util.h"
#include "query/parser.h"

namespace fusion {

uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::string CanonicalQueryKey(const std::string& sql) {
  const Result<FusionQuery> query = ParseFusionQuery(sql);
  if (!query.ok()) return std::string(StrTrim(sql));
  // Condition order is irrelevant to a fusion query's answer, so it must be
  // irrelevant to routing too: key on the *sorted* canonical condition
  // texts, and commuted spellings land on one shard.
  const FusionQuery canonical = query->Canonicalized();
  std::vector<std::string> conditions;
  conditions.reserve(canonical.conditions().size());
  for (const Condition& cond : canonical.conditions()) {
    conditions.push_back(cond.CacheKey());
  }
  std::sort(conditions.begin(), conditions.end());
  std::string key = "fusion(" + canonical.merge_attribute() + ";";
  for (const std::string& cond : conditions) key += " " + cond + ",";
  key += ")";
  return key;
}

std::string QueryKeyMemo::Key(const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = keys_.find(sql);
    if (it != keys_.end()) return it->second;
  }
  std::string key = CanonicalQueryKey(sql);
  std::lock_guard<std::mutex> lock(mutex_);
  if (keys_.size() >= kMaxEntries) keys_.clear();
  keys_.emplace(sql, key);
  return key;
}

size_t QueryKeyMemo::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return keys_.size();
}

Result<ShardMap> ShardMap::Make(std::vector<Shard> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("shard map needs at least one shard");
  }
  if (shards.size() > 256) {
    return Status::InvalidArgument(
        "shard map supports at most 256 shards (the router encodes the "
        "shard index in the low byte of its tickets)");
  }
  std::set<std::string> names;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].name.empty()) {
      shards[i].name = "shard-" + std::to_string(i);
    }
    if (shards[i].endpoint.empty()) {
      return Status::InvalidArgument("shard '" + shards[i].name +
                                     "' has no endpoint");
    }
    if (!names.insert(shards[i].name).second) {
      return Status::InvalidArgument("duplicate shard name '" +
                                     shards[i].name + "'");
    }
  }
  ShardMap map;
  map.shards_ = std::move(shards);
  map.name_hashes_.reserve(map.shards_.size());
  for (const Shard& shard : map.shards_) {
    map.name_hashes_.push_back(Fnv1a64(shard.name));
  }
  return map;
}

namespace {

/// The rendezvous score of (key, shard): both hashes mixed through the
/// same avalanche MixSeed the rest of the system uses for seeded
/// derivation. Scores for different shards are independent, which is what
/// makes removal disruption minimal.
uint64_t Score(uint64_t key_hash, uint64_t name_hash) {
  return MixSeed(name_hash, key_hash);
}

}  // namespace

std::vector<size_t> ShardMap::Ranked(const std::string& key) const {
  const uint64_t key_hash = Fnv1a64(key);
  std::vector<size_t> order(shards_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const uint64_t sa = Score(key_hash, name_hashes_[a]);
    const uint64_t sb = Score(key_hash, name_hashes_[b]);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  return order;
}

size_t ShardMap::Owner(const std::string& key) const {
  const uint64_t key_hash = Fnv1a64(key);
  size_t best = 0;
  uint64_t best_score = Score(key_hash, name_hashes_[0]);
  for (size_t i = 1; i < shards_.size(); ++i) {
    const uint64_t score = Score(key_hash, name_hashes_[i]);
    if (score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

}  // namespace fusion

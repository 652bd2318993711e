#include "exec/source_call_cache.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusion {

namespace {

/// Fixed per-entry overhead charged against the byte budget on top of the
/// payload: map/list node headers, the Entry struct, control blocks. An
/// estimate — the budget is about bounding growth, not allocator accounting.
constexpr size_t kEntryOverhead = 128;

}  // namespace

/// Rendezvous state for one in-flight source call. `settled` flips exactly
/// once — when the leader fulfills or abandons — and waiters re-check the
/// memo under the cache mutex afterwards. `version` snapshots the source's
/// invalidation epoch at flight creation: a publish under a newer epoch is
/// dropped, so an answer fetched before Invalidate() cannot resurrect.
struct SourceCallCache::FlightGuard::Flight {
  std::condition_variable cv;
  bool settled = false;
  uint64_t version = 0;
};

SourceCallCache::FlightGuard::FlightGuard(FlightGuard&& other) noexcept
    : cache_(other.cache_),
      pinned_(std::move(other.pinned_)),
      cached_(other.cached_),
      key_(std::move(other.key_)),
      flight_(std::move(other.flight_)) {
  other.cache_ = nullptr;
  other.cached_ = nullptr;
}

SourceCallCache::FlightGuard::~FlightGuard() {
  if (cache_ != nullptr && flight_ != nullptr) {
    // Leader bailed without publishing (the call failed): abandon the flight
    // so a waiter can be promoted and retry the call itself.
    cache_->SettleFlight(key_, flight_, nullptr);
  }
}

void SourceCallCache::FlightGuard::Fulfill(const ItemSet& items) {
  if (cache_ == nullptr || flight_ == nullptr) return;
  cache_->SettleFlight(key_, flight_, &items);
  flight_.reset();
}

uint64_t SourceCallCache::VersionLocked(size_t source) {
  if (source >= versions_.size()) versions_.resize(source + 1, 0);
  return versions_[source];
}

bool SourceCallCache::ExpiredLocked(const Entry& entry) const {
  return options_.ttl_seconds > 0.0 &&
         std::chrono::steady_clock::now() >= entry.expires;
}

SourceCallCache::Entry* SourceCallCache::FindLocked(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (ExpiredLocked(it->second)) {
    ++evictions_;
    static Counter& evictions =
        MetricsRegistry::Global().counter(metrics::kCacheEvictions);
    evictions.Increment();
    EraseLocked(it);
    PublishGauges();
    return nullptr;
  }
  return &it->second;
}

void SourceCallCache::TouchLocked(Entry& entry, const Key& /*key*/) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void SourceCallCache::EraseLocked(std::map<Key, Entry>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

void SourceCallCache::EvictOverBudgetLocked() {
  static Counter& evictions =
      MetricsRegistry::Global().counter(metrics::kCacheEvictions);
  while (options_.max_bytes > 0 && bytes_ > options_.max_bytes &&
         !lru_.empty()) {
    // Coldest first; a just-inserted entry larger than the whole budget
    // evicts itself — the budget is a hard invariant, not advisory.
    auto it = entries_.find(lru_.back());
    ++evictions_;
    evictions.Increment();
    EraseLocked(it);
  }
}

void SourceCallCache::InsertLocked(Key key, Entry entry) {
  entry.bytes += key.text.size() + kEntryOverhead;
  // A preset expiry is a merged entry's inherited one; keep it.
  if (options_.ttl_seconds > 0.0 &&
      entry.expires == std::chrono::steady_clock::time_point{}) {
    entry.expires = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(options_.ttl_seconds));
  }
  lru_.push_front(key);
  entry.lru = lru_.begin();
  bytes_ += entry.bytes;
  entries_.emplace(std::move(key), std::move(entry));
  EvictOverBudgetLocked();
  PublishGauges();
}

void SourceCallCache::PublishGauges() const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Gauge& bytes = registry.gauge(metrics::kCacheBytes);
  static Gauge& entries = registry.gauge(metrics::kCacheEntries);
  bytes.Set(static_cast<double>(bytes_));
  entries.Set(static_cast<double>(entries_.size()));
}

SourceCallCache::FlightGuard SourceCallCache::BeginFlight(
    size_t source, const std::string& cond_key) {
  std::pair<size_t, std::string> flight_key{source, cond_key};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (Entry* hit = FindLocked(Key{source, Kind::kSq, cond_key});
        hit != nullptr) {
      ++hits_;
      TouchLocked(*hit, Key{});
      return FlightGuard(this, hit->items, std::move(flight_key), nullptr);
    }
    auto it = inflight_.find(flight_key);
    if (it == inflight_.end()) {
      auto flight = std::make_shared<FlightGuard::Flight>();
      flight->version = VersionLocked(source);
      inflight_.emplace(flight_key, flight);
      ++misses_;
      return FlightGuard(this, nullptr, std::move(flight_key),
                         std::move(flight));
    }
    // Someone else is already asking the source this exact question; wait
    // for their answer instead of issuing a duplicate call. (Tracer::Record
    // only takes its own shard mutex, so spanning the wait while holding
    // mu_ cannot deadlock.)
    ++flights_deduplicated_;
    static Counter& waits =
        MetricsRegistry::Global().counter(metrics::kCacheFlightWaits);
    waits.Increment();
    ScopedSpan span(SpanCategory::kCache, "cache.wait");
    if (span.active()) span.AddAttr("cond", flight_key.second);
    std::shared_ptr<FlightGuard::Flight> flight = it->second;
    flight->cv.wait(lock, [&] { return flight->settled; });
    // Loop: on fulfill the memo now hits; on abandon (or a dropped stale
    // publish) this caller competes for leadership of a fresh flight.
  }
}

void SourceCallCache::SettleFlight(
    const std::pair<size_t, std::string>& key,
    const std::shared_ptr<FlightGuard::Flight>& flight, const ItemSet* items) {
  std::unique_lock<std::mutex> lock(mu_);
  // Publish only when the source's version still matches the one this
  // flight launched under — Invalidate()/Clear() in between means the
  // answer may be stale, so it is discarded (waiters retry fresh).
  if (items != nullptr && VersionLocked(key.first) == flight->version) {
    Key cache_key{key.first, Kind::kSq, key.second};
    if (entries_.find(cache_key) == entries_.end()) {  // first writer wins
      Entry entry;
      entry.items = std::make_shared<const ItemSet>(*items);
      entry.bytes = entry.items->ApproxBytes();
      InsertLocked(std::move(cache_key), std::move(entry));
    }
  }
  auto it = inflight_.find(key);
  if (it != inflight_.end() && it->second == flight) {
    inflight_.erase(it);
  }
  flight->settled = true;
  flight->cv.notify_all();
}

std::shared_ptr<const ItemSet> SourceCallCache::DeriveSelect(
    size_t source, const Condition& cond, const std::string& merge_attribute) {
  std::shared_ptr<const Relation> relation;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Entry* entry = FindLocked(Key{source, Kind::kLq, ""});
    if (entry == nullptr) return nullptr;
    relation = entry->relation;
    TouchLocked(*entry, Key{});
  }
  // Local evaluation happens outside the lock: it scans the whole relation,
  // and the relation is immutable once cached.
  Result<ItemSet> selected = relation->SelectItems(cond, merge_attribute);
  if (!selected.ok()) return nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++containment_hits_;
  }
  return std::make_shared<const ItemSet>(std::move(selected).value());
}

std::shared_ptr<const ItemSet> SourceCallCache::FindSemiJoin(
    size_t source, const Condition& cond, const std::string& cond_key,
    const std::string& merge_attribute, const ItemSet& candidates,
    bool* containment_derived) {
  *containment_derived = false;
  // Set algebra runs outside mu_: entries hold immutable shared sets, so a
  // copied pointer stays valid and its contents cannot change. Only the
  // lookups, LRU touches and counters hold the lock.
  const Key anchor_key{source, Kind::kSjq, cond_key};
  std::shared_ptr<const ItemSet> anchor_items;
  std::shared_ptr<const ItemSet> anchor_candidates;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (Entry* entry = FindLocked(anchor_key);
        entry != nullptr && entry->candidates != nullptr) {
      anchor_items = entry->items;
      anchor_candidates = entry->candidates;
    }
  }
  if (anchor_candidates != nullptr &&
      candidates.IsSubsetOf(*anchor_candidates)) {
    // Subset of equal size = the very same candidate set: exact hit.
    const bool exact = candidates.size() == anchor_candidates->size();
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Touch the anchor unless a merge or eviction replaced it meanwhile.
      if (auto it = entries_.find(anchor_key);
          it != entries_.end() && it->second.items == anchor_items) {
        TouchLocked(it->second, Key{});
      }
      if (exact) {
        ++hits_;
      } else {
        ++misses_;
        ++containment_hits_;
      }
    }
    if (exact) return anchor_items;
    // sjq(c, R, X) with X ⊆ Y from the cached sjq(c, R, Y): the stored
    // answer is sq(c, R) ∩ Y, so intersecting with X yields sq(c, R) ∩ X.
    *containment_derived = true;
    return std::make_shared<const ItemSet>(
        ItemSet::Intersect(*anchor_items, candidates));
  }
  std::shared_ptr<const ItemSet> sq_items;
  std::shared_ptr<const Relation> relation;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (Entry* entry = FindLocked(Key{source, Kind::kSq, cond_key});
        entry != nullptr) {
      TouchLocked(*entry, Key{});
      ++misses_;
      ++containment_hits_;
      sq_items = entry->items;
    } else if (Entry* entry = FindLocked(Key{source, Kind::kLq, ""});
               entry != nullptr) {
      relation = entry->relation;
      TouchLocked(*entry, Key{});
    }
  }
  if (sq_items != nullptr) {
    // sjq(c, R, X) = sq(c, R) ∩ X by definition.
    *containment_derived = true;
    return std::make_shared<const ItemSet>(
        ItemSet::Intersect(*sq_items, candidates));
  }
  if (relation != nullptr) {
    Result<ItemSet> selected = relation->SelectItems(cond, merge_attribute);
    if (selected.ok()) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++misses_;
        ++containment_hits_;
      }
      *containment_derived = true;
      return std::make_shared<const ItemSet>(
          ItemSet::Intersect(*selected, candidates));
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++misses_;
  return nullptr;
}

void SourceCallCache::InsertSemiJoin(size_t source, std::string cond_key,
                                     ItemSet candidates, ItemSet result,
                                     uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  // Invalidate()/Clear() since the caller read `version`: the answer may be
  // stale, and a merged anchor would keep it until the next invalidation.
  if (VersionLocked(source) != version) return;
  Key key{source, Kind::kSjq, std::move(cond_key)};
  Entry entry;
  if (auto it = entries_.find(key); it != entries_.end()) {
    if (!ExpiredLocked(it->second)) {
      // sjq(c, R, X₁) ∪ sjq(c, R, X₂) = sq(c, R) ∩ (X₁ ∪ X₂): the union
      // pair answers every candidate set either anchor did. Both parts were
      // published under the current version, so neither is stale. Union
      // builds exact-size sets: the byte budget is charged by capacity, and
      // in-place growth would leave spare capacity on every merge.
      const Entry& old = it->second;
      candidates = ItemSet::Union(candidates, *old.candidates);
      result = ItemSet::Union(result, *old.items);
      entry.expires = old.expires;  // the older part bounds freshness
    }
    EraseLocked(it);
  }
  entry.items = std::make_shared<const ItemSet>(std::move(result));
  entry.candidates = std::make_shared<const ItemSet>(std::move(candidates));
  entry.bytes = entry.items->ApproxBytes() + entry.candidates->ApproxBytes();
  InsertLocked(std::move(key), std::move(entry));
}

std::shared_ptr<const Relation> SourceCallCache::LookupLoad(size_t source) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry* entry = FindLocked(Key{source, Kind::kLq, ""});
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  TouchLocked(*entry, Key{});
  return entry->relation;
}

void SourceCallCache::InsertLoad(size_t source, Relation relation,
                                 uint64_t version) {
  std::unique_lock<std::mutex> lock(mu_);
  if (VersionLocked(source) != version) return;  // invalidated mid-call
  Key key{source, Kind::kLq, ""};
  if (entries_.find(key) != entries_.end()) return;  // first writer wins
  Entry entry;
  entry.relation = std::make_shared<const Relation>(std::move(relation));
  // Cached relations are scanned repeatedly by containment derivation
  // (DeriveSelect): build the columnar mirror up front so (a) those scans
  // take the batch path from the first hit and (b) the byte budget accounts
  // for the mirror's residency, not just the row store.
  entry.relation->WarmColumnar();
  entry.bytes = entry.relation->ApproxBytes();
  InsertLocked(std::move(key), std::move(entry));
}

std::shared_ptr<const ItemSet> SourceCallCache::Lookup(
    size_t source, const std::string& cond_key) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry* entry = FindLocked(Key{source, Kind::kSq, cond_key});
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  TouchLocked(*entry, Key{});
  return entry->items;
}

void SourceCallCache::Insert(size_t source, std::string cond_key,
                             ItemSet items) {
  std::unique_lock<std::mutex> lock(mu_);
  Key key{source, Kind::kSq, std::move(cond_key)};
  if (entries_.find(key) != entries_.end()) return;  // first writer wins
  Entry entry;
  entry.items = std::make_shared<const ItemSet>(std::move(items));
  entry.bytes = entry.items->ApproxBytes();
  InsertLocked(std::move(key), std::move(entry));
}

void SourceCallCache::Invalidate(size_t source) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.lower_bound(Key{source, Kind::kSq, ""});
  while (it != entries_.end() && it->first.source == source) {
    auto next = std::next(it);
    EraseLocked(it);
    it = next;
  }
  // Bump the version so flights begun before this point cannot publish.
  VersionLocked(source);
  ++versions_[source];
  ++invalidations_;
  static Counter& invalidations =
      MetricsRegistry::Global().counter(metrics::kCacheInvalidations);
  invalidations.Increment();
  PublishGauges();
}

void SourceCallCache::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
  for (uint64_t& version : versions_) ++version;
  hits_ = 0;
  misses_ = 0;
  containment_hits_ = 0;
  evictions_ = 0;
  invalidations_ = 0;
  flights_deduplicated_ = 0;
  PublishGauges();
}

uint64_t SourceCallCache::version(size_t source) const {
  std::unique_lock<std::mutex> lock(mu_);
  return source < versions_.size() ? versions_[source] : 0;
}

bool SourceCallCache::ContainsSelect(size_t source,
                                     const std::string& cond_key) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(Key{source, Kind::kSq, cond_key});
  return it != entries_.end() && !ExpiredLocked(it->second);
}

bool SourceCallCache::ContainsLoad(size_t source) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(Key{source, Kind::kLq, ""});
  return it != entries_.end() && !ExpiredLocked(it->second);
}

bool SourceCallCache::ContainsSemiJoin(size_t source,
                                       const std::string& cond_key) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(Key{source, Kind::kSjq, cond_key});
  return it != entries_.end() && !ExpiredLocked(it->second);
}

size_t SourceCallCache::hits() const {
  std::unique_lock<std::mutex> lock(mu_);
  return hits_;
}

size_t SourceCallCache::misses() const {
  std::unique_lock<std::mutex> lock(mu_);
  return misses_;
}

size_t SourceCallCache::containment_hits() const {
  std::unique_lock<std::mutex> lock(mu_);
  return containment_hits_;
}

size_t SourceCallCache::evictions() const {
  std::unique_lock<std::mutex> lock(mu_);
  return evictions_;
}

size_t SourceCallCache::invalidations() const {
  std::unique_lock<std::mutex> lock(mu_);
  return invalidations_;
}

size_t SourceCallCache::entries() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

size_t SourceCallCache::bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  return bytes_;
}

size_t SourceCallCache::flights_deduplicated() const {
  std::unique_lock<std::mutex> lock(mu_);
  return flights_deduplicated_;
}

SourceCallCache::Stats SourceCallCache::StatsSnapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.containment_hits = containment_hits_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.flights_deduplicated = flights_deduplicated_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace fusion

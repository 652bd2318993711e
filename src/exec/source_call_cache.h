#ifndef FUSION_EXEC_SOURCE_CALL_CACHE_H_
#define FUSION_EXEC_SOURCE_CALL_CACHE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/item_set.h"
#include "relational/condition.h"
#include "relational/relation.h"

namespace fusion {

/// Cross-query memo of source-call answers: sq, sjq, and lq results keyed by
/// (source index, canonical condition text). Eliminates repeated identical
/// source queries across plans and across the queries of a session — the
/// runtime counterpart of the common-subexpression elimination that Section 5
/// says resolution-based mediators would need at plan time, and the main
/// amortization lever under the ROADMAP's heavy repeated traffic.
///
/// Beyond exact-key reuse the cache performs **containment reuse**, all free
/// per the paper's cost model (local mediator work costs nothing):
///  - sjq(c, R, X) from a cached sjq(c, R, Y) with X ⊆ Y: result ∩ X;
///  - sjq(c, R, X) from a cached sq(c, R): answer ∩ X;
///  - sq(c, R) and sjq(c, R, X) from a cached lq(R): evaluate c locally.
/// All rules are sound for deterministic sources: a derived answer is
/// byte-identical to what the source would have returned (tested).
///
/// Resource bounds: entries are LRU-evicted once `Options::max_bytes` is
/// exceeded (the budget is a hard invariant, checked after every insert) and
/// lazily expired after `Options::ttl_seconds`. Entries are handed out as
/// shared_ptr, so eviction never invalidates an answer a caller still holds.
///
/// Invalidation: every source carries a version. Invalidate(source) erases
/// the source's entries and bumps its version; an in-flight call that began
/// under the old version completes normally but its publish is dropped, so
/// stale answers can neither linger nor race their way back in. The fence
/// covers every publish: sq flights snapshot the version when they begin,
/// and sjq / lq callers read version(source) before the source call and hand
/// it to InsertSemiJoin / InsertLoad. Clear() is Invalidate for every source
/// plus a stats reset; both are safe to call while executions are running
/// (flights are abandoned, never poisoned).
///
/// Thread-safety: every method is internally synchronized, so one cache can
/// be shared by concurrently running executions (parallel plan workers, or
/// whole plans racing in different threads). Identical in-flight sq calls
/// are deduplicated ("single-flight"): the first caller of BeginFlight for a
/// key becomes the *leader* and performs the source call; callers arriving
/// while the call is outstanding block until the leader publishes, then read
/// the memoized answer without contacting the source. If the leader's call
/// fails the flight is abandoned and one waiter is promoted to leader (a
/// failed call must not poison the key).
class SourceCallCache {
 public:
  struct Options {
    /// Byte budget across all entries; 0 = unbounded. Enforced by LRU
    /// eviction immediately after every insert.
    size_t max_bytes = 0;
    /// Entry time-to-live in seconds; 0 = never expires. Expiry is checked
    /// lazily at lookup.
    double ttl_seconds = 0.0;
  };

  /// Point-in-time counters; see the individual accessors.
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t containment_hits = 0;
    size_t evictions = 0;
    size_t invalidations = 0;
    size_t flights_deduplicated = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };

  SourceCallCache() = default;
  explicit SourceCallCache(const Options& options) : options_(options) {}

  // Cache identity matters (the executor holds a pointer); not copyable.
  SourceCallCache(const SourceCallCache&) = delete;
  SourceCallCache& operator=(const SourceCallCache&) = delete;

  /// RAII handle for one single-flight participation (sq calls). Exactly one
  /// of two states: `cached() != nullptr` (answer available, use it) or
  /// leader (cached() == nullptr): the caller must perform the source call
  /// and either Fulfill(answer) or drop the guard, which abandons the flight
  /// and lets a waiter retry.
  class FlightGuard {
   public:
    FlightGuard(FlightGuard&& other) noexcept;
    FlightGuard& operator=(FlightGuard&&) = delete;
    FlightGuard(const FlightGuard&) = delete;
    FlightGuard& operator=(const FlightGuard&) = delete;
    ~FlightGuard();

    /// The memoized answer, or null when this caller is the flight leader.
    /// The pointer is pinned by the guard (eviction cannot free it) and
    /// stays valid for the guard's lifetime.
    const ItemSet* cached() const { return cached_; }

    /// Leader only: publishes the answer and wakes all waiters. The publish
    /// is dropped (waiters still wake) if the source was invalidated after
    /// this flight began.
    void Fulfill(const ItemSet& items);

   private:
    friend class SourceCallCache;
    struct Flight;
    FlightGuard(SourceCallCache* cache,
                std::shared_ptr<const ItemSet> pinned,
                std::pair<size_t, std::string> key,
                std::shared_ptr<Flight> flight)
        : cache_(cache),
          pinned_(std::move(pinned)),
          cached_(pinned_.get()),
          key_(std::move(key)),
          flight_(std::move(flight)) {}

    SourceCallCache* cache_ = nullptr;
    std::shared_ptr<const ItemSet> pinned_;
    const ItemSet* cached_ = nullptr;
    std::pair<size_t, std::string> key_;
    std::shared_ptr<Flight> flight_;  // non-null iff this guard leads
  };

  /// Single-flight entry point for sq: returns a cache hit, or waits out
  /// another thread's identical in-flight call, or makes the caller the
  /// leader. Counts a hit when an answer is (eventually) served from the
  /// memo and a miss when the caller is told to perform the call itself.
  FlightGuard BeginFlight(size_t source, const std::string& cond_key);

  /// Containment fallback for a leading sq flight: derives sq(cond, R) from
  /// a cached lq(R) by evaluating the condition locally. Null when the
  /// relation is not cached (or local evaluation fails). Counts a
  /// containment hit on success; the caller still publishes via Fulfill so
  /// waiters and future lookups get the exact entry.
  std::shared_ptr<const ItemSet> DeriveSelect(
      size_t source, const Condition& cond,
      const std::string& merge_attribute);

  /// Answers sjq(cond, R_source, candidates) from the memo: an exact sjq
  /// entry, a same-condition sjq entry over a candidate superset, a cached
  /// sq answer, or a cached relation — in that order. Null on a miss.
  /// `*containment_derived` is set true when the answer was derived rather
  /// than stored verbatim (callers report these separately). The subset
  /// test and the intersections run outside the cache mutex, so concurrent
  /// callers serialize only on the lookups and counters.
  std::shared_ptr<const ItemSet> FindSemiJoin(size_t source,
                                              const Condition& cond,
                                              const std::string& cond_key,
                                              const std::string& merge_attribute,
                                              const ItemSet& candidates,
                                              bool* containment_derived);

  /// Memoizes a semijoin answer with the candidate set it was computed for.
  /// Anchors accumulate: an existing anchor (X_old, Y_old) for the key
  /// becomes (X_old ∪ X, Y_old ∪ Y). That is exact, since
  /// sjq(c, R, X₁) ∪ sjq(c, R, X₂) = sq(c, R) ∩ (X₁ ∪ X₂), so queries that
  /// share a condition extend one anchor instead of overwriting each other's.
  /// The merged entry keeps the older part's TTL expiry. Dropped when
  /// `version` (read via version(source) before the source call) is stale.
  void InsertSemiJoin(size_t source, std::string cond_key, ItemSet candidates,
                      ItemSet result, uint64_t version);

  /// Returns the cached relation for lq(R_source), or null.
  std::shared_ptr<const Relation> LookupLoad(size_t source);

  /// Memoizes a loaded relation. First writer wins. Dropped when `version`
  /// (read via version(source) before the source call) is stale.
  void InsertLoad(size_t source, Relation relation, uint64_t version);

  /// The source's invalidation epoch: bumped by every Invalidate(source) and
  /// Clear(). Read it before a source call whose answer is published through
  /// InsertSemiJoin / InsertLoad.
  uint64_t version(size_t source) const;

  /// Returns the cached answer for sq(cond_key, R_source), or null. Does not
  /// wait on in-flight calls (plain memo read).
  std::shared_ptr<const ItemSet> Lookup(size_t source,
                                        const std::string& cond_key);

  /// Memoizes an sq answer. First writer wins: an existing entry is kept
  /// (identical for deterministic sources).
  void Insert(size_t source, std::string cond_key, ItemSet items);

  /// Drops every cached answer for one source and bumps its version so
  /// in-flight calls begun before the invalidation cannot publish stale
  /// answers. Safe to call concurrently with running executions.
  void Invalidate(size_t source);

  /// Invalidates every source and resets the statistics counters. Safe to
  /// call concurrently with running executions (in-flight calls complete
  /// but publish nothing).
  void Clear();

  /// Planner probes (no statistics ticked, no LRU touch): whether the memo
  /// can answer sq(cond_key, R_source) exactly / holds lq(R_source) / holds
  /// a semijoin anchor for (cond_key, R_source) — an sjq entry that answers
  /// any contained candidate set.
  bool ContainsSelect(size_t source, const std::string& cond_key) const;
  bool ContainsLoad(size_t source) const;
  bool ContainsSemiJoin(size_t source, const std::string& cond_key) const;

  /// Exact-key answers served from the memo.
  size_t hits() const;
  /// Lookups the memo could not answer exactly. Containment hits are a
  /// subset of misses: the exact key missed but the answer was still
  /// derived locally without a source call.
  size_t misses() const;
  size_t containment_hits() const;
  size_t evictions() const;
  size_t invalidations() const;
  size_t entries() const;
  size_t bytes() const;
  const Options& options() const { return options_; }
  /// Times a caller blocked on (deduplicated into) another caller's
  /// identical in-flight source call.
  size_t flights_deduplicated() const;
  Stats StatsSnapshot() const;

 private:
  enum class Kind : uint8_t { kSq = 0, kSjq = 1, kLq = 2 };

  struct Key {
    size_t source = 0;
    Kind kind = Kind::kSq;
    std::string text;  // canonical condition text; empty for lq

    bool operator<(const Key& o) const {
      if (source != o.source) return source < o.source;
      if (kind != o.kind) return kind < o.kind;
      return text < o.text;
    }
  };

  struct Entry {
    std::shared_ptr<const ItemSet> items;       // sq / sjq answers
    std::shared_ptr<const ItemSet> candidates;  // sjq only: the X it answers
    std::shared_ptr<const Relation> relation;   // lq only
    size_t bytes = 0;
    std::chrono::steady_clock::time_point expires{};  // used iff ttl > 0
    std::list<Key>::iterator lru;
  };

  /// All Locked helpers require mu_ held.
  Entry* FindLocked(const Key& key);
  void InsertLocked(Key key, Entry entry);
  void EraseLocked(std::map<Key, Entry>::iterator it);
  void EvictOverBudgetLocked();
  void TouchLocked(Entry& entry, const Key& key);
  bool ExpiredLocked(const Entry& entry) const;
  uint64_t VersionLocked(size_t source);
  void PublishGauges() const;  // requires mu_ held (reads bytes_/entries_)

  void SettleFlight(const std::pair<size_t, std::string>& key,
                    const std::shared_ptr<FlightGuard::Flight>& flight,
                    const ItemSet* items);

  Options options_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  /// Intrusive recency order, front = most recently used. Entries hold their
  /// own list iterator, so a hit is one splice.
  std::list<Key> lru_;
  /// Per-source entry versions; grown on first use of a source index.
  std::vector<uint64_t> versions_;
  std::map<std::pair<size_t, std::string>, std::shared_ptr<FlightGuard::Flight>>
      inflight_;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t containment_hits_ = 0;
  size_t evictions_ = 0;
  size_t invalidations_ = 0;
  size_t flights_deduplicated_ = 0;
};

}  // namespace fusion

#endif  // FUSION_EXEC_SOURCE_CALL_CACHE_H_

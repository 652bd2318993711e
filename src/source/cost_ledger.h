#ifndef FUSION_SOURCE_COST_LEDGER_H_
#define FUSION_SOURCE_COST_LEDGER_H_

#include <string>
#include <vector>

namespace fusion {

/// Kinds of metered source interactions.
enum class ChargeKind {
  kSelect,
  kSemiJoin,
  kEmulatedSemiJoinProbe,  // one `c AND M = m` probe of an emulated semijoin
  kLoad,
  kFetchRecords,  // second-phase record retrieval
};

const char* ChargeKindName(ChargeKind kind);

/// One metered source query: who was asked what, how much data moved, and
/// what it cost under that source's NetworkProfile.
struct Charge {
  std::string source;
  ChargeKind kind = ChargeKind::kSelect;
  std::string detail;        // e.g. the condition text
  size_t items_sent = 0;     // mediator -> source
  size_t items_received = 0; // source -> mediator
  size_t tuples_scanned = 0; // source-side work
  double cost = 0.0;
};

/// True for the charge a failed attempt leaves: the request round trip was
/// paid but no answer came back (FlakySource details it "FAILED <op>").
inline bool IsFailedAttempt(const Charge& charge) {
  return charge.detail.rfind("FAILED", 0) == 0;
}

/// Accumulates the actual cost of executing a plan: every wrapper call
/// appends a Charge. The paper's cost of a plan is exactly `total()` —
/// the sum of the constituent source-query costs (local mediator ops are
/// free by assumption).
///
/// Threading contract: a ledger is single-thread-confined — Add/MergeFrom
/// are unsynchronized read-modify-writes (charges_ grows, total_
/// accumulates), so concurrent accumulation into one ledger is a data race.
/// Concurrent executors must give each worker (the parallel plan executor:
/// each *op*) a private sub-ledger and MergeFrom them after joining, in a
/// deterministic order; merging charge-by-charge keeps even the
/// floating-point total identical to the equivalent sequential accumulation.
class CostLedger {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = default;
  CostLedger& operator=(const CostLedger&) = default;
  /// Moves leave the source cleared (not just unspecified), so a sub-ledger
  /// already consumed by MergeFrom reads as empty — merging it again is a
  /// no-op rather than a double charge.
  CostLedger(CostLedger&& other) noexcept;
  CostLedger& operator=(CostLedger&& other) noexcept;

  void Add(Charge charge);

  /// Appends every charge of `other`, in order, as if Add had been called
  /// for each — the join step for per-worker sub-ledgers.
  void MergeFrom(CostLedger other);

  double total() const { return total_; }
  size_t num_queries() const { return charges_.size(); }
  size_t total_items_sent() const;
  size_t total_items_received() const;
  const std::vector<Charge>& charges() const { return charges_; }

  void Clear();

  /// Multi-line human-readable account of every charge plus the total.
  std::string Report() const;

 private:
  std::vector<Charge> charges_;
  double total_ = 0.0;
};

}  // namespace fusion

#endif  // FUSION_SOURCE_COST_LEDGER_H_

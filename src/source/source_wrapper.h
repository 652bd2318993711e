#ifndef FUSION_SOURCE_SOURCE_WRAPPER_H_
#define FUSION_SOURCE_SOURCE_WRAPPER_H_

#include <string>

#include "common/item_set.h"
#include "common/status.h"
#include "relational/condition.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "source/capabilities.h"
#include "source/cost_ledger.h"

namespace fusion {

class SimulatedSource;

/// The interface every source exports to the mediator (Section 2.1): a named
/// relation behind a wrapper that answers selection queries and (capability
/// permitting) semijoin queries, plus the lq / record-fetch extensions used
/// by postoptimization and two-phase processing.
///
/// Every call meters its actual cost into `ledger` (if non-null); that is the
/// ground truth against which estimated plan costs are compared.
///
/// Thread-safety contract (relied on by the parallel plan executor):
/// metadata accessors are immutable after construction, and query methods
/// must tolerate concurrent invocation — implementations guard their own
/// mutable state (SimulatedSource's lazy indexes, FlakySource's failure
/// stream, RemoteSource's transport). The *ledger* is caller-owned and
/// single-thread-confined: concurrent callers must pass distinct ledgers
/// (the parallel executor passes per-op sub-ledgers and merges at join).
class SourceWrapper {
 public:
  virtual ~SourceWrapper() = default;

  virtual const std::string& name() const = 0;
  virtual const Schema& schema() const = 0;
  virtual const Capabilities& capabilities() const = 0;

  /// sq(c, R): the set of merge-attribute values of tuples satisfying `cond`.
  virtual Result<ItemSet> Select(const Condition& cond,
                                 const std::string& merge_attribute,
                                 CostLedger* ledger) = 0;

  /// sjq(c, R, X): the subset of `candidates` appearing in tuples satisfying
  /// `cond`. Fails with kUnsupported unless capabilities().semijoin is
  /// kNative — emulation is the *mediator's* job (see exec/ executor).
  virtual Result<ItemSet> SemiJoin(const Condition& cond,
                                   const std::string& merge_attribute,
                                   const ItemSet& candidates,
                                   CostLedger* ledger) = 0;

  /// lq(R): ships the entire relation to the mediator.
  virtual Result<Relation> Load(CostLedger* ledger) = 0;

  /// Second-phase retrieval: full records of the given items.
  virtual Result<Relation> FetchRecords(const std::string& merge_attribute,
                                        const ItemSet& items,
                                        CostLedger* ledger) = 0;

  /// Oracle hook (no RTTI in this codebase): non-null when the wrapper is a
  /// SimulatedSource, enabling perfect-information statistics in controlled
  /// experiments. Real deployments return the default null.
  virtual const SimulatedSource* AsSimulated() const { return nullptr; }
};

}  // namespace fusion

#endif  // FUSION_SOURCE_SOURCE_WRAPPER_H_

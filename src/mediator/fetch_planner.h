#ifndef FUSION_MEDIATOR_FETCH_PLANNER_H_
#define FUSION_MEDIATOR_FETCH_PLANNER_H_

#include <vector>

#include "common/item_set.h"
#include "common/status.h"

namespace fusion {

/// One second-phase request: fetch full records for `items` from the source
/// with the given catalog index.
struct FetchAssignment {
  size_t source = 0;
  ItemSet items;
};

/// Plans the second phase of two-phase processing using the witness
/// knowledge gathered for free during phase 1 (ExecutionReport::
/// WitnessSets()): every answered item was returned by at least one
/// source, so that source provably holds a record for it.
///
/// Greedy weighted set cover: repeatedly pick the source whose known items
/// cover the most still-uncovered answers (ties to the lower index), assign
/// those answers to it, until everything is covered. Guarantees at least one
/// record per answer item while contacting as few sources as the greedy
/// cover needs — versus the naive broadcast that queries all n sources.
///
/// Note the completeness trade-off (documented in the mediator API): witness
/// fetching retrieves ≥1 record per item, not necessarily *every* record at
/// every source; use broadcast fetching when cross-source completeness
/// matters.
Result<std::vector<FetchAssignment>> PlanWitnessFetch(
    const std::vector<ItemSet>& per_source_items, const ItemSet& answer);

}  // namespace fusion

#endif  // FUSION_MEDIATOR_FETCH_PLANNER_H_

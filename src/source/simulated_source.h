#ifndef FUSION_SOURCE_SIMULATED_SOURCE_H_
#define FUSION_SOURCE_SIMULATED_SOURCE_H_

#include <string>

#include <map>
#include <mutex>

#include "relational/column_index.h"
#include "source/source_wrapper.h"

namespace fusion {

/// An autonomous Internet source simulated in-process: a relation plus a
/// capability profile and a network cost profile. Substitutes for the live
/// DMV/bibliographic sources of the paper while exposing exactly the costs
/// the paper's model is phrased in (see DESIGN.md §2).
class SimulatedSource : public SourceWrapper {
 public:
  SimulatedSource(std::string name, Relation relation,
                  Capabilities capabilities, NetworkProfile network);

  /// Copies the source's identity and data; the lazy index cache (and its
  /// mutex) starts fresh in the copy. Tests copy simulated sources to build
  /// decorated twin catalogs.
  SimulatedSource(const SimulatedSource& other)
      : name_(other.name_),
        relation_(other.relation_),
        capabilities_(other.capabilities_),
        network_(other.network_) {}

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return relation_.schema(); }
  const Capabilities& capabilities() const override { return capabilities_; }
  const NetworkProfile& network() const { return network_; }

  /// Oracle access to the backing relation (tests, oracle cost model,
  /// reference evaluation). A real deployment would not have this.
  const Relation& relation() const { return relation_; }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override;

  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override;

  Result<Relation> Load(CostLedger* ledger) override;

  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override;

  const SimulatedSource* AsSimulated() const override { return this; }

  /// The costs this source charges, as pure functions of the data volumes —
  /// shared with cost models so estimates and metering agree by construction.
  double SelectCost(size_t result_size) const;
  double SemiJoinCost(size_t candidate_count, size_t result_size) const;
  double LoadCost() const;
  double FetchCost(size_t item_count, size_t record_count) const;

 private:
  /// Lazily built hash index over `attribute` for FetchRecords,
  /// mutex-guarded so concurrent queries (parallel plan workers, racing
  /// executions) build it exactly once. Pure accelerator: results and
  /// metered costs are identical to the scan path. Built indexes are
  /// immutable; map nodes are pointer-stable, so returned pointers survive
  /// later insertions.
  Result<const ColumnIndex*> IndexFor(const std::string& attribute) const;

  std::string name_;
  Relation relation_;
  Capabilities capabilities_;
  NetworkProfile network_;
  mutable std::mutex index_mu_;
  mutable std::map<std::string, ColumnIndex> indexes_;
};

}  // namespace fusion

#endif  // FUSION_SOURCE_SIMULATED_SOURCE_H_

#include "source/simulated_source.h"

#include <algorithm>
#include <utility>

namespace fusion {

SimulatedSource::SimulatedSource(std::string name, Relation relation,
                                 Capabilities capabilities,
                                 NetworkProfile network)
    : name_(std::move(name)),
      relation_(std::move(relation)),
      capabilities_(capabilities),
      network_(network) {}

double SimulatedSource::SelectCost(size_t result_size) const {
  return network_.query_overhead +
         network_.processing_per_tuple * static_cast<double>(relation_.size()) +
         network_.cost_per_item_received * static_cast<double>(result_size);
}

double SimulatedSource::SemiJoinCost(size_t candidate_count,
                                     size_t result_size) const {
  return network_.query_overhead +
         network_.cost_per_item_sent * static_cast<double>(candidate_count) +
         network_.processing_per_tuple * static_cast<double>(relation_.size()) +
         network_.cost_per_item_received * static_cast<double>(result_size);
}

double SimulatedSource::LoadCost() const {
  return network_.query_overhead +
         network_.processing_per_tuple * static_cast<double>(relation_.size()) +
         network_.cost_per_item_received * network_.record_width_factor *
             static_cast<double>(relation_.size());
}

double SimulatedSource::FetchCost(size_t item_count,
                                  size_t record_count) const {
  return network_.query_overhead +
         network_.cost_per_item_sent * static_cast<double>(item_count) +
         network_.processing_per_tuple * static_cast<double>(relation_.size()) +
         network_.cost_per_item_received * network_.record_width_factor *
             static_cast<double>(record_count);
}

Result<ItemSet> SimulatedSource::Select(const Condition& cond,
                                        const std::string& merge_attribute,
                                        CostLedger* ledger) {
  FUSION_ASSIGN_OR_RETURN(ItemSet items,
                          relation_.SelectItems(cond, merge_attribute));
  if (ledger != nullptr) {
    Charge charge;
    charge.source = name_;
    charge.kind = ChargeKind::kSelect;
    charge.detail = cond.ToString();
    charge.items_received = items.size();
    charge.tuples_scanned = relation_.size();
    charge.cost = SelectCost(items.size());
    ledger->Add(std::move(charge));
  }
  return items;
}

Result<const ColumnIndex*> SimulatedSource::IndexFor(
    const std::string& attribute) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(attribute);
  if (it == indexes_.end()) {
    FUSION_ASSIGN_OR_RETURN(ColumnIndex index,
                            ColumnIndex::Build(relation_, attribute));
    it = indexes_.emplace(attribute, std::move(index)).first;
  }
  return &it->second;
}

Result<ItemSet> SimulatedSource::SemiJoin(const Condition& cond,
                                          const std::string& merge_attribute,
                                          const ItemSet& candidates,
                                          CostLedger* ledger) {
  if (capabilities_.semijoin != SemijoinSupport::kNative) {
    return Status::Unsupported("source '" + name_ +
                               "' does not support native semijoin queries (" +
                               capabilities_.ToString() + ")");
  }
  // Selection ∩ candidates. On the columnar mirror (every relation but the
  // tiniest) an equality-driven condition touches only its constant's rows,
  // and row tuples are never read.
  FUSION_ASSIGN_OR_RETURN(
      ItemSet items,
      relation_.SemiJoinItems(cond, merge_attribute, candidates));
  if (ledger != nullptr) {
    Charge charge;
    charge.source = name_;
    charge.kind = ChargeKind::kSemiJoin;
    charge.detail = cond.ToString();
    charge.items_sent = candidates.size();
    charge.items_received = items.size();
    charge.tuples_scanned = relation_.size();
    charge.cost = SemiJoinCost(candidates.size(), items.size());
    ledger->Add(std::move(charge));
  }
  return items;
}

Result<Relation> SimulatedSource::Load(CostLedger* ledger) {
  if (!capabilities_.supports_load) {
    return Status::Unsupported("source '" + name_ + "' does not support lq");
  }
  if (ledger != nullptr) {
    Charge charge;
    charge.source = name_;
    charge.kind = ChargeKind::kLoad;
    charge.detail = "lq(" + name_ + ")";
    charge.items_received = relation_.size();
    charge.tuples_scanned = relation_.size();
    charge.cost = LoadCost();
    ledger->Add(std::move(charge));
  }
  return relation_;
}

Result<Relation> SimulatedSource::FetchRecords(
    const std::string& merge_attribute, const ItemSet& items,
    CostLedger* ledger) {
  FUSION_ASSIGN_OR_RETURN(const ColumnIndex* index,
                          IndexFor(merge_attribute));
  // Collect row positions in relation order so output matches the scan path.
  std::vector<size_t> rows;
  for (const Value& item : items) {
    const std::vector<size_t>* hits = index->Rows(item);
    if (hits != nullptr) rows.insert(rows.end(), hits->begin(), hits->end());
  }
  std::sort(rows.begin(), rows.end());
  Relation out(relation_.schema());
  for (const size_t row : rows) {
    out.AppendUnchecked(relation_.tuple(row));
  }
  if (ledger != nullptr) {
    Charge charge;
    charge.source = name_;
    charge.kind = ChargeKind::kFetchRecords;
    charge.detail = "fetch " + std::to_string(items.size()) + " items";
    charge.items_sent = items.size();
    charge.items_received = out.size();
    charge.tuples_scanned = relation_.size();
    charge.cost = FetchCost(items.size(), out.size());
    ledger->Add(std::move(charge));
  }
  return out;
}

}  // namespace fusion

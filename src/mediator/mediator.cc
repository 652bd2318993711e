#include "mediator/mediator.h"

#include "cost/oracle_cost_model.h"
#include "exec/exec_internal.h"
#include "mediator/fetch_planner.h"
#include "obs/trace.h"
#include "optimizer/filter.h"
#include "optimizer/greedy.h"
#include "optimizer/postopt.h"
#include "optimizer/sj.h"
#include "optimizer/sja.h"
#include "query/parser.h"
#include "stats/oracle_stats.h"

namespace fusion {
namespace {

/// One record-fetch source call, traced and counted like the executor's
/// sq/sjq/lq calls (exactly one `source_call` span per ledger charge).
Result<Relation> TracedFetch(SourceWrapper& source,
                             const std::string& merge_attribute,
                             const ItemSet& items, CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kSourceCall, "fetch");
  const double cost_before = ledger != nullptr ? ledger->total() : 0.0;
  auto result = source.FetchRecords(merge_attribute, items, ledger);
  const double cost_delta =
      ledger != nullptr ? ledger->total() - cost_before : -1.0;
  if (span.active()) {
    span.AddAttr("source", source.name());
    if (ledger != nullptr) span.AddAttr("cost", cost_delta);
    if (!result.ok()) span.AddAttr("error", result.status().ToString());
  }
  exec_internal::CountSourceCall("fetch", cost_delta);
  return result;
}

}  // namespace

const char* OptimizerStrategyName(OptimizerStrategy s) {
  switch (s) {
    case OptimizerStrategy::kFilter:
      return "FILTER";
    case OptimizerStrategy::kSj:
      return "SJ";
    case OptimizerStrategy::kSja:
      return "SJA";
    case OptimizerStrategy::kSjaPlus:
      return "SJA+";
    case OptimizerStrategy::kGreedySja:
      return "SJA-G";
    case OptimizerStrategy::kGreedySjaPlus:
      return "SJA-G+";
  }
  return "?";
}

const char* StatisticsModeName(StatisticsMode m) {
  switch (m) {
    case StatisticsMode::kOracle:
      return "oracle";
    case StatisticsMode::kOracleParametric:
      return "oracle-parametric";
    case StatisticsMode::kCalibrated:
      return "calibrated";
  }
  return "?";
}

Result<OptimizedPlan> RunOptimizer(const CostModel& model,
                                   OptimizerStrategy strategy,
                                   const PostOptOptions& postopt) {
  switch (strategy) {
    case OptimizerStrategy::kFilter:
      return OptimizeFilter(model);
    case OptimizerStrategy::kSj:
      return OptimizeSj(model);
    case OptimizerStrategy::kSja:
      return OptimizeSja(model);
    case OptimizerStrategy::kSjaPlus:
      return OptimizeSjaPlus(model, postopt);
    case OptimizerStrategy::kGreedySja:
      return OptimizeGreedySja(model, GreedyOrderHeuristic::kByMinCost);
    case OptimizerStrategy::kGreedySjaPlus: {
      FUSION_ASSIGN_OR_RETURN(
          OptimizedPlan greedy,
          OptimizeGreedySja(model, GreedyOrderHeuristic::kByMinCost));
      return PostOptimizeStructure(model, greedy.structure, postopt,
                                   greedy.algorithm);
    }
  }
  return Status::InvalidArgument("unknown optimizer strategy");
}

Result<std::unique_ptr<CostModel>> Mediator::BuildCostModel(
    const FusionQuery& query, const MediatorOptions& options,
    CostLedger* probe_ledger) {
  FUSION_ASSIGN_OR_RETURN(const Schema schema, catalog_.CommonSchema());
  FUSION_RETURN_IF_ERROR(query.Validate(schema));

  if (options.statistics == StatisticsMode::kCalibrated) {
    FUSION_ASSIGN_OR_RETURN(
        ParametricCostModel model,
        CalibrateBySampling(catalog_, query, options.calibration,
                            probe_ledger));
    return std::unique_ptr<CostModel>(
        new ParametricCostModel(std::move(model)));
  }

  // Oracle modes require simulated sources.
  std::vector<const SimulatedSource*> simulated;
  simulated.reserve(catalog_.size());
  for (size_t j = 0; j < catalog_.size(); ++j) {
    const SimulatedSource* s = catalog_.source(j).AsSimulated();
    if (s == nullptr) {
      return Status::InvalidArgument(
          "oracle statistics need simulated sources; source '" +
          catalog_.source(j).name() + "' is not simulated");
    }
    simulated.push_back(s);
  }
  if (options.statistics == StatisticsMode::kOracle) {
    FUSION_ASSIGN_OR_RETURN(OracleCostModel model,
                            OracleCostModel::Create(simulated, query));
    return std::unique_ptr<CostModel>(new OracleCostModel(std::move(model)));
  }
  FUSION_ASSIGN_OR_RETURN(ParametricCostModel model,
                          OracleParametricModel(simulated, query));
  return std::unique_ptr<CostModel>(new ParametricCostModel(std::move(model)));
}

Result<OptimizedPlan> Mediator::Optimize(const FusionQuery& raw_query,
                                         const MediatorOptions& options) {
  const FusionQuery query = raw_query.Canonicalized();
  FUSION_ASSIGN_OR_RETURN(std::unique_ptr<CostModel> model,
                          BuildCostModel(query, options, nullptr));
  return RunOptimizer(*model, options.strategy, options.postopt);
}

Result<QueryAnswer> Mediator::Answer(const FusionQuery& raw_query,
                                     const MediatorOptions& options) {
  const FusionQuery query = raw_query.Canonicalized();
  CostLedger probe_ledger;
  Result<OptimizedPlan> optimized_or = [&]() -> Result<OptimizedPlan> {
    ScopedSpan span(SpanCategory::kPhase, "optimize");
    if (span.active()) {
      span.AddAttr("strategy", OptimizerStrategyName(options.strategy));
      span.AddAttr("statistics", StatisticsModeName(options.statistics));
    }
    FUSION_ASSIGN_OR_RETURN(std::unique_ptr<CostModel> model,
                            BuildCostModel(query, options, &probe_ledger));
    return RunOptimizer(*model, options.strategy, options.postopt);
  }();
  FUSION_ASSIGN_OR_RETURN(OptimizedPlan optimized, std::move(optimized_or));
  Result<ExecutionReport> execution_or = [&]() -> Result<ExecutionReport> {
    ScopedSpan span(SpanCategory::kPhase, "execute");
    if (span.active()) {
      span.AddAttr("ops", optimized.plan.num_ops());
      span.AddAttr("parallelism",
                   static_cast<int64_t>(options.execution.parallelism));
    }
    return ExecutePlan(optimized.plan, catalog_, query, options.execution);
  }();
  FUSION_ASSIGN_OR_RETURN(ExecutionReport execution, std::move(execution_or));
  QueryAnswer answer;
  answer.items = std::move(execution.answer);
  answer.optimized = std::move(optimized);
  answer.execution = std::move(execution);
  answer.calibration_cost = probe_ledger.total();
  return answer;
}

Result<QueryAnswer> Mediator::AnswerSql(const std::string& sql,
                                        const MediatorOptions& options) {
  FUSION_ASSIGN_OR_RETURN(FusionQuery query, ParseFusionQuery(sql));
  return Answer(query, options);
}

Result<Relation> Mediator::FetchRecordsFromWitnesses(
    const FusionQuery& query, const QueryAnswer& phase1,
    CostLedger* ledger) {
  const std::vector<ItemSet> witnesses = phase1.execution.WitnessSets();
  if (witnesses.size() != catalog_.size()) {
    return Status::InvalidArgument(
        "phase-1 report does not match this catalog");
  }
  ScopedSpan span(SpanCategory::kPhase, "fetch");
  FUSION_ASSIGN_OR_RETURN(const std::vector<FetchAssignment> assignments,
                          PlanWitnessFetch(witnesses, phase1.items));
  if (span.active()) span.AddAttr("assignments", assignments.size());
  FUSION_ASSIGN_OR_RETURN(const Schema schema, catalog_.CommonSchema());
  Relation out(schema);
  for (const FetchAssignment& a : assignments) {
    FUSION_ASSIGN_OR_RETURN(
        Relation part,
        TracedFetch(catalog_.source(a.source), query.merge_attribute(),
                    a.items, ledger));
    FUSION_ASSIGN_OR_RETURN(out, Relation::Union(out, part));
  }
  return out;
}

Result<Relation> Mediator::FetchRecords(const FusionQuery& query,
                                        const ItemSet& items,
                                        CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kPhase, "fetch");
  FUSION_ASSIGN_OR_RETURN(const Schema schema, catalog_.CommonSchema());
  Relation out(schema);
  for (size_t j = 0; j < catalog_.size(); ++j) {
    FUSION_ASSIGN_OR_RETURN(
        Relation part,
        TracedFetch(catalog_.source(j), query.merge_attribute(), items,
                    ledger));
    FUSION_ASSIGN_OR_RETURN(out, Relation::Union(out, part));
  }
  return out;
}

}  // namespace fusion

#ifndef FUSION_MEDIATOR_MEDIATOR_H_
#define FUSION_MEDIATOR_MEDIATOR_H_

#include <memory>
#include <string>

#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/postopt.h"
#include "query/fusion_query.h"
#include "source/catalog.h"
#include "stats/calibration.h"

namespace fusion {

/// Which optimization algorithm the mediator runs for a query.
enum class OptimizerStrategy {
  kFilter,       // FILTER: push every condition to every source
  kSj,           // best semijoin plan (exhaustive orderings)
  kSja,          // best semijoin-adaptive plan (exhaustive orderings)
  kSjaPlus,      // SJA + Section-4 postoptimization (difference, loading)
  kGreedySja,    // greedy ordering + adaptive decisions (no m! search)
  kGreedySjaPlus // greedy SJA + postoptimization
};

const char* OptimizerStrategyName(OptimizerStrategy s);

/// Where the mediator's cost model parameters come from.
enum class StatisticsMode {
  /// Perfect information read from the simulated sources (controlled
  /// experiments; unrealistic in deployment).
  kOracle,
  /// Exact per-source statistics but independence-based set estimation —
  /// the "good statistics" configuration.
  kOracleParametric,
  /// Sampling-based calibration through the public wrapper interface only
  /// (the realistic configuration; costs probe traffic).
  kCalibrated,
};

const char* StatisticsModeName(StatisticsMode m);

struct MediatorOptions {
  OptimizerStrategy strategy = OptimizerStrategy::kSjaPlus;
  StatisticsMode statistics = StatisticsMode::kOracleParametric;
  CalibrationOptions calibration;
  PostOptOptions postopt;
  /// Runtime execution options (lazy short-circuiting, retries, parallelism).
  ExecOptions execution;
};

/// Everything the mediator reports for one answered query.
struct QueryAnswer {
  /// The fused answer, moved out of the execution report: `items` is the
  /// one copy, and `execution.answer` is left empty.
  ItemSet items;
  OptimizedPlan optimized;
  ExecutionReport execution;
  /// Probe traffic spent on calibration (zero unless kCalibrated).
  double calibration_cost = 0.0;
};

/// The central coordination site of the paper (Section 2): owns the source
/// catalog, builds cost models from statistics, optimizes fusion queries and
/// executes the chosen plans, and supports the two-phase protocol's second
/// phase (full-record retrieval for matched items).
class Mediator {
 public:
  explicit Mediator(SourceCatalog catalog) : catalog_(std::move(catalog)) {}

  Mediator(Mediator&&) = default;
  Mediator& operator=(Mediator&&) = default;

  const SourceCatalog& catalog() const { return catalog_; }

  /// Optimizes and executes `query` end to end.
  Result<QueryAnswer> Answer(const FusionQuery& query,
                             const MediatorOptions& options = {});

  /// Parses the paper-style SQL text and answers it.
  Result<QueryAnswer> AnswerSql(const std::string& sql,
                                const MediatorOptions& options = {});

  /// Builds the planning cost model for `query` per `options`; exposed for
  /// experiments that want to run optimizers directly. Calibration probe
  /// costs are metered into `probe_ledger` when non-null.
  Result<std::unique_ptr<CostModel>> BuildCostModel(
      const FusionQuery& query, const MediatorOptions& options,
      CostLedger* probe_ledger);

  /// Runs the configured optimizer without executing.
  Result<OptimizedPlan> Optimize(const FusionQuery& query,
                                 const MediatorOptions& options = {});

  /// Second phase of two-phase processing: fetches the full records of
  /// `items` from every source and unions them (broadcast — complete but
  /// pays n round trips). Costs are metered into `ledger` when non-null.
  Result<Relation> FetchRecords(const FusionQuery& query, const ItemSet& items,
                                CostLedger* ledger);

  /// Witness-based second phase: uses the per-source item observations that
  /// phase-1 execution gathered for free to fetch each answered item from
  /// one covering source only (greedy set cover; see mediator/fetch_planner).
  /// Guarantees at least one record per answer item — cheaper than the
  /// broadcast, but not complete across sources (an item's records at
  /// sources that never returned it are not retrieved).
  Result<Relation> FetchRecordsFromWitnesses(const FusionQuery& query,
                                             const QueryAnswer& phase1,
                                             CostLedger* ledger);

 private:
  SourceCatalog catalog_;
};

/// Dispatches to the optimizer selected by `strategy`.
Result<OptimizedPlan> RunOptimizer(const CostModel& model,
                                   OptimizerStrategy strategy,
                                   const PostOptOptions& postopt);

}  // namespace fusion

#endif  // FUSION_MEDIATOR_MEDIATOR_H_

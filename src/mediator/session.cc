#include "mediator/session.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "query/parser.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

/// Selectivity prior for a (source, condition) pair never observed: the
/// fraction of the source's cardinality assumed to satisfy the condition.
constexpr double kDefaultSelectivity = 0.2;

}  // namespace

Result<ParametricCostModel> QuerySession::BuildSessionModel(
    const std::vector<std::string>& cond_texts) {
  const SourceCatalog& catalog = mediator_.catalog();
  const size_t m = cond_texts.size();
  std::vector<SourceParams> params;
  params.reserve(catalog.size());
  for (size_t j = 0; j < catalog.size(); ++j) {
    const SourceWrapper& src = catalog.source(j);
    SourceParams p;
    p.capabilities = src.capabilities();
    // Network parameters: take the simulated source's profile when exposed;
    // otherwise keep the NetworkProfile defaults as priors (a deployment
    // would calibrate them — see stats/calibration).
    if (const SimulatedSource* sim = src.AsSimulated()) {
      p.network = sim->network();
    }
    const auto card_it = observed_cardinality_.find(j);
    p.cardinality = card_it != observed_cardinality_.end()
                        ? card_it->second
                        : options_.default_cardinality;
    p.result_size.reserve(m);
    for (const std::string& text : cond_texts) {
      const auto it = observed_result_size_.find({j, text});
      p.result_size.push_back(it != observed_result_size_.end()
                                  ? it->second
                                  : p.cardinality * kDefaultSelectivity);
    }
    params.push_back(std::move(p));
  }
  const double universe =
      std::max<double>(options_.default_universe,
                       static_cast<double>(UniverseSizeLocked()));
  return ParametricCostModel(std::move(params), universe);
}

namespace {

/// Plan-memo key: the memo is consulted only when the caller asks for the
/// same strategy (a strategy-comparison driver must get the strategy it
/// asked for, not whatever plan happens to be anchored). The rest is
/// FusionQuery::ToString(), spelled from the already rendered conditions.
std::string PlanMemoKey(const FusionQuery& query,
                        const std::vector<std::string>& cond_texts,
                        OptimizerStrategy strategy) {
  std::string key = std::string(OptimizerStrategyName(strategy)) +
                    "|fusion(" + query.merge_attribute() + "; ";
  for (size_t i = 0; i < cond_texts.size(); ++i) {
    if (i > 0) key += ", ";
    key += cond_texts[i];
  }
  key += ")";
  return key;
}

}  // namespace

QueryCacheView QuerySession::BuildCacheView(
    const std::vector<std::string>& keys) {
  const size_t num_sources = mediator_.catalog().size();
  QueryCacheView view;
  view.sq_answerable.assign(keys.size(), std::vector<char>(num_sources, 0));
  view.sjq_answerable.assign(keys.size(), std::vector<char>(num_sources, 0));
  view.lq_cached.assign(num_sources, 0);
  for (size_t j = 0; j < num_sources; ++j) {
    // A cached relation answers lq and, by containment, every sq/sjq on it.
    const bool lq = cache_.ContainsLoad(j);
    view.lq_cached[j] = lq ? 1 : 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& key = keys[i];
      if (lq || cache_.ContainsSelect(j, key)) {
        view.sq_answerable[i][j] = 1;
        view.sjq_answerable[i][j] = 1;
      } else if (cache_.ContainsSemiJoin(j, key)) {
        // A prior semijoin on this (condition, source) anchors containment
        // derivation: a repeated query's candidates are answerable locally.
        view.sjq_answerable[i][j] = 1;
      }
    }
  }
  return view;
}

bool QuerySession::CacheAnswersEveryCall(
    const Plan& plan, const std::vector<std::string>& keys) const {
  bool any_call = false;
  for (const PlanOp& op : plan.ops()) {
    if (op.source < 0) continue;  // local ops are free
    const size_t j = static_cast<size_t>(op.source);
    any_call = true;
    // The model keeps an sjq on a source that cannot semijoin at +inf.
    if (op.kind == PlanOpKind::kSemiJoin &&
        mediator_.catalog().source(j).capabilities().semijoin ==
            SemijoinSupport::kUnsupported) {
      return false;
    }
    // A cached relation answers lq and, by containment, sq and sjq.
    if (cache_.ContainsLoad(j)) continue;
    if (op.kind == PlanOpKind::kLoad) return false;
    const std::string& key = keys[static_cast<size_t>(op.cond)];
    if (cache_.ContainsSelect(j, key)) continue;
    if (op.kind != PlanOpKind::kSemiJoin || !cache_.ContainsSemiJoin(j, key)) {
      return false;
    }
  }
  return any_call;
}

void QuerySession::Learn(const std::vector<std::string>& cond_texts,
                         const OptimizedPlan& plan,
                         const ExecutionReport& report) {
  std::lock_guard<std::mutex> lock(knowledge_mutex_);
  // Selections reveal exact per-(source, condition) result sizes. Walk the
  // plan's ops next to the report's per-op costs and take the ledger's
  // successful sq charges in op order (items_received is the answer size
  // of that selection).
  size_t charge_idx = 0;
  const auto& charges = report.ledger.charges();
  // Ops ∅-substituted by degraded-mode execution charged their failed
  // attempts (per_op_cost > 0) but produced no successful charge — walking
  // them would misalign every later op's charge. Skip them outright.
  const std::vector<int>& degraded = report.completeness.degraded_ops;
  // Advances to the next successful sq charge (skipping failed-attempt
  // charges injected by flaky sources and non-selection kinds).
  auto next_select_charge = [&]() -> const Charge* {
    while (charge_idx < charges.size()) {
      const Charge& c = charges[charge_idx++];
      if (c.kind == ChargeKind::kSelect && !IsFailedAttempt(c)) {
        return &c;
      }
    }
    return nullptr;
  };
  for (size_t k = 0; k < plan.plan.ops().size(); ++k) {
    const PlanOp& op = plan.plan.ops()[k];
    if (op.kind != PlanOpKind::kSelect) continue;
    // Cache hits and lazily skipped selections issue no charge; there is
    // nothing new to learn from them.
    if (k >= report.per_op_cost.size() || report.per_op_cost[k] <= 0.0) {
      continue;
    }
    if (std::find(degraded.begin(), degraded.end(), static_cast<int>(k)) !=
        degraded.end()) {
      continue;
    }
    const Charge* charge = next_select_charge();
    if (charge == nullptr) break;
    LearnResultSizeLocked(static_cast<size_t>(op.source),
                          cond_texts[static_cast<size_t>(op.cond)],
                          static_cast<double>(charge->items_received));
  }
  // Loads reveal cardinalities.
  for (const Charge& c : charges) {
    if (c.kind == ChargeKind::kLoad) {
      // Map the source name back to its index.
      const auto idx = mediator_.catalog().IndexOf(c.source);
      if (idx.ok()) {
        observed_cardinality_[*idx] = static_cast<double>(c.items_received);
      }
    }
  }
  // The universe bound grows only where items arrive: an answer served
  // from the cache (exactly or by containment) holds items that arrived
  // with an earlier call, so it cannot add one.
  for (const std::vector<ExecutionReport::SourceAnswer>& answers :
       report.source_answers) {
    for (const ExecutionReport::SourceAnswer& answer : answers) {
      if (answer.arrived) LearnItemsLocked(answer.items);
    }
  }
}

void QuerySession::LearnResultSizeLocked(size_t source,
                                         const std::string& cond_text,
                                         double size) {
  auto [it, inserted] =
      observed_result_size_.try_emplace({source, cond_text}, size);
  if (!inserted) {
    it->second = size;
    return;
  }
  observed_result_order_.push_back(it);
  if (observed_result_order_.size() > kObservedSizeCapacity) {
    observed_result_size_.erase(observed_result_order_.front());
    observed_result_order_.pop_front();
  }
}

void QuerySession::LearnItemsLocked(const ItemSet& items) {
  if (items.is_int64() && observed_values_.empty()) {
    observed_ints_.insert(items.ints().begin(), items.ints().end());
    return;
  }
  if (observed_values_.empty()) {
    for (const int64_t x : observed_ints_) observed_values_.emplace(x);
    observed_ints_ = {};
  }
  observed_values_.insert(items.begin(), items.end());
}

Result<QuerySession::PreparedQuery> QuerySession::Prepare(
    const FusionQuery& raw) const {
  PreparedQuery prepared{raw.Canonicalized(), {}, {}};
  FUSION_ASSIGN_OR_RETURN(const Schema schema,
                          mediator_.catalog().CommonSchema());
  FUSION_RETURN_IF_ERROR(prepared.query.Validate(schema));
  prepared.cond_texts.reserve(prepared.query.num_conditions());
  for (const Condition& cond : prepared.query.conditions()) {
    prepared.cond_texts.push_back(cond.ToString());
  }
  return prepared;
}

Result<std::shared_ptr<const QuerySession::PreparedQuery>>
QuerySession::PrepareSql(const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(prepared_mutex_);
    const auto it = prepared_.find(sql);
    if (it != prepared_.end()) return it->second;
  }
  // Outside the lock: a concurrent miss on the same text prepares it too,
  // and the first to publish wins. Failures are not memoized.
  FUSION_ASSIGN_OR_RETURN(const FusionQuery raw, ParseFusionQuery(sql));
  FUSION_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(raw));
  prepared.sql = sql;
  auto made = std::make_shared<const PreparedQuery>(std::move(prepared));
  std::lock_guard<std::mutex> lock(prepared_mutex_);
  const auto [it, inserted] = prepared_.try_emplace(made->sql, made);
  if (inserted) {
    prepared_order_.push_back(made);
    if (prepared_order_.size() > kPreparedCapacity) {
      prepared_.erase(prepared_order_.front()->sql);
      prepared_order_.pop_front();
    }
  }
  return it->second;
}

Result<QueryAnswer> QuerySession::Answer(const FusionQuery& raw_query,
                                         const CallControls& controls) {
  FUSION_ASSIGN_OR_RETURN(const PreparedQuery prepared, Prepare(raw_query));
  return AnswerPrepared(prepared, controls);
}

Result<QueryAnswer> QuerySession::AnswerSql(const std::string& sql,
                                            const CallControls& controls) {
  FUSION_ASSIGN_OR_RETURN(const std::shared_ptr<const PreparedQuery> prepared,
                          PrepareSql(sql));
  return AnswerPrepared(*prepared, controls);
}

Result<QueryAnswer> QuerySession::AnswerPrepared(
    const PreparedQuery& prepared, const CallControls& controls) {
  const FusionQuery& query = prepared.query;
  const std::vector<std::string>& cond_texts = prepared.cond_texts;
  const OptimizerStrategy strategy =
      controls.strategy.value_or(options_.strategy);
  const std::optional<StatisticsMode> statistics =
      controls.statistics.has_value() ? controls.statistics
                                      : options_.statistics;

  const bool cache_aware =
      options_.use_cache && options_.cache_aware_optimization;
  const std::string memo_key =
      cache_aware ? PlanMemoKey(query, cond_texts, strategy) : std::string();

  CostLedger probe_ledger;
  // Set when the executed plan is the memo's own, which then need not be
  // stored again.
  bool from_memo = false;
  Result<OptimizedPlan> optimized_or = [&]() -> Result<OptimizedPlan> {
    ScopedSpan span(SpanCategory::kPhase, "optimize");
    if (span.active()) {
      span.AddAttr("strategy", OptimizerStrategyName(strategy));
      span.AddAttr("statistics", statistics.has_value()
                                     ? StatisticsModeName(*statistics)
                                     : "session-learned");
    }
    // Zero-priced memo first: when the cache answers every call of the
    // remembered plan, it re-prices at 0 under the session-learned model,
    // which is what the memo comparison below would return. Fixed
    // statistics modes build their model first: a calibrated model meters
    // its probes.
    if (cache_aware && !statistics.has_value()) {
      std::lock_guard<std::mutex> lock(knowledge_mutex_);
      const auto it = plan_memo_.find(memo_key);
      if (it != plan_memo_.end() &&
          CacheAnswersEveryCall(it->second.plan, cond_texts)) {
        if (span.active()) {
          span.AddAttr("cache_aware", "true");
          span.AddAttr("plan_memo", "reused");
        }
        from_memo = true;
        OptimizedPlan remembered = it->second;
        remembered.estimated_cost = 0.0;
        return remembered;
      }
    }
    // Build the base model: either a snapshot of the session-learned
    // statistics (under the knowledge mutex — concurrent learners see a
    // consistent view) or the mediator's fixed-mode model (oracle /
    // parametric / calibrated; probes metered into probe_ledger).
    std::unique_ptr<CostModel> fixed_model;
    std::optional<ParametricCostModel> session_model;
    if (statistics.has_value()) {
      MediatorOptions mopts;
      mopts.strategy = strategy;
      mopts.statistics = *statistics;
      mopts.calibration = options_.calibration;
      mopts.postopt = options_.postopt;
      FUSION_ASSIGN_OR_RETURN(
          fixed_model, mediator_.BuildCostModel(query, mopts, &probe_ledger));
    } else {
      std::lock_guard<std::mutex> lock(knowledge_mutex_);
      FUSION_ASSIGN_OR_RETURN(ParametricCostModel model,
                              BuildSessionModel(cond_texts));
      session_model.emplace(std::move(model));
    }
    const CostModel& model = fixed_model != nullptr
                                 ? *fixed_model
                                 : static_cast<const CostModel&>(
                                       *session_model);
    // Cache-aware re-optimization: calls the memo can already answer are
    // priced at zero, so a repeated (or overlapping) query plans *through*
    // the cache instead of re-deriving the cold-cache plan.
    if (cache_aware) {
      const QueryCacheView view = BuildCacheView(cond_texts);
      if (view.AnySet()) {
        if (span.active()) span.AddAttr("cache_aware", "true");
        const CacheAwareCostModel cached_model(model, view);
        // Plan memo: re-running the plan this exact query executed last
        // time turns every call into an exact cache hit, while a *fresh*
        // plan with the same (often zero) estimate may order its semijoin
        // chains differently and miss the cached anchors. So when the
        // remembered plan re-prices at least as cheap as the fresh one,
        // prefer it — ties must break toward the anchored plan.
        std::optional<OptimizedPlan> remembered;
        {
          std::lock_guard<std::mutex> lock(knowledge_mutex_);
          const auto it = plan_memo_.find(memo_key);
          if (it != plan_memo_.end()) {
            const auto estimate =
                EstimatePlanCost(it->second.plan, cached_model);
            if (estimate.ok()) {
              remembered = it->second;
              remembered->estimated_cost = estimate->total;
            }
          }
        }
        // Every cost term is non-negative, so no fresh plan prices below 0:
        // a memo that re-prices at 0 is what the comparison below would
        // pick anyway, and the optimizer need not run.
        if (remembered.has_value() && remembered->estimated_cost <= 0.0) {
          if (span.active()) span.AddAttr("plan_memo", "reused");
          from_memo = true;
          return std::move(*remembered);
        }
        FUSION_ASSIGN_OR_RETURN(
            OptimizedPlan fresh,
            RunOptimizer(cached_model, strategy, options_.postopt));
        if (remembered.has_value() &&
            remembered->estimated_cost <= fresh.estimated_cost) {
          if (span.active()) span.AddAttr("plan_memo", "reused");
          from_memo = true;
          return std::move(*remembered);
        }
        return fresh;
      }
    }
    return RunOptimizer(model, strategy, options_.postopt);
  }();
  FUSION_ASSIGN_OR_RETURN(OptimizedPlan optimized, std::move(optimized_or));

  ExecOptions exec = options_.execution;
  if (options_.use_cache) exec.cache = &cache_;
  if (exec.health == nullptr) exec.health = &health_;
  if (controls.cancel != nullptr) exec.cancel = controls.cancel;
  if (controls.deadline_seconds >= 0.0) {
    exec.deadline_seconds = controls.deadline_seconds;
  }
  Result<ExecutionReport> execution_or = [&]() -> Result<ExecutionReport> {
    ScopedSpan span(SpanCategory::kPhase, "execute");
    if (span.active()) {
      span.AddAttr("ops", optimized.plan.num_ops());
      if (exec.on_source_failure == SourceFailurePolicy::kDegrade) {
        span.AddAttr("on_source_failure", "degrade");
      }
    }
    return ExecutePlan(optimized.plan, mediator_.catalog(), query, exec);
  }();
  FUSION_ASSIGN_OR_RETURN(ExecutionReport execution, std::move(execution_or));

  {
    ScopedSpan span(SpanCategory::kPhase, "learn");
    Learn(cond_texts, optimized, execution);
  }
  if (cache_aware && !from_memo) {
    // Remember the executed plan for this (query, strategy): its source
    // calls are now cached under exactly its candidate sets, so replaying
    // it on the next identical query is free.
    std::lock_guard<std::mutex> lock(knowledge_mutex_);
    if (plan_memo_.find(memo_key) == plan_memo_.end()) {
      plan_memo_order_.push_back(memo_key);
      if (plan_memo_order_.size() > kPlanMemoCapacity) {
        plan_memo_.erase(plan_memo_order_.front());
        plan_memo_order_.pop_front();
      }
    }
    plan_memo_[memo_key] = optimized;
  }

  QueryAnswer answer;
  answer.items = std::move(execution.answer);
  answer.optimized = std::move(optimized);
  answer.execution = std::move(execution);
  answer.calibration_cost = probe_ledger.total();
  return answer;
}

}  // namespace fusion

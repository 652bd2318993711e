// Columnar data-plane microbenchmark: the batch evaluator vs the legacy
// row-at-a-time interpreter on wide records, source-side selection and
// native semijoins by full scan vs equality-driven row lists, the sorted-run
// ItemSet kernels
// vs a generic Value-merge reference (pairwise, interleaved in-place, and
// n-ary unions), int-form item sets vs Value storage (SJA+'s difference
// chain, cache-hit copies, 8-way union, learned-universe inserts), the
// int-form kernels vs std::set_* on the serving path's set-op shapes over
// rotating inputs, and the session's learned-universe accumulation.
// Every timed pair is also checked byte-identical — the data plane refactor
// is only allowed to change *where time goes*, never an answer.
//
// Modes:
//   bench_columnar           full-size run, prints timings and speedups
//   bench_columnar --smoke   small sizes, correctness asserts only; prints
//                            "bench_columnar: ok" for the ctest gate
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/item_set.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "relational/relation.h"

namespace fusion {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A wide record: merge column M plus 20 payload columns. The row
/// interpreter materializes nothing but pays per-tuple Value dispatch and
/// by-name attribute lookup per atom; the batch path touches only the three
/// columns the condition names.
Schema WideSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"M", ValueType::kString});
  for (int i = 0; i < 7; ++i) {
    cols.push_back({StrFormat("i%d", i), ValueType::kInt64});
    cols.push_back({StrFormat("d%d", i), ValueType::kDouble});
  }
  for (int i = 0; i < 6; ++i) {
    cols.push_back({StrFormat("s%d", i), ValueType::kString});
  }
  return Schema(std::move(cols));
}

Relation WideRelation(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const Schema schema = WideSchema();
  Relation rel(schema);
  for (size_t r = 0; r < rows; ++r) {
    Tuple t;
    t.reserve(schema.num_columns());
    t.push_back(Value("m" + std::to_string(rng.Uniform(0, 4095))));
    for (int i = 0; i < 7; ++i) {
      t.push_back(Value(rng.Uniform(0, 999)));
      t.push_back(Value(static_cast<double>(rng.Uniform(0, 9999)) / 10.0));
    }
    for (int i = 0; i < 6; ++i) {
      t.push_back(Value("tag" + std::to_string(rng.Uniform(0, 63))));
    }
    rel.AppendUnchecked(std::move(t));
  }
  return rel;
}

/// Three-atom conjunction that every row must be evaluated against but few
/// rows satisfy (~2%): evaluation cost dominates, result-building cost —
/// identical on both paths — does not.
Condition WideCondition() {
  return Condition::And(
      Condition::And(
          Condition::Compare("i3", CompareOp::kLt, Value(int64_t{40})),
          Condition::Compare("d5", CompareOp::kLe, Value(600.0))),
      Condition::Compare("s2", CompareOp::kNe, Value("tag0")));
}

void BenchLocalEval(size_t rows, int repeats, bool smoke) {
  bench::Banner("columnar: wide-record local eval (SelectItems), row vs batch");
  const Relation rel = WideRelation(rows, /*seed=*/17);
  const Condition cond = WideCondition();
  rel.WarmColumnar();  // exclude the one-time mirror build from the loop

  // One untimed pass per path to fault in code and check answers.
  const auto row_items = rel.SelectItems(cond, "M", EvalPath::kRow);
  const auto col_items = rel.SelectItems(cond, "M", EvalPath::kColumnar);
  FUSION_CHECK(row_items.ok() && col_items.ok());
  FUSION_CHECK(row_items->ToString() == col_items->ToString());

  const auto t_row = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const auto got = rel.SelectItems(cond, "M", EvalPath::kRow);
    FUSION_CHECK(got.ok() && got->size() == row_items->size());
  }
  const double row_ms = MillisSince(t_row);

  const auto t_col = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const auto got = rel.SelectItems(cond, "M", EvalPath::kColumnar);
    FUSION_CHECK(got.ok() && got->size() == row_items->size());
  }
  const double col_ms = MillisSince(t_col);

  const double speedup = col_ms > 0.0 ? row_ms / col_ms : 0.0;
  std::printf(
      "  %zu rows x %d repeats, 3-atom conjunction, %zu matching items\n"
      "  row path      %10.2f ms\n"
      "  columnar path %10.2f ms\n"
      "  speedup       %10.2fx\n",
      rows, repeats, row_items->size(), row_ms, col_ms, speedup);
  if (!smoke) {
    // The refactor's reason to exist; answers were checked identical above.
    FUSION_CHECK(speedup >= 5.0)
        << "columnar local eval below the 5x bar: " << speedup;
  }
}

/// A cold_budget-shaped source: entities 0..31999 kept at coverage 0.25
/// (~8k rows, M ascending), six flag columns A1..A6 set at selectivity 0.08.
Relation FlagSourceRelation(uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnDef> cols;
  cols.push_back({"M", ValueType::kInt64});
  for (int i = 1; i <= 6; ++i) cols.push_back({StrFormat("A%d", i), ValueType::kInt64});
  Relation rel{Schema(std::move(cols))};
  for (int64_t e = 0; e < 32000; ++e) {
    if (!rng.Bernoulli(0.25)) continue;
    Tuple t;
    t.push_back(Value(e));
    for (int i = 0; i < 6; ++i) {
      t.push_back(Value(static_cast<int64_t>(rng.Bernoulli(0.08))));
    }
    rel.AppendUnchecked(std::move(t));
  }
  return rel;
}

/// Source-side selection as the serving path runs it: sq's SelectItems and
/// a native sjq's SemiJoinItems over a cold_budget-shaped source, per call,
/// on the full scan against the equality-driven path. NOT(NOT(c)) is c with
/// an operator above its equality atom, so it runs the scan kernels over
/// every row; c itself starts from the `A3 = 1` row list.
void BenchEqualityDriven(int repeats) {
  bench::Banner("columnar: source-side selection, scan vs equality-driven");
  const Relation rel = FlagSourceRelation(/*seed=*/7);
  rel.WarmColumnar();
  Rng rng(11);
  std::vector<int64_t> cand;
  for (int i = 0; i < 500; ++i) cand.push_back(rng.Uniform(0, 31999));
  const ItemSet candidates = ItemSet::FromInts(std::move(cand));
  const Condition flag = Condition::Eq("A3", Value(int64_t{1}));
  const Condition flag_cut = Condition::And(
      flag, Condition::Compare("M", CompareOp::kLe, Value(int64_t{20000})));
  struct Case {
    const char* name;
    Condition cond;
    bool semijoin;
  };
  const Case cases[] = {{"sq  A3 = 1", flag, false},
                        {"sq  A3 = 1 AND M <= 20000", flag_cut, false},
                        {"sjq A3 = 1, 500 candidates", flag, true}};
  std::printf("  %zu rows, 6 flag columns at selectivity 0.08\n", rel.size());
  for (const Case& c : cases) {
    const Condition scan = Condition::Not(Condition::Not(c.cond));
    const auto run = [&](const Condition& cond, EvalPath path) {
      return c.semijoin ? rel.SemiJoinItems(cond, "M", candidates, path)
                        : rel.SelectItems(cond, "M", path);
    };
    // Untimed: check answers against the row interpreter and build the
    // row list the driven path memoizes.
    const auto expected = run(c.cond, EvalPath::kRow);
    FUSION_CHECK(expected.ok());
    for (const Condition* cond : {&scan, &c.cond}) {
      const auto got = run(*cond, EvalPath::kAuto);
      FUSION_CHECK(got.ok() && *got == *expected) << c.name;
    }
    const auto time_us = [&](const Condition& cond) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < repeats; ++i) {
        const auto got = run(cond, EvalPath::kAuto);
        FUSION_CHECK(got.ok() && got->size() == expected->size());
      }
      return 1000.0 * MillisSince(start) / repeats;
    };
    const double scan_us = time_us(scan);
    const double driven_us = time_us(c.cond);
    std::printf("  %-28s %4zu items   scan %8.2f us   driven %8.2f us   %6.2fx\n",
                c.name, expected->size(), scan_us, driven_us,
                driven_us > 0.0 ? scan_us / driven_us : 0.0);
  }
}

/// The pre-kernel generic set algebra: merge two sorted-unique Value runs
/// with per-element Value comparisons. Kept here (not in the library) as the
/// reference the typed kernels are measured against.
std::vector<Value> ReferenceUnion(const std::vector<Value>& a,
                                  const std::vector<Value>& b) {
  std::vector<Value> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<Value> ReferenceIntersect(const std::vector<Value>& a,
                                      const std::vector<Value>& b) {
  std::vector<Value> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

void BenchItemSetKernels(size_t pool, int repeats) {
  bench::Banner("columnar: ItemSet set ops, typed kernels vs generic merge");
  // Two int64 pools with ~50% overlap: a = evens in [0, 2*pool),
  // b = multiples of 4 plus odds — overlapping but not nested.
  std::vector<Value> a_vals, b_vals;
  for (size_t i = 0; i < pool; ++i) {
    a_vals.push_back(Value(static_cast<int64_t>(2 * i)));
    b_vals.push_back(Value(static_cast<int64_t>(
        i % 2 == 0 ? 4 * (i / 2) : 2 * i + 1)));
  }
  std::sort(b_vals.begin(), b_vals.end());
  b_vals.erase(std::unique(b_vals.begin(), b_vals.end()), b_vals.end());
  const ItemSet a = ItemSet::FromSortedUnique(a_vals);
  const ItemSet b = ItemSet::FromSortedUnique(b_vals);

  // Correctness against the generic reference.
  FUSION_CHECK(ItemSet::Union(a, b).ToString() ==
               ItemSet::FromSortedUnique(ReferenceUnion(a_vals, b_vals))
                   .ToString());
  FUSION_CHECK(ItemSet::Intersect(a, b).ToString() ==
               ItemSet::FromSortedUnique(ReferenceIntersect(a_vals, b_vals))
                   .ToString());

  const auto t_ref = std::chrono::steady_clock::now();
  size_t sink_ref = 0;
  for (int i = 0; i < repeats; ++i) {
    sink_ref += ReferenceUnion(a_vals, b_vals).size();
    sink_ref += ReferenceIntersect(a_vals, b_vals).size();
  }
  const double ref_ms = MillisSince(t_ref);

  const auto t_kern = std::chrono::steady_clock::now();
  size_t sink_kern = 0;
  for (int i = 0; i < repeats; ++i) {
    sink_kern += ItemSet::Union(a, b).size();
    sink_kern += ItemSet::Intersect(a, b).size();
  }
  const double kern_ms = MillisSince(t_kern);
  FUSION_CHECK(sink_ref == sink_kern);

  std::printf(
      "  %zu-element pools x %d repeats (union + intersect)\n"
      "  generic Value merge %10.2f ms\n"
      "  typed kernels       %10.2f ms\n"
      "  speedup             %10.2fx\n",
      pool, repeats, ref_ms, kern_ms,
      kern_ms > 0.0 ? ref_ms / kern_ms : 0.0);
}

/// Interleaved accumulation, the shape of the executors' per-source
/// observation sets: `pieces` stride-`pieces` slices of [0, pool), merged
/// one at a time, so every merge after the first interleaves. The typed
/// UnionInPlace is timed against the generic Value fold it replaced.
void BenchUnionInPlaceInterleaved(size_t pool, size_t pieces, int repeats) {
  bench::Banner("columnar: interleaved UnionInPlace accumulation");
  std::vector<ItemSet> slices;
  for (size_t p = 0; p < pieces; ++p) {
    std::vector<Value> slice;
    for (size_t i = p; i < pool; i += pieces) {
      slice.push_back(Value(static_cast<int64_t>(i)));
    }
    slices.push_back(ItemSet::FromSortedUnique(std::move(slice)));
  }
  auto generic_fold = [&] {
    std::vector<Value> acc;
    for (const ItemSet& slice : slices) {
      acc = ReferenceUnion(acc, slice.ToValues());
    }
    return acc;
  };
  auto typed_fold = [&] {
    ItemSet acc;
    for (const ItemSet& slice : slices) acc.UnionInPlace(slice);
    return acc;
  };
  FUSION_CHECK(typed_fold().ToString() ==
               ItemSet::FromSortedUnique(generic_fold()).ToString());
  FUSION_CHECK(typed_fold().size() == pool);

  const auto t_ref = std::chrono::steady_clock::now();
  size_t sink_ref = 0;
  for (int i = 0; i < repeats; ++i) sink_ref += generic_fold().size();
  const double ref_ms = MillisSince(t_ref);
  const auto t_kern = std::chrono::steady_clock::now();
  size_t sink_kern = 0;
  for (int i = 0; i < repeats; ++i) sink_kern += typed_fold().size();
  const double kern_ms = MillisSince(t_kern);
  FUSION_CHECK(sink_ref == sink_kern);
  std::printf(
      "  %zu items in %zu interleaved slices x %d repeats\n"
      "  generic Value fold  %10.2f ms\n"
      "  typed UnionInPlace  %10.2f ms\n"
      "  speedup             %10.2fx\n",
      pool, pieces, repeats, ref_ms, kern_ms,
      kern_ms > 0.0 ? ref_ms / kern_ms : 0.0);
}

/// The executors' n-ary union op: one UnionAll pass over `ways` overlapping
/// inputs against the k - 1 successive pairwise Unions it replaced.
void BenchUnionAll(size_t per_input, size_t ways, int repeats) {
  bench::Banner("columnar: n-ary UnionAll vs repeated pairwise Union");
  Rng rng(17);
  std::vector<ItemSet> inputs;
  for (size_t w = 0; w < ways; ++w) {
    std::vector<Value> values;
    for (size_t i = 0; i < per_input; ++i) {
      values.push_back(Value(rng.Uniform(0, static_cast<int64_t>(
                                                 per_input * ways / 2))));
    }
    inputs.push_back(ItemSet(std::move(values)));
  }
  std::vector<const ItemSet*> pointers;
  for (const ItemSet& input : inputs) pointers.push_back(&input);
  auto pairwise = [&] {
    ItemSet acc;
    for (const ItemSet& input : inputs) acc = ItemSet::Union(acc, input);
    return acc;
  };
  std::vector<Value> reference;
  for (const ItemSet& input : inputs) {
    reference = ReferenceUnion(reference, input.ToValues());
  }
  const std::string expected =
      ItemSet::FromSortedUnique(std::move(reference)).ToString();
  FUSION_CHECK(ItemSet::UnionAll(pointers).ToString() == expected);
  FUSION_CHECK(pairwise().ToString() == expected);

  const auto t_pair = std::chrono::steady_clock::now();
  size_t sink_pair = 0;
  for (int i = 0; i < repeats; ++i) sink_pair += pairwise().size();
  const double pair_ms = MillisSince(t_pair);
  const auto t_all = std::chrono::steady_clock::now();
  size_t sink_all = 0;
  for (int i = 0; i < repeats; ++i) {
    sink_all += ItemSet::UnionAll(pointers).size();
  }
  const double all_ms = MillisSince(t_all);
  FUSION_CHECK(sink_pair == sink_all);
  std::printf(
      "  %zu-way union of %zu-item inputs x %d repeats\n"
      "  pairwise Union      %10.2f ms\n"
      "  UnionAll            %10.2f ms\n"
      "  speedup             %10.2fx\n",
      ways, per_input, repeats, pair_ms, all_ms,
      all_ms > 0.0 ? pair_ms / all_ms : 0.0);
}

/// The session's learned universe bound: each "query" reports `sources`
/// per-source item sets drawn from a `universe`-item federation. The
/// incremental Value hash set is timed against rebuilding a sorted ItemSet
/// union per source per query; the two counts must agree after every query.
void BenchUniverseAccumulation(size_t universe, size_t sources,
                               size_t per_source, int queries) {
  bench::Banner("columnar: learned universe, hash set vs ItemSet rebuild");
  Rng rng(23);
  std::vector<std::vector<ItemSet>> reports(static_cast<size_t>(queries));
  for (std::vector<ItemSet>& report : reports) {
    for (size_t j = 0; j < sources; ++j) {
      std::vector<Value> values;
      for (size_t i = 0; i < per_source; ++i) {
        values.push_back(
            Value(rng.Uniform(0, static_cast<int64_t>(universe) - 1)));
      }
      report.push_back(ItemSet(std::move(values)));
    }
  }
  std::vector<size_t> rebuilt_sizes, hashed_sizes;
  const auto t_rebuild = std::chrono::steady_clock::now();
  {
    ItemSet seen;
    for (const std::vector<ItemSet>& report : reports) {
      for (const ItemSet& items : report) seen = ItemSet::Union(seen, items);
      rebuilt_sizes.push_back(seen.size());
    }
  }
  const double rebuild_ms = MillisSince(t_rebuild);
  const auto t_hash = std::chrono::steady_clock::now();
  {
    std::unordered_set<Value, ValueHash> seen;
    for (const std::vector<ItemSet>& report : reports) {
      for (const ItemSet& items : report) seen.insert(items.begin(), items.end());
      hashed_sizes.push_back(seen.size());
    }
  }
  const double hash_ms = MillisSince(t_hash);
  FUSION_CHECK(rebuilt_sizes == hashed_sizes);
  // What the session does while every observed set is int-form.
  std::vector<size_t> int_sizes;
  const auto t_int = std::chrono::steady_clock::now();
  {
    std::unordered_set<int64_t> seen;
    for (const std::vector<ItemSet>& report : reports) {
      for (const ItemSet& items : report) {
        seen.insert(items.ints().begin(), items.ints().end());
      }
      int_sizes.push_back(seen.size());
    }
  }
  const double int_ms = MillisSince(t_int);
  FUSION_CHECK(int_sizes == hashed_sizes);
  std::printf(
      "  %d queries x %zu sources x %zu items, %zu-item universe\n"
      "  ItemSet rebuild     %10.2f ms\n"
      "  Value hash set      %10.2f ms\n"
      "  int64 hash set      %10.2f ms\n"
      "  speedup             %10.2fx (Value hash set vs rebuild)\n"
      "  speedup             %10.2fx (int64 vs Value hash set)\n",
      queries, sources, per_source, universe, rebuild_ms, hash_ms, int_ms,
      hash_ms > 0.0 ? rebuild_ms / hash_ms : 0.0,
      int_ms > 0.0 ? hash_ms / int_ms : 0.0);
}

/// Value-storage set difference, the shape the item sets had before int
/// form: a typed int64 comparison over 40-byte Value variants, then a
/// right-sizing copy of the survivors.
std::vector<Value> ValueFormDifference(const std::vector<Value>& a,
                                       const std::vector<Value>& b) {
  std::vector<Value> out;
  out.reserve(a.size());
  std::set_difference(
      a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
      [](const Value& x, const Value& y) { return x.int64() < y.int64(); });
  out.shrink_to_fit();
  return out;
}

/// Value-storage n-ary union: decode every run to int64 once, merge
/// neighbouring runs in log2(k) passes, encode the survivors once.
std::vector<Value> ValueFormUnionAll(
    const std::vector<std::vector<Value>>& inputs) {
  std::vector<std::vector<int64_t>> level;
  for (const std::vector<Value>& input : inputs) {
    std::vector<int64_t> run;
    run.reserve(input.size());
    for (const Value& v : input) run.push_back(v.int64());
    level.push_back(std::move(run));
  }
  while (level.size() > 1) {
    std::vector<std::vector<int64_t>> next;
    for (size_t r = 0; r < level.size(); r += 2) {
      if (r + 1 == level.size()) {
        next.push_back(std::move(level[r]));
        break;
      }
      std::vector<int64_t> merged;
      merged.reserve(level[r].size() + level[r + 1].size());
      std::set_union(level[r].begin(), level[r].end(), level[r + 1].begin(),
                     level[r + 1].end(), std::back_inserter(merged));
      next.push_back(std::move(merged));
    }
    level.swap(next);
  }
  std::vector<Value> out;
  out.reserve(level[0].size());
  for (const int64_t x : level[0]) out.emplace_back(x);
  return out;
}

/// Prints one int-form vs Value-form row, per op.
void PrintPair(const char* what, int repeats, double value_ms, double int_ms) {
  std::printf("  %-24s Value %9.2f us   int %9.2f us   %6.2fx\n", what,
              1000.0 * value_ms / repeats, 1000.0 * int_ms / repeats,
              int_ms > 0.0 ? value_ms / int_ms : 0.0);
}

/// The serving path's set-op layer on an int64 merge attribute, per op:
/// SJA+'s `pending − y_k` chain, the whole-set copy every cache hit makes,
/// and the executors' 8-way ∪ — int-form ItemSets against the same work
/// over Value storage.
void BenchIntFormSetOps(size_t items, int repeats) {
  bench::Banner("columnar: int-form item sets vs Value storage, per op");
  Rng rng(29);
  auto draw = [&](size_t n, int64_t range) {
    std::vector<int64_t> xs;
    for (size_t i = 0; i < n; ++i) xs.push_back(rng.Uniform(0, range - 1));
    return ItemSet::FromInts(std::move(xs));
  };
  const int64_t range = static_cast<int64_t>(items) * 2;

  // SJA+ difference chain: 6 steps, each subtracting ~1/3 as many items.
  const ItemSet start = draw(items, range);
  std::vector<ItemSet> ys;
  for (int k = 0; k < 6; ++k) ys.push_back(draw(items / 3, range));
  std::vector<std::vector<Value>> ys_values;
  for (const ItemSet& y : ys) ys_values.push_back(y.ToValues());
  const std::vector<Value> start_values = start.ToValues();
  auto int_chain = [&] {
    ItemSet pending = start;
    for (const ItemSet& y : ys) pending = ItemSet::Difference(pending, y);
    return pending;
  };
  auto value_chain = [&] {
    std::vector<Value> pending = start_values;
    for (const std::vector<Value>& y : ys_values) {
      pending = ValueFormDifference(pending, y);
    }
    return pending;
  };
  FUSION_CHECK(int_chain().ToValues() == value_chain());
  FUSION_CHECK(int_chain().is_int64());

  // 8-way union of overlapping inputs.
  std::vector<ItemSet> parts;
  for (int w = 0; w < 8; ++w) parts.push_back(draw(items / 2, range));
  std::vector<const ItemSet*> part_ptrs;
  std::vector<std::vector<Value>> part_values;
  for (const ItemSet& part : parts) {
    part_ptrs.push_back(&part);
    part_values.push_back(part.ToValues());
  }
  FUSION_CHECK(ItemSet::UnionAll(part_ptrs).ToValues() ==
               ValueFormUnionAll(part_values));

  size_t sink_value = 0, sink_int = 0;
  auto t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) sink_value += value_chain().size();
  const double chain_value_ms = MillisSince(t);
  t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) sink_int += int_chain().size();
  const double chain_int_ms = MillisSince(t);

  t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const std::vector<Value> copy = start_values;
    sink_value += copy.size();
  }
  const double copy_value_ms = MillisSince(t);
  t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const ItemSet copy = start;
    sink_int += copy.size();
  }
  const double copy_int_ms = MillisSince(t);

  t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    sink_value += ValueFormUnionAll(part_values).size();
  }
  const double union_value_ms = MillisSince(t);
  t = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    sink_int += ItemSet::UnionAll(part_ptrs).size();
  }
  const double union_int_ms = MillisSince(t);
  FUSION_CHECK(sink_value == sink_int);

  std::printf("  %zu-item sets x %d repeats\n", items, repeats);
  PrintPair("difference chain (6)", repeats, chain_value_ms, chain_int_ms);
  PrintPair("cache-hit copy", repeats, copy_value_ms, copy_int_ms);
  PrintPair("8-way UnionAll", repeats, union_value_ms, union_int_ms);
}

/// The int-form kernels as they were before galloping, the bitmap union and
/// branch-free merging: a std::set_* merge into a reserved vector,
/// right-sized with shrink_to_fit. The reference the new kernels are timed
/// and checked against.
template <typename Kernel>
std::vector<int64_t> StdMerge(const std::vector<int64_t>& a,
                              const std::vector<int64_t>& b, size_t reserve,
                              Kernel kernel) {
  std::vector<int64_t> out;
  out.reserve(reserve);
  kernel(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.shrink_to_fit();
  return out;
}

/// The former n-ary int union: concatenate, then merge neighbouring runs with
/// std::set_union in log2(k) passes over two buffers.
std::vector<int64_t> StdUnionAll(const std::vector<ItemSet>& inputs) {
  std::vector<int64_t> flat;
  std::vector<size_t> bounds = {0};
  for (const ItemSet& input : inputs) {
    flat.insert(flat.end(), input.ints().begin(), input.ints().end());
    bounds.push_back(flat.size());
  }
  std::vector<int64_t> other(flat.size());
  std::vector<size_t> next;
  while (bounds.size() > 2) {
    next.assign(1, 0);
    auto out = other.begin();
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const auto a = flat.begin() + static_cast<ptrdiff_t>(bounds[r]);
      const auto mid = flat.begin() + static_cast<ptrdiff_t>(bounds[r + 1]);
      const auto b = r + 2 < bounds.size()
                         ? flat.begin() + static_cast<ptrdiff_t>(bounds[r + 2])
                         : mid;
      out = std::set_union(a, mid, mid, b, out);
      next.push_back(static_cast<size_t>(out - other.begin()));
    }
    flat.swap(other);
    bounds.swap(next);
  }
  flat.resize(bounds.back());
  flat.shrink_to_fit();
  return flat;
}

/// The serving path's int-form set-op shapes, each over `kDistinct` distinct
/// inputs visited round-robin: repeating one input pair lets the branch
/// predictor learn a merge's compare outcomes and under-reports its cost
/// several-fold. Times the std::set_* kernels (StdMerge, StdUnionAll,
/// std::includes) against ItemSet's, asserting equal results for every
/// input first.
void BenchServingSetOps(int rounds) {
  bench::Banner("columnar: int-form set ops on rotating serving shapes");
  constexpr size_t kDistinct = 256;
  constexpr int64_t kUniverse = 20000;
  Rng rng(31);
  auto draw = [&](size_t n) {
    std::vector<int64_t> xs;
    for (size_t i = 0; i < n; ++i) xs.push_back(rng.Uniform(0, kUniverse - 1));
    return ItemSet::FromInts(std::move(xs));
  };
  auto sample_of = [&](const ItemSet& set, size_t n) {
    std::vector<int64_t> xs;
    for (size_t i = 0; i < n; ++i) {
      xs.push_back(set.ints()[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(set.size()) - 1))]);
    }
    return ItemSet::FromInts(std::move(xs));
  };
  // One row per shape: `parent` and `change` run the op on input i and
  // return its items; the change's result must equal the parent's.
  struct Shape {
    const char* name;
    std::function<std::vector<int64_t>(size_t)> parent;
    std::function<std::vector<int64_t>(size_t)> change;
  };
  std::vector<std::vector<ItemSet>> unions(kDistinct);
  std::vector<std::vector<const ItemSet*>> union_ptrs(kDistinct);
  std::vector<ItemSet> pending, removed, sq, x, left, right, sub, super;
  for (size_t i = 0; i < kDistinct; ++i) {
    // X_1 = ∪_j sq(c_1, R_j): 8 answers of ~240 items.
    for (int w = 0; w < 8; ++w) unions[i].push_back(draw(240));
    for (const ItemSet& part : unions[i]) union_ptrs[i].push_back(&part);
    // SJA+'s P − y_k: y_k = sjq(c_k, R_k, P) ⊆ P.
    pending.push_back(draw(1900));
    removed.push_back(sample_of(pending.back(), 40));
    // FindSemiJoin's sq ∩ X derivation, and a balanced ∩.
    sq.push_back(draw(330));
    x.push_back(draw(1900));
    left.push_back(draw(2000));
    right.push_back(draw(2000));
    // The anchor subset test X ⊆ Y, true (the full-scan case).
    super.push_back(draw(2600));
    sub.push_back(sample_of(super.back(), 1900));
  }
  auto set_difference = [](auto... args) {
    return std::set_difference(args...);
  };
  auto set_intersection = [](auto... args) {
    return std::set_intersection(args...);
  };
  auto includes = [](const ItemSet& a, const ItemSet& b) {
    return std::vector<int64_t>{std::includes(
        b.ints().begin(), b.ints().end(), a.ints().begin(), a.ints().end())};
  };
  const Shape shapes[] = {
      {"8-way union",
       [&](size_t i) { return StdUnionAll(unions[i]); },
       [&](size_t i) { return ItemSet::UnionAll(union_ptrs[i]).ints(); }},
      {"difference P - y_k",
       [&](size_t i) {
         return StdMerge(pending[i].ints(), removed[i].ints(),
                         pending[i].size(), set_difference);
       },
       [&](size_t i) {
         return ItemSet::Difference(pending[i], removed[i]).ints();
       }},
      {"intersect sq, X",
       [&](size_t i) {
         return StdMerge(sq[i].ints(), x[i].ints(), sq[i].size(),
                         set_intersection);
       },
       [&](size_t i) { return ItemSet::Intersect(sq[i], x[i]).ints(); }},
      {"intersect balanced",
       [&](size_t i) {
         return StdMerge(left[i].ints(), right[i].ints(), left[i].size(),
                         set_intersection);
       },
       [&](size_t i) { return ItemSet::Intersect(left[i], right[i]).ints(); }},
      {"subset X of Y",
       [&](size_t i) { return includes(sub[i], super[i]); },
       [&](size_t i) {
         return std::vector<int64_t>{sub[i].IsSubsetOf(super[i])};
       }},
  };
  std::printf("  %zu distinct inputs per shape, %d rounds; median of 5 "
              "alternating blocks\n",
              kDistinct, rounds);
  for (const Shape& shape : shapes) {
    size_t items = 0;
    for (size_t i = 0; i < kDistinct; ++i) {
      const std::vector<int64_t> expected = shape.parent(i);
      FUSION_CHECK(shape.change(i) == expected);
      items += expected.size();
    }
    std::vector<double> parent_us, change_us;
    size_t sink_parent = 0, sink_change = 0;
    for (int block = 0; block < 5; ++block) {
      auto t = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < kDistinct; ++i) {
          sink_parent += shape.parent(i).size();
        }
      }
      parent_us.push_back(1000.0 * MillisSince(t) / (rounds * kDistinct));
      t = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < kDistinct; ++i) {
          sink_change += shape.change(i).size();
        }
      }
      change_us.push_back(1000.0 * MillisSince(t) / (rounds * kDistinct));
    }
    FUSION_CHECK(sink_parent == sink_change);
    std::sort(parent_us.begin(), parent_us.end());
    std::sort(change_us.begin(), change_us.end());
    std::printf("  %-20s std::set_* %8.2f us   ItemSet %8.2f us   %5.2fx  "
                "(%zu result items per op)\n",
                shape.name, parent_us[2], change_us[2],
                change_us[2] > 0.0 ? parent_us[2] / change_us[2] : 0.0,
                items / kDistinct);
  }
}

void Run(bool smoke) {
  const size_t rows = smoke ? 5000 : 150000;
  const int repeats = smoke ? 2 : 20;
  BenchLocalEval(rows, repeats, smoke);
  BenchEqualityDriven(smoke ? 20 : 5000);
  BenchItemSetKernels(smoke ? 5000 : 200000, smoke ? 3 : 50);
  BenchUnionInPlaceInterleaved(smoke ? 4000 : 100000, 8, smoke ? 2 : 20);
  BenchUnionAll(smoke ? 500 : 20000, 8, smoke ? 2 : 50);
  BenchIntFormSetOps(smoke ? 600 : 3000, smoke ? 3 : 2000);
  BenchServingSetOps(smoke ? 1 : 40);
  BenchUniverseAccumulation(20000, 8, smoke ? 200 : 1000, smoke ? 20 : 500);
  if (smoke) std::printf("bench_columnar: ok\n");
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  fusion::Run(smoke);
  return 0;
}

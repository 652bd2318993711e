#ifndef FUSION_RELATIONAL_COLUMNAR_H_
#define FUSION_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/condition.h"
#include "relational/schema.h"

namespace fusion {

/// A dense bitmap over row positions — the currency of batch condition
/// evaluation. Predicates are evaluated column-at-a-time into one of these,
/// and AND/OR/NOT become word-wide bit operations instead of per-row
/// branches. Semantics mirror the row evaluator exactly: bit i set ⇔
/// Condition::Evaluate would return true for row i (NULL attribute values
/// fail every atom, so they read as 0 in atom bitmaps and flip to 1 under
/// NOT, just like the scalar path).
class SelectionBitmap {
 public:
  SelectionBitmap() = default;
  explicit SelectionBitmap(size_t size, bool value = false);

  size_t size() const { return size_; }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }

  void SetAll();
  void ClearAll();
  /// this &= other / this |= other; sizes must match.
  void AndWith(const SelectionBitmap& other);
  void OrWith(const SelectionBitmap& other);
  /// Logical NOT (the tail beyond size() stays zero).
  void FlipAll();

  /// Number of set bits (popcount over the words).
  size_t CountSet() const;

  /// Calls fn(row) for every set bit in ascending row order.
  template <typename Fn>
  void ForEachSet(Fn fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn((w << 6) + static_cast<size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  std::vector<uint64_t>& words() { return words_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// One attribute's values in contiguous, type-specialized storage. Exactly
/// one of the payload vectors is populated, per `type`:
///  - kInt64  → ints[row]
///  - kDouble → dbls[row]
///  - kString → codes[row] indexes into `dict`, the column's sorted-unique
///    dictionary (the value pool); code order therefore equals value order,
///    so range predicates compile to integer comparisons on codes.
/// NULL rows carry a 0 bit in `valid` (their payload slot is a zero filler).
struct Column {
  ValueType type = ValueType::kNull;
  SelectionBitmap valid;  // bit per row; 1 = non-NULL
  bool has_nulls = false;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<uint32_t> codes;
  std::vector<std::string> dict;

  size_t ApproxBytes() const;
};

/// Lightweight typed accessor over one column of a ColumnarTable.
class ColumnView {
 public:
  ColumnView(const Column* column, size_t rows)
      : column_(column), rows_(rows) {}

  ValueType type() const { return column_->type; }
  size_t size() const { return rows_; }
  bool IsNull(size_t row) const { return !column_->valid.Test(row); }
  bool has_nulls() const { return column_->has_nulls; }

  const int64_t* ints() const { return column_->ints.data(); }
  const double* dbls() const { return column_->dbls.data(); }
  const uint32_t* codes() const { return column_->codes.data(); }
  const std::vector<std::string>& dict() const { return column_->dict; }

  /// Materializes row's value (NULL for invalid rows).
  Value GetValue(size_t row) const;

  const Column& column() const { return *column_; }

 private:
  const Column* column_;
  size_t rows_;
};

/// Column-major mirror of a relation: per-attribute contiguous arrays plus
/// validity bitmaps, built once from the row store and immutable thereafter.
/// Build fails (kInvalidArgument) if a non-NULL value's runtime type differs
/// from the schema's declared column type — callers fall back to the row
/// evaluator, so hand-assembled ill-typed relations keep their exact legacy
/// semantics.
///
/// The one mutable part is the equality row-list memo behind RowsEqual: the
/// batch evaluator drives `attr = k` conjunctions from it instead of scanning
/// every row.
class ColumnarTable {
 public:
  static Result<ColumnarTable> FromRows(const Schema& schema,
                                        const std::vector<Tuple>& rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  ColumnView column(size_t i) const { return ColumnView(&columns_[i], num_rows_); }

  /// Ascending positions of the rows whose column `column` (int64 or string)
  /// holds `key`: the int64 value itself, or the dictionary code for string
  /// columns. Lists are built on first use and memoized for the table's
  /// lifetime, so a constant is scanned for once however many queries name
  /// it. Only constants that were queried and match some row are kept; a
  /// column's lists partition its rows, so the memo never exceeds 4 bytes
  /// per row per queried column (plus one map node per list). Thread-safe.
  const std::vector<uint32_t>& RowsEqual(size_t column, int64_t key) const;

  /// Resident bytes of the column arrays. Deliberately excludes the
  /// RowsEqual memo: it grows with query history, and byte-budgeted caches
  /// size entries from this figure, so counting it would make eviction order
  /// (and with it metered cost) depend on which queries ran before.
  size_t ApproxBytes() const;

 private:
  struct RowListMemo {
    std::mutex mu;
    // Per column: key → ascending row list. Node-based, so references to
    // stored lists stay valid while other keys are inserted.
    std::vector<std::unordered_map<int64_t, std::vector<uint32_t>>> lists;
  };

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<Column> columns_;
  std::unique_ptr<RowListMemo> row_lists_ = std::make_unique<RowListMemo>();
};

/// Process-wide batch-evaluation statistics (relaxed atomics). The relational
/// layer cannot depend on obs/metrics, so the counters live here and the
/// serving/bench layers export them (perfbench/serve_bench reads these for
/// its `relational.batch_rows_per_query` metric).
struct ColumnarEvalStats {
  uint64_t batch_evals = 0;      // EvaluateBatch calls
  uint64_t rows_evaluated = 0;   // rows covered by those calls (the driving
                                 // row list's length when equality-driven)
  uint64_t row_lists_built = 0;  // RowsEqual memo misses (lists scanned for)
};
ColumnarEvalStats GetColumnarEvalStats();

}  // namespace fusion

#endif  // FUSION_RELATIONAL_COLUMNAR_H_

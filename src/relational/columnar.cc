#include "relational/columnar.h"

#include <algorithm>
#include <atomic>

#include "relational/condition_internal.h"

namespace fusion {

// ---------------------------------------------------------------------------
// SelectionBitmap
// ---------------------------------------------------------------------------

SelectionBitmap::SelectionBitmap(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~uint64_t{0} : 0) {
  if (value) {
    SetAll();  // re-run to mask the tail word
  }
}

void SelectionBitmap::SetAll() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() = (uint64_t{1} << tail) - 1;
  }
}

void SelectionBitmap::ClearAll() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
}

void SelectionBitmap::AndWith(const SelectionBitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void SelectionBitmap::OrWith(const SelectionBitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void SelectionBitmap::FlipAll() {
  for (uint64_t& w : words_) w = ~w;
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

size_t SelectionBitmap::CountSet() const {
  size_t n = 0;
  for (const uint64_t w : words_) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Column / ColumnarTable
// ---------------------------------------------------------------------------

size_t Column::ApproxBytes() const {
  size_t bytes = valid.words().capacity() * sizeof(uint64_t) +
                 ints.capacity() * sizeof(int64_t) +
                 dbls.capacity() * sizeof(double) +
                 codes.capacity() * sizeof(uint32_t);
  for (const std::string& s : dict) bytes += sizeof(std::string) + s.capacity();
  return bytes;
}

Value ColumnView::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type()) {
    case ValueType::kInt64:
      return Value(column_->ints[row]);
    case ValueType::kDouble:
      return Value(column_->dbls[row]);
    case ValueType::kString:
      return Value(column_->dict[column_->codes[row]]);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Result<ColumnarTable> ColumnarTable::FromRows(const Schema& schema,
                                              const std::vector<Tuple>& rows) {
  ColumnarTable out;
  out.schema_ = schema;
  out.num_rows_ = rows.size();
  out.columns_.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    Column& col = out.columns_[c];
    col.type = schema.column(c).type;
    col.valid = SelectionBitmap(rows.size(), false);
    switch (col.type) {
      case ValueType::kInt64:
        col.ints.assign(rows.size(), 0);
        break;
      case ValueType::kDouble:
        col.dbls.assign(rows.size(), 0.0);
        break;
      case ValueType::kString:
        col.codes.assign(rows.size(), 0);
        break;
      case ValueType::kNull:
        return Status::InvalidArgument("column '" + schema.column(c).name +
                                       "' has null type");
    }
  }
  // First pass: scatter typed payloads (strings collect raw for dictionary
  // encoding below).
  std::vector<std::vector<const std::string*>> raw_strings(
      schema.num_columns());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Tuple& t = rows[r];
    for (size_t c = 0; c < out.columns_.size(); ++c) {
      const Value& v = t[c];
      if (v.is_null()) continue;
      Column& col = out.columns_[c];
      if (v.type() != col.type) {
        return Status::InvalidArgument(
            "row value type " + std::string(ValueTypeName(v.type())) +
            " does not match declared column type for '" +
            schema.column(c).name + "'");
      }
      col.valid.Set(r);
      switch (col.type) {
        case ValueType::kInt64:
          col.ints[r] = v.int64();
          break;
        case ValueType::kDouble:
          col.dbls[r] = v.dbl();
          break;
        case ValueType::kString:
          if (raw_strings[c].empty()) raw_strings[c].reserve(rows.size());
          raw_strings[c].push_back(&v.str());
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  // Dictionary-encode string columns: the dict is the sorted-unique value
  // pool, so code order equals value order.
  for (size_t c = 0; c < out.columns_.size(); ++c) {
    Column& col = out.columns_[c];
    col.has_nulls = col.valid.CountSet() != rows.size();
    if (col.type != ValueType::kString) continue;
    std::vector<std::string> dict;
    dict.reserve(raw_strings[c].size());
    for (const std::string* s : raw_strings[c]) dict.push_back(*s);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    dict.shrink_to_fit();
    size_t next = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (!col.valid.Test(r)) continue;
      const std::string& s = *raw_strings[c][next++];
      const auto it = std::lower_bound(dict.begin(), dict.end(), s);
      col.codes[r] = static_cast<uint32_t>(it - dict.begin());
    }
    col.dict = std::move(dict);
  }
  return out;
}

size_t ColumnarTable::ApproxBytes() const {
  size_t bytes = sizeof(ColumnarTable);
  for (const Column& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// Equality row lists
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_batch_evals{0};
std::atomic<uint64_t> g_rows_evaluated{0};
std::atomic<uint64_t> g_row_lists_built{0};

}  // namespace

const std::vector<uint32_t>& ColumnarTable::RowsEqual(size_t column,
                                                      int64_t key) const {
  static const std::vector<uint32_t> kNoRows;
  std::lock_guard<std::mutex> lock(row_lists_->mu);
  if (row_lists_->lists.empty()) row_lists_->lists.resize(columns_.size());
  std::unordered_map<int64_t, std::vector<uint32_t>>& lists =
      row_lists_->lists[column];
  const auto it = lists.find(key);
  if (it != lists.end()) return it->second;
  g_row_lists_built.fetch_add(1, std::memory_order_relaxed);
  const Column& col = columns_[column];
  std::vector<uint32_t> rows;
  const auto collect = [&](const auto* v, auto k) {
    for (size_t r = 0; r < num_rows_; ++r) {
      if (v[r] == k && col.valid.Test(r)) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
  };
  if (col.type == ValueType::kInt64) {
    collect(col.ints.data(), key);
  } else if (col.type == ValueType::kString) {
    collect(col.codes.data(), static_cast<uint32_t>(key));
  }
  // A constant no row holds is not memoized: keeping it would let the memo
  // grow with every distinct miss ever queried.
  if (rows.empty()) return kNoRows;
  rows.shrink_to_fit();
  return lists.emplace(key, std::move(rows)).first->second;
}

// ---------------------------------------------------------------------------
// Batch condition evaluation
// ---------------------------------------------------------------------------

namespace {

/// Three-way comparison matching Value::Compare for same-width scalars:
/// NaN compares "equal" to everything exactly as the Value operators do
/// (both < and > false), so the batch and row paths agree bit-for-bit even
/// on pathological doubles.
template <typename T>
inline int Cmp3(T a, T b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

inline bool OpHolds(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

// The atom kernels below are written once against a driver, which decides
// which rows a per-row predicate runs on:
//  - BitmapDriver scans every row of the column into a SelectionBitmap;
//  - RowListDriver filters an ascending row list in place (the rows an
//    equality-driven conjunction still has to check).
// Both keep row r iff pred(r) holds and the column is non-NULL at r, so an
// atom means the same thing whichever driver runs it.

/// The scan driver: writes the predicate over all rows, 64 rows per word.
class BitmapDriver {
 public:
  BitmapDriver(const ColumnView& col, SelectionBitmap* out)
      : col_(col), out_(out) {}

  template <typename Pred>
  void Keep(Pred pred) {
    std::vector<uint64_t>& words = out_->words();
    const size_t rows = col_.size();
    for (size_t w = 0; w < words.size(); ++w) {
      const size_t base = w << 6;
      const size_t n = std::min<size_t>(64, rows - base);
      uint64_t bits = 0;
      for (size_t j = 0; j < n; ++j) {
        bits |= static_cast<uint64_t>(pred(base + j)) << j;
      }
      words[w] = bits;
    }
    if (col_.has_nulls()) out_->AndWith(col_.column().valid);
  }

  /// A row-independent outcome (e.g. a cross-type compare that resolves
  /// purely by type rank): `verdict` on every valid row.
  void KeepAll(bool verdict) {
    if (!verdict) {
      out_->ClearAll();
    } else if (!col_.has_nulls()) {
      out_->SetAll();
    } else {
      out_->words() = col_.column().valid.words();
    }
  }

  /// Rows both `lhs` and `rhs` keep (each a callable taking a driver).
  template <typename Lhs, typename Rhs>
  void Both(Lhs lhs, Rhs rhs) {
    lhs(this);
    SelectionBitmap scratch(col_.size());
    BitmapDriver other(col_, &scratch);
    rhs(&other);
    out_->AndWith(scratch);
  }

 private:
  ColumnView col_;
  SelectionBitmap* out_;
};

/// The row-list driver: compacts `rows` to those the predicate keeps,
/// reading only the columnar arrays at those positions.
class RowListDriver {
 public:
  RowListDriver(const ColumnView& col, std::vector<uint32_t>* rows)
      : col_(col), rows_(rows) {}

  template <typename Pred>
  void Keep(Pred pred) {
    const bool nulls = col_.has_nulls();
    const SelectionBitmap& valid = col_.column().valid;
    uint32_t* rows = rows_->data();
    size_t n = 0;
    for (size_t i = 0; i < rows_->size(); ++i) {
      const uint32_t r = rows[i];
      rows[n] = r;
      n += static_cast<size_t>(pred(r) && (!nulls || valid.Test(r)));
    }
    rows_->resize(n);
  }

  void KeepAll(bool verdict) {
    if (!verdict) {
      rows_->clear();
    } else if (col_.has_nulls()) {
      Keep([](size_t) { return true; });
    }
  }

  template <typename Lhs, typename Rhs>
  void Both(Lhs lhs, Rhs rhs) {
    lhs(this);
    rhs(this);
  }

 private:
  ColumnView col_;
  std::vector<uint32_t>* rows_;
};

/// `get(r) op k` with the op switch hoisted out of the row loop. Every op is
/// phrased through < and > alone, so NaN (neither less nor greater than
/// anything) compares "equal" exactly as Cmp3 and Value::Compare make it.
template <typename Get, typename K, typename Driver>
void CompareKernel(Get get, CompareOp op, K k, Driver* d) {
  switch (op) {
    case CompareOp::kEq:
      d->Keep([&](size_t r) { return !(get(r) < k) && !(get(r) > k); });
      return;
    case CompareOp::kNe:
      d->Keep([&](size_t r) { return get(r) < k || get(r) > k; });
      return;
    case CompareOp::kLt:
      d->Keep([&](size_t r) { return get(r) < k; });
      return;
    case CompareOp::kLe:
      d->Keep([&](size_t r) { return !(get(r) > k); });
      return;
    case CompareOp::kGt:
      d->Keep([&](size_t r) { return get(r) > k; });
      return;
    case CompareOp::kGe:
      d->Keep([&](size_t r) { return !(get(r) < k); });
      return;
  }
}

/// Rank used for the cross-type portion of Value's total order (matches
/// TypeRank in value.cc: enum order null < int64 < double < string).
inline int TypeRankOf(ValueType t) { return static_cast<int>(t); }

/// Compiles `column op constant`. Exactly mirrors the scalar
/// CompareSatisfied(v, op, constant): same-type columns compare natively
/// (strings via dictionary-code ranges), int64/double cross-compares go
/// through double exactly like Value::Compare, and any other type mix
/// resolves to a constant verdict by type rank.
template <typename Driver>
void EvalCompare(const ColumnView& col, CompareOp op, const Value& constant,
                 Driver* d) {
  const ValueType ct = col.type();
  const ValueType kt = constant.type();
  const int64_t* ints = col.ints();
  const double* dbls = col.dbls();
  if (ct == ValueType::kInt64 && kt == ValueType::kInt64) {
    CompareKernel([ints](size_t r) { return ints[r]; }, op, constant.int64(),
                  d);
  } else if (ct == ValueType::kDouble && kt == ValueType::kDouble) {
    CompareKernel([dbls](size_t r) { return dbls[r]; }, op, constant.dbl(), d);
  } else if (ct == ValueType::kInt64 && kt == ValueType::kDouble) {
    CompareKernel([ints](size_t r) { return static_cast<double>(ints[r]); },
                  op, constant.dbl(), d);
  } else if (ct == ValueType::kDouble && kt == ValueType::kInt64) {
    CompareKernel([dbls](size_t r) { return dbls[r]; }, op,
                  static_cast<double>(constant.int64()), d);
  } else if (ct == ValueType::kString && kt == ValueType::kString) {
    // Binary-search the constant in the sorted dictionary: rows with
    // code < pos sort before the constant, code == pos (when present)
    // equal it, the rest sort after. Every CompareOp becomes one integer
    // comparison on the code array.
    const std::vector<std::string>& dict = col.dict();
    const auto it =
        std::lower_bound(dict.begin(), dict.end(), constant.str());
    const bool present = it != dict.end() && *it == constant.str();
    const uint32_t pos = static_cast<uint32_t>(it - dict.begin());
    const uint32_t after = present ? pos + 1 : pos;  // first code > constant
    const uint32_t* codes = col.codes();
    const auto get = [codes](size_t r) { return codes[r]; };
    switch (op) {
      case CompareOp::kEq:
      case CompareOp::kNe:
        if (!present) {
          d->KeepAll(op == CompareOp::kNe);
          return;
        }
        CompareKernel(get, op, pos, d);
        return;
      case CompareOp::kLt:
      case CompareOp::kGe:
        CompareKernel(get, op, pos, d);
        return;
      case CompareOp::kLe:
        CompareKernel(get, CompareOp::kLt, after, d);
        return;
      case CompareOp::kGt:
        CompareKernel(get, CompareOp::kGe, after, d);
        return;
    }
  } else {
    // Type ranks differ and the pair is not numeric-vs-numeric (that case is
    // handled above): Value::Compare resolves by rank alone, identically for
    // every non-NULL row. A NULL constant also lands here (rank 0, below
    // every value type).
    d->KeepAll(OpHolds(Cmp3(TypeRankOf(ct), TypeRankOf(kt)), op));
  }
}

/// v >= lo && v <= hi with Value semantics, as two compiled compares.
template <typename Driver>
void EvalBetween(const ColumnView& col, const Value& lo, const Value& hi,
                 Driver* d) {
  d->Both([&](auto* x) { EvalCompare(col, CompareOp::kGe, lo, x); },
          [&](auto* x) { EvalCompare(col, CompareOp::kLe, hi, x); });
}

/// v IN (set): per-row scan over the (typically small) candidate list, with
/// each equality test compiled per (column type, candidate type) pair using
/// the same Cmp3 expressions as EvalCompare — including the NaN and
/// int64/double cross-equality corners.
template <typename Driver>
void EvalIn(const ColumnView& col, const std::vector<Value>& set, Driver* d) {
  const ValueType ct = col.type();
  if (ct == ValueType::kString) {
    // Matching candidates reduce to a set of dictionary codes.
    const std::vector<std::string>& dict = col.dict();
    std::vector<uint32_t> match;
    for (const Value& cand : set) {
      if (cand.type() != ValueType::kString) continue;  // cross-type: never ==
      const auto it = std::lower_bound(dict.begin(), dict.end(), cand.str());
      if (it != dict.end() && *it == cand.str()) {
        match.push_back(static_cast<uint32_t>(it - dict.begin()));
      }
    }
    std::sort(match.begin(), match.end());
    match.erase(std::unique(match.begin(), match.end()), match.end());
    if (match.empty()) {
      d->KeepAll(false);
      return;
    }
    const uint32_t* v = col.codes();
    if (match.size() == 1) {
      const uint32_t m = match[0];
      d->Keep([&](size_t r) { return v[r] == m; });
    } else {
      d->Keep([&](size_t r) {
        return std::binary_search(match.begin(), match.end(), v[r]);
      });
    }
  } else if (ct == ValueType::kInt64) {
    // Split candidates: int64s compare exactly, doubles via the cross-type
    // double promotion (matching Value::Compare).
    std::vector<int64_t> ik;
    std::vector<double> dk;
    for (const Value& cand : set) {
      if (cand.type() == ValueType::kInt64) ik.push_back(cand.int64());
      else if (cand.type() == ValueType::kDouble) dk.push_back(cand.dbl());
    }
    const int64_t* v = col.ints();
    d->Keep([&](size_t r) {
      for (const int64_t k : ik) {
        if (Cmp3(v[r], k) == 0) return true;
      }
      if (!dk.empty()) {
        const double x = static_cast<double>(v[r]);
        for (const double k : dk) {
          if (Cmp3(x, k) == 0) return true;
        }
      }
      return false;
    });
  } else {  // kDouble
    std::vector<double> dk;
    for (const Value& cand : set) {
      if (cand.type() == ValueType::kDouble) dk.push_back(cand.dbl());
      else if (cand.type() == ValueType::kInt64) {
        dk.push_back(static_cast<double>(cand.int64()));
      }
    }
    const double* v = col.dbls();
    d->Keep([&](size_t r) {
      for (const double k : dk) {
        if (Cmp3(v[r], k) == 0) return true;
      }
      return false;
    });
  }
}

/// Runs a compare/BETWEEN/IN atom on its column through the driver that
/// `make_driver(column)` returns.
template <typename MakeDriver>
Status EvalAtom(const Condition::Node& node, const ColumnarTable& table,
                MakeDriver make_driver) {
  using Kind = Condition::Node::Kind;
  FUSION_ASSIGN_OR_RETURN(const size_t idx,
                          table.schema().IndexOf(node.attribute));
  const ColumnView col = table.column(idx);
  auto driver = make_driver(col);
  if (node.kind == Kind::kCompare) {
    EvalCompare(col, node.op, node.constant, &driver);
  } else if (node.kind == Kind::kBetween) {
    EvalBetween(col, node.lo, node.hi, &driver);
  } else {
    EvalIn(col, node.set, &driver);
  }
  return Status::Ok();
}

Status EvaluateNodeBatch(const Condition::Node& node,
                         const ColumnarTable& table, SelectionBitmap* out) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
      out->SetAll();
      return Status::Ok();
    case Kind::kFalse:
      out->ClearAll();
      return Status::Ok();
    case Kind::kCompare:
    case Kind::kBetween:
    case Kind::kIn:
      return EvalAtom(node, table, [out](const ColumnView& col) {
        return BitmapDriver(col, out);
      });
    case Kind::kAnd: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      SelectionBitmap rhs(table.num_rows());
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.right, table, &rhs));
      out->AndWith(rhs);
      return Status::Ok();
    }
    case Kind::kOr: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      SelectionBitmap rhs(table.num_rows());
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.right, table, &rhs));
      out->OrWith(rhs);
      return Status::Ok();
    }
    case Kind::kNot: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      out->FlipAll();
      return Status::Ok();
    }
  }
  return Status::Internal("corrupt condition node");
}

/// A conjunct `attr = k` that every satisfying row must meet, resolved to
/// the RowsEqual key of its column.
struct DrivingAtom {
  const Condition::Node* node = nullptr;
  size_t column = 0;
  int64_t key = 0;
  bool matches_nothing = false;  // string constant absent from the dict
};

/// Looks for a driving atom reachable from `node` through AND nodes only
/// (an OR or NOT above an atom means rows outside its list may qualify).
/// The constant must have the column's own type: int64 on int64, or string
/// on string via its dictionary code. Cross-type and NULL constants, and
/// double columns (NaN equals everything, -0.0 equals 0.0), are left to the
/// scan.
bool FindDrivingAtom(const Condition::Node& node, const ColumnarTable& table,
                     DrivingAtom* out) {
  using Kind = Condition::Node::Kind;
  if (node.kind == Kind::kAnd) {
    return FindDrivingAtom(*node.left, table, out) ||
           FindDrivingAtom(*node.right, table, out);
  }
  if (node.kind != Kind::kCompare || node.op != CompareOp::kEq) return false;
  const Result<size_t> idx = table.schema().IndexOf(node.attribute);
  if (!idx.ok()) return false;
  const ColumnView col = table.column(*idx);
  if (col.type() != node.constant.type()) return false;
  if (col.type() == ValueType::kInt64) {
    out->key = node.constant.int64();
  } else if (col.type() == ValueType::kString) {
    const std::vector<std::string>& dict = col.dict();
    const auto it =
        std::lower_bound(dict.begin(), dict.end(), node.constant.str());
    out->matches_nothing = it == dict.end() || *it != node.constant.str();
    out->key = it - dict.begin();
  } else {
    return false;
  }
  out->node = &node;
  out->column = *idx;
  return true;
}

/// Narrows `rows` to those satisfying `node`, skipping the driving atom
/// `skip` (its rows satisfy it by construction). Atoms filter the list in
/// place; an OR/NOT conjunct is scanned into a bitmap and the list probed
/// against it.
Status FilterRows(const Condition::Node& node, const ColumnarTable& table,
                  const Condition::Node* skip, std::vector<uint32_t>* rows) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
      return Status::Ok();
    case Kind::kFalse:
      rows->clear();
      return Status::Ok();
    case Kind::kCompare:
    case Kind::kBetween:
    case Kind::kIn:
      if (&node == skip) return Status::Ok();
      return EvalAtom(node, table, [rows](const ColumnView& col) {
        return RowListDriver(col, rows);
      });
    case Kind::kAnd:
      FUSION_RETURN_IF_ERROR(FilterRows(*node.left, table, skip, rows));
      return FilterRows(*node.right, table, skip, rows);
    case Kind::kOr:
    case Kind::kNot: {
      g_rows_evaluated.fetch_add(table.num_rows(), std::memory_order_relaxed);
      SelectionBitmap bits(table.num_rows());
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(node, table, &bits));
      rows->erase(std::remove_if(rows->begin(), rows->end(),
                                 [&](uint32_t r) { return !bits.Test(r); }),
                  rows->end());
      return Status::Ok();
    }
  }
  return Status::Internal("corrupt condition node");
}

}  // namespace

Status Condition::EvaluateBatch(const ColumnarTable& table,
                                SelectionBitmap* out) const {
  if (out->size() != table.num_rows()) {
    *out = SelectionBitmap(table.num_rows());
  }
  g_batch_evals.fetch_add(1, std::memory_order_relaxed);
  DrivingAtom drive;
  if (table.num_rows() <= UINT32_MAX &&
      FindDrivingAtom(*node_, table, &drive)) {
    // Equality-driven: start from the constant's memoized row list and
    // check the other conjuncts on those rows only.
    std::vector<uint32_t> rows;
    if (!drive.matches_nothing) {
      const std::vector<uint32_t>& list =
          table.RowsEqual(drive.column, drive.key);
      rows.assign(list.begin(), list.end());
    }
    g_rows_evaluated.fetch_add(rows.size(), std::memory_order_relaxed);
    FUSION_RETURN_IF_ERROR(FilterRows(*node_, table, drive.node, &rows));
    out->ClearAll();
    for (const uint32_t r : rows) out->Set(r);
    return Status::Ok();
  }
  g_rows_evaluated.fetch_add(table.num_rows(), std::memory_order_relaxed);
  return EvaluateNodeBatch(*node_, table, out);
}

ColumnarEvalStats GetColumnarEvalStats() {
  ColumnarEvalStats stats;
  stats.batch_evals = g_batch_evals.load(std::memory_order_relaxed);
  stats.rows_evaluated = g_rows_evaluated.load(std::memory_order_relaxed);
  stats.row_lists_built = g_row_lists_built.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace fusion

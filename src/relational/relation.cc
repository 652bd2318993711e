#include "relational/relation.h"

#include <algorithm>
#include <cstdlib>

#include "common/str_util.h"

namespace fusion {

Relation::Relation(const Relation& other)
    : schema_(other.schema_), tuples_(other.tuples_) {
  // Share the immutable columnar snapshot (cheap) rather than rebuilding.
  std::lock_guard<std::mutex> lock(other.columnar_mu_);
  columnar_ = other.columnar_;
  columnar_failed_rows_ = other.columnar_failed_rows_;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)), tuples_(std::move(other.tuples_)) {
  std::lock_guard<std::mutex> lock(other.columnar_mu_);
  columnar_ = std::move(other.columnar_);
  columnar_failed_rows_ = other.columnar_failed_rows_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  tuples_ = other.tuples_;
  std::shared_ptr<const ColumnarTable> snapshot;
  size_t failed_rows;
  {
    std::lock_guard<std::mutex> lock(other.columnar_mu_);
    snapshot = other.columnar_;
    failed_rows = other.columnar_failed_rows_;
  }
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_ = std::move(snapshot);
  columnar_failed_rows_ = failed_rows;
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  tuples_ = std::move(other.tuples_);
  std::shared_ptr<const ColumnarTable> snapshot;
  size_t failed_rows;
  {
    std::lock_guard<std::mutex> lock(other.columnar_mu_);
    snapshot = std::move(other.columnar_);
    failed_rows = other.columnar_failed_rows_;
  }
  std::lock_guard<std::mutex> lock(columnar_mu_);
  columnar_ = std::move(snapshot);
  columnar_failed_rows_ = failed_rows;
  return *this;
}

Status Relation::Append(Tuple tuple) {
  FUSION_RETURN_IF_ERROR(ValidateTuple(schema_, tuple));
  tuples_.push_back(std::move(tuple));
  return Status::Ok();
}

std::shared_ptr<const ColumnarTable> Relation::GetOrBuildColumnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (columnar_ && columnar_->num_rows() == tuples_.size()) return columnar_;
  if (columnar_failed_rows_ == tuples_.size()) return nullptr;
  Result<ColumnarTable> built = ColumnarTable::FromRows(schema_, tuples_);
  if (!built.ok()) {
    columnar_failed_rows_ = tuples_.size();
    columnar_.reset();
    return nullptr;
  }
  columnar_ =
      std::make_shared<const ColumnarTable>(std::move(built).value());
  columnar_failed_rows_ = SIZE_MAX;
  return columnar_;
}

void Relation::WarmColumnar() const { GetOrBuildColumnar(); }

std::shared_ptr<const ColumnarTable> Relation::columnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  if (columnar_ && columnar_->num_rows() == tuples_.size()) return columnar_;
  return nullptr;
}

namespace {

/// The int64 column's values at the selected rows, as an int-form set.
ItemSet GatherInts(const ColumnView& col, const SelectionBitmap& keep) {
  const int64_t* ints = col.ints();
  std::vector<int64_t> out;
  out.reserve(keep.CountSet());
  keep.ForEachSet([&](size_t r) { out.push_back(ints[r]); });
  return ItemSet::FromInts(std::move(out));
}

}  // namespace

Result<Relation> Relation::Select(const Condition& cond,
                                  EvalPath path) const {
  FUSION_RETURN_IF_ERROR(cond.Validate(schema_));
  if (UseColumnar(path)) {
    if (std::shared_ptr<const ColumnarTable> table = GetOrBuildColumnar()) {
      SelectionBitmap keep(table->num_rows());
      FUSION_RETURN_IF_ERROR(cond.EvaluateBatch(*table, &keep));
      Relation out(schema_);
      out.tuples_.reserve(keep.CountSet());
      keep.ForEachSet([&](size_t r) { out.tuples_.push_back(tuples_[r]); });
      return out;
    }
  }
  Relation out(schema_);
  for (const Tuple& t : tuples_) {
    FUSION_ASSIGN_OR_RETURN(const bool keep, cond.Evaluate(schema_, t));
    if (keep) out.AppendUnchecked(t);
  }
  return out;
}

Result<ItemSet> Relation::SelectItems(const Condition& cond,
                                      const std::string& attribute,
                                      EvalPath path) const {
  FUSION_RETURN_IF_ERROR(cond.Validate(schema_));
  FUSION_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(attribute));
  if (UseColumnar(path)) {
    if (std::shared_ptr<const ColumnarTable> table = GetOrBuildColumnar()) {
      SelectionBitmap keep(table->num_rows());
      FUSION_RETURN_IF_ERROR(cond.EvaluateBatch(*table, &keep));
      const ColumnView col = table->column(idx);
      if (col.has_nulls()) keep.AndWith(col.column().valid);
      if (col.type() == ValueType::kInt64) return GatherInts(col, keep);
      std::vector<Value> out;
      out.reserve(keep.CountSet());
      keep.ForEachSet([&](size_t r) { out.push_back(col.GetValue(r)); });
      return ItemSet(std::move(out));
    }
  }
  std::vector<Value> out;
  for (const Tuple& t : tuples_) {
    if (t[idx].is_null()) continue;
    FUSION_ASSIGN_OR_RETURN(const bool keep, cond.Evaluate(schema_, t));
    if (keep) out.push_back(t[idx]);
  }
  return ItemSet(std::move(out));
}

Result<ItemSet> Relation::SemiJoinItems(const Condition& cond,
                                        const std::string& attribute,
                                        const ItemSet& candidates,
                                        EvalPath path) const {
  FUSION_RETURN_IF_ERROR(cond.Validate(schema_));
  FUSION_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(attribute));
  if (UseColumnar(path)) {
    if (std::shared_ptr<const ColumnarTable> table = GetOrBuildColumnar()) {
      SelectionBitmap keep(table->num_rows());
      FUSION_RETURN_IF_ERROR(cond.EvaluateBatch(*table, &keep));
      const ColumnView col = table->column(idx);
      if (col.has_nulls()) keep.AndWith(col.column().valid);
      if (col.type() == ValueType::kInt64 && candidates.is_int64()) {
        // Selection ∩ candidates with the int-form merge kernels.
        return ItemSet::Intersect(GatherInts(col, keep), candidates);
      }
      std::vector<Value> out;
      keep.ForEachSet([&](size_t r) {
        Value v = col.GetValue(r);
        if (candidates.Contains(v)) out.push_back(std::move(v));
      });
      return ItemSet(std::move(out));
    }
  }
  std::vector<Value> out;
  for (const Tuple& t : tuples_) {
    if (t[idx].is_null() || !candidates.Contains(t[idx])) continue;
    FUSION_ASSIGN_OR_RETURN(const bool keep, cond.Evaluate(schema_, t));
    if (keep) out.push_back(t[idx]);
  }
  return ItemSet(std::move(out));
}

Result<size_t> Relation::CountWhere(const Condition& cond,
                                    EvalPath path) const {
  FUSION_RETURN_IF_ERROR(cond.Validate(schema_));
  if (UseColumnar(path)) {
    if (std::shared_ptr<const ColumnarTable> table = GetOrBuildColumnar()) {
      SelectionBitmap keep(table->num_rows());
      FUSION_RETURN_IF_ERROR(cond.EvaluateBatch(*table, &keep));
      return keep.CountSet();
    }
  }
  size_t count = 0;
  for (const Tuple& t : tuples_) {
    FUSION_ASSIGN_OR_RETURN(const bool keep, cond.Evaluate(schema_, t));
    if (keep) ++count;
  }
  return count;
}

Result<Relation> Relation::Union(const Relation& a, const Relation& b) {
  if (a.schema() != b.schema()) {
    return Status::InvalidArgument("union of relations with different schemas: " +
                                   a.schema().ToString() + " vs " +
                                   b.schema().ToString());
  }
  Relation out(a.schema());
  for (const Tuple& t : a.tuples()) out.AppendUnchecked(t);
  for (const Tuple& t : b.tuples()) out.AppendUnchecked(t);
  return out;
}

Result<Relation> Relation::UnionAll(const std::vector<const Relation*>& rels) {
  if (rels.empty()) return Status::InvalidArgument("UnionAll of zero relations");
  Relation out(rels[0]->schema());
  for (const Relation* r : rels) {
    if (r->schema() != out.schema()) {
      return Status::InvalidArgument("UnionAll: schema mismatch");
    }
    for (const Tuple& t : r->tuples()) out.AppendUnchecked(t);
  }
  return out;
}

size_t Relation::ApproxBytes() const {
  size_t bytes = sizeof(Relation) + tuples_.capacity() * sizeof(Tuple);
  for (const Tuple& tuple : tuples_) {
    bytes += tuple.capacity() * sizeof(Value);
    for (const Value& v : tuple) {
      if (v.type() == ValueType::kString) bytes += v.str().capacity();
    }
  }
  // A built columnar mirror is resident memory too — byte-budgeted caches
  // must account for it (WarmColumnar before sizing makes this deterministic).
  if (std::shared_ptr<const ColumnarTable> table = columnar()) {
    bytes += table->ApproxBytes();
  }
  return bytes;
}

std::string Relation::ToString() const {
  // Compute column widths.
  std::vector<size_t> widths(schema_.num_columns());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    widths[c] = schema_.column(c).name.size();
  }
  cells.reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (size_t c = 0; c < t.size(); ++c) {
      row.push_back(t[c].ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out += StrFormat("%-*s ", static_cast<int>(widths[c]),
                     schema_.column(c).name.c_str());
  }
  out += "\n";
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += StrFormat("%-*s ", static_cast<int>(widths[c]), row[c].c_str());
    }
    out += "\n";
  }
  return out;
}

namespace {

std::string EscapeCsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Splits one CSV line honoring quoted fields.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

Result<ValueType> ParseTypeName(const std::string& name) {
  if (name == "int64") return ValueType::kInt64;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::ParseError("unknown column type: " + name);
}

Result<Value> ParseCsvValue(const std::string& field, ValueType type) {
  if (field.empty()) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end != field.c_str() + field.size()) {
        return Status::ParseError("bad int64 field: " + field);
      }
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (end != field.c_str() + field.size()) {
        return Status::ParseError("bad double field: " + field);
      }
      return Value(v);
    }
    case ValueType::kString:
      return Value(field);
    case ValueType::kNull:
      return Status::ParseError("null-typed column");
  }
  return Status::Internal("bad value type");
}

std::string CsvFieldOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(v.int64());
    case ValueType::kDouble: {
      return StrFormat("%.17g", v.dbl());
    }
    case ValueType::kString:
      return EscapeCsvField(v.str());
  }
  return "";
}

}  // namespace

std::string RelationToCsv(const Relation& relation) {
  std::string out;
  const Schema& schema = relation.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += EscapeCsvField(schema.column(c).name) + ":" +
           ValueTypeName(schema.column(c).type);
  }
  out += "\n";
  for (const Tuple& t : relation.tuples()) {
    for (size_t c = 0; c < t.size(); ++c) {
      if (c > 0) out += ",";
      out += CsvFieldOf(t[c]);
    }
    out += "\n";
  }
  return out;
}

Result<Relation> RelationFromCsv(const std::string& csv) {
  std::vector<std::string> lines = StrSplit(csv, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::ParseError("empty CSV");
  // Header.
  std::vector<ColumnDef> columns;
  for (const std::string& field : SplitCsvLine(lines[0])) {
    const size_t colon = field.rfind(':');
    if (colon == std::string::npos) {
      return Status::ParseError("header field missing ':type': " + field);
    }
    ColumnDef def;
    def.name = field.substr(0, colon);
    FUSION_ASSIGN_OR_RETURN(def.type, ParseTypeName(field.substr(colon + 1)));
    columns.push_back(std::move(def));
  }
  Relation out{Schema(std::move(columns))};
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> fields = SplitCsvLine(lines[i]);
    if (fields.size() != out.schema().num_columns()) {
      return Status::ParseError(
          StrFormat("line %zu has %zu fields, expected %zu", i + 1,
                    fields.size(), out.schema().num_columns()));
    }
    Tuple t;
    t.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      FUSION_ASSIGN_OR_RETURN(
          Value v, ParseCsvValue(fields[c], out.schema().column(c).type));
      t.push_back(std::move(v));
    }
    FUSION_RETURN_IF_ERROR(out.Append(std::move(t)));
  }
  return out;
}

}  // namespace fusion

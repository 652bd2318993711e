#ifndef FUSION_COMMON_VALUE_H_
#define FUSION_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace fusion {

/// The runtime type of a Value / relational column.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Returns a readable name ("null", "int64", "double", "string").
const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar: the atoms stored in relations and item sets.
///
/// Ordering: values are totally ordered, first by type (null < int64 < double
/// < string), then by payload. Cross-numeric comparison (int64 vs double) is
/// performed numerically so mixed-type numeric columns behave sanely.
class Value {
 public:
  /// Constructs the NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  /// Inline: called per element by the set kernels and twice per Compare.
  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt64;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors; calling the wrong one is undefined (checked by callers
  /// via type()). Use the As* helpers for checked access.
  int64_t int64() const { return std::get<int64_t>(data_); }
  double dbl() const { return std::get<double>(data_); }
  const std::string& str() const { return std::get<std::string>(data_); }

  Result<int64_t> AsInt64() const;
  Result<std::string> AsString() const;

  /// Renders the value for display: NULL, 42, 3.5, 'text'.
  std::string ToString() const;

  /// Three-way comparison implementing the total order described above.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash consistent with operator==: every int64 hashes as its
  /// double form, so values equal across int64/double hash identically.
  size_t Hash() const;

  /// Approximate resident size in bytes, including string payloads. Used by
  /// byte-budgeted caches; an estimate, not an allocator-exact figure.
  size_t ApproxBytes() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// Hash functor for unordered containers of Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace fusion

#endif  // FUSION_COMMON_VALUE_H_

#include "common/value.h"

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <functional>

namespace fusion {
namespace {

// Rank used for the cross-type portion of the total order.
int TypeRank(ValueType t) { return static_cast<int>(t); }

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Result<int64_t> Value::AsInt64() const {
  if (type() == ValueType::kInt64) return int64();
  if (type() == ValueType::kDouble) return static_cast<int64_t>(dbl());
  return Status::InvalidArgument("value is not numeric: " + ToString());
}

Result<std::string> Value::AsString() const {
  if (type() == ValueType::kString) return str();
  return Status::InvalidArgument("value is not a string: " + ToString());
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(int64());
    case ValueType::kDouble: {
      // Shortest representation that round-trips exactly through strtod, so
      // conditions survive textual transport (protocol, cache keys) intact.
      char buf[64];
      for (int precision = 6; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, dbl());
        if (std::strtod(buf, nullptr) == dbl()) break;
      }
      return buf;
    }
    case ValueType::kString: {
      // Embedded single quotes double up, so the output is exactly the
      // string-literal syntax the condition parser accepts.
      std::string out = "'";
      for (char c : str()) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += "'";
      return out;
    }
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  const ValueType a = type();
  const ValueType b = other.type();
  if (IsNumeric(a) && IsNumeric(b) && a != b) {
    // Numeric cross-type comparison.
    const double lhs = (a == ValueType::kInt64)
                           ? static_cast<double>(int64())
                           : dbl();
    const double rhs = (b == ValueType::kInt64)
                           ? static_cast<double>(other.int64())
                           : other.dbl();
    if (lhs < rhs) return -1;
    if (lhs > rhs) return 1;
    return 0;
  }
  if (a != b) return TypeRank(a) < TypeRank(b) ? -1 : 1;
  switch (a) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
      if (int64() < other.int64()) return -1;
      if (int64() > other.int64()) return 1;
      return 0;
    case ValueType::kDouble:
      if (dbl() < other.dbl()) return -1;
      if (dbl() > other.dbl()) return 1;
      return 0;
    case ValueType::kString:
      return str().compare(other.str());
  }
  return 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      // Every int64 hashes through its double form, exactly as Compare()
      // compares it against a double: Value(2) and Value(2.0) hash alike,
      // and so do Value(2^53 + 1) and Value(2^53 as double), which compare
      // equal because the int64 rounds to the double.
      return std::hash<double>()(static_cast<double>(int64()));
    case ValueType::kDouble:
      return std::hash<double>()(dbl());
    case ValueType::kString:
      return std::hash<std::string>()(str());
  }
  return 0;
}

size_t Value::ApproxBytes() const {
  size_t bytes = sizeof(Value);
  if (type() == ValueType::kString) bytes += str().capacity();
  return bytes;
}

}  // namespace fusion

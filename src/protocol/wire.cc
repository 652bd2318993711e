#include "protocol/wire.h"

#include <iterator>

#include "common/str_util.h"

namespace fusion {

Status OversizedWireLine(const char* what, size_t bytes, size_t limit) {
  return Status::ParseError(StrFormat(
      "oversized %s line (%zu bytes; limit %zu)", what, bytes, limit));
}

Status BadWireField(std::string_view key, std::string_view text) {
  return Status::ParseError("bad " + std::string(key) + ": " +
                            std::string(text));
}

void AppendEscapedWireText(std::string& out, std::string_view text) {
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' && text[i] != '\n') continue;
    out.append(text.substr(start, i - start));
    out += text[i] == '\\' ? "\\\\" : "\\n";
    start = i + 1;
  }
  out.append(text.substr(start));
}

Result<std::string> UnescapeWireText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
    } else if (++i >= text.size()) {
      return Status::ParseError("dangling escape");
    } else if (text[i] == 'n' || text[i] == '\\') {
      out += text[i] == 'n' ? '\n' : '\\';
    } else {
      return Status::ParseError("bad escape sequence");
    }
  }
  return out;
}

Status ParseWireError(std::string_view value, StatusCode* code,
                      std::string* message) {
  const WireField field = SplitWireField(value);
  uint64_t raw = 0;
  if (!ParseWireNumber(field.key, &raw)) {
    FUSION_ASSIGN_OR_RETURN(*code, StatusCodeFromName(std::string(field.key)));
  } else if (raw < std::size(kAllStatusCodes)) {
    *code = static_cast<StatusCode>(raw);
  } else {
    return BadWireField("status code", field.key);
  }
  FUSION_ASSIGN_OR_RETURN(*message, UnescapeWireText(field.value));
  return Status::Ok();
}

std::vector<std::string> SplitWireFeatures(std::string_view text) {
  std::vector<std::string> out;
  while (!text.empty()) {
    const size_t comma = std::min(text.find(','), text.size());
    if (comma > 0) out.emplace_back(text.substr(0, comma));
    text.remove_prefix(std::min(comma + 1, text.size()));
  }
  return out;
}

void AppendSerializedValue(std::string& out, const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      out += "null";
      return;
    case ValueType::kInt64:
      out += "i:";
      return AppendWireInt(out, value.int64());
    case ValueType::kDouble:
      out += "d:";
      return AppendWireDouble(out, value.dbl());
    case ValueType::kString:
      out += "s:";
      return AppendEscapedWireText(out, value.str());
  }
}

std::string SerializeValue(const Value& value) {
  std::string out;
  AppendSerializedValue(out, value);
  return out;
}

Status DecodeSerializedValue(std::string_view text, Value* out) {
  const std::string_view payload = text.substr(std::min<size_t>(2, text.size()));
  int64_t i = 0;
  double d = 0.0;
  if (text == "null") {
    *out = Value::Null();
  } else if (text.size() < 2 || text[1] != ':') {
    return Status::ParseError("bad serialized value: " + std::string(text));
  } else if (text[0] == 'i') {
    if (!ParseWireNumber(payload, &i)) return BadWireField("int64", payload);
    *out = Value(i);
  } else if (text[0] == 'd') {
    if (!ParseWireNumber(payload, &d)) return BadWireField("double", payload);
    *out = Value(d);
  } else if (text[0] == 's') {
    FUSION_ASSIGN_OR_RETURN(std::string s, UnescapeWireText(payload));
    *out = Value(std::move(s));
  } else {
    return Status::ParseError("unknown value tag: " + std::string(text));
  }
  return Status::Ok();
}

Result<Value> ParseSerializedValue(std::string_view text) {
  Value value;
  FUSION_RETURN_IF_ERROR(DecodeSerializedValue(text, &value));
  return value;
}

void AppendWireDouble(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 17)
                      .ptr);
}

WireWriter::WireWriter(const char* magic, std::string_view word,
                       size_t reserve) {
  out_.reserve(reserve + 64);
  out_.append(magic).append(1, ' ').append(word).append(1, '\n');
}

WireWriter& WireWriter::ValueFields(std::string_view key,
                                    const std::vector<Value>& values) {
  for (const Value& value : values) {
    if (value.type() != ValueType::kInt64) {
      ValueField(key, value);
      continue;
    }
    // "<key> i:<at most 20 chars>\n", written in place.
    const size_t at = out_.size();
    out_.resize(at + key.size() + 24);
    char* p = std::copy_n(" i:", 3, std::copy(key.begin(), key.end(), &out_[at]));
    p = std::to_chars(p, p + 20, value.int64()).ptr;
    *p++ = '\n';
    out_.resize(static_cast<size_t>(p - out_.data()));
  }
  return *this;
}

WireWriter& WireWriter::ErrorField(StatusCode code, std::string_view message) {
  return Line("error", [&] {
    out_.append(StatusCodeName(code)).append(1, ' ');
    AppendEscapedWireText(out_, message);
  });
}

WireWriter& WireWriter::FeaturesField(
    const std::vector<std::string>& features) {
  return Line("features", [&] {
    for (size_t i = 0; i < features.size(); ++i) {
      out_.append(i > 0 ? "," : "").append(features[i]);
    }
  });
}

}  // namespace fusion

#ifndef FUSION_PROTOCOL_WIRE_H_
#define FUSION_PROTOCOL_WIRE_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace fusion {

/// Line framing shared by both dialects, FUSIONP/1 (message.h) and FUSIONQ/1
/// (client_protocol.h). A frame is a `<magic> <word>` header line, one
/// `key rest-of-line` field per line, and `end`. Text travels with backslash
/// escapes for newline and backslash, error codes by StatusCodeName, feature
/// lists comma-separated. Parsers work on views into the frame (no copy per
/// line, strict std::from_chars numbers); writers append with std::to_chars.

/// One dialect's framing: its magic and its per-line byte cap.
struct WireDialect {
  const char* magic;
  size_t max_line_bytes;
};

/// "key rest-of-line", split on the first space ({line, ""} when none). Both
/// views point into the line.
struct WireField {
  std::string_view key;
  std::string_view value;
};
inline WireField SplitWireField(std::string_view line) {
  const size_t space = line.find(' ');
  if (space == std::string_view::npos) return {line, line.substr(line.size())};
  return {line.substr(0, space), line.substr(space + 1)};
}

/// kParseError for a line over the dialect's cap.
Status OversizedWireLine(const char* what, size_t bytes, size_t limit);

/// Walks one frame over views, splitting lines on '\n': checks the magic,
/// hands the rest of the header line to `on_header` and every non-empty
/// line before `end` to `on_field` (both return Status). Every line, also
/// past `end`, is bounded by the dialect's cap. `what` names the frame in
/// errors ("client request").
template <typename OnHeader, typename OnField>
Status ParseWireFrame(std::string_view frame, const WireDialect& dialect,
                      const char* what, OnHeader&& on_header,
                      OnField&& on_field) {
  bool header = true;
  bool terminated = false;
  for (size_t pos = 0; pos <= frame.size();) {
    const size_t end = std::min(frame.find('\n', pos), frame.size());
    if (end - pos > dialect.max_line_bytes) {
      return OversizedWireLine(what, end - pos, dialect.max_line_bytes);
    }
    const std::string_view line = frame.substr(pos, end - pos);
    pos = end + 1;
    if (header) {
      header = false;
      const WireField field = SplitWireField(line);
      if (field.key != dialect.magic) {
        return Status::ParseError("bad protocol magic: " +
                                  std::string(field.key));
      }
      FUSION_RETURN_IF_ERROR(on_header(field.value));
    } else if (!terminated && !line.empty()) {
      terminated = line == "end";
      if (!terminated) FUSION_RETURN_IF_ERROR(on_field(SplitWireField(line)));
    }
  }
  if (terminated) return Status::Ok();
  return Status::ParseError(std::string(what) + " missing 'end'");
}

/// Strict decimal decode of all of `text` into uint64_t, int64_t or double:
/// no whitespace, no '+', no overflow, no trailing bytes.
template <typename T>
bool ParseWireNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}
/// kParseError "bad <key>: <text>".
Status BadWireField(std::string_view key, std::string_view text);
template <typename T>
Status ParseWireNumberField(std::string_view key, std::string_view text,
                            T* out) {
  return ParseWireNumber(text, out) ? Status::Ok() : BadWireField(key, text);
}

/// Word tables (verbs, OK/ERROR, capabilities), read both ways.
template <typename T>
using WireWords = std::pair<T, const char*>;
inline constexpr WireWords<bool> kWireOutcomes[] = {{true, "OK"},
                                                    {false, "ERROR"}};
template <typename T, size_t N>
const char* WireWordFor(T value, const WireWords<T> (&table)[N]) {
  for (const auto& [v, word] : table) {
    if (v == value) return word;
  }
  return "?";
}
template <typename T, size_t N>
Status ParseWireWord(std::string_view word, const WireWords<T> (&table)[N],
                     const char* what, T* out) {
  for (const auto& [v, name] : table) {
    if (word == name) {
      *out = v;
      return Status::Ok();
    }
  }
  return Status::ParseError("unknown " + std::string(what) + ": " +
                            std::string(word));
}

void AppendEscapedWireText(std::string& out, std::string_view text);
Result<std::string> UnescapeWireText(std::string_view text);

/// An `error` line's value, "<CodeName> <escaped message>"; pre-taxonomy
/// peers send the code as a bare enum integer.
Status ParseWireError(std::string_view value, StatusCode* code,
                      std::string* message);

/// Comma-separated feature tokens; empty tokens are dropped.
std::vector<std::string> SplitWireFeatures(std::string_view text);

/// `null`, `i:<n>`, `d:<%.17g>`, or `s:<escaped>`.
void AppendSerializedValue(std::string& out, const Value& value);
std::string SerializeValue(const Value& value);
Status DecodeSerializedValue(std::string_view text, Value* out);
Result<Value> ParseSerializedValue(std::string_view text);
/// Decodes an `item`/`bind` value of `frame` onto *out, an `i:<n>` payload
/// straight from the view. The first call reserves room for every value
/// line the rest of the frame can hold, so *out never regrows.
inline Status AppendDecodedValue(std::string_view frame, std::string_view text,
                                 std::vector<Value>* out) {
  if (out->empty()) {
    // The shortest value line, "item s:\n", is 8 bytes.
    out->reserve(static_cast<size_t>(frame.data() + frame.size() - text.data()) / 8 + 1);
  }
  int64_t i = 0;
  if (text.size() > 2 && text[0] == 'i' && text[1] == ':' &&
      ParseWireNumber(text.substr(2), &i)) {
    out->emplace_back(i);
    return Status::Ok();
  }
  return DecodeSerializedValue(text, &out->emplace_back());
}

/// Decimal digits of an integer; a double as %.17g, which round-trips.
template <typename Int>
void AppendWireInt(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}
void AppendWireDouble(std::string& out, double value);

/// Append-only frame writer: the header line, one `key value` line per
/// field, and `end` on Finish().
class WireWriter {
 public:
  WireWriter(const char* magic, std::string_view word, size_t reserve = 0);

  WireWriter& Field(std::string_view key, std::string_view raw) {
    return Line(key, [&] { out_ += raw; });
  }
  WireWriter& EscapedField(std::string_view key, std::string_view text) {
    return Line(key, [&] { AppendEscapedWireText(out_, text); });
  }
  WireWriter& U64Field(std::string_view key, uint64_t value) {
    return Line(key, [&] { AppendWireInt(out_, value); });
  }
  WireWriter& DoubleField(std::string_view key, double value) {
    return Line(key, [&] { AppendWireDouble(out_, value); });
  }
  WireWriter& ValueField(std::string_view key, const Value& value) {
    return Line(key, [&] { AppendSerializedValue(out_, value); });
  }
  /// One ValueField per value; runs of ints are written straight into the
  /// buffer.
  WireWriter& ValueFields(std::string_view key,
                          const std::vector<Value>& values);
  WireWriter& ErrorField(StatusCode code, std::string_view message);
  WireWriter& FeaturesField(const std::vector<std::string>& features);
  std::string Finish() {
    out_ += "end\n";
    return std::move(out_);
  }

 private:
  template <typename AppendValue>
  WireWriter& Line(std::string_view key, AppendValue&& append_value) {
    out_.append(key).append(1, ' ');
    append_value();
    out_ += '\n';
    return *this;
  }

  std::string out_;
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_WIRE_H_

#include "protocol/message.h"

namespace fusion {
namespace {

constexpr WireDialect kDialect = {"FUSIONP/1", kMaxSourceProtocolLineBytes};

constexpr WireWords<SourceRequest::Kind> kKindNames[] = {
    {SourceRequest::Kind::kHello, "HELLO"},
    {SourceRequest::Kind::kSelect, "SELECT"},
    {SourceRequest::Kind::kSemiJoin, "SEMIJOIN"},
    {SourceRequest::Kind::kLoad, "LOAD"},
    {SourceRequest::Kind::kFetch, "FETCH"},
};

/// "<kind> <sent> <recv> <scanned> <cost>".
Status ParseCharge(std::string_view value, ChargeSummary* charge) {
  WireField field = SplitWireField(value);
  charge->kind = field.key;
  for (size_t* count : {&charge->items_sent, &charge->items_received,
                        &charge->tuples_scanned}) {
    field = SplitWireField(field.value);
    if (!ParseWireNumber(field.key, count)) return BadWireField("charge line", value);
  }
  if (!ParseWireNumber(field.value, &charge->cost)) {
    return BadWireField("charge line", value);
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeRequest(const SourceRequest& request) {
  WireWriter out(kDialect.magic, WireWordFor(request.kind, kKindNames),
                 request.bindings.size() * 24);
  if (!request.merge_attribute.empty()) {
    out.Field("merge", request.merge_attribute);
  }
  if (!request.condition_text.empty()) {
    out.EscapedField("cond", request.condition_text);
  }
  out.ValueFields("bind", request.bindings);
  if (request.trace_id != 0) {
    std::string trace;
    AppendWireInt(trace, request.trace_id);
    trace += ' ';
    AppendWireInt(trace, request.parent_span);
    out.Field("trace", trace);
  }
  return out.Finish();
}

Result<SourceRequest> ParseRequest(const std::string& text) {
  SourceRequest request;
  FUSION_RETURN_IF_ERROR(ParseWireFrame(
      text, kDialect, "source request",
      [&](std::string_view word) {
        return ParseWireWord(word, kKindNames, "request kind", &request.kind);
      },
      [&](const WireField& f) {
        if (f.key == "bind") {
          return AppendDecodedValue(text, f.value, &request.bindings);
        } else if (f.key == "merge") {
          request.merge_attribute = f.value;
        } else if (f.key == "cond") {
          FUSION_ASSIGN_OR_RETURN(request.condition_text,
                                  UnescapeWireText(f.value));
        } else if (f.key == "trace") {
          const WireField ids = SplitWireField(f.value);
          if (!ParseWireNumber(ids.key, &request.trace_id) ||
              (!ids.value.empty() &&
               !ParseWireNumber(ids.value, &request.parent_span))) {
            return BadWireField("trace line", f.value);
          }
        }
        // Unknown fields are ignored for forward compatibility: peers act
        // on optional capabilities only after HELLO `features` negotiation.
        return Status::Ok();
      }));
  return request;
}

std::string SerializeResponse(const SourceResponse& response) {
  WireWriter out(kDialect.magic, response.ok ? "OK" : "ERROR",
                 response.items.size() * 24);
  if (!response.ok) {
    out.ErrorField(response.error_code, response.error_message);
  }
  out.ValueFields("item", response.items);
  for (const std::string& line : response.relation_lines) {
    out.EscapedField("relation-line", line);
  }
  if (!response.name.empty()) out.Field("name", response.name);
  if (!response.semijoin_support.empty()) {
    out.Field("semijoin", response.semijoin_support);
  }
  out.Field("load", response.supports_load ? "yes" : "no");
  if (!response.features.empty()) out.FeaturesField(response.features);
  for (const ChargeSummary& c : response.charges) {
    std::string charge = c.kind;
    for (const size_t count : {c.items_sent, c.items_received, c.tuples_scanned}) {
      charge += ' ';
      AppendWireInt(charge, count);
    }
    charge += ' ';
    AppendWireDouble(charge, c.cost);
    out.Field("charge", charge);
  }
  return out.Finish();
}

Result<SourceResponse> ParseResponse(const std::string& text) {
  SourceResponse response;
  FUSION_RETURN_IF_ERROR(ParseWireFrame(
      text, kDialect, "source response",
      [&](std::string_view word) {
        return ParseWireWord(word, kWireOutcomes, "response status",
                             &response.ok);
      },
      [&](const WireField& f) {
        if (f.key == "item") {
          return AppendDecodedValue(text, f.value, &response.items);
        } else if (f.key == "error") {
          return ParseWireError(f.value, &response.error_code,
                                &response.error_message);
        } else if (f.key == "relation-line") {
          FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(f.value));
          response.relation_lines.push_back(std::move(line));
        } else if (f.key == "name") {
          response.name = f.value;
        } else if (f.key == "semijoin") {
          response.semijoin_support = f.value;
        } else if (f.key == "load") {
          response.supports_load = f.value == "yes";
        } else if (f.key == "features") {
          response.features = SplitWireFeatures(f.value);
        } else if (f.key == "charge") {
          return ParseCharge(f.value, &response.charges.emplace_back());
        }
        // Unknown fields are ignored (see ParseRequest).
        return Status::Ok();
      }));
  return response;
}

}  // namespace fusion

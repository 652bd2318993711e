#include "protocol/client_protocol.h"

#include "protocol/wire.h"

namespace fusion {
namespace {

constexpr WireDialect kDialect = {"FUSIONQ/1", kMaxClientProtocolLineBytes};

constexpr WireWords<ClientRequest::Kind> kKindNames[] = {
    {ClientRequest::Kind::kHello, "HELLO"},
    {ClientRequest::Kind::kSubmit, "SUBMIT"},
    {ClientRequest::Kind::kStatus, "STATUS"},
    {ClientRequest::Kind::kCancel, "CANCEL"},
    {ClientRequest::Kind::kStats, "STATS"},
    {ClientRequest::Kind::kInvalidate, "INVALIDATE"},
};

}  // namespace

std::vector<std::string> ClientProtocolFeatures() {
  return FeatureSet::All().Names();
}

std::string SerializeClientRequest(const ClientRequest& request) {
  using Kind = ClientRequest::Kind;
  WireWriter out(kDialect.magic, WireWordFor(request.kind, kKindNames),
                 request.sql.size());
  if (!request.client_id.empty()) out.EscapedField("client", request.client_id);
  if (!request.sql.empty()) out.EscapedField("sql", request.sql);
  if (request.kind == Kind::kStatus || request.kind == Kind::kCancel) {
    out.U64Field("ticket", request.ticket);
  }
  if (request.kind == Kind::kSubmit) {
    if (!request.wait) out.Field("wait", "no");
    if (request.explain) out.Field("explain", "yes");
    if (request.trace_id != 0) {
      out.U64Field("trace-id", request.trace_id);
      if (request.parent_span != 0) {
        out.U64Field("parent-span", request.parent_span);
      }
    }
    if (request.request_id != 0) out.U64Field("request-id", request.request_id);
  }
  if (request.kind == Kind::kHello && !request.features.empty()) {
    out.FeaturesField(request.features);
  }
  if (request.kind == Kind::kInvalidate) {
    out.EscapedField("source", request.source);
    if (request.version != 0) out.U64Field("version", request.version);
  }
  return out.Finish();
}

Result<ClientRequest> ParseClientRequest(const std::string& text) {
  ClientRequest request;
  FUSION_RETURN_IF_ERROR(ParseWireFrame(
      text, kDialect, "client request",
      [&](std::string_view word) {
        return ParseWireWord(word, kKindNames, "request kind", &request.kind);
      },
      [&](const WireField& f) {
        if (f.key == "client") {
          FUSION_ASSIGN_OR_RETURN(request.client_id, UnescapeWireText(f.value));
        } else if (f.key == "sql") {
          FUSION_ASSIGN_OR_RETURN(request.sql, UnescapeWireText(f.value));
        } else if (f.key == "ticket") {
          return ParseWireNumberField(f.key, f.value, &request.ticket);
        } else if (f.key == "wait") {
          request.wait = f.value != "no";
        } else if (f.key == "explain") {
          request.explain = f.value == "yes";
        } else if (f.key == "features") {
          request.features = SplitWireFeatures(f.value);
        } else if (f.key == "trace-id") {
          return ParseWireNumberField(f.key, f.value, &request.trace_id);
        } else if (f.key == "parent-span") {
          return ParseWireNumberField(f.key, f.value, &request.parent_span);
        } else if (f.key == "request-id") {
          return ParseWireNumberField(f.key, f.value, &request.request_id);
        } else if (f.key == "source") {
          FUSION_ASSIGN_OR_RETURN(request.source, UnescapeWireText(f.value));
        } else if (f.key == "version") {
          return ParseWireNumberField(f.key, f.value, &request.version);
        }
        // Unknown fields are ignored: a newer peer may send fields this
        // build does not know, and must be able to do so without
        // negotiating first (negotiation itself rides on HELLO fields).
        return Status::Ok();
      }));
  return request;
}

std::string SerializeClientResponse(const ClientResponse& response) {
  WireWriter out(kDialect.magic, response.ok ? "OK" : "ERROR",
                 response.items.size() * 24);
  if (!response.ok) {
    out.ErrorField(response.error_code, response.error_message);
  }
  if (!response.server.empty()) out.EscapedField("server", response.server);
  if (response.ticket != 0) out.U64Field("ticket", response.ticket);
  if (!response.state.empty()) out.Field("state", response.state);
  out.ValueFields("item", response.items);
  if (response.source_queries > 0 || !response.items.empty() ||
      response.cost > 0.0) {
    out.DoubleField("cost", response.cost)
        .U64Field("source-queries", response.source_queries)
        .U64Field("cache-hits", response.cache_hits)
        .U64Field("cache-misses", response.cache_misses)
        .U64Field("items-sent", response.items_sent)
        .U64Field("items-received", response.items_received);
  }
  if (response.cache_containment_hits > 0) {
    out.U64Field("cache-containment", response.cache_containment_hits);
  }
  if (response.calibration_cost > 0.0) {
    out.DoubleField("calibration-cost", response.calibration_cost);
  }
  if (!response.complete) out.Field("complete", "no");
  if (!response.features.empty()) out.FeaturesField(response.features);
  for (const std::string& line : response.stats_lines) {
    out.EscapedField("stats", line);
  }
  for (const std::string& line : response.explain_lines) {
    out.EscapedField("explain", line);
  }
  return out.Finish();
}

Result<ClientResponse> ParseClientResponse(const std::string& text) {
  ClientResponse response;
  FUSION_RETURN_IF_ERROR(ParseWireFrame(
      text, kDialect, "client response",
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
        } else if (f.key == "server") {
          FUSION_ASSIGN_OR_RETURN(response.server, UnescapeWireText(f.value));
        } else if (f.key == "ticket") {
          return ParseWireNumberField(f.key, f.value, &response.ticket);
        } else if (f.key == "state") {
          response.state = f.value;
        } else if (f.key == "cost") {
          return ParseWireNumberField(f.key, f.value, &response.cost);
        } else if (f.key == "source-queries") {
          return ParseWireNumberField(f.key, f.value, &response.source_queries);
        } else if (f.key == "cache-hits") {
          return ParseWireNumberField(f.key, f.value, &response.cache_hits);
        } else if (f.key == "cache-misses") {
          return ParseWireNumberField(f.key, f.value, &response.cache_misses);
        } else if (f.key == "items-sent") {
          return ParseWireNumberField(f.key, f.value, &response.items_sent);
        } else if (f.key == "items-received") {
          return ParseWireNumberField(f.key, f.value, &response.items_received);
        } else if (f.key == "cache-containment") {
          return ParseWireNumberField(f.key, f.value,
                                      &response.cache_containment_hits);
        } else if (f.key == "calibration-cost") {
          return ParseWireNumberField(f.key, f.value,
                                      &response.calibration_cost);
        } else if (f.key == "complete") {
          response.complete = f.value != "no";
        } else if (f.key == "features") {
          response.features = SplitWireFeatures(f.value);
        } else if (f.key == "stats" || f.key == "explain") {
          FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(f.value));
          (f.key == "stats" ? response.stats_lines : response.explain_lines)
              .push_back(std::move(line));
        }
        // Unknown fields are ignored (see ParseClientRequest).
        return Status::Ok();
      }));
  return response;
}

Result<std::string> RelayClientResponse(std::string_view frame,
                                        uint8_t shard) {
  std::string out;
  out.reserve(frame.size() + 8);
  size_t copied = 0;  // frame bytes already in `out`
  bool ok = true;
  FUSION_RETURN_IF_ERROR(ParseWireFrame(
      frame, kDialect, "client response",
      [&](std::string_view word) {
        return ParseWireWord(word, kWireOutcomes, "response status", &ok);
      },
      [&](const WireField& f) {
        uint64_t ticket = 0;
        if (f.key != "ticket") return Status::Ok();
        FUSION_RETURN_IF_ERROR(ParseWireNumberField(f.key, f.value, &ticket));
        if (ticket == 0) return Status::Ok();
        const size_t at = static_cast<size_t>(f.value.data() - frame.data());
        out.append(frame.substr(copied, at - copied));
        AppendWireInt(out, (ticket << 8) | shard);
        copied = at + f.value.size();
        return Status::Ok();
      }));
  out.append(frame.substr(copied));
  return out;
}

ClientResponse ClientErrorResponse(const Status& status) {
  ClientResponse response;
  response.ok = false;
  response.error_code = status.code();
  response.error_message = status.message();
  return response;
}

}  // namespace fusion

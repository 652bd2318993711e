// Deterministic fuzz tests: every parser in the system (conditions, fusion
// SQL, CSV, catalog config, protocol frames) must reject arbitrary garbage
// and mutated valid inputs with a clean Status — never crash, hang, or
// return success for nonsense. Seeds are fixed; failures reproduce.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>

#include "cli/catalog_config.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "protocol/client_protocol.h"
#include "protocol/message.h"
#include "protocol/source_server.h"
#include "query/parser.h"
#include "relational/condition.h"
#include "relational/relation.h"
#include "source/simulated_source.h"
#include "workload/dmv.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

/// Random printable-ish byte string, with newlines and quotes mixed in.
std::string RandomBytes(Rng& rng, size_t max_len) {
  const std::string alphabet =
      "abcXYZ 0189_.,;()[]'\"=<>!\\\n\t#:-+*/uU&|";
  std::string out;
  const size_t len = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(max_len)));
  for (size_t i = 0; i < len; ++i) {
    out += alphabet[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(alphabet.size()) - 1))];
  }
  return out;
}

/// Applies `count` random single-character mutations to `input`.
std::string Mutate(Rng& rng, std::string input, int count) {
  for (int i = 0; i < count && !input.empty(); ++i) {
    const size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(input.size()) - 1));
    switch (rng.Uniform(0, 2)) {
      case 0:
        input[pos] = static_cast<char>(rng.Uniform(32, 126));
        break;
      case 1:
        input.erase(pos, 1);
        break;
      default:
        input.insert(pos, 1, static_cast<char>(rng.Uniform(32, 126)));
        break;
    }
  }
  return input;
}

TEST(FuzzTest, ConditionParserNeverCrashes) {
  Rng rng(1);
  int parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto result = ParseCondition(RandomBytes(rng, 60));
    if (result.ok()) ++parsed;  // fine — some garbage is a valid condition
  }
  // Mutations of a valid condition.
  const std::string valid = "V = 'dui' AND D BETWEEN 1990 AND 1995";
  for (int i = 0; i < 3000; ++i) {
    const auto result = ParseCondition(Mutate(rng, valid, 1 + i % 5));
    if (result.ok()) {
      // Whatever parsed must round-trip through its own text.
      EXPECT_TRUE(ParseCondition(result->ToString()).ok())
          << result->ToString();
    }
  }
  SUCCEED();
}

TEST(FuzzTest, FusionSqlParserNeverCrashes) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    (void)ParseFusionQuery(RandomBytes(rng, 120));
  }
  const std::string valid =
      "SELECT u1.L FROM U u1, U u2 "
      "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";
  for (int i = 0; i < 2000; ++i) {
    const auto result = ParseFusionQuery(Mutate(rng, valid, 1 + i % 6));
    if (result.ok()) {
      EXPECT_FALSE(result->merge_attribute().empty());
      EXPECT_GT(result->num_conditions(), 0u);
    }
  }
  SUCCEED();
}

TEST(FuzzTest, CsvParserNeverCrashes) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    (void)RelationFromCsv(RandomBytes(rng, 150));
  }
  const std::string valid =
      "L:string,V:string,D:int64\nJ55,dui,1993\nT21,\"s,p\",1994\n";
  for (int i = 0; i < 2000; ++i) {
    const auto result = RelationFromCsv(Mutate(rng, valid, 1 + i % 4));
    if (result.ok()) {
      // Anything accepted must re-serialize and re-parse identically.
      const auto again = RelationFromCsv(RelationToCsv(*result));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->size(), result->size());
    }
  }
  SUCCEED();
}

TEST(FuzzTest, CatalogConfigParserNeverCrashes) {
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    (void)ParseCatalogConfig(RandomBytes(rng, 150));
  }
  const std::string valid =
      "[source R1]\ncsv = a.csv\nsemijoin = native\noverhead = 10\n";
  for (int i = 0; i < 2000; ++i) {
    (void)ParseCatalogConfig(Mutate(rng, valid, 1 + i % 4));
  }
  SUCCEED();
}

TEST(FuzzTest, ProtocolParsersNeverCrash) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::string bytes = RandomBytes(rng, 200);
    (void)ParseRequest(bytes);
    (void)ParseResponse(bytes);
    (void)ParseSerializedValue(bytes);
  }
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'x'";
  request.bindings = {Value("J55"), Value(int64_t{3})};
  const std::string valid = SerializeRequest(request);
  for (int i = 0; i < 2000; ++i) {
    const auto result = ParseRequest(Mutate(rng, valid, 1 + i % 5));
    if (result.ok()) {
      // Accepted mutants must re-serialize and re-parse.
      EXPECT_TRUE(ParseRequest(SerializeRequest(*result)).ok());
    }
  }
  SUCCEED();
}

SourceRequest ValidSemiJoin() {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'dui'";
  request.bindings = {Value("J55"), Value("T21"), Value(int64_t{3})};
  return request;
}

TEST(FuzzTest, SourceProtocolTruncatedFramesRejected) {
  // The mediator dialect must behave exactly like the client dialect under
  // torn writes: every strict prefix of a valid frame short of the closing
  // "end" line is a clean parse error, for requests and responses alike.
  // This is the parser-level guarantee the chaos layer's torn-write fault
  // leans on.
  const std::string request_wire = SerializeRequest(ValidSemiJoin());
  for (size_t len = 0; len + 2 <= request_wire.size(); ++len) {
    EXPECT_FALSE(ParseRequest(request_wire.substr(0, len)).ok())
        << "accepted truncated request of " << len << " bytes";
  }

  SourceResponse ok;
  ok.ok = true;
  ok.items = {Value("J55"), Value(int64_t{7})};
  ok.relation_lines = {"L:string,V:string", "J55,dui"};
  ChargeSummary charge;
  charge.kind = "semijoin";
  charge.items_sent = 3;
  charge.items_received = 2;
  charge.cost = 12.5;
  ok.charges = {charge};
  const std::string response_wire = SerializeResponse(ok);
  for (size_t len = 0; len + 2 <= response_wire.size(); ++len) {
    EXPECT_FALSE(ParseResponse(response_wire.substr(0, len)).ok())
        << "accepted truncated response of " << len << " bytes";
  }

  // Dropping whole lines from the tail loses the terminator too.
  const std::vector<std::string> lines = StrSplit(response_wire, '\n');
  std::string partial;
  for (size_t i = 0; i + 2 < lines.size(); ++i) {
    partial += lines[i] + "\n";
    EXPECT_FALSE(ParseResponse(partial).ok());
  }
}

TEST(FuzzTest, SourceProtocolOversizedLinesRejected) {
  // Source servers read frames from whatever dials their port; an unbounded
  // line is the same memory-amplification vector as on the client dialect.
  SourceRequest huge = ValidSemiJoin();
  huge.condition_text = std::string(kMaxSourceProtocolLineBytes + 1, 'a');
  const auto request = ParseRequest(SerializeRequest(huge));
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("oversized"), std::string::npos)
      << request.status().ToString();

  SourceResponse wide;
  wide.relation_lines = {std::string(kMaxSourceProtocolLineBytes + 1, 'x')};
  const auto response = ParseResponse(SerializeResponse(wide));
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().message().find("oversized"), std::string::npos);

  // At (not over) the cap the frame still parses.
  SourceRequest fits = ValidSemiJoin();
  fits.condition_text = std::string(kMaxSourceProtocolLineBytes - 16, 'a');
  EXPECT_TRUE(ParseRequest(SerializeRequest(fits)).ok());
}

TEST(FuzzTest, SourceServerHandleNeverCrashes) {
  // The wrapper-side dispatch surface: arbitrary bytes into
  // SourceServer::Handle must always come back as one parseable FUSIONP/1
  // response — an ERROR for garbage, never a crash or an unframed reply.
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  SourceServer server(
      std::make_unique<SimulatedSource>(*instance->simulated[0]));

  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const auto response = ParseResponse(server.Handle(RandomBytes(rng, 200)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);  // random bytes are never a valid request
  }
  const std::string valid = SerializeRequest(ValidSemiJoin());
  for (int i = 0; i < 300; ++i) {
    // Mutants that happen to parse hit the real wrapper; either way the
    // reply must be a well-formed frame.
    const auto response =
        ParseResponse(server.Handle(Mutate(rng, valid, 1 + i % 5)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  SUCCEED();
}

TEST(FuzzTest, ConditionTextRoundTripProperty) {
  // Structured fuzz: random condition trees must round-trip exactly
  // through ToString + ParseCondition (structural equality after one
  // canonicalization on both sides).
  Rng rng(6);
  std::function<Condition(int)> random_cond = [&](int depth) -> Condition {
    if (depth > 3 || rng.Bernoulli(0.4)) {
      switch (rng.Uniform(0, 3)) {
        case 0:
          return Condition::Eq("A", Value(rng.Uniform(0, 9)));
        case 1:
          return Condition::Compare("B", CompareOp::kGe,
                                    Value(rng.NextDouble() * 10));
        case 2:
          return Condition::Between("C", Value(rng.Uniform(0, 5)),
                                    Value(rng.Uniform(5, 9)));
        default:
          return Condition::In("D", {Value("it's"), Value("plain")});
      }
    }
    switch (rng.Uniform(0, 2)) {
      case 0:
        return Condition::And(random_cond(depth + 1), random_cond(depth + 1));
      case 1:
        return Condition::Or(random_cond(depth + 1), random_cond(depth + 1));
      default:
        return Condition::Not(random_cond(depth + 1));
    }
  };
  for (int i = 0; i < 500; ++i) {
    const Condition original = random_cond(0);
    const auto reparsed = ParseCondition(original.ToString());
    ASSERT_TRUE(reparsed.ok()) << original.ToString();
    EXPECT_TRUE(original.Simplified().Equals(reparsed->Simplified()))
        << original.ToString();
  }
}

ClientRequest ValidSubmit() {
  ClientRequest request;
  request.kind = ClientRequest::Kind::kSubmit;
  request.client_id = "fuzz";
  request.sql =
      "SELECT u1.M FROM U u1, U u2 WHERE u1.M = u2.M AND u1.A1 = 1 "
      "AND u2.A2 = 1";
  request.wait = true;
  return request;
}

TEST(FuzzTest, ClientProtocolParsersNeverCrash) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::string bytes = RandomBytes(rng, 200);
    (void)ParseClientRequest(bytes);
    (void)ParseClientResponse(bytes);
  }
  const std::string valid_request = SerializeClientRequest(ValidSubmit());
  ClientResponse ok;
  ok.ticket = 42;
  ok.state = "done";
  ok.items = {Value(int64_t{3}), Value("x")};
  ok.cost = 12.5;
  ok.source_queries = 2;
  ok.cache_hits = 1;
  ok.items_sent = 4;
  ok.items_received = 9;
  const std::string valid_response = SerializeClientResponse(ok);
  for (int i = 0; i < 2000; ++i) {
    const auto request = ParseClientRequest(Mutate(rng, valid_request, 1 + i % 5));
    if (request.ok()) {
      // Accepted mutants must re-serialize and re-parse.
      EXPECT_TRUE(ParseClientRequest(SerializeClientRequest(*request)).ok());
    }
    const auto response =
        ParseClientResponse(Mutate(rng, valid_response, 1 + i % 5));
    if (response.ok()) {
      EXPECT_TRUE(
          ParseClientResponse(SerializeClientResponse(*response)).ok());
    }
  }
  SUCCEED();
}

TEST(FuzzTest, ClientProtocolRequestIdRoundTrips) {
  // The idempotency key must survive the wire exactly — a corrupted or
  // dropped request-id silently downgrades reconnect to at-most-once.
  ClientRequest keyed = ValidSubmit();
  keyed.request_id = 0xdeadbeefcafef00dULL;
  const std::string wire = SerializeClientRequest(keyed);
  EXPECT_NE(wire.find("request-id 16045690984503111693\n"), std::string::npos)
      << wire;
  const auto parsed = ParseClientRequest(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->request_id, keyed.request_id);

  // request_id == 0 means "no key": the line must not be emitted at all, so
  // pre-idempotency servers see byte-identical SUBMIT frames.
  ClientRequest unkeyed = ValidSubmit();
  const std::string plain = SerializeClientRequest(unkeyed);
  EXPECT_EQ(plain.find("request-id"), std::string::npos) << plain;
  const auto reparsed = ParseClientRequest(plain);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->request_id, 0u);
}

TEST(FuzzTest, ClientProtocolTruncatedFramesRejected) {
  const std::string full = SerializeClientRequest(ValidSubmit());
  // Every strict byte prefix short of the closing "end" line is an
  // incomplete frame: a clean parse error, never a crash or an accept.
  // (The last two bytes are "d\n"; a prefix missing only the trailing
  // newline still contains a complete "end" line, so stop before it.)
  for (size_t len = 0; len + 2 <= full.size(); ++len) {
    const auto result = ParseClientRequest(full.substr(0, len));
    EXPECT_FALSE(result.ok()) << "accepted truncated frame of " << len
                              << " bytes";
  }
  // Dropping whole lines from the tail loses the terminator too.
  const std::vector<std::string> lines = StrSplit(full, '\n');
  std::string partial;
  for (size_t i = 0; i + 2 < lines.size(); ++i) {
    partial += lines[i] + "\n";
    EXPECT_FALSE(ParseClientRequest(partial).ok());
  }
}

TEST(FuzzTest, ClientProtocolOversizedLinesRejected) {
  // A line beyond the cap must be rejected up front — the serving layer
  // reads frames from untrusted sockets, and an unbounded line is a memory
  // amplification vector.
  ClientRequest huge = ValidSubmit();
  huge.sql = std::string(kMaxClientProtocolLineBytes + 1, 'a');
  const auto request = ParseClientRequest(SerializeClientRequest(huge));
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().message().find("oversized"), std::string::npos)
      << request.status().ToString();

  ClientResponse big;
  big.server = std::string(kMaxClientProtocolLineBytes + 1, 's');
  const auto response = ParseClientResponse(SerializeClientResponse(big));
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().message().find("oversized"), std::string::npos);

  // At (not over) the cap the frame still parses: the bound is a limit,
  // not a shrinking of the usable protocol.
  ClientRequest fits = ValidSubmit();
  fits.sql = std::string(kMaxClientProtocolLineBytes - 16, 'a');
  EXPECT_TRUE(ParseClientRequest(SerializeClientRequest(fits)).ok());
}

/// A random response the serializer can represent exactly: int items span
/// the whole int64 range (extremes included), counters ride only on frames
/// that carry the result block, optional fields only when set.
ClientResponse RandomResponse(Rng& rng) {
  ClientResponse r;
  r.ok = rng.Bernoulli(0.8);
  if (!r.ok) {
    r.error_code = kAllStatusCodes[rng.Uniform(1, std::size(kAllStatusCodes) - 1)];
    r.error_message = RandomBytes(rng, 30);
  }
  if (rng.Bernoulli(0.2)) r.server = RandomBytes(rng, 12);
  if (rng.Bernoulli(0.7)) r.ticket = rng.engine()() >> rng.Uniform(0, 63);
  if (rng.Bernoulli(0.5)) r.state = rng.Bernoulli(0.5) ? "done" : "queued";
  const bool ints_only = rng.Bernoulli(0.7);
  const int64_t n = rng.Uniform(0, 40);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t kind = ints_only ? 0 : rng.Uniform(0, 4);
    if (kind == 0) {
      const int64_t pick = rng.Uniform(0, 5);
      r.items.emplace_back(pick == 0   ? std::numeric_limits<int64_t>::min()
                           : pick == 1 ? std::numeric_limits<int64_t>::max()
                                       : static_cast<int64_t>(rng.engine()()));
    } else if (kind == 1) {
      r.items.emplace_back((rng.NextDouble() - 0.5) *
                           std::pow(10.0, static_cast<double>(rng.Uniform(-300, 300))));
    } else if (kind == 2) {
      r.items.emplace_back(RandomBytes(rng, 20));
    } else {
      r.items.push_back(Value::Null());
    }
  }
  r.cost = rng.Bernoulli(0.5) ? rng.NextDouble() * 1000.0 : 0.0;
  if (rng.Bernoulli(0.5)) r.source_queries = rng.engine()() >> 40;
  if (r.source_queries > 0 || !r.items.empty() || r.cost > 0.0) {
    r.cache_hits = rng.engine()() >> 40;
    r.cache_misses = rng.engine()() >> 40;
    r.items_sent = rng.engine()();
    r.items_received = rng.engine()();
  }
  if (rng.Bernoulli(0.3)) r.cache_containment_hits = rng.engine()() >> 50;
  if (rng.Bernoulli(0.3)) r.calibration_cost = rng.NextDouble() * 50.0;
  r.complete = rng.Bernoulli(0.8);
  if (rng.Bernoulli(0.2)) r.features = ClientProtocolFeatures();
  for (int64_t i = rng.Uniform(0, 2); i > 0; --i) {
    r.stats_lines.push_back(RandomBytes(rng, 30));
    r.explain_lines.push_back(RandomBytes(rng, 30));
  }
  return r;
}

TEST(FuzzTest, ClientProtocolResponseRoundTripProperty) {
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const ClientResponse original = RandomResponse(rng);
    const std::string wire = SerializeClientResponse(original);
    const auto parsed = ParseClientResponse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << wire;
    EXPECT_EQ(parsed->ok, original.ok);
    EXPECT_EQ(parsed->error_code, original.error_code);
    EXPECT_EQ(parsed->error_message, original.error_message);
    EXPECT_EQ(parsed->server, original.server);
    EXPECT_EQ(parsed->ticket, original.ticket);
    EXPECT_EQ(parsed->state, original.state);
    ASSERT_EQ(parsed->items.size(), original.items.size());
    for (size_t j = 0; j < original.items.size(); ++j) {
      EXPECT_EQ(parsed->items[j].type(), original.items[j].type());
      EXPECT_EQ(parsed->items[j], original.items[j]) << wire;
    }
    EXPECT_EQ(parsed->cost, original.cost);
    EXPECT_EQ(parsed->source_queries, original.source_queries);
    EXPECT_EQ(parsed->cache_hits, original.cache_hits);
    EXPECT_EQ(parsed->cache_misses, original.cache_misses);
    EXPECT_EQ(parsed->items_sent, original.items_sent);
    EXPECT_EQ(parsed->items_received, original.items_received);
    EXPECT_EQ(parsed->cache_containment_hits, original.cache_containment_hits);
    EXPECT_EQ(parsed->calibration_cost, original.calibration_cost);
    EXPECT_EQ(parsed->complete, original.complete);
    EXPECT_EQ(parsed->features, original.features);
    EXPECT_EQ(parsed->stats_lines, original.stats_lines);
    EXPECT_EQ(parsed->explain_lines, original.explain_lines);
    EXPECT_EQ(SerializeClientResponse(*parsed), wire);
  }
}

TEST(FuzzTest, ClientProtocolRelayProperty) {
  // The router relays shard frames as bytes, rewriting only the ticket. For
  // any frame: the relay rejects it, or the client reads the relayed bytes
  // exactly as it reads the original, with the ticket re-tagged — and an
  // original the client rejects stays rejected.
  Rng rng(32);
  const auto check = [](const std::string& frame, uint8_t shard) {
    const auto relayed = RelayClientResponse(frame, shard);
    if (!relayed.ok()) {
      EXPECT_EQ(relayed.status().code(), StatusCode::kParseError);
      return;
    }
    auto original = ParseClientResponse(frame);
    const auto client = ParseClientResponse(*relayed);
    ASSERT_EQ(client.ok(), original.ok()) << frame;
    if (!original.ok()) {
      EXPECT_EQ(client.status().ToString(), original.status().ToString());
      return;
    }
    if (original->ticket != 0) original->ticket = (original->ticket << 8) | shard;
    EXPECT_EQ(SerializeClientResponse(*client),
              SerializeClientResponse(*original))
        << frame;
  };
  for (int i = 0; i < 1000; ++i) {
    ClientResponse response = RandomResponse(rng);
    const std::string wire = SerializeClientResponse(response);
    const uint8_t shard = static_cast<uint8_t>(rng.Uniform(0, 255));
    // A well-formed frame relays to exactly the re-serialized answer.
    const auto relayed = RelayClientResponse(wire, shard);
    ASSERT_TRUE(relayed.ok()) << relayed.status().ToString();
    if (response.ticket != 0) response.ticket = (response.ticket << 8) | shard;
    EXPECT_EQ(*relayed, SerializeClientResponse(response));
    check(Mutate(rng, wire, 1 + i % 5), shard);
    check(wire.substr(0, static_cast<size_t>(rng.Uniform(
                             0, static_cast<int64_t>(wire.size())))),
          shard);
    check("FUSIONQ/1 OK\n" + RandomBytes(rng, 60) + "\nticket " +
              std::to_string(rng.engine()() >> 8) + "\n" +
              RandomBytes(rng, 60) + "\nend\n",
          shard);
  }
  // Extra or oversized ticket lines are handled the way the parser reads
  // them: every ticket line is re-tagged, a bad one rejects the frame.
  check("FUSIONQ/1 OK\nticket 1\nticket 2\nend\n", 3);
  EXPECT_FALSE(RelayClientResponse("FUSIONQ/1 OK\nticket x\nend\n", 1).ok());
  EXPECT_FALSE(RelayClientResponse("FUSIONQ/1 MAYBE\nticket 1\nend\n", 1).ok());
  EXPECT_FALSE(RelayClientResponse("FUSIONQ/1 OK\nticket 1\n", 1).ok());
  EXPECT_FALSE(RelayClientResponse(
                   "FUSIONQ/1 OK\nstats " +
                       std::string(kMaxClientProtocolLineBytes, 'x') + "\nend\n",
                   1)
                   .ok());
}

TEST(FuzzTest, QueryServiceHandleNeverCrashes) {
  // The full dispatch surface: arbitrary bytes into QueryService::Handle
  // must always come back as one parseable FUSIONQ/1 response — an ERROR
  // for garbage, never a crash, hang, or unframed reply.
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.seed = 17;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  QueryService::Options options;
  options.workers = 2;
  QueryService service(Mediator(std::move(instance->catalog)), options);

  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    const auto response = ParseClientResponse(service.Handle(RandomBytes(rng, 200)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->ok);  // random bytes are never a valid request
  }
  const std::string valid = SerializeClientRequest(ValidSubmit());
  for (int i = 0; i < 300; ++i) {
    // Mutants that happen to parse run real queries; either way the reply
    // must be a well-formed frame.
    const auto response =
        ParseClientResponse(service.Handle(Mutate(rng, valid, 1 + i % 5)));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  SUCCEED();
}

TEST(FuzzTest, QueryServiceStatsAndExplainFramesNeverCrash) {
  // The new observability verbs share Handle's dispatch: mutated STATS
  // frames and trace/explain-carrying SUBMITs must always yield a framed
  // response, and a well-formed STATS reply must parse as an exposition.
  SyntheticSpec spec;
  spec.universe_size = 200;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.seed = 18;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  QueryService::Options options;
  options.workers = 2;
  QueryService service(Mediator(std::move(instance->catalog)), options);

  ClientRequest stats;
  stats.kind = ClientRequest::Kind::kStats;
  stats.client_id = "fuzz";
  const std::string valid_stats = SerializeClientRequest(stats);
  ClientRequest explained = ValidSubmit();
  explained.explain = true;
  explained.trace_id = 0xfadedacedeadbeefULL;
  explained.parent_span = 77;
  const std::string valid_explain = SerializeClientRequest(explained);

  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    const auto stats_reply =
        ParseClientResponse(service.Handle(Mutate(rng, valid_stats, 1 + i % 5)));
    ASSERT_TRUE(stats_reply.ok()) << stats_reply.status().ToString();
    const auto explain_reply = ParseClientResponse(
        service.Handle(Mutate(rng, valid_explain, 1 + i % 5)));
    ASSERT_TRUE(explain_reply.ok()) << explain_reply.status().ToString();
  }
  // The unmutated STATS frame round-trips all the way into a parsed
  // exposition with the mandatory schema header.
  const auto reply = ParseClientResponse(service.Handle(valid_stats));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error_message;
  std::string text;
  for (const std::string& line : reply->stats_lines) text += line + "\n";
  const auto exposition = ParseStatsText(text);
  ASSERT_TRUE(exposition.ok()) << exposition.status().ToString();
  EXPECT_GT(exposition->samples.size(), 0u);
}

TEST(FuzzTest, StatsExpositionParserNeverCrashes) {
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    (void)ParseStatsText(RandomBytes(rng, 200));
  }
  const std::string valid =
      "# fusionq-stats schema 1\n"
      "requests_total 42\n"
      "tenant_latency_ms{tenant=\"a\\\"b\",quantile=\"0.99\"} 3.5\n";
  for (int i = 0; i < 2000; ++i) {
    (void)ParseStatsText(Mutate(rng, valid, 1 + i % 5));
  }
  SUCCEED();
}

}  // namespace
}  // namespace fusion

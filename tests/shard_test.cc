// Sharded-fleet tests (the `shard` ctest label): the FUSIONQ/1 feature
// registry, the rendezvous shard map, the INVALIDATE coherence verb, and the
// fusionrd QueryRouter end to end over real sockets — k shards behind one
// router must answer byte-identically to a single serial mediator, keep
// repeated queries warm regardless of which client connection asks, fail
// over past a dead shard, and apply INVALIDATE broadcasts idempotently.
#include <gtest/gtest.h>

#include <algorithm>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mediator/client.h"
#include "mediator/service.h"
#include "protocol/client_protocol.h"
#include "protocol/features.h"
#include "protocol/socket.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "test_daemon.h"
#include "workload/dmv.h"

namespace fusion {
namespace {

constexpr char kDuiAndSp[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'";
constexpr char kSpAndDui[] =
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.V = 'sp' AND u2.V = 'dui' AND u1.L = u2.L";
constexpr char kDuiOnly[] = "SELECT u1.L FROM U u1 WHERE u1.V = 'dui'";

// ---------------------------------------------------------------------------
// Feature registry
// ---------------------------------------------------------------------------

TEST(FeatureRegistryTest, NamesRoundTrip) {
  const FeatureSet all = FeatureSet::All();
  for (const Feature f : {Feature::kTrace, Feature::kStats, Feature::kExplain,
                          Feature::kIdempotency, Feature::kSharding}) {
    EXPECT_TRUE(all.Has(f)) << FeatureName(f);
    Feature parsed;
    ASSERT_TRUE(ParseFeatureName(FeatureName(f), &parsed));
    EXPECT_EQ(parsed, f);
  }
  EXPECT_EQ(FeatureSet::FromNames(all.Names()), all);
}

TEST(FeatureRegistryTest, FromNamesDropsUnknownNames) {
  const FeatureSet set =
      FeatureSet::FromNames({"sharding", "warp-drive", "trace"});
  EXPECT_TRUE(set.Has(Feature::kSharding));
  EXPECT_TRUE(set.Has(Feature::kTrace));
  EXPECT_FALSE(set.Has(Feature::kStats));
}

TEST(FeatureRegistryTest, ClientProtocolFeaturesIsTheFullRegistry) {
  EXPECT_EQ(ClientProtocolFeatures(), FeatureSet::All().Names());
}

// ---------------------------------------------------------------------------
// Rendezvous shard map
// ---------------------------------------------------------------------------

std::vector<Shard> TestShards(size_t k) {
  std::vector<Shard> shards;
  for (size_t i = 0; i < k; ++i) {
    Shard shard;
    shard.name = "shard-" + std::to_string(i);
    shard.endpoint = "127.0.0.1:" + std::to_string(10000 + i);
    shards.push_back(shard);
  }
  return shards;
}

TEST(ShardMapTest, ValidatesItsShards) {
  EXPECT_FALSE(ShardMap::Make({}).ok());
  auto dup = TestShards(2);
  dup[1].name = dup[0].name;
  EXPECT_FALSE(ShardMap::Make(dup).ok());
  auto blank = TestShards(2);
  blank[1].endpoint.clear();
  EXPECT_FALSE(ShardMap::Make(blank).ok());
  EXPECT_TRUE(ShardMap::Make(TestShards(2)).ok());
}

TEST(ShardMapTest, OwnerIsDeterministicAcrossRebuilds) {
  auto a = ShardMap::Make(TestShards(4));
  auto b = ShardMap::Make(TestShards(4));
  ASSERT_TRUE(a.ok() && b.ok());
  for (int i = 0; i < 200; ++i) {
    const std::string key = "query-" + std::to_string(i);
    EXPECT_EQ(a->Owner(key), b->Owner(key)) << key;
  }
}

TEST(ShardMapTest, RankedCoversEveryShardAndSpreadsKeys) {
  auto map = ShardMap::Make(TestShards(4));
  ASSERT_TRUE(map.ok());
  std::vector<size_t> owned(4, 0);
  for (int i = 0; i < 400; ++i) {
    const std::string key = "query-" + std::to_string(i);
    const std::vector<size_t> ranked = map->Ranked(key);
    ASSERT_EQ(ranked.size(), 4u);
    EXPECT_EQ(std::set<size_t>(ranked.begin(), ranked.end()).size(), 4u);
    ++owned[ranked[0]];
  }
  // HRW spreads uniformly in expectation (100 per shard here); a shard
  // getting under a quarter of its fair share would mean a broken hash.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(owned[s], 25u) << "shard " << s << " starved";
  }
}

TEST(ShardMapTest, GrowingTheFleetMovesOnlyAFractionOfKeys) {
  auto four = ShardMap::Make(TestShards(4));
  auto five = ShardMap::Make(TestShards(5));
  ASSERT_TRUE(four.ok() && five.ok());
  size_t moved = 0;
  const size_t kKeys = 500;
  for (size_t i = 0; i < kKeys; ++i) {
    const std::string key = "query-" + std::to_string(i);
    if (four->Owner(key) != five->Owner(key)) ++moved;
  }
  // Rendezvous hashing moves ~1/5 of keys when a fifth shard joins; a
  // modulo hash would move ~4/5. The bound splits the difference.
  EXPECT_LT(moved, kKeys / 2) << "not minimal-movement hashing";
  EXPECT_GT(moved, 0u) << "new shard never wins";
}

TEST(ShardMapTest, CanonicalQueryKeyCommutesConditions) {
  // The same fusion query spelled in two orders must land on one shard —
  // that is what makes the warm-locality routing invariant real.
  EXPECT_EQ(CanonicalQueryKey(kDuiAndSp), CanonicalQueryKey(kSpAndDui));
  EXPECT_NE(CanonicalQueryKey(kDuiAndSp), CanonicalQueryKey(kDuiOnly));
  // Unparseable text degrades to trimmed-verbatim keying.
  EXPECT_EQ(CanonicalQueryKey("  not sql  "), CanonicalQueryKey("not sql"));
}

TEST(ShardMapTest, QueryKeyMemoMatchesCanonicalQueryKeyAndStaysBounded) {
  QueryKeyMemo keys;
  for (const char* sql : {kDuiAndSp, kSpAndDui, kDuiOnly, "  not sql  "}) {
    EXPECT_EQ(keys.Key(sql), CanonicalQueryKey(sql)) << sql;
    EXPECT_EQ(keys.Key(sql), CanonicalQueryKey(sql)) << sql;  // memo hit
  }
  EXPECT_EQ(keys.size(), 4u);
  // Past kMaxEntries texts the memo starts over instead of growing.
  // (Unparsable texts keep this cheap: their key is the trimmed text.)
  size_t max_seen = 0;
  for (size_t i = 0; i <= QueryKeyMemo::kMaxEntries; ++i) {
    keys.Key("text " + std::to_string(i));
    max_seen = std::max(max_seen, keys.size());
  }
  EXPECT_EQ(max_seen, QueryKeyMemo::kMaxEntries);
  EXPECT_LT(keys.size(), QueryKeyMemo::kMaxEntries);
}

// ---------------------------------------------------------------------------
// INVALIDATE: wire round-trip and service-side version idempotence
// ---------------------------------------------------------------------------

TEST(InvalidateProtocolTest, RequestRoundTripsWithVersion) {
  ClientRequest request;
  request.kind = ClientRequest::Kind::kInvalidate;
  request.client_id = "router";
  request.source = "DMV HQ";  // space exercises wire escaping
  request.version = 41;
  const auto parsed = ParseClientRequest(SerializeClientRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, ClientRequest::Kind::kInvalidate);
  EXPECT_EQ(parsed->source, "DMV HQ");
  EXPECT_EQ(parsed->version, 41u);
}

std::unique_ptr<QueryService> Figure1Service() {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  QueryService::Options options;
  options.client.statistics = StatisticsMode::kOracle;
  return std::make_unique<QueryService>(Mediator(std::move(instance->catalog)),
                                        options);
}

TEST(ServiceInvalidateTest, VersionsAreIdempotent) {
  auto service = Figure1Service();
  const std::string source = service->session().mediator().catalog()
                                 .source(0).name();
  // Version 7 applies; replaying it (the router retrying a partial
  // broadcast) is a stale no-op; a higher version applies again.
  auto first = service->Invalidate(source, 7);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "applied");
  auto replay = service->Invalidate(source, 7);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(*replay, "stale");
  auto older = service->Invalidate(source, 3);
  ASSERT_TRUE(older.ok());
  EXPECT_EQ(*older, "stale");
  auto newer = service->Invalidate(source, 8);
  ASSERT_TRUE(newer.ok());
  EXPECT_EQ(*newer, "applied");
  // Version 0 = unconditional (never recorded, never staled).
  auto unconditional = service->Invalidate(source, 0);
  ASSERT_TRUE(unconditional.ok());
  EXPECT_EQ(*unconditional, "applied");
  EXPECT_EQ(service->invalidates_applied(), 3u);
  EXPECT_EQ(service->invalidates_stale(), 2u);
  // Unknown sources are an error, not a silent no-op.
  EXPECT_FALSE(service->Invalidate("no-such-source", 1).ok());
}

TEST(ServiceInvalidateTest, HandlesTheWireVerb) {
  auto service = Figure1Service();
  ClientRequest request;
  request.kind = ClientRequest::Kind::kInvalidate;
  request.client_id = "coherence";
  request.source =
      service->session().mediator().catalog().source(1).name();
  request.version = 5;
  auto response =
      ParseClientResponse(service->Handle(SerializeClientRequest(request)));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok) << response->error_message;
  EXPECT_EQ(response->state, "applied");
  response =
      ParseClientResponse(service->Handle(SerializeClientRequest(request)));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->ok);
  EXPECT_EQ(response->state, "stale");
}

// ---------------------------------------------------------------------------
// QueryRouter end to end over real sockets
// ---------------------------------------------------------------------------

/// A 2-shard fleet behind a router: each shard is a full QueryService over
/// its own byte-identical replica of the Figure 1 federation.
struct Fleet {
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<TcpServer>> shard_daemons;
  std::unique_ptr<QueryRouter> router;
  std::unique_ptr<TcpServer> router_daemon;

  std::string endpoint() const {
    return Endpoint(router_daemon->port());
  }
};

Fleet StartFleet(size_t k) {
  Fleet fleet;
  std::vector<Shard> shards;
  for (size_t i = 0; i < k; ++i) {
    fleet.services.push_back(Figure1Service());
    fleet.shard_daemons.push_back(
        std::make_unique<TcpServer>(
            FrameHandler(fleet.services.back().get(), kMaxClientFrameBytes)));
    EXPECT_TRUE(fleet.shard_daemons.back()->Start().ok());
    Shard shard;
    shard.name = "shard-" + std::to_string(i);
    shard.endpoint = Endpoint(fleet.shard_daemons.back()->port());
    shards.push_back(shard);
  }
  auto map = ShardMap::Make(shards);
  EXPECT_TRUE(map.ok());
  fleet.router = std::make_unique<QueryRouter>(std::move(map).value(),
                                               QueryRouter::Options{});
  fleet.router_daemon =
      std::make_unique<TcpServer>(
          FrameHandler(fleet.router.get(), kMaxClientFrameBytes));
  EXPECT_TRUE(fleet.router_daemon->Start().ok());
  return fleet;
}

TEST(RouterTest, HelloAdvertisesShardingAndNamesTheRouter) {
  Fleet fleet = StartFleet(2);
  auto client = Client::Builder()
                    .To(Client::Target::Remote(fleet.endpoint()))
                    .ClientId("hello")
                    .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->server(), "fusionrd");
  EXPECT_TRUE(
      FeatureSet::FromNames(client->server_features()).Has(Feature::kSharding));
  fleet.router->Shutdown();
}

TEST(RouterTest, FleetAnswersMatchASerialMediatorWithChurn) {
  Fleet fleet = StartFleet(2);
  auto serial_instance = BuildDmvFigure1();
  ASSERT_TRUE(serial_instance.ok());
  auto serial = Client::Builder()
                    .To(Client::Target::Embedded(
                        std::move(serial_instance->catalog)))
                    .Statistics(StatisticsMode::kOracle)
                    .Build();
  ASSERT_TRUE(serial.ok());

  // Three concurrent tenants, each its own connection through the router;
  // every answer must equal the serial mediator's, across source churn.
  const std::vector<std::string> pool = {kDuiAndSp, kDuiOnly, kSpAndDui};
  std::vector<std::string> expected;
  for (const std::string& sql : pool) {
    auto answer = serial->QuerySql(sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    expected.push_back(answer->items.ToString());
  }
  std::vector<std::string> failures;
  std::mutex failures_mu;
  std::vector<std::thread> tenants;
  for (int t = 0; t < 3; ++t) {
    tenants.emplace_back([&, t] {
      auto client = Client::Builder()
                        .To(Client::Target::Remote(fleet.endpoint()))
                        .ClientId("tenant-" + std::to_string(t))
                        .Build();
      if (!client.ok()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(client.status().ToString());
        return;
      }
      uint64_t version = 0;
      for (int round = 0; round < 8; ++round) {
        const size_t index = static_cast<size_t>(t + round) % pool.size();
        const auto answer = client->QuerySql(pool[index]);
        if (!answer.ok() || answer->items.ToString() != expected[index]) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(
              answer.ok() ? "diverged: " + answer->items.ToString()
                          : answer.status().ToString());
          return;
        }
        if (t == 0 && round % 3 == 2) {
          // Source churn mid-run: a coherence broadcast through the router.
          const auto state = client->InvalidateSource("R1", ++version);
          if (!state.ok()) {
            std::lock_guard<std::mutex> lock(failures_mu);
            failures.push_back(state.status().ToString());
            return;
          }
        }
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
  const auto counters = fleet.router->counters();
  EXPECT_GT(counters.forwards, 0u);
  EXPECT_GT(counters.invalidate_fanouts, 0u);
  fleet.router->Shutdown();
}

TEST(RouterTest, WarmQueriesStayWarmAcrossClientConnections) {
  Fleet fleet = StartFleet(2);
  auto first = Client::Builder()
                   .To(Client::Target::Remote(fleet.endpoint()))
                   .ClientId("cold")
                   .Build();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto cold = first->QuerySql(kDuiAndSp);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->cost, 0.0) << "cold query must meter source calls";

  // A different client connection, the same query — rendezvous routing
  // lands it on the same shard, whose memo answers it for free. The
  // commuted spelling must land warm too (canonical keying).
  auto second = Client::Builder()
                    .To(Client::Target::Remote(fleet.endpoint()))
                    .ClientId("warm")
                    .Build();
  ASSERT_TRUE(second.ok());
  for (const char* sql : {kDuiAndSp, kSpAndDui}) {
    const auto warm = second->QuerySql(sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->items.ToString(), cold->items.ToString());
    EXPECT_EQ(warm->cost, 0.0) << sql;
  }
  const auto counters = fleet.router->counters();
  EXPECT_GE(counters.warm_forwards, 2u);
  EXPECT_EQ(counters.warm_hits, counters.warm_forwards)
      << "a warm forward landed on a different shard";
  fleet.router->Shutdown();
}

TEST(RouterTest, FailsOverPastADeadShard) {
  Fleet fleet = StartFleet(2);
  auto client = Client::Builder()
                    .To(Client::Target::Remote(fleet.endpoint()))
                    .ClientId("failover")
                    .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto before = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Kill shard 0 outright (service and daemon). Whichever shard owns each
  // key, every query must still be answered — worst case the survivor
  // serves it at cold-cache cost, never a wrong answer.
  fleet.services[0]->Shutdown();
  fleet.shard_daemons[0]->Stop();
  const auto after = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->items.ToString(), before->items.ToString());
  const auto other = client->QuerySql(kDuiOnly);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  fleet.router->Shutdown();
}

TEST(RouterTest, InvalidateFanOutIsIdempotentAcrossTheFleet) {
  Fleet fleet = StartFleet(2);
  auto client = Client::Builder()
                    .To(Client::Target::Remote(fleet.endpoint()))
                    .ClientId("coherence")
                    .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto state = client->InvalidateSource("R2", 9);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, "applied");
  // The broadcast reached every shard with the version recorded.
  for (const auto& service : fleet.services) {
    EXPECT_EQ(service->invalidates_applied(), 1u);
  }
  // Replaying the same version (a retry after a partial broadcast) is a
  // fleet-wide stale no-op.
  state = client->InvalidateSource("R2", 9);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, "stale");
  for (const auto& service : fleet.services) {
    EXPECT_EQ(service->invalidates_stale(), 1u);
  }
  fleet.router->Shutdown();
}

/// A fake shard: answers HELLO like fusionqd and every other verb with one
/// fixed frame — how a faulty shard looks to the router.
class ScriptedShard {
 public:
  explicit ScriptedShard(std::string reply) : reply_(std::move(reply)) {}

  std::string Handle(const std::string& message) {
    const auto request = ParseClientRequest(message);
    if (request.ok() && request->kind == ClientRequest::Kind::kHello) {
      ClientResponse hello;
      hello.server = "scripted";
      hello.features = ClientProtocolFeatures();
      return SerializeClientResponse(hello);
    }
    return reply_;
  }

 private:
  std::string reply_;
};

TEST(RouterTest, MalformedShardReplyIsAParseErrorNotAFailover) {
  // A shard that answers with a whole but malformed frame is alive: the
  // router must not report it as dead ("never dialed") or fail over past
  // it. A bad header is rejected by the router; a bad item line is relayed
  // and rejected by the client's parser. Either way: kParseError.
  const std::pair<const char*, const char*> cases[] = {
      {"FUSIONQ/1 MAYBE\nticket 5\nend\n", "shard s"},
      {"FUSIONQ/1 OK\nticket 5\nitem i:notanumber\nend\n", "int64"}};
  for (const auto& [frame, detail] : cases) {
    std::vector<std::unique_ptr<ScriptedShard>> shards;
    std::vector<std::unique_ptr<TcpServer>> daemons;
    std::vector<Shard> map;
    for (int i = 0; i < 2; ++i) {
      shards.push_back(std::make_unique<ScriptedShard>(frame));
      daemons.push_back(
          std::make_unique<TcpServer>(
              FrameHandler(shards.back().get(), kMaxClientFrameBytes)));
      ASSERT_TRUE(daemons.back()->Start().ok());
      map.push_back({"s" + std::to_string(i), Endpoint(daemons.back()->port())});
    }
    auto shard_map = ShardMap::Make(map);
    ASSERT_TRUE(shard_map.ok());
    QueryRouter router(std::move(shard_map).value(), QueryRouter::Options{});
    TcpServer router_daemon(FrameHandler(&router, kMaxClientFrameBytes));
    ASSERT_TRUE(router_daemon.Start().ok());
    auto client = Client::Builder()
                      .To(Client::Target::Remote(Endpoint(router_daemon.port())))
                      .ClientId("malformed")
                      .Build();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const auto answer = client->QuerySql(kDuiAndSp);
    ASSERT_FALSE(answer.ok()) << frame;
    EXPECT_EQ(answer.status().code(), StatusCode::kParseError)
        << answer.status().ToString();
    EXPECT_NE(answer.status().message().find(detail), std::string::npos)
        << answer.status().ToString();
    EXPECT_EQ(router.counters().failovers, 0u) << frame;
    router.Shutdown();
  }
}

/// A fake shard that holds every SUBMIT until the test opens its gate, so
/// the router keeps one upstream connection checked out per held forward.
class GatedShard {
 public:
  std::string Handle(const std::string& message) {
    const auto request = ParseClientRequest(message);
    ClientResponse response;
    if (request.ok() && request->kind == ClientRequest::Kind::kHello) {
      response.server = "gated";
      response.features = ClientProtocolFeatures();
    } else {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      response.ticket = 5;
      response.state = "done";
    }
    return SerializeClientResponse(response);
  }

  /// Waits until `n` SUBMITs are held at once; false after 10 s.
  bool AwaitHeld(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return held_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t held_ = 0;
  bool open_ = false;
};

TEST(RouterTest, IdleLinkPoolStaysBoundedAfterABurst) {
  // More concurrent forwards to one shard than the pool keeps: each held
  // forward dials its own upstream link, and once the burst drains only
  // kMaxIdleLinksPerShard of them may stay open.
  constexpr size_t kForwards = QueryRouter::kMaxIdleLinksPerShard + 4;
  GatedShard shard;
  TcpServer daemon(FrameHandler(&shard, kMaxClientFrameBytes));
  ASSERT_TRUE(daemon.Start().ok());
  auto shard_map = ShardMap::Make({{"s0", Endpoint(daemon.port())}});
  ASSERT_TRUE(shard_map.ok());
  QueryRouter router(std::move(shard_map).value(), QueryRouter::Options{});

  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.sql = kDuiAndSp;
  const std::string wire = SerializeClientRequest(submit);
  std::vector<std::string> replies(kForwards);
  std::vector<std::thread> forwards;
  for (size_t i = 0; i < kForwards; ++i) {
    forwards.emplace_back([&, i] { replies[i] = router.Handle(wire); });
  }
  const bool all_held = shard.AwaitHeld(kForwards);
  shard.Open();
  for (std::thread& thread : forwards) thread.join();
  ASSERT_TRUE(all_held);
  EXPECT_EQ(router.counters().forwards, kForwards);
  for (const std::string& reply : replies) {
    const auto response = ParseClientResponse(reply);
    ASSERT_TRUE(response.ok()) << reply;
    EXPECT_TRUE(response->ok) << reply;
  }
  EXPECT_EQ(router.idle_links(0), QueryRouter::kMaxIdleLinksPerShard);
  router.Shutdown();
  EXPECT_EQ(router.idle_links(0), 0u);
}

TEST(RouterTest, WarmLocalityMapStaysBounded) {
  // One more distinct routing key than the warm-locality ledger keeps: the
  // ledger fills to kMaxWarmEntries, then starts over instead of growing.
  // Four sender threads share the keys; the bound holds after every forward.
  constexpr size_t kKeys = QueryRouter::kMaxWarmEntries + 1;
  constexpr size_t kThreads = 4;
  ClientResponse done;
  done.ticket = 5;
  done.state = "done";
  ScriptedShard shard(SerializeClientResponse(done));
  TcpServer daemon(FrameHandler(&shard, kMaxClientFrameBytes));
  ASSERT_TRUE(daemon.Start().ok());
  auto shard_map = ShardMap::Make({{"s0", Endpoint(daemon.port())}});
  ASSERT_TRUE(shard_map.ok());
  QueryRouter router(std::move(shard_map).value(), QueryRouter::Options{});

  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> max_seen{0};
  std::vector<std::thread> senders;
  for (size_t t = 0; t < kThreads; ++t) {
    senders.emplace_back([&] {
      ClientRequest submit;
      submit.kind = ClientRequest::Kind::kSubmit;
      for (size_t i = next++; i < kKeys; i = next++) {
        submit.sql = "SELECT u1.L FROM U u1 WHERE u1.V = 'k" +
                     std::to_string(i) + "'";
        const auto response =
            ParseClientResponse(router.Handle(SerializeClientRequest(submit)));
        if (!response.ok() || !response->ok) ++failed;
        const size_t entries = router.warm_entries();
        size_t seen = max_seen.load();
        while (entries > seen &&
               !max_seen.compare_exchange_weak(seen, entries)) {
        }
      }
    });
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(router.counters().forwards, kKeys);
  EXPECT_EQ(router.counters().warm_forwards, 0u);
  EXPECT_LE(max_seen.load(), QueryRouter::kMaxWarmEntries);
  EXPECT_GT(max_seen.load(), QueryRouter::kMaxWarmEntries - kThreads);
  // The last key in found the ledger full and cleared it first.
  EXPECT_EQ(router.warm_entries(), 1u);
  router.Shutdown();
}

TEST(RouterTest, EmbeddedInvalidateWorksWithoutAFleet) {
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  auto client = Client::Builder()
                    .To(Client::Target::Embedded(std::move(instance->catalog)))
                    .Statistics(StatisticsMode::kOracle)
                    .Build();
  ASSERT_TRUE(client.ok());
  const auto state = client->InvalidateSource("R1");
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(*state, "applied");
  EXPECT_FALSE(client->InvalidateSource("no-such-source").ok());
}

TEST(RouterTest, MultiEndpointTargetFailsOverToALiveShard) {
  // Clients may also skip the router and aim Target::Remote at the shard
  // list directly: the first endpoint is dead here, so Build must rotate
  // to the live one.
  Fleet fleet = StartFleet(1);
  auto client =
      Client::Builder()
          .To(Client::Target::Remote(std::vector<std::string>{
              "127.0.0.1:1", Endpoint(fleet.shard_daemons[0]->port())}))
          .ClientId("rotate")
          .Reconnect([] {
            RetryPolicy policy;
            policy.max_attempts = 4;
            policy.initial_backoff_seconds = 0.001;
            policy.max_backoff_seconds = 0.01;
            return policy;
          }())
          .Build();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto answer = client->QuerySql(kDuiAndSp);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items.ToString(), "{'J55', 'T21'}");
}

}  // namespace
}  // namespace fusion

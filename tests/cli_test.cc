#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "cli/catalog_config.h"
#include "cli/client_flags.h"
#include "cli/flags.h"
#include "common/file_util.h"
#include "mediator/mediator.h"
#include "protocol/socket.h"

namespace fusion {
namespace {

constexpr char kGoodConfig[] = R"(# demo catalog
[source R1]
csv = r1.csv
semijoin = native
overhead = 10
send = 1
recv = 2
proc = 0.5
width = 3

[source R2]
csv = r2.csv
semijoin = bindings  # legacy
load = no
)";

TEST(CatalogConfigTest, ParsesSourcesWithProfiles) {
  const auto specs = ParseCatalogConfig(kGoodConfig);
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 2u);
  const SourceSpecConfig& r1 = (*specs)[0];
  EXPECT_EQ(r1.name, "R1");
  EXPECT_EQ(r1.csv_path, "r1.csv");
  EXPECT_EQ(r1.capabilities.semijoin, SemijoinSupport::kNative);
  EXPECT_TRUE(r1.capabilities.supports_load);
  EXPECT_DOUBLE_EQ(r1.network.query_overhead, 10);
  EXPECT_DOUBLE_EQ(r1.network.cost_per_item_sent, 1);
  EXPECT_DOUBLE_EQ(r1.network.cost_per_item_received, 2);
  EXPECT_DOUBLE_EQ(r1.network.processing_per_tuple, 0.5);
  EXPECT_DOUBLE_EQ(r1.network.record_width_factor, 3);
  const SourceSpecConfig& r2 = (*specs)[1];
  EXPECT_EQ(r2.capabilities.semijoin, SemijoinSupport::kPassedBindingsOnly);
  EXPECT_FALSE(r2.capabilities.supports_load);
  // Defaults retained for unspecified cost keys.
  EXPECT_DOUBLE_EQ(r2.network.query_overhead, NetworkProfile{}.query_overhead);
}

TEST(CatalogConfigTest, RejectsMalformedConfigs) {
  EXPECT_FALSE(ParseCatalogConfig("").ok());
  EXPECT_FALSE(ParseCatalogConfig("[source R1]\n").ok());  // no csv
  EXPECT_FALSE(ParseCatalogConfig("csv = a.csv\n").ok());  // outside section
  EXPECT_FALSE(ParseCatalogConfig("[widget X]\ncsv = a\n").ok());
  EXPECT_FALSE(
      ParseCatalogConfig("[source R1]\ncsv = a\nsemijoin = maybe\n").ok());
  EXPECT_FALSE(
      ParseCatalogConfig("[source R1]\ncsv = a\noverhead = cheap\n").ok());
  EXPECT_FALSE(
      ParseCatalogConfig("[source R1]\ncsv = a\nbogus = 1\n").ok());
  EXPECT_FALSE(ParseCatalogConfig("[source R1\ncsv = a\n").ok());
  EXPECT_FALSE(ParseCatalogConfig("[source R1]\nno equals sign\n").ok());
  EXPECT_FALSE(
      ParseCatalogConfig("[source R1]\ncsv = a\noverhead = -5\n").ok());
}

TEST(CatalogConfigTest, CommentsAndBlanksIgnored) {
  const auto specs = ParseCatalogConfig(
      "\n# header\n[source S]\n  csv = x.csv  # inline\n\n");
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  EXPECT_EQ((*specs)[0].csv_path, "x.csv");
}

class CatalogLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/fusion_cli_test";
    std::remove((dir_ + "/r1.csv").c_str());
    ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
    ASSERT_TRUE(WriteStringToFile(
                    dir_ + "/r1.csv",
                    "L:string,V:string\nJ55,dui\nT21,sp\n")
                    .ok());
    ASSERT_TRUE(WriteStringToFile(
                    dir_ + "/r2.csv",
                    "L:string,V:string\nJ55,sp\nT80,dui\n")
                    .ok());
    ASSERT_TRUE(WriteStringToFile(dir_ + "/catalog.ini",
                                  "[source R1]\ncsv = r1.csv\n"
                                  "[source R2]\ncsv = r2.csv\n")
                    .ok());
  }
  std::string dir_;
};

TEST_F(CatalogLoadTest, LoadsCatalogAndAnswersQueries) {
  auto catalog = LoadCatalogFromFile(dir_ + "/catalog.ini");
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->size(), 2u);
  Mediator mediator(std::move(catalog).value());
  MediatorOptions options;
  options.statistics = StatisticsMode::kOracle;
  const auto answer = mediator.AnswerSql(
      "SELECT u1.L FROM U u1, U u2 "
      "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
      options);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->items.ToString(), "{'J55'}");
}

TEST_F(CatalogLoadTest, MissingCsvFails) {
  ASSERT_TRUE(WriteStringToFile(dir_ + "/bad.ini",
                                "[source R9]\ncsv = nope.csv\n")
                  .ok());
  EXPECT_FALSE(LoadCatalogFromFile(dir_ + "/bad.ini").ok());
}

TEST_F(CatalogLoadTest, MalformedCsvReportsSourceName) {
  ASSERT_TRUE(
      WriteStringToFile(dir_ + "/broken.csv", "L:string\n\"unclosed\n").ok());
  ASSERT_TRUE(WriteStringToFile(dir_ + "/broken.ini",
                                "[source RX]\ncsv = broken.csv\n")
                  .ok());
  const auto catalog = LoadCatalogFromFile(dir_ + "/broken.ini");
  // Either parses leniently or fails mentioning the source; accept both but
  // require no crash and a sane Status on failure.
  if (!catalog.ok()) {
    EXPECT_NE(catalog.status().message().find("RX"), std::string::npos);
  }
}

TEST(FileUtilTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/fusion_file_util.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld").ok());
  const auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello\nworld");
  EXPECT_FALSE(ReadFileToString(path + ".does-not-exist").ok());
}

TEST(FileUtilTest, AtomicWriteLeavesNoTornState) {
  // The port-file readiness contract: a concurrent reader sees the whole
  // content or no file at all — never an empty/partial file (the bug the
  // rename(2)-based write fixed in fusionqd/fusionsd/fusionrd).
  const std::string path = ::testing::TempDir() + "/fusion_port_file.txt";
  std::remove(path.c_str());
  ASSERT_TRUE(WriteFileAtomic(path, "4631\n").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "4631\n");
  // Overwrite is atomic too, and the temp staging file never lingers.
  ASSERT_TRUE(WriteFileAtomic(path, "4632\n").ok());
  back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "4632\n");
  EXPECT_FALSE(ReadFileToString(path + ".tmp").ok());
  // An unwritable staging path surfaces as a Status, not a torn target.
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir/port", "1\n").ok());
}

// ---------------------------------------------------------------------------
// Remote-source endpoint specs
// ---------------------------------------------------------------------------

TEST(CatalogConfigTest, EndpointValuesAreTrimmedAndDeduplicated) {
  const auto specs = ParseCatalogConfig(
      "[source R1]\n"
      "endpoint =   127.0.0.1:9001  \n"
      "endpoint = 127.0.0.1:9002\n"
      "endpoint = 127.0.0.1:9001\n");  // duplicate: kept-first, not doubled
  ASSERT_TRUE(specs.ok()) << specs.status().ToString();
  ASSERT_EQ(specs->size(), 1u);
  const std::vector<std::string> expected = {"127.0.0.1:9001",
                                             "127.0.0.1:9002"};
  EXPECT_EQ((*specs)[0].endpoints, expected);
}

TEST(CatalogConfigTest, RejectsMalformedEndpoints) {
  const auto with_endpoint = [](const std::string& endpoint) {
    return ParseCatalogConfig("[source R1]\nendpoint = " + endpoint + "\n");
  };
  EXPECT_FALSE(with_endpoint("no-port-here").ok());
  EXPECT_FALSE(with_endpoint(":9001").ok());         // empty host
  EXPECT_FALSE(with_endpoint("host:").ok());         // empty port
  EXPECT_FALSE(with_endpoint("host:http").ok());     // non-numeric port
  EXPECT_FALSE(with_endpoint("host:0").ok());        // port out of range
  EXPECT_FALSE(with_endpoint("host:65536").ok());    // port out of range
  EXPECT_FALSE(with_endpoint("two hosts:9001").ok());  // inner whitespace
  EXPECT_FALSE(with_endpoint("host:4631x").ok());    // trailing garbage
  EXPECT_FALSE(with_endpoint("host:-1").ok());       // signed port
}

TEST(EndpointTest, OneParserForTheDialerAndTheCatalog) {
  const auto parsed = ParseEndpoint("127.0.0.1:4631");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->host, "127.0.0.1");
  EXPECT_EQ(parsed->port, 4631);
  for (const char* bad : {"127.0.0.1:4631x", "127.0.0.1:", "127.0.0.1",
                          ":4631", "127.0.0.1:0", "127.0.0.1:65536",
                          "127.0.0.1: 4631"}) {
    EXPECT_EQ(ParseEndpoint(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    // DialTcp refuses it before touching the network: "127.0.0.1:4631x"
    // must not be read as port 4631.
    EXPECT_EQ(DialTcp(bad).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Numeric client flags
// ---------------------------------------------------------------------------

TEST(ClientFlagsTest, NumbersAreStrict) {
  for (const char* arg :
       {"--deadline-ms=abc", "--parallelism=2x", "--cache-mb=1x",
        "--max-attempts=", "--retry-backoff=-1", "--call-timeout-ms=nan",
        "--cache-ttl-ms=inf", "--parallelism=0"}) {
    ClientFlags flags;
    Status error;
    EXPECT_TRUE(flags.Consume(arg, &error)) << arg;
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << arg;
  }
  ClientFlags flags;
  Status error;
  for (const char* arg : {"--deadline-ms=250.5", "--parallelism=3",
                          "--cache-mb=1.5", "--max-attempts=4"}) {
    ASSERT_TRUE(flags.Consume(arg, &error)) << arg;
    EXPECT_TRUE(error.ok()) << arg << ": " << error.ToString();
  }
  EXPECT_DOUBLE_EQ(flags.deadline_ms, 250.5);
  EXPECT_EQ(flags.parallelism, 3);
  EXPECT_DOUBLE_EQ(flags.cache_mb, 1.5);
  EXPECT_TRUE(flags.cache);
  EXPECT_EQ(flags.max_attempts, 4);
}

// ---------------------------------------------------------------------------
// The --chaos-* flags fusionqd and fusionsd share
// ---------------------------------------------------------------------------

TEST(ChaosFlagsTest, ParsesEveryFlag) {
  ChaosFlags flags;
  for (const char* arg :
       {"--chaos-drop-rate=0.1", "--chaos-torn-rate=0.05",
        "--chaos-delay-rate=0.2", "--chaos-delay-ms=3.5",
        "--chaos-refuse-rate=1", "--chaos-hang-rate=0", "--chaos-hang-ms=75",
        "--chaos-seed=18446744073709551615"}) {
    Status error = Status::Internal("unset");
    EXPECT_TRUE(flags.Consume(arg, &error)) << arg;
    EXPECT_TRUE(error.ok()) << arg << ": " << error.ToString();
  }
  EXPECT_DOUBLE_EQ(flags.policy.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(flags.policy.torn_write_rate, 0.05);
  EXPECT_DOUBLE_EQ(flags.policy.delay_rate, 0.2);
  EXPECT_DOUBLE_EQ(flags.policy.delay_ms, 3.5);
  EXPECT_DOUBLE_EQ(flags.policy.accept_refuse_rate, 1.0);
  EXPECT_DOUBLE_EQ(flags.policy.hang_rate, 0.0);
  EXPECT_DOUBLE_EQ(flags.policy.hang_ms, 75.0);
  EXPECT_EQ(flags.policy.seed, 18446744073709551615ull);
  EXPECT_TRUE(flags.seed_set);
  // A pinned seed is served as given; no enabled fault, no decider.
  ASSERT_NE(flags.Decider(), nullptr);
  EXPECT_EQ(flags.Decider()->policy().seed, 18446744073709551615ull);
  EXPECT_EQ(ChaosFlags().Decider(), nullptr);

  Status error;
  EXPECT_FALSE(flags.Consume("--port=1", &error));
  EXPECT_FALSE(flags.Consume("--chaos-drop-rates=0.1", &error));
}

TEST(ChaosFlagsTest, RejectsValuesThatAreNotStrictNumbersInRange) {
  // atof/strtoull read all of these as 0 (or a prefix), which left chaos
  // silently off or mis-set.
  for (const char* arg :
       {"--chaos-drop-rate=abc", "--chaos-seed=xyz", "--chaos-drop-rate=0.1x",
        "--chaos-torn-rate=", "--chaos-delay-rate= 0.1", "--chaos-hang-rate=nan",
        "--chaos-refuse-rate=1.5", "--chaos-drop-rate=-0.1",
        "--chaos-delay-ms=-2", "--chaos-hang-ms=inf", "--chaos-seed=-1",
        "--chaos-seed=12 ", "--chaos-seed=18446744073709551616"}) {
    ChaosFlags flags;
    Status error;
    EXPECT_TRUE(flags.Consume(arg, &error)) << arg;
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_FALSE(flags.seed_set) << arg;
    EXPECT_FALSE(flags.policy.enabled()) << arg;
  }
}

TEST(ListenFlagsTest, PortIsAStrictNumberInRange) {
  ListenFlags flags;
  Status error;
  EXPECT_TRUE(flags.Consume("--port=0", &error));
  EXPECT_TRUE(error.ok());
  EXPECT_TRUE(flags.Consume("--port=65535", &error));
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(flags.port, 65535);
  EXPECT_TRUE(flags.Consume("--port-file=/x", &error));
  EXPECT_EQ(flags.port_file, "/x");
  for (const char* arg : {"--port=abc", "--port=80x", "--port=-1",
                          "--port=65536", "--port="}) {
    EXPECT_TRUE(flags.Consume(arg, &error)) << arg;
    EXPECT_EQ(error.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_EQ(flags.port, 65535) << arg;
  }
}

}  // namespace
}  // namespace fusion

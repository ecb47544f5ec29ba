/**
 * @file
 * Unit tests for the INI config parser.
 */

#include <gtest/gtest.h>

#include "dc/dc_config.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

using namespace holdcsim;

TEST(Config, ParsesSectionsAndTypes)
{
    auto cfg = Config::parseString(R"(
top = 1
[server]
count = 50       ; fifty servers
cores = 4
freq_ghz = 2.8
hetero = false
[workload]
kind = poisson
utilization = 0.3
)");
    EXPECT_EQ(cfg.getInt("top"), 1);
    EXPECT_EQ(cfg.getInt("server.count"), 50);
    EXPECT_EQ(cfg.getInt("server.cores"), 4);
    EXPECT_DOUBLE_EQ(cfg.getDouble("server.freq_ghz"), 2.8);
    EXPECT_FALSE(cfg.getBool("server.hetero"));
    EXPECT_EQ(cfg.getString("workload.kind"), "poisson");
    EXPECT_DOUBLE_EQ(cfg.getDouble("workload.utilization"), 0.3);
}

TEST(Config, CommentsAndBlankLinesIgnored)
{
    auto cfg = Config::parseString(
        "# leading comment\n\n  ; another\nkey = value # trailing\n");
    EXPECT_EQ(cfg.getString("key"), "value");
}

TEST(Config, DefaultsApplyOnlyWhenMissing)
{
    auto cfg = Config::parseString("a = 5\n");
    EXPECT_EQ(cfg.getInt("a", 9), 5);
    EXPECT_EQ(cfg.getInt("b", 9), 9);
    EXPECT_EQ(cfg.getString("c", "x"), "x");
    EXPECT_TRUE(cfg.getBool("d", true));
    EXPECT_DOUBLE_EQ(cfg.getDouble("e", 1.5), 1.5);
}

TEST(Config, MissingKeyIsFatal)
{
    auto cfg = Config::parseString("");
    EXPECT_THROW(cfg.getString("nope"), FatalError);
    EXPECT_THROW(cfg.getInt("nope"), FatalError);
}

TEST(Config, BadValuesAreFatal)
{
    auto cfg = Config::parseString("i = abc\nf = 1.2.3\nb = maybe\n");
    EXPECT_THROW(cfg.getInt("i"), FatalError);
    EXPECT_THROW(cfg.getDouble("f"), FatalError);
    EXPECT_THROW(cfg.getBool("b"), FatalError);
}

TEST(Config, MalformedLinesAreFatal)
{
    EXPECT_THROW(Config::parseString("[unterminated\n"), FatalError);
    EXPECT_THROW(Config::parseString("no equals sign\n"), FatalError);
    EXPECT_THROW(Config::parseString("= value\n"), FatalError);
}

TEST(Config, BoolSpellings)
{
    auto cfg = Config::parseString(
        "a = true\nb = Yes\nc = ON\nd = 1\ne = false\nf = no\n"
        "g = off\nh = 0\n");
    EXPECT_TRUE(cfg.getBool("a"));
    EXPECT_TRUE(cfg.getBool("b"));
    EXPECT_TRUE(cfg.getBool("c"));
    EXPECT_TRUE(cfg.getBool("d"));
    EXPECT_FALSE(cfg.getBool("e"));
    EXPECT_FALSE(cfg.getBool("f"));
    EXPECT_FALSE(cfg.getBool("g"));
    EXPECT_FALSE(cfg.getBool("h"));
}

TEST(Config, SetOverridesAndKeysSorted)
{
    auto cfg = Config::parseString("b = 2\na = 1\n");
    cfg.set("c", "3");
    cfg.set("a", "10");
    EXPECT_EQ(cfg.getInt("a"), 10);
    auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
    EXPECT_EQ(keys[2], "c");
}

TEST(Config, LoadMissingFileIsFatal)
{
    EXPECT_THROW(Config::load("/nonexistent/holdcsim.ini"), FatalError);
}

namespace {

std::string
capturedUnknownKeyWarnings(const std::string &ini)
{
    auto cfg = Config::parseString(ini);
    ::testing::internal::CaptureStderr();
    warnUnknownConfigKeys(cfg);
    return ::testing::internal::GetCapturedStderr();
}

} // namespace

TEST(Config, KnownOrchKeysDoNotWarn)
{
    std::string out = capturedUnknownKeyWarnings(R"(
[orch]
enabled = true
placement = spread
replicas = 3
autoscale = true
remote_mem_frac = 0.25
[sweep]
datacenter.servers = 1, 2
)");
    EXPECT_EQ(out, "") << out;
}

TEST(Config, UnknownKeyWarnsWithNearestSuggestion)
{
    // One edit away: suggest the known spelling.
    std::string out = capturedUnknownKeyWarnings("[orch]\nreplcas = 3\n");
    EXPECT_NE(out.find("orch.replcas"), std::string::npos) << out;
    EXPECT_NE(out.find("did you mean 'orch.replicas'"), std::string::npos)
        << out;

    // Two edits away still qualifies.
    out = capturedUnknownKeyWarnings("[orch]\nplacemnet = spread\n");
    EXPECT_NE(out.find("did you mean 'orch.placement'"), std::string::npos)
        << out;

    // A [sweep] target is a key like any other: a typo would sweep a
    // value nothing reads and run identical points.
    out = capturedUnknownKeyWarnings("[sweep]\ndatacenter.sever = 1,2\n");
    EXPECT_NE(out.find("unknown sweep key 'datacenter.sever'"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("did you mean 'datacenter.servers'"),
              std::string::npos)
        << out;

    // So is a --sweep=KEY=... flag's key.
    ::testing::internal::CaptureStderr();
    warnUnknownConfigKeys(Config(), {"server.tau_ms", "server.tua_ms"});
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(out.find("key 'server.tau_ms'"), std::string::npos) << out;
    EXPECT_NE(out.find("unknown sweep key 'server.tua_ms' (--sweep)"),
              std::string::npos)
        << out;
}

TEST(Config, FarFetchedKeyGetsNoSuggestion)
{
    std::string out =
        capturedUnknownKeyWarnings("[orch]\nzzz_flux_capacitor = 1\n");
    EXPECT_NE(out.find("orch.zzz_flux_capacitor"), std::string::npos) << out;
    EXPECT_EQ(out.find("did you mean"), std::string::npos) << out;
}

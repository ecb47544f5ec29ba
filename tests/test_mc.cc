/**
 * @file
 * Model-checking explorer tests: canonical fault schedules and their
 * hashes, the strategy tiers' determinism and shape, ddmin shrinking
 * to 1-minimal reproducers, and the end-to-end loop -- explore a
 * seeded bug, shrink it, write the repro file, replay it to the same
 * violation -- including journal resume and pods:N byte-identity of
 * explored schedules.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dc/pod_cluster.hh"
#include "mc/explorer.hh"
#include "mc/fault_schedule.hh"
#include "mc/shrink.hh"
#include "mc/strategy.hh"
#include "sim/logging.hh"

using namespace holdcsim;
using namespace holdcsim::mc;

namespace {

ScheduledFault
serverFault(std::size_t idx, Tick down, Tick up)
{
    return {{FaultKind::server, idx, 0}, {down, up}};
}

/** 3 servers, light load, seeded pair-crash bug, fast audits. */
Config
smokeConfig()
{
    return Config::parseString(R"(
[datacenter]
servers = 3
cores = 2
seed = 7
[workload]
arrival = poisson
rate = 200
duration_s = 1
service = exponential
service_mean_ms = 5
job = single
[fault]
enabled = true
mttf_hours = 1000
[mc]
strategy = pairwise
horizon_ms = 800
budget = 200
repair_ms = 100
seed_bug = true
[audit]
enabled = true
period_ms = 10
)");
}

} // namespace

// ------------------------------------------------------------ FaultSchedule

TEST(FaultSchedule, CanonicalTextRoundTripsAndSortIsStable)
{
    FaultSchedule s;
    s.faults = {serverFault(1, 300 * msec, 400 * msec),
                serverFault(0, 100 * msec, 200 * msec)};
    s.canonicalize();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.faults[0].record.downAt, 100 * msec);

    std::istringstream text(s.canonicalText());
    FaultSchedule back{readFaultTrace(text, "test")};
    EXPECT_TRUE(back == s);
    EXPECT_EQ(back.hash(), s.hash());
}

TEST(FaultSchedule, HashIsOrderIndependentAndDiscriminates)
{
    FaultSchedule a, b, c;
    a.faults = {serverFault(0, 100 * msec, 200 * msec),
                serverFault(1, 150 * msec, 250 * msec)};
    b.faults = {serverFault(1, 150 * msec, 250 * msec),
                serverFault(0, 100 * msec, 200 * msec)};
    c.faults = {serverFault(0, 100 * msec, 200 * msec),
                serverFault(1, 150 * msec, 250 * msec + 1)};
    a.canonicalize();
    b.canonicalize();
    c.canonicalize();
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_NE(a.hash(), c.hash());
}

TEST(FaultSchedule, CanonicalTextAndHashAreGolden)
{
    // Campaign journal keys embed hash() and repro files carry the
    // text, so both are pinned byte for byte. All four kinds, given
    // out of order, with a downAt tie between two targets and ticks
    // that are not whole milliseconds.
    FaultSchedule s;
    s.faults = {
        {{FaultKind::link, 7, 0}, {300 * msec, 450 * msec}},
        {{FaultKind::linecard, 1, 2}, {100 * msec, 250 * msec}},
        serverFault(3, 123456789, 987654321),
        {{FaultKind::swtch, 0, 0}, {100 * msec, 150 * msec}},
        serverFault(0, 300 * msec, 2 * sec),
    };
    EXPECT_EQ(s.canonicalText(),
              "switch 0 0.100000000 0.150000000\n"
              "linecard 1 2 0.100000000 0.250000000\n"
              "server 3 0.123456789 0.987654321\n"
              "server 0 0.300000000 2.000000000\n"
              "link 7 0.300000000 0.450000000\n");
    EXPECT_EQ(s.hash(), 0xd55e6cbf71212732ULL);
    std::ostringstream repro;
    writeReproFile(repro, s, {"verdict: pass", "replay: x"});
    EXPECT_EQ(repro.str(),
              "# verdict: pass\n# replay: x\n" + s.canonicalText());
}

TEST(FaultSchedule, ReproFileParsesBackWithHeadersIgnored)
{
    FaultSchedule s;
    s.faults = {serverFault(2, 123456789, 987654321)};
    const std::string path =
        ::testing::TempDir() + "holdcsim_mc_repro.fault";
    {
        std::ofstream out(path);
        writeReproFile(out, s,
                       {"holdcsim mc minimal reproducer",
                        "verdict: violation: test"});
    }
    FaultSchedule back{readFaultTrace(path)};
    EXPECT_TRUE(back == s);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- strategies

namespace {

StrategySpace
smallSpace()
{
    StrategySpace space;
    space.targets = {{FaultKind::server, 0, 0},
                     {FaultKind::server, 1, 0},
                     {FaultKind::server, 2, 0}};
    space.horizon = 500 * msec;
    space.repair = 100 * msec;
    space.maxFaults = 2;
    space.boundaryTimes = {100 * msec, 250 * msec};
    space.seed = 11;
    return space;
}

void
checkWellFormed(const std::vector<FaultSchedule> &schedules,
                const StrategySpace &space)
{
    std::set<std::uint64_t> hashes;
    for (const FaultSchedule &s : schedules) {
        EXPECT_FALSE(s.empty());
        EXPECT_TRUE(hashes.insert(s.hash()).second)
            << "duplicate schedule survived dedup:\n"
            << s.canonicalText();
        for (const ScheduledFault &f : s.faults) {
            EXPECT_GT(f.record.downAt, 0u);
            EXPECT_LE(f.record.downAt, space.horizon);
            EXPECT_GT(f.record.upAt, f.record.downAt);
        }
    }
}

} // namespace

TEST(Strategy, TiersAreDeterministicDedupedAndInHorizon)
{
    for (const char *tier :
         {"boundary", "pairwise", "exhaustive", "random"}) {
        auto once = generateSchedules(tier, smallSpace());
        auto twice = generateSchedules(tier, smallSpace());
        EXPECT_FALSE(once.empty()) << tier;
        ASSERT_EQ(once.size(), twice.size()) << tier;
        for (std::size_t i = 0; i < once.size(); ++i)
            EXPECT_TRUE(once[i] == twice[i]) << tier;
        checkWellFormed(once, smallSpace());
    }
    EXPECT_THROW(generateSchedules("bogus", smallSpace()), FatalError);
}

TEST(Strategy, TierShapesMatchTheirContracts)
{
    const StrategySpace space = smallSpace();
    for (const FaultSchedule &s :
         generateSchedules("boundary", space))
        EXPECT_EQ(s.size(), 1u);
    // Pairwise: two episodes, and the exactly-coincident pair of
    // every ordered target pair must be present -- that is the tier's
    // reason to exist.
    auto pairwise = generateSchedules("pairwise", space);
    bool coincident01 = false;
    for (const FaultSchedule &s : pairwise) {
        ASSERT_EQ(s.size(), 2u);
        if (s.faults[0].target.index == 0 &&
            s.faults[1].target.index == 1 &&
            s.faults[0].record.downAt == s.faults[1].record.downAt)
            coincident01 = true;
    }
    EXPECT_TRUE(coincident01);
    // Exhaustive at maxFaults=2 covers every singleton of the grid.
    auto exhaustive = generateSchedules("exhaustive", space);
    std::size_t singletons = 0;
    for (const FaultSchedule &s : exhaustive) {
        ASSERT_LE(s.size(), space.maxFaults);
        if (s.size() == 1)
            ++singletons;
    }
    EXPECT_EQ(singletons,
              space.targets.size() * space.boundaryTimes.size());
}

TEST(Strategy, BudgetTruncatesAndSeedVariesTheRandomTier)
{
    StrategySpace space = smallSpace();
    space.budget = 5;
    for (const char *tier :
         {"boundary", "pairwise", "exhaustive", "random"})
        EXPECT_LE(generateSchedules(tier, space).size(), 5u) << tier;

    StrategySpace a = smallSpace(), b = smallSpace();
    b.seed = a.seed + 1;
    auto ra = generateSchedules("random", a);
    auto rb = generateSchedules("random", b);
    bool differ = ra.size() != rb.size();
    for (std::size_t i = 0; !differ && i < ra.size(); ++i)
        differ = !(ra[i] == rb[i]);
    EXPECT_TRUE(differ);
}

TEST(Strategy, BoundaryTimesAreSortedUniqueAndInRange)
{
    DataCenterConfig cfg;
    cfg.nServers = 2;
    const Tick horizon = 1 * sec;
    auto times = boundaryTimes(cfg, horizon);
    ASSERT_FALSE(times.empty());
    for (std::size_t i = 0; i < times.size(); ++i) {
        EXPECT_GT(times[i], 0u);
        EXPECT_LE(times[i], horizon);
        if (i > 0)
            EXPECT_LT(times[i - 1], times[i]);
    }
}

// ------------------------------------------------------------------- shrink

TEST(Shrink, FindsTheMinimalFailingPair)
{
    FaultSchedule failing;
    for (std::size_t i = 0; i < 6; ++i)
        failing.faults.push_back(serverFault(
            i, (100 + 50 * i) * msec, (300 + 50 * i) * msec));
    const ScheduledFault needleA = failing.faults[1];
    const ScheduledFault needleB = failing.faults[4];

    // Fails iff both needles survive: the 1-minimal core is exactly
    // that pair.
    auto fails = [&](const FaultSchedule &cand) {
        bool a = false, b = false;
        for (const ScheduledFault &f : cand.faults) {
            a = a || f == needleA;
            b = b || f == needleB;
        }
        return a && b;
    };
    ASSERT_TRUE(fails(failing));
    ShrinkResult res = shrinkSchedule(failing, fails);
    ASSERT_EQ(res.minimal.size(), 2u);
    EXPECT_TRUE(fails(res.minimal));
    EXPECT_GT(res.oracleRuns, 0u);
    // 1-minimality: dropping either remaining episode passes.
    for (std::size_t i = 0; i < res.minimal.size(); ++i) {
        FaultSchedule sub = res.minimal;
        sub.faults.erase(sub.faults.begin() + i);
        EXPECT_FALSE(fails(sub));
    }
}

TEST(Shrink, SingleEpisodeAndAlwaysFailingEdges)
{
    FaultSchedule one;
    one.faults = {serverFault(0, 100 * msec, 200 * msec)};
    auto any = [](const FaultSchedule &s) { return !s.empty(); };
    EXPECT_EQ(shrinkSchedule(one, any).minimal.size(), 1u);

    FaultSchedule six;
    for (std::size_t i = 0; i < 6; ++i)
        six.faults.push_back(
            serverFault(i, (100 + i) * msec, (200 + i) * msec));
    // Any non-empty subset fails: ddmin must land on one episode.
    EXPECT_EQ(shrinkSchedule(six, any).minimal.size(), 1u);
}

// ------------------------------------------------------- oracle + explorer

TEST(Oracle, CleanScheduleAndEmptySchedulePass)
{
    Config cfg = smokeConfig();
    // Without the armed pair bug nothing should trip.
    cfg.set("mc.seed_bug", "false");
    EXPECT_FALSE(runScheduleOracle(cfg, {}, 7).failed());
    FaultSchedule solo;
    solo.faults = {serverFault(0, 10 * msec, 110 * msec)};
    OracleOutcome oc = runScheduleOracle(cfg, solo, 7);
    EXPECT_FALSE(oc.failed()) << oc.what;
}

TEST(Oracle, SeededPairBugTripsOnlyOnCoincidence)
{
    Config cfg = smokeConfig();
    // Server 1 fails while server 0 is down: the armed leak fires
    // and the always-on audit reports it.
    FaultSchedule pair;
    pair.faults = {serverFault(0, 10 * msec, 110 * msec),
                   serverFault(1, 50 * msec, 150 * msec)};
    OracleOutcome bad = runScheduleOracle(cfg, pair, 7);
    EXPECT_EQ(bad.kind, OracleOutcome::Kind::violation);
    EXPECT_NE(bad.what.find("task_conservation"), std::string::npos);

    // Disjoint episodes: same faults, no coincidence, no bug.
    FaultSchedule disjoint;
    disjoint.faults = {serverFault(0, 10 * msec, 110 * msec),
                       serverFault(1, 200 * msec, 300 * msec)};
    OracleOutcome good = runScheduleOracle(cfg, disjoint, 7);
    EXPECT_FALSE(good.failed()) << good.what;

    // Identical runs produce the identical failure signature -- the
    // contract shrinking relies on.
    OracleOutcome again = runScheduleOracle(cfg, pair, 7);
    EXPECT_EQ(failureSignature(bad), failureSignature(again));
}

TEST(Explorer, FindsSeededBugShrinksItAndReplayReproduces)
{
    Config cfg = smokeConfig();
    const std::string repro =
        ::testing::TempDir() + "holdcsim_mc_e2e.fault";
    ExplorerOptions opts;
    opts.reproPath = repro;

    ExplorerReport report = exploreFaultSchedules(cfg, opts);
    ASSERT_TRUE(report.found);
    EXPECT_GT(report.failures, 0u);
    EXPECT_EQ(report.executed, report.schedules);
    // The acceptance bar: a <= 3-episode minimal reproducer (this
    // bug's core is the coincident pair).
    ASSERT_LE(report.minimal.size(), 3u);
    EXPECT_EQ(report.outcome.kind, OracleOutcome::Kind::violation);
    EXPECT_NE(report.outcome.what.find("task_conservation"),
              std::string::npos);
    EXPECT_NE(report.replayCommand.find("--replay-schedule"),
              std::string::npos);

    // The written repro replays to the same failure, from the file.
    FaultSchedule back{readFaultTrace(repro)};
    EXPECT_TRUE(back == report.minimal);
    OracleOutcome replayed = runScheduleOracle(cfg, back, 7);
    EXPECT_EQ(failureSignature(replayed),
              failureSignature(report.outcome));
    std::remove(repro.c_str());

    // Deterministic given (seed, strategy, budget): a fresh
    // exploration reproduces the identical minimal schedule.
    ExplorerReport rerun = exploreFaultSchedules(cfg, {});
    ASSERT_TRUE(rerun.found);
    EXPECT_EQ(rerun.minimal.hash(), report.minimal.hash());
    EXPECT_EQ(rerun.failures, report.failures);
}

TEST(Explorer, JournalMakesExplorationResumable)
{
    Config cfg = smokeConfig();
    const std::string journal =
        ::testing::TempDir() + "holdcsim_mc_journal.jsonl";
    std::remove(journal.c_str());

    ExplorerOptions opts;
    opts.journalPath = journal;
    ExplorerReport first = exploreFaultSchedules(cfg, opts);
    ASSERT_TRUE(first.found);
    EXPECT_EQ(first.executed, first.schedules);
    EXPECT_EQ(first.skipped, 0u);

    // Resume: every schedule is already journaled, so no oracle runs
    // re-execute, yet the verdict (and the shrink) still comes out.
    opts.resume = true;
    ExplorerReport resumed = exploreFaultSchedules(cfg, opts);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.skipped, resumed.schedules);
    ASSERT_TRUE(resumed.found);
    EXPECT_EQ(resumed.minimal.hash(), first.minimal.hash());
    std::remove(journal.c_str());
}

// ----------------------------------------------- explored schedules on pods

TEST(Explorer, ExploredSchedulesStayByteIdenticalAcrossPartitions)
{
    // The pdes-equivalence face of the explorer: schedules from the
    // strategy tiers, mapped onto pod outages, must leave the
    // cluster's statistics byte-identical sequential vs pods:N --
    // fault broadcasts ride the partition mailboxes, never remote
    // state directly.
    PodClusterConfig cluster;
    cluster.pods = 4;
    cluster.requestsPerPod = 30;
    cluster.arrivalRate = 600.0;
    cluster.forwardProbability = 0.5;
    cluster.maxForwards = 2;
    cluster.statsHorizon = 1 * sec;
    cluster.seed = 42;

    StrategySpace space;
    space.targets = {{FaultKind::server, 0, 0},
                     {FaultKind::server, 1, 0},
                     {FaultKind::server, 2, 0},
                     {FaultKind::server, 3, 0}};
    space.horizon = 800 * msec;
    space.repair = 300 * msec;
    space.boundaryTimes = {150 * msec, 400 * msec};
    space.budget = 3;
    auto schedules = generateSchedules("pairwise", space);
    ASSERT_FALSE(schedules.empty());

    for (const FaultSchedule &s : schedules) {
        PodClusterConfig cfg = cluster;
        for (const ScheduledFault &f : s.faults)
            cfg.podFaults.push_back(
                {static_cast<unsigned>(f.target.index % cfg.pods),
                 f.record.downAt, f.record.upAt});
        std::string dumps[3];
        unsigned parts[3] = {0, 2, 4};
        for (int i = 0; i < 3; ++i) {
            PodCluster pc(cfg, parts[i]);
            pc.enableBoundaryAudits();
            pc.run();
            std::ostringstream os;
            pc.dumpStats(os);
            dumps[i] = os.str();
        }
        EXPECT_EQ(dumps[0], dumps[1]) << s.canonicalText();
        EXPECT_EQ(dumps[0], dumps[2]) << s.canonicalText();
        // The schedule actually bit: health transitions were
        // broadcast and every pod heard at least one.
        std::istringstream lines(dumps[0]);
        std::string line;
        unsigned health_lines = 0;
        while (std::getline(lines, line)) {
            const auto at = line.find(".health_updates ");
            if (at == std::string::npos)
                continue;
            ++health_lines;
            EXPECT_GT(std::stoul(line.substr(at + 16)), 0u)
                << line << " in " << s.canonicalText();
        }
        EXPECT_EQ(health_lines, cfg.pods) << s.canonicalText();
    }
}

/**
 * @file
 * Tests for the crash-tolerant campaign layer: journal round-trip
 * (including escaping and torn lines), resume semantics with a
 * byte-identical aggregate CSV, watchdog/event-budget quarantine,
 * retry accounting and interrupt handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "exp/journal.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

/** Unique temp path per test (gtest runs tests in one process). */
std::string
tempPath(const std::string &tag)
{
    static int counter = 0;
    return testing::TempDir() + "holdcsim_campaign_" + tag + "_" +
           std::to_string(counter++) + ".jsonl";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Deterministic fake cell; values exercise full double precision. */
MetricRow
fakeCell(std::size_t point, std::uint64_t seed)
{
    Rng rng(seed, "campaign-fake");
    double acc = 0.0;
    for (int i = 0; i < 100; ++i)
        acc += rng.exponential(1.0 + static_cast<double>(point));
    return {{"acc", acc}, {"third", 1.0 / 3.0}};
}

std::string
csvOf(const CampaignResult &res, std::size_t points)
{
    ResultTable table;
    for (std::size_t p = 0; p < points; ++p)
        table.setPointLabel(p, "p" + std::to_string(p));
    tabulate(res.records, table);
    std::ostringstream out;
    table.writeCsv(out);
    return out.str();
}

} // namespace

// ---------------------------------------------------------------- journal

TEST(CampaignJournal, ResultRoundTrip)
{
    std::string path = tempPath("roundtrip");
    std::uint64_t hash = fnv1a64("cfg-a");

    ReplicaRecord rec;
    rec.point = 3;
    rec.replica = 1;
    rec.seed = 0xdeadbeefcafeULL;
    rec.metrics = {{"acc", 1.0 / 3.0}, {"neg", -2.5e-300}};
    {
        CampaignJournal j(path, hash, false);
        j.appendResult(rec);
        EXPECT_TRUE(j.hasResult(3, 1));
    }
    {
        CampaignJournal j(path, hash, true);
        EXPECT_EQ(j.loadedCount(), 1u);
        ASSERT_TRUE(j.hasResult(3, 1));
        const ReplicaRecord &back = j.result(3, 1);
        EXPECT_EQ(back.seed, rec.seed);
        ASSERT_EQ(back.metrics.size(), 2u);
        EXPECT_EQ(back.metrics[0].first, "acc");
        // Bit-exact: the journal stores shortest-round-trip decimals.
        EXPECT_EQ(back.metrics[0].second, 1.0 / 3.0);
        EXPECT_EQ(back.metrics[1].second, -2.5e-300);
    }
    std::remove(path.c_str());
}

TEST(CampaignJournal, MetricNamesWithJsonMetacharacters)
{
    std::string path = tempPath("escape");
    std::uint64_t hash = fnv1a64("cfg-esc");
    ReplicaRecord rec;
    rec.point = 0;
    rec.replica = 0;
    rec.seed = 1;
    rec.metrics = {{"quote\"back\\slash\nnewline\ttab", 4.0}};
    {
        CampaignJournal j(path, hash, false);
        j.appendResult(rec);
    }
    CampaignJournal j(path, hash, true);
    ASSERT_TRUE(j.hasResult(0, 0));
    EXPECT_EQ(j.result(0, 0).metrics[0].first,
              "quote\"back\\slash\nnewline\ttab");
    std::remove(path.c_str());
}

TEST(CampaignJournal, TornFinalLineIsSkipped)
{
    std::string path = tempPath("torn");
    std::uint64_t hash = fnv1a64("cfg-torn");
    ReplicaRecord rec;
    rec.point = 0;
    rec.replica = 0;
    rec.seed = 9;
    rec.metrics = {{"x", 1.0}};
    {
        CampaignJournal j(path, hash, false);
        j.appendResult(rec);
        rec.replica = 1;
        j.appendResult(rec);
    }
    // Simulate a crash mid-append: chop the last line in half.
    std::string text = slurp(path);
    std::size_t cut = text.rfind("metrics");
    ASSERT_NE(cut, std::string::npos);
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << text.substr(0, cut);
    }
    CampaignJournal j(path, hash, true);
    EXPECT_EQ(j.loadedCount(), 1u);
    EXPECT_TRUE(j.hasResult(0, 0));
    EXPECT_FALSE(j.hasResult(0, 1));
    std::remove(path.c_str());
}

TEST(CampaignJournal, ForeignConfigHashIsIgnored)
{
    std::string path = tempPath("foreign");
    ReplicaRecord rec;
    rec.point = 0;
    rec.replica = 0;
    rec.seed = 9;
    rec.metrics = {{"x", 1.0}};
    {
        CampaignJournal j(path, fnv1a64("old"), false);
        j.appendResult(rec);
    }
    CampaignJournal j(path, fnv1a64("new"), true);
    EXPECT_EQ(j.loadedCount(), 0u);
    EXPECT_FALSE(j.hasResult(0, 0));
    std::remove(path.c_str());
}

TEST(CampaignJournal, QuarantineRoundTrip)
{
    std::string path = tempPath("quarantine");
    std::uint64_t hash = fnv1a64("cfg-q");
    QuarantineRecord q;
    q.point = 2;
    q.replica = 0;
    q.seed = 77;
    q.error = "budget \"exceeded\"";
    {
        CampaignJournal j(path, hash, false);
        j.appendQuarantine(q);
    }
    CampaignJournal j(path, hash, true);
    EXPECT_TRUE(j.isQuarantined(2, 0));
    ASSERT_EQ(j.quarantines().size(), 1u);
    EXPECT_EQ(j.quarantines()[0].error, "budget \"exceeded\"");
    std::remove(path.c_str());
}

TEST(CampaignJournal, WithoutResumeTruncatesExistingFile)
{
    std::string path = tempPath("truncate");
    std::uint64_t hash = fnv1a64("cfg-t");
    ReplicaRecord rec;
    rec.point = 0;
    rec.replica = 0;
    rec.seed = 1;
    rec.metrics = {{"x", 1.0}};
    {
        CampaignJournal j(path, hash, false);
        j.appendResult(rec);
    }
    CampaignJournal j(path, hash, false);
    EXPECT_EQ(j.loadedCount(), 0u);
    EXPECT_FALSE(j.hasResult(0, 0));
    std::remove(path.c_str());
}

// --------------------------------------------------------------- campaigns

TEST(Campaign, ResumeSkipsJournaledCellsAndCsvIsByteIdentical)
{
    std::string path = tempPath("resume");
    const std::size_t points = 3, replicas = 4;

    auto makeOpts = [&](bool resume) {
        CampaignOptions o;
        o.jobs = 2;
        o.replicas = replicas;
        o.baseSeed = 42;
        o.journalPath = path;
        o.resume = resume;
        return o;
    };
    auto fn = [](std::size_t point, std::size_t, std::uint64_t seed,
                 const ReplicaLimits &) { return fakeCell(point, seed); };

    // Reference: one uninterrupted campaign.
    CampaignRunner full(makeOpts(false));
    CampaignResult ref = full.run(points, "resume-test", fn);
    EXPECT_EQ(ref.executed, points * replicas);
    std::string ref_csv = csvOf(ref, points);

    // "Crash" after 5 cells: keep only the first 5 journal lines.
    std::istringstream in(slurp(path));
    std::string line, kept;
    for (int i = 0; i < 5 && std::getline(in, line); ++i)
        kept += line + "\n";
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << kept;
    }

    // Resume re-executes exactly the missing cells...
    CampaignRunner resumed(makeOpts(true));
    CampaignResult res = resumed.run(points, "resume-test", fn);
    EXPECT_EQ(res.skipped, 5u);
    EXPECT_EQ(res.executed, points * replicas - 5);
    ASSERT_EQ(res.records.size(), points * replicas);
    // ...and aggregates to a byte-identical CSV.
    EXPECT_EQ(csvOf(res, points), ref_csv);
    std::remove(path.c_str());
}

TEST(Campaign, ResumeWithCompleteJournalRunsNothing)
{
    std::string path = tempPath("noop");
    CampaignOptions opts;
    opts.replicas = 2;
    opts.baseSeed = 7;
    opts.journalPath = path;
    auto fn = [](std::size_t point, std::size_t, std::uint64_t seed,
                 const ReplicaLimits &) { return fakeCell(point, seed); };

    CampaignRunner first(opts);
    first.run(2, "noop-test", fn);

    opts.resume = true;
    CampaignRunner second(opts);
    CampaignResult res = second.run(
        2, "noop-test",
        [](std::size_t, std::size_t, std::uint64_t,
           const ReplicaLimits &) -> MetricRow {
            throw std::logic_error("must not re-run journaled cells");
        });
    EXPECT_EQ(res.executed, 0u);
    EXPECT_EQ(res.skipped, 4u);
    EXPECT_EQ(res.records.size(), 4u);
    std::remove(path.c_str());
}

TEST(Campaign, EventBudgetQuarantinesAfterRetries)
{
    CampaignOptions opts;
    opts.replicas = 1;
    opts.baseSeed = 3;
    opts.maxEvents = 50;
    opts.retry.maxAttempts = 3;
    opts.retry.backoffBase = 1; // ticks ~ nanoseconds of host sleep
    opts.retry.backoffMax = 2;

    int attempts = 0;
    CampaignRunner runner(opts);
    CampaignResult res = runner.run(
        2, "budget-test",
        [&attempts](std::size_t point, std::size_t, std::uint64_t seed,
                    const ReplicaLimits &limits) {
            if (point == 1) {
                // Pathological point: an endless event chain that
                // trips the simulated-event budget every attempt.
                ++attempts;
                Simulator sim;
                sim.setInterruptFlag(limits.cancel);
                sim.setEventBudget(limits.maxEvents);
                EventFunctionWrapper tick(
                    [&] { sim.scheduleAfter(tick, 1); }, "tick");
                sim.schedule(tick, 0);
                try {
                    sim.run();
                } catch (...) {
                    // The budget throw unwinds while the chain is
                    // still armed; disarm before destruction.
                    if (tick.scheduled())
                        sim.deschedule(tick);
                    throw;
                }
            }
            return fakeCell(point, seed);
        });

    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(res.retries, 2u);
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].point, 1u);
    // The healthy point still completed; the campaign did not abort.
    ASSERT_EQ(res.records.size(), 1u);
    EXPECT_EQ(res.records[0].point, 0u);
    EXPECT_FALSE(res.interrupted);
}

TEST(Campaign, QuarantinedCellStaysQuarantinedAcrossResume)
{
    std::string path = tempPath("requarantine");
    CampaignOptions opts;
    opts.replicas = 1;
    opts.baseSeed = 3;
    opts.journalPath = path;
    opts.retry.maxAttempts = 1;
    auto failing = [](std::size_t point, std::size_t, std::uint64_t seed,
                      const ReplicaLimits &) -> MetricRow {
        if (point == 0)
            throw std::runtime_error("always fails");
        return fakeCell(point, seed);
    };

    CampaignRunner first(opts);
    CampaignResult a = first.run(2, "requarantine-test", failing);
    ASSERT_EQ(a.quarantined.size(), 1u);

    opts.resume = true;
    CampaignRunner second(opts);
    CampaignResult b = second.run(
        2, "requarantine-test",
        [](std::size_t, std::size_t, std::uint64_t,
           const ReplicaLimits &) -> MetricRow {
            throw std::logic_error("quarantined cell re-ran");
        });
    EXPECT_EQ(b.executed, 0u);
    ASSERT_EQ(b.quarantined.size(), 1u);
    EXPECT_EQ(b.quarantined[0].point, 0u);
    std::remove(path.c_str());
}

TEST(Campaign, InterruptStopsLaunchingAndIsResumable)
{
    std::string path = tempPath("interrupt");
    const std::size_t points = 6;
    CampaignOptions opts;
    opts.jobs = 1; // sequential: deterministic interrupt landing
    opts.replicas = 1;
    opts.baseSeed = 11;
    opts.journalPath = path;

    auto fn = [](std::size_t point, std::size_t, std::uint64_t seed,
                 const ReplicaLimits &) {
        if (point == 2)
            CampaignRunner::requestInterrupt();
        return fakeCell(point, seed);
    };

    CampaignRunner::clearInterrupt();
    CampaignRunner runner(opts);
    CampaignResult partial = runner.run(points, "interrupt-test", fn);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.records.size(), points);
    CampaignRunner::clearInterrupt();

    // Reference CSV from an uninterrupted run (separate journal).
    std::string ref_path = tempPath("interrupt-ref");
    CampaignOptions ref_opts = opts;
    ref_opts.journalPath = ref_path;
    CampaignRunner ref_runner(ref_opts);
    std::string ref_csv = csvOf(
        ref_runner.run(points, "interrupt-test",
                       [](std::size_t point, std::size_t,
                          std::uint64_t seed, const ReplicaLimits &) {
                           return fakeCell(point, seed);
                       }),
        points);

    opts.resume = true;
    CampaignRunner resumed(opts);
    CampaignResult res = resumed.run(
        points, "interrupt-test",
        [](std::size_t point, std::size_t, std::uint64_t seed,
           const ReplicaLimits &) { return fakeCell(point, seed); });
    EXPECT_FALSE(res.interrupted);
    EXPECT_GT(res.skipped, 0u);
    EXPECT_EQ(res.records.size(), points);
    EXPECT_EQ(csvOf(res, points), ref_csv);
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

TEST(Campaign, JournalSeedMismatchIsFatal)
{
    std::string path = tempPath("seed-mismatch");
    CampaignOptions opts;
    opts.replicas = 1;
    opts.baseSeed = 1;
    opts.journalPath = path;
    auto fn = [](std::size_t point, std::size_t, std::uint64_t seed,
                 const ReplicaLimits &) { return fakeCell(point, seed); };
    CampaignRunner first(opts);
    first.run(1, "seed-test", fn);

    // Same campaign text but a different base seed would replay
    // foreign seeds into the grid -- the journal key must prevent it
    // (hash covers the seed, so the record is simply not replayed).
    opts.resume = true;
    opts.baseSeed = 2;
    CampaignRunner second(opts);
    CampaignResult res = second.run(1, "seed-test", fn);
    EXPECT_EQ(res.skipped, 0u);
    EXPECT_EQ(res.executed, 1u);
    std::remove(path.c_str());
}

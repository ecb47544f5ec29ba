/**
 * @file
 * Conservative parallel kernel tests: window protocol mechanics,
 * cross-partition invariant audits
 * and -- the central contract -- statistics identity between the
 * sequential kernel and every partition count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dc/pod_cluster.hh"
#include "sim/logging.hh"
#include "sim/pdes/partition.hh"
#include "sim/pdes/window_scheduler.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

/** Small but genuinely interacting cluster (forwards cross pods). */
PodClusterConfig
smallCluster()
{
    PodClusterConfig cfg;
    cfg.pods = 4;
    cfg.requestsPerPod = 40;
    cfg.arrivalRate = 800.0;
    cfg.forwardProbability = 0.5;
    cfg.maxForwards = 2;
    cfg.statsHorizon = 1 * sec;
    cfg.seed = 42;
    return cfg;
}

std::string
runAndDump(const PodClusterConfig &cfg, unsigned n_partitions,
           bool audits = false)
{
    PodCluster cluster(cfg, n_partitions);
    if (audits)
        cluster.enableBoundaryAudits();
    cluster.run();
    std::ostringstream os;
    cluster.dumpStats(os);
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Window protocol mechanics (raw Simulators + Partitions).
// ---------------------------------------------------------------------------

TEST(WindowScheduler, DeliversCrossPartitionMessagesAtTheirTick)
{
    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);
    const Tick lookahead = 100;

    std::vector<Tick> deliveredAt;
    EventFunctionWrapper sender(
        [&] { pa.post(1, lookahead, [&, &sim = b] {
                  deliveredAt.push_back(sim.curTick());
              }); },
        "sender");
    a.schedule(sender, 10);
    // Something for b to do, far later, so the fast-forward path and
    // the delivery interleave.
    EventFunctionWrapper idle([] {}, "idle");
    b.schedule(idle, 500);

    pdes::WindowScheduler ws({&pa, &pb}, lookahead);
    ws.run();

    ASSERT_EQ(deliveredAt.size(), 1u);
    EXPECT_EQ(deliveredAt[0], 110);
    EXPECT_EQ(ws.stats().messages, 1u);
    EXPECT_GE(ws.stats().windows, 1u);
    EXPECT_EQ(ws.stats().lookahead, lookahead);
    EXPECT_EQ(b.curTick(), 500);
}

TEST(WindowScheduler, MessageChainsPingPongAcrossPartitions)
{
    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);
    const Tick lookahead = 50;

    int bounces = 0;
    std::function<void(int)> bounce = [&](int left) {
        if (left == 0)
            return;
        ++bounces;
        // The kick runs on a; each delivery flips sides.
        const bool onA = (left % 2 == 0);
        pdes::Partition &from = onA ? pa : pb;
        from.post(onA ? 1u : 0u, lookahead,
                  [&bounce, left] { bounce(left - 1); });
    };
    EventFunctionWrapper kick([&] { bounce(8); }, "kick");
    a.schedule(kick, 0);

    pdes::WindowScheduler ws({&pa, &pb}, lookahead);
    ws.run();
    EXPECT_EQ(bounces, 8);
    EXPECT_EQ(ws.stats().messages, 8u);
}

TEST(WindowScheduler, LatencyBelowLookaheadAbortsTheRun)
{
    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);

    EventFunctionWrapper sender([&] { pa.post(1, 10, [] {}); },
                                "sender");
    a.schedule(sender, 0);

    pdes::WindowScheduler ws({&pa, &pb}, 100);
    EXPECT_THROW(ws.run(), SimAbortError);
}

TEST(WindowScheduler, WorkerExceptionIsRethrownDeterministically)
{
    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);

    EventFunctionWrapper boom(
        [] { throw std::runtime_error("pod exploded"); }, "boom");
    a.schedule(boom, 5);
    EventFunctionWrapper idle([] {}, "idle");
    b.schedule(idle, 5);

    pdes::WindowScheduler ws({&pa, &pb}, 100);
    EXPECT_THROW(ws.run(), std::runtime_error);
}

TEST(WindowScheduler, InterruptFlagSurfacesAsSimInterrupted)
{
    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);

    std::atomic<bool> stop{true}; // tripped before the run starts
    EventFunctionWrapper idleA([] {}, "idleA");
    a.schedule(idleA, 10);
    EventFunctionWrapper idleB([] {}, "idleB");
    b.schedule(idleB, 10);

    pdes::WindowScheduler ws({&pa, &pb}, 100);
    ws.setInterruptFlag(&stop);
    EXPECT_THROW(ws.run(), SimInterrupted);

    // The interrupt left the calendars populated; drain them so the
    // wrappers are not destroyed while scheduled.
    if (idleA.scheduled())
        a.deschedule(idleA);
    if (idleB.scheduled())
        b.deschedule(idleB);
}

TEST(WindowScheduler, RejectsEmptyAndZeroLookahead)
{
    EXPECT_THROW(pdes::WindowScheduler({}, 100), std::invalid_argument);

    Simulator a, b;
    pdes::Partition pa(0, a), pb(1, b);
    EXPECT_THROW(pdes::WindowScheduler({&pa, &pb}, 0),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The central contract: statistics identity across kernels.
// ---------------------------------------------------------------------------

TEST(PodCluster, SequentialDumpIsNonTrivial)
{
    const std::string dump = runAndDump(smallCluster(), 0);
    EXPECT_NE(dump.find("pod0.jobs_completed"), std::string::npos);
    EXPECT_NE(dump.find("cluster.events_total"), std::string::npos);

    PodCluster cluster(smallCluster(), 0);
    cluster.run();
    std::uint64_t completed = 0, forwards = 0;
    for (unsigned p = 0; p < cluster.pods(); ++p) {
        completed += cluster.podStats(p).jobsCompleted;
        forwards += cluster.podStats(p).forwardedOut;
    }
    // Every injected request completes, plus the forwarded ones.
    EXPECT_EQ(completed, 4 * 40 + forwards);
    EXPECT_GT(forwards, 0u) << "pods never interacted";
    EXPECT_GT(cluster.eventsTotal(), 0u);
}

TEST(PodCluster, OnePartitionMatchesSequentialByteForByte)
{
    EXPECT_EQ(runAndDump(smallCluster(), 0), runAndDump(smallCluster(), 1));
}

TEST(PodCluster, TwoPartitionsMatchSequentialByteForByte)
{
    EXPECT_EQ(runAndDump(smallCluster(), 0), runAndDump(smallCluster(), 2));
}

TEST(PodCluster, FourPartitionsMatchSequentialByteForByte)
{
    EXPECT_EQ(runAndDump(smallCluster(), 0), runAndDump(smallCluster(), 4));
}

TEST(PodCluster, ParallelRunsAreRunToRunDeterministic)
{
    const std::string first = runAndDump(smallCluster(), 4);
    const std::string second = runAndDump(smallCluster(), 4);
    EXPECT_EQ(first, second);
}

TEST(PodCluster, DifferentSeedsProduceDifferentResults)
{
    auto other = smallCluster();
    other.seed = 43;
    EXPECT_NE(runAndDump(smallCluster(), 2), runAndDump(other, 2));
}

TEST(PodCluster, ParallelRunRecordsWindowStats)
{
    PodCluster cluster(smallCluster(), 4);
    cluster.run();
    const auto &st = cluster.pdesStats();
    EXPECT_GT(st.windows, 0u);
    EXPECT_GT(st.messages, 0u);
    EXPECT_GT(st.eventsProcessed, 0u);
    EXPECT_EQ(st.eventsProcessed, cluster.eventsTotal());
    ASSERT_EQ(st.workerBusySeconds.size(), 4u);
    EXPECT_GE(st.blockedFraction(), 0.0);
    EXPECT_LE(st.blockedFraction(), 1.0);
}

// A metro-scale 1 ms lookahead on 8 pods: windows wide enough to
// amortize the barrier. The dump stays byte-identical at every
// partition count, and the window protocol's counters are
// host-independent, so they are gated as exact values.
class WideLookaheadPodCluster : public ::testing::TestWithParam<unsigned>
{};

TEST_P(WideLookaheadPodCluster, DumpAndWindowCountersAreExact)
{
    PodClusterConfig cfg;
    cfg.pods = 8;
    cfg.requestsPerPod = 600;
    cfg.arrivalRate = 1'500.0;
    cfg.forwardProbability = 0.3;
    cfg.interPodLatency = 1 * msec;
    cfg.statsHorizon = 1 * sec;
    cfg.seed = 7;

    const unsigned parts = GetParam();
    PodCluster cluster(cfg, parts);
    cluster.run();
    std::ostringstream os;
    cluster.dumpStats(os);
    EXPECT_EQ(os.str(), runAndDump(cfg, 0));

    const auto &st = cluster.pdesStats();
    if (parts >= 2) {
        EXPECT_EQ(st.windows, 887u);
        EXPECT_EQ(st.messages, 1925u);
        EXPECT_EQ(st.fastForwards, 878u);
    }
}

INSTANTIATE_TEST_SUITE_P(Partitions, WideLookaheadPodCluster,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto &info) {
                             return "parts" +
                                    std::to_string(info.param);
                         });

TEST(PodCluster, RejectsMorePartitionsThanPods)
{
    EXPECT_THROW(PodCluster(smallCluster(), 5), FatalError);
}

// ---------------------------------------------------------------------------
// Cross-partition invariant audits.
// ---------------------------------------------------------------------------

TEST(PodCluster, BoundaryAuditsPassOnHealthyRuns)
{
    for (unsigned parts : {0u, 2u, 4u}) {
        PodCluster cluster(smallCluster(), parts);
        cluster.enableBoundaryAudits();
        EXPECT_NO_THROW(cluster.run()) << parts << " partitions";
        ASSERT_NE(cluster.auditor(), nullptr);
        EXPECT_GT(cluster.auditor()->auditsPassed(), 0u);
        EXPECT_EQ(cluster.auditor()->violations(), 0u);
    }
}

TEST(PodCluster, AuditsDoNotPerturbStatistics)
{
    auto cfg = smallCluster();
    EXPECT_EQ(runAndDump(cfg, 2, /*audits=*/false),
              runAndDump(cfg, 2, /*audits=*/true));
}

TEST(PodCluster, TaskLeakIsCaughtAtAWindowBoundary)
{
    PodCluster cluster(smallCluster(), 2);
    cluster.enableBoundaryAudits();
    cluster.scheduler(0).debugInjectTaskLeak();
    EXPECT_THROW(cluster.run(), SimAbortError);
    EXPECT_GT(cluster.auditor()->violations(), 0u);
}

TEST(PodCluster, TaskLeakIsCaughtOnSequentialRunsToo)
{
    PodCluster cluster(smallCluster(), 0);
    cluster.enableBoundaryAudits();
    cluster.scheduler(1).debugInjectTaskLeak();
    EXPECT_THROW(cluster.run(), SimAbortError);
}

// ---------------------------------------------------------------------------
// Scripted pod faults: health broadcasts ride the mailboxes.
// ---------------------------------------------------------------------------

namespace {

/** smallCluster plus two overlapping pod outages. */
PodClusterConfig
faultedCluster()
{
    PodClusterConfig cfg = smallCluster();
    // Early enough to overlap the ~50 ms injection burst at rate 800.
    cfg.podFaults = {{1, 5 * msec, 500 * msec},
                     {3, 30 * msec, 600 * msec}};
    return cfg;
}

} // namespace

TEST(PodFaults, OutageRefusesWorkAndAnnouncesBothEdges)
{
    PodCluster cluster(faultedCluster(), 0);
    cluster.run();

    // The downed pods refused injection attempts during their
    // outages and forwards aimed at them were dropped or refused.
    const PodStats &p1 = cluster.podStats(1);
    EXPECT_GT(p1.refusedInjections, 0u);
    std::uint64_t dropped = 0, refused = 0;
    for (unsigned p = 0; p < cluster.pods(); ++p) {
        dropped += cluster.podStats(p).forwardsDropped;
        refused += cluster.podStats(p).forwardsRefused;
    }
    EXPECT_GT(dropped + refused, 0u);
    // Each of the 2 episodes broadcasts a down and an up edge to the
    // 3 peers: every pod saw all 4 transitions minus its own.
    for (unsigned p = 0; p < cluster.pods(); ++p) {
        const unsigned own = (p == 1 || p == 3) ? 2u : 0u;
        EXPECT_EQ(cluster.podStats(p).healthUpdates, 4u - own)
            << "pod " << p;
    }
    // Task conservation still holds globally: every injection
    // attempt is either refused or completes, every sent forward is
    // either refused on arrival or completes. Nothing leaks.
    std::uint64_t completed = 0, forwards = 0, refusedInj = 0;
    for (unsigned p = 0; p < cluster.pods(); ++p) {
        completed += cluster.podStats(p).jobsCompleted;
        forwards += cluster.podStats(p).forwardedOut;
        refusedInj += cluster.podStats(p).refusedInjections;
    }
    EXPECT_EQ(completed, 4 * 40 - refusedInj + forwards - refused);
}

TEST(PodFaults, FaultedRunsStayByteIdenticalAcrossKernels)
{
    const std::string seq = runAndDump(faultedCluster(), 0);
    EXPECT_NE(seq.find("pod1.refused_injections"), std::string::npos);
    EXPECT_EQ(seq, runAndDump(faultedCluster(), 1));
    EXPECT_EQ(seq, runAndDump(faultedCluster(), 2));
    EXPECT_EQ(seq, runAndDump(faultedCluster(), 4));
    // And with the boundary audits armed on every kernel.
    for (unsigned parts : {0u, 2u, 4u})
        EXPECT_EQ(seq, runAndDump(faultedCluster(), parts, true));
}

TEST(PodFaults, ValidatesTheScript)
{
    PodClusterConfig bad = smallCluster();
    bad.podFaults = {{9, 100 * msec, 200 * msec}};
    EXPECT_THROW(PodCluster(bad, 0), FatalError);
    bad.podFaults = {{1, 200 * msec, 200 * msec}};
    EXPECT_THROW(PodCluster(bad, 0), FatalError);
    bad.podFaults = {{1, 100 * msec, 300 * msec},
                     {1, 200 * msec, 400 * msec}};
    EXPECT_THROW(PodCluster(bad, 2), FatalError);
}

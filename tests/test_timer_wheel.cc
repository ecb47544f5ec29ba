/**
 * @file
 * Unit tests for the governor timer discipline: where
 * TimerWheel::deadlineAt() places a stage -- exactly at G = 1,
 * quantized up to a bucket boundary otherwise, never early -- the
 * granularity and overflow checks, and a switch's closed-form port
 * LPI stages against a reference model of those deadlines, and the
 * DueList that keeps a level's stages in tick order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "network/switch.hh"
#include "sim/due_list.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"

using namespace holdcsim;

TEST(WheelFixture, FiresExactlyAtUnitGranularity)
{
    TimerWheel wheel(1);
    EXPECT_EQ(wheel.deadlineAt(0, 123), 123u);
    EXPECT_EQ(wheel.deadlineAt(123, 333), 456u);
    EXPECT_EQ(wheel.deadlineAt(7, 0), 7u);
}

TEST(WheelFixture, QuantizesDeadlinesUpToBucketBoundaries)
{
    TimerWheel wheel(100);
    EXPECT_EQ(wheel.deadlineAt(0, 1), 100u);
    EXPECT_EQ(wheel.deadlineAt(0, 100), 100u); // already on a boundary
    EXPECT_EQ(wheel.deadlineAt(0, 101), 200u);
    // A stage armed at the previous stage's boundary stays on the grid.
    EXPECT_EQ(wheel.deadlineAt(wheel.deadlineAt(0, 1), 150), 300u);
}

TEST(WheelFixture, NeverFiresEarly)
{
    TimerWheel wheel(64);
    for (Tick from : {Tick{0}, Tick{10}, Tick{63}, Tick{64}, Tick{65}}) {
        for (Tick delay : {Tick{0}, Tick{1}, Tick{63}, Tick{64}}) {
            const Tick at = wheel.deadlineAt(from, delay);
            EXPECT_GE(at, from + delay) << from << " + " << delay;
            EXPECT_LT(at, from + delay + 64) << from << " + " << delay;
            EXPECT_EQ(at % 64, 0u) << from << " + " << delay;
        }
    }
}

TEST(WheelFixture, EmptyWheelAfterLongIdleGapStaysExact)
{
    // Deadlines far from tick 0 quantize as near ones do.
    TimerWheel wheel(2);
    EXPECT_EQ(wheel.deadlineAt(0, 4), 4u);
    EXPECT_EQ(wheel.deadlineAt(1'000'000, 4), 1'000'004u);
    EXPECT_EQ(wheel.deadlineAt(1'000'001, 4), 1'000'006u);
}

TEST(WheelFixture, RejectsZeroGranularity)
{
    EXPECT_THROW(TimerWheel(0), FatalError);
}

TEST(WheelFixture, RejectsOverflowingDeadline)
{
    TimerWheel wheel(1);
    EXPECT_THROW(wheel.deadlineAt(100, maxTick - 10), FatalError);
    // A coarse wheel saturates on its last boundary instead.
    TimerWheel coarse(1000);
    EXPECT_EQ(coarse.deadlineAt(0, maxTick - 10),
              maxTick - maxTick % 1000);
}

class WheelOrderTest : public ::testing::TestWithParam<Tick>
{
};

// Port LPI countdowns armed (a port's last flow ends), cancelled (a
// flow starts on it) and re-armed at random on a switch at
// granularity G, against a reference model that puts each LPI entry
// at deadlineAt() of the port's last idle edge. Every step compares
// every port's state; the end compares LPI residencies and where the
// drained run stopped.
TEST_P(WheelOrderTest, RandomArmCancelRearmMatchesReferenceModel)
{
    const Tick g = GetParam();
    constexpr unsigned nPorts = 6;
    Simulator sim(EventQueue::Backend::calendar, g);
    const TimerWheel &wheel = sim.timerWheel();
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    prof.lpiIdleThreshold = 40 * g + 3;
    SwitchConfig cfg;
    cfg.portRates.assign(nPorts, 1e9);
    Switch sw(sim, cfg, prof);

    struct RefPort {
        unsigned flows = 0;
        Tick lpiAt = maxTick; // pending LPI entry
        bool lpi = false;
        Tick lpiSince = 0;
        Tick lpiTotal = 0;
    };
    std::vector<RefPort> ref(nPorts);
    for (RefPort &r : ref)
        r.lpiAt = wheel.deadlineAt(0, prof.lpiIdleThreshold);
    const auto catchUp = [&](Tick now) {
        for (RefPort &r : ref) {
            if (r.lpiAt <= now) {
                r.lpi = true;
                r.lpiSince = r.lpiAt;
                r.lpiAt = maxTick;
            }
        }
    };

    std::mt19937_64 rng(1000 + g);
    unsigned steps = 0, mismatches = 0;
    EventFunctionWrapper step(
        [&] {
            const Tick now = sim.curTick();
            catchUp(now);
            for (unsigned p = 0; p < nPorts; ++p) {
                if ((sw.port(p).state() == PortState::lpi) != ref[p].lpi)
                    ++mismatches;
            }
            const unsigned p = static_cast<unsigned>(rng() % nPorts);
            RefPort &r = ref[p];
            if (r.flows > 0 && rng() % 2 == 0) {
                sw.port(p).flowEnded();
                if (--r.flows == 0)
                    r.lpiAt = wheel.deadlineAt(now, prof.lpiIdleThreshold);
            } else {
                sw.port(p).flowStarted();
                if (r.lpi)
                    r.lpiTotal += now - r.lpiSince;
                r.lpi = false;
                r.lpiAt = maxTick;
                ++r.flows;
            }
            if (++steps < 2000)
                sim.schedule(step, now + 1 + rng() % (80 * g));
        },
        "test.step");
    sim.schedule(step, 1);
    sim.run();
    EXPECT_EQ(steps, 2000u);
    EXPECT_EQ(mismatches, 0u);

    // The drained run ends at the last LPI entry or, once every port
    // is quiet, at the line card's sleep that follows it.
    Tick last_lpi = 0;
    bool all_quiet = true;
    for (const RefPort &r : ref) {
        all_quiet = all_quiet && r.flows == 0;
        last_lpi = std::max(last_lpi, r.lpi ? r.lpiSince : r.lpiAt);
    }
    const Tick end = sim.curTick();
    if (all_quiet) {
        EXPECT_EQ(end,
                  wheel.deadlineAt(last_lpi, prof.linecardSleepThreshold));
    }
    catchUp(end);
    sw.finishStats();
    for (unsigned p = 0; p < nPorts; ++p) {
        const RefPort &r = ref[p];
        EXPECT_EQ(sw.port(p).residency().residency(
                      static_cast<int>(PortState::lpi)),
                  r.lpiTotal + (r.lpi ? end - r.lpiSince : 0))
            << "port " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Granularity, WheelOrderTest,
                         ::testing::Values(Tick{1}, Tick{7}, Tick{256}));

// A DueList against a model that orders ids by (tick, arm order):
// mostly ticks in arm order, as a level arms them, some out of order
// and some equal, with clears of any id in between.
TEST(DueListTest, OrdersLikeASortedModel)
{
    constexpr unsigned n = 8;
    DueList list(n);
    std::vector<std::pair<Tick, unsigned>> model(n, {maxTick, 0});
    std::mt19937_64 rng(7);
    Tick clock = 0;
    unsigned armed = 0;
    for (unsigned step = 0; step < 5000; ++step) {
        const unsigned id = static_cast<unsigned>(rng() % n);
        if (rng() % 3 == 0) {
            list.clear(id);
            model[id] = {maxTick, 0};
        } else {
            clock += rng() % 3; // repeats make ties
            const Tick at = rng() % 5 == 0 ? rng() % (clock + 1) : clock;
            list.set(id, at);
            model[id] = {at, ++armed};
        }
        const auto first = std::min_element(model.begin(), model.end());
        Tick last = 0;
        for (const auto &m : model)
            if (m.first != maxTick)
                last = std::max(last, m.first);
        ASSERT_EQ(list.front(), first->first) << "step " << step;
        ASSERT_EQ(list.back(), first->first == maxTick ? maxTick : last);
        if (first->first != maxTick)
            ASSERT_EQ(list.frontId(), first - model.begin());
        for (unsigned i = 0; i < n; ++i)
            ASSERT_EQ(list.at(i), model[i].first);
    }
}

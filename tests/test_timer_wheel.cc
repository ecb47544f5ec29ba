/**
 * @file
 * Unit tests for the shared governor timer wheel: firing exactness,
 * quantization, O(1) cancellation with generation-stamped handles,
 * re-arming from callbacks, overflow-heap migration, the
 * deschedule-when-empty discipline, and arm-order firing of slots that
 * mix migrated and directly armed timers. G = 1 runs exact mode (one
 * kernel event per timer, no ring); the ring's own mechanics are
 * tested at G >= 2.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"

using namespace holdcsim;

namespace {

/** Records every firing as (token, tick). */
struct RecordingClient : TimerClient {
    std::vector<std::pair<std::uint64_t, Tick>> fired;

    void
    timerFired(std::uint64_t token, Tick deadline) override
    {
        fired.emplace_back(token, deadline);
    }
};

struct WheelFixture : ::testing::Test {
    Simulator sim;
    RecordingClient client;
};

} // namespace

TEST_F(WheelFixture, FiresExactlyAtUnitGranularity)
{
    TimerWheel wheel(sim, 1);
    wheel.arm(client, 7, 123);
    wheel.arm(client, 8, 456);
    sim.run();
    ASSERT_EQ(client.fired.size(), 2u);
    EXPECT_EQ(client.fired[0], std::make_pair(std::uint64_t{7},
                                              Tick{123}));
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{8},
                                              Tick{456}));
    EXPECT_EQ(sim.curTick(), 456u);
}

TEST_F(WheelFixture, QuantizesDeadlinesUpToBucketBoundaries)
{
    TimerWheel wheel(sim, 100);
    wheel.arm(client, 1, 1);    // -> 100
    wheel.arm(client, 2, 100);  // already on a boundary
    wheel.arm(client, 3, 101);  // -> 200
    sim.run();
    ASSERT_EQ(client.fired.size(), 3u);
    // Tokens 1 and 2 share the 100-tick boundary, in arm order.
    EXPECT_EQ(client.fired[0], std::make_pair(std::uint64_t{1},
                                              Tick{100}));
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{2},
                                              Tick{100}));
    EXPECT_EQ(client.fired[2], std::make_pair(std::uint64_t{3},
                                              Tick{200}));
    // One tick event per occupied boundary, not per timer.
    EXPECT_EQ(wheel.stats().tickEvents, 2u);
    EXPECT_EQ(wheel.stats().maxBatch, 2u);
}

TEST_F(WheelFixture, NeverFiresEarly)
{
    TimerWheel wheel(sim, 64);
    sim.runUntil(10); // arm off a non-boundary tick
    wheel.arm(client, 1, 1);
    sim.run();
    ASSERT_EQ(client.fired.size(), 1u);
    EXPECT_GE(client.fired[0].second, 11u);
    EXPECT_EQ(client.fired[0].second % 64, 0u);
}

TEST_F(WheelFixture, CancelPreventsFiring)
{
    TimerWheel wheel(sim, 1);
    auto h = wheel.arm(client, 1, 100);
    EXPECT_TRUE(wheel.pending(h));
    EXPECT_EQ(wheel.deadline(h), 100u);
    wheel.cancel(h);
    EXPECT_FALSE(wheel.pending(h));
    EXPECT_FALSE(h.valid());
    // The wheel descheduled its tick event: nothing left to run.
    EXPECT_FALSE(sim.hasPendingEvents());
    sim.run();
    EXPECT_TRUE(client.fired.empty());
    EXPECT_EQ(wheel.stats().cancelled, 1u);
}

TEST_F(WheelFixture, StaleHandlesAreInert)
{
    TimerWheel wheel(sim, 1);
    auto h = wheel.arm(client, 1, 10);
    sim.run(); // fires; h is now stale
    ASSERT_EQ(client.fired.size(), 1u);
    EXPECT_FALSE(wheel.pending(h));
    wheel.cancel(h); // must be a no-op, not kill a reused entry
    EXPECT_EQ(wheel.stats().cancelled, 0u);

    // The arena entry is recycled; the old handle must not alias it.
    auto h2 = wheel.arm(client, 2, 20);
    wheel.cancel(h); // stale again (same idx, older gen)
    EXPECT_TRUE(wheel.pending(h2));
    sim.run();
    ASSERT_EQ(client.fired.size(), 2u);
    EXPECT_EQ(client.fired[1].first, 2u);

    // Default-constructed handles are invalid and safe to cancel.
    TimerWheel::Handle empty;
    wheel.cancel(empty);
    EXPECT_FALSE(wheel.pending(empty));
}

TEST_F(WheelFixture, CancelDuringBatchSuppressesLaterEntries)
{
    // Two timers on one boundary; the first callback cancels the
    // second before it fires.
    TimerWheel wheel(sim, 1);
    struct Canceller : TimerClient {
        TimerWheel *wheel = nullptr;
        TimerWheel::Handle *victim = nullptr;
        int fired = 0;

        void
        timerFired(std::uint64_t, Tick) override
        {
            ++fired;
            wheel->cancel(*victim);
        }
    };
    Canceller first;
    auto victim = wheel.arm(client, 9, 50);
    first.wheel = &wheel;
    first.victim = &victim;
    // Arm the canceller second but cancel/re-arm to get seq order:
    // arm order is firing order, so re-arm the victim after.
    wheel.cancel(victim);
    wheel.arm(first, 0, 50);
    victim = wheel.arm(client, 9, 50);
    sim.run();
    EXPECT_EQ(first.fired, 1);
    EXPECT_TRUE(client.fired.empty());
}

TEST_F(WheelFixture, CancelDuringBatchKeepsTimersTheBatchArmed)
{
    // The first callback arms a zero-delay and a 5-tick timer, then
    // cancels a later entry of its own batch. That entry is already
    // detached from its slot, so the cancel must leave alone the
    // slot the zero-delay timer just went into.
    TimerWheel wheel(sim, 1);
    struct Rearmer : TimerClient {
        TimerWheel *wheel = nullptr;
        TimerWheel::Handle victim;
        std::vector<std::pair<std::uint64_t, Tick>> fires;

        void
        timerFired(std::uint64_t token, Tick now) override
        {
            fires.emplace_back(token, now);
            if (token == 0) {
                wheel->arm(*this, 1, 0);
                wheel->arm(*this, 2, 5);
                wheel->cancel(victim);
            }
        }
    };
    Rearmer r;
    r.wheel = &wheel;
    wheel.arm(r, 0, 50);
    r.victim = wheel.arm(client, 9, 50);
    sim.run();
    ASSERT_EQ(r.fires.size(), 3u);
    EXPECT_EQ(r.fires[1], std::make_pair(std::uint64_t{1}, Tick{50}));
    EXPECT_EQ(r.fires[2], std::make_pair(std::uint64_t{2}, Tick{55}));
    EXPECT_TRUE(client.fired.empty());
    EXPECT_EQ(wheel.live(), 0u);
    // Boundary 50 twice (the zero-delay re-arm), then 55.
    EXPECT_EQ(wheel.stats().tickEvents, 3u);
}

TEST_F(WheelFixture, ReArmFromCallbackIncludingZeroDelay)
{
    TimerWheel wheel(sim, 1);
    struct Chainer : TimerClient {
        TimerWheel *wheel = nullptr;
        std::vector<Tick> fires;

        void
        timerFired(std::uint64_t token, Tick now) override
        {
            fires.push_back(now);
            if (token == 0 && fires.size() < 3) {
                // Chain: re-arm with zero delay; must fire at this
                // very tick (not a full wheel lap later).
                wheel->arm(*this, 0, 0);
            } else if (token == 1) {
                wheel->arm(*this, 2, 25);
            }
        }
    };
    Chainer c;
    c.wheel = &wheel;
    wheel.arm(c, 0, 10);
    wheel.arm(c, 1, 10);
    sim.run();
    // Token 0 fires at 10 and chains once more at tick 10 (the
    // zero-delay re-arm must fire at this tick, not a lap later);
    // token 1 fires at 10 and schedules token 2 at 35.
    ASSERT_EQ(c.fires.size(), 4u);
    EXPECT_EQ(c.fires[0], 10u);
    EXPECT_EQ(c.fires[1], 10u);
    EXPECT_EQ(c.fires[2], 10u);
    EXPECT_EQ(c.fires[3], 35u);
    EXPECT_EQ(sim.curTick(), 35u);
}

TEST_F(WheelFixture, FarDeadlinesParkInOverflowAndMigrateBack)
{
    TimerWheel wheel(sim, 2, 16); // tiny ring: horizon = 32 ticks
    EXPECT_EQ(wheel.numSlots(), 16u);
    wheel.arm(client, 1, 5);    // in the ring (boundary 6)
    wheel.arm(client, 2, 1000); // far beyond the horizon
    wheel.arm(client, 3, 2000); // even farther
    sim.run();
    ASSERT_EQ(client.fired.size(), 3u);
    EXPECT_EQ(client.fired[0], std::make_pair(std::uint64_t{1},
                                              Tick{6}));
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{2},
                                              Tick{1000}));
    EXPECT_EQ(client.fired[2], std::make_pair(std::uint64_t{3},
                                              Tick{2000}));
    EXPECT_GT(wheel.stats().overflowMigrations, 0u);
}

TEST_F(WheelFixture, CancelWhileParkedInOverflow)
{
    TimerWheel wheel(sim, 2, 16);
    wheel.arm(client, 1, 6);
    auto far = wheel.arm(client, 2, 1000);
    wheel.cancel(far);
    sim.run();
    ASSERT_EQ(client.fired.size(), 1u);
    EXPECT_EQ(client.fired[0].first, 1u);
    EXPECT_EQ(sim.curTick(), 6u); // the parked timer never woke us
    EXPECT_EQ(wheel.live(), 0u);
}

TEST_F(WheelFixture, BatchFiresInArmOrderAcrossClients)
{
    TimerWheel wheel(sim, 256); // everything lands on boundary 256
    RecordingClient other;
    wheel.arm(client, 0, 10);
    wheel.arm(other, 1, 20);
    wheel.arm(client, 2, 30);
    wheel.arm(other, 3, 40);
    sim.run();
    ASSERT_EQ(client.fired.size(), 2u);
    ASSERT_EQ(other.fired.size(), 2u);
    EXPECT_EQ(client.fired[0].first, 0u);
    EXPECT_EQ(other.fired[0].first, 1u);
    EXPECT_EQ(client.fired[1].first, 2u);
    EXPECT_EQ(other.fired[1].first, 3u);
    EXPECT_EQ(wheel.stats().tickEvents, 1u);
    EXPECT_EQ(wheel.stats().maxBatch, 4u);
}

TEST_F(WheelFixture, StatsCountArmCancelFire)
{
    TimerWheel wheel(sim, 2);
    auto a = wheel.arm(client, 0, 10);
    wheel.arm(client, 1, 20);
    wheel.arm(client, 2, 30);
    EXPECT_EQ(wheel.live(), 3u);
    wheel.cancel(a);
    EXPECT_EQ(wheel.live(), 2u);
    sim.run();
    EXPECT_EQ(wheel.live(), 0u);
    const TimerWheel::Stats &s = wheel.stats();
    EXPECT_EQ(s.armed, 3u);
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.fired, 2u);
    EXPECT_EQ(s.maxLive, 3u);
    // Three dispatches: cancellation is O(1) and leaves the already
    // scheduled tick in place, so boundary 10 fires an empty batch.
    EXPECT_EQ(s.tickEvents, 3u);
}

TEST_F(WheelFixture, EmptyWheelAfterLongIdleGapStaysExact)
{
    // The window must snap forward when the first timer after a long
    // quiet period is armed, or near deadlines would land in the
    // overflow heap (correct but slow) or worse, a stale slot.
    TimerWheel wheel(sim, 2, 16);
    wheel.arm(client, 1, 4);
    sim.run();
    EXPECT_EQ(sim.curTick(), 4u);
    sim.runUntil(1'000'000); // idle gap many laps long
    wheel.arm(client, 2, 4);
    sim.run();
    ASSERT_EQ(client.fired.size(), 2u);
    EXPECT_EQ(client.fired[1], std::make_pair(std::uint64_t{2},
                                              Tick{1'000'004}));
    // Armed into the snapped window's ring, not parked and migrated.
    EXPECT_EQ(wheel.stats().overflowMigrations, 0u);
}

TEST_F(WheelFixture, ExactModeIsOneNamedEventPerTimerWithoutRing)
{
    struct Named : RecordingClient {
        const char *timerName() const override { return "test.timer"; }
    };
    struct NameProbe : KernelProbe {
        std::vector<std::string> names;
        void
        beginEvent(const Event &ev, std::size_t) override
        {
            names.push_back(ev.name());
            EXPECT_EQ(ev.priority(), Event::powerPriority);
        }
        void endEvent() override {}
    };
    TimerWheel wheel(sim, 1);
    EXPECT_TRUE(wheel.exact());
    EXPECT_EQ(wheel.numSlots(), 0u);
    Named named;
    NameProbe probe;
    sim.setProbe(&probe);
    wheel.arm(named, 1, 10);
    wheel.arm(client, 2, 10);
    wheel.arm(named, 3, 20);
    sim.run();
    const std::vector<std::string> want = {"test.timer", "timer",
                                           "test.timer"};
    EXPECT_EQ(probe.names, want);
    EXPECT_EQ(wheel.stats().tickEvents, 3u);
    EXPECT_EQ(wheel.stats().maxBatch, 1u);
    sim.setProbe(nullptr);
}

TEST_F(WheelFixture, RejectsZeroGranularity)
{
    EXPECT_THROW(TimerWheel(sim, 0), FatalError);
}

TEST_F(WheelFixture, RejectsOverflowingDeadline)
{
    TimerWheel wheel(sim, 1);
    sim.runUntil(100);
    EXPECT_THROW(wheel.arm(client, 0, maxTick - 10), FatalError);
}

namespace {

/** Quantized deadline of a timer armed at @p now for @p delay. */
Tick
quantizedDeadline(Tick now, Tick delay, Tick g)
{
    return (now + delay + g - 1) / g * g;
}

} // namespace

class WheelOrderTest : public ::testing::TestWithParam<Tick>
{
};

TEST_P(WheelOrderTest, MigratedAndDirectArmsShareASlotInArmOrder)
{
    // A, B and X park in overflow for boundary 40G; the pacer P
    // (boundary 30G) slides the window so they migrate, then arms C,
    // D and E directly onto 40G and cancels A in between, so D
    // reuses A's arena entry behind A's dead ref at the slot's head.
    const Tick g = GetParam();
    Simulator sim;
    TimerWheel wheel(sim, g, 16);
    struct Pacer : TimerClient {
        TimerWheel *wheel = nullptr;
        TimerClient *target = nullptr;
        TimerWheel::Handle a;
        Tick g = 1;

        void
        timerFired(std::uint64_t, Tick) override
        {
            wheel->arm(*target, 'C', 10 * g);
            wheel->cancel(a);
            wheel->arm(*target, 'D', 10 * g);
            wheel->arm(*target, 'E', 10 * g);
        }
    };
    RecordingClient rec;
    Pacer pacer;
    pacer.wheel = &wheel;
    pacer.target = &rec;
    pacer.g = g;
    pacer.a = wheel.arm(rec, 'A', 40 * g);
    wheel.arm(rec, 'B', 40 * g);
    wheel.arm(rec, 'X', 40 * g);
    wheel.arm(pacer, 'P', 30 * g);
    EXPECT_EQ(wheel.stats().overflowMigrations, 0u);
    sim.run();

    // Exact mode (G = 1) has no ring, so nothing parks or migrates.
    EXPECT_EQ(wheel.stats().overflowMigrations, g > 1 ? 4u : 0u);
    const std::vector<std::pair<std::uint64_t, Tick>> want = {
        {'B', 40 * g}, {'X', 40 * g}, {'C', 40 * g},
        {'D', 40 * g}, {'E', 40 * g}};
    EXPECT_EQ(rec.fired, want);
}

TEST_P(WheelOrderTest, RandomArmCancelRearmMatchesReferenceModel)
{
    // Seeded mix of arms (near, in-ring and beyond the 16-slot
    // horizon), cancels and re-arms, from callbacks too, zero-delay
    // ones included. The reference fires in (deadline, order) order,
    // where order is the arm sequence; a re-arm takes a fresh order
    // unless exact mode keeps its deadline, and so its FIFO slot.
    const Tick g = GetParam();
    constexpr std::uint64_t armBudget = 3000;

    struct Driver : TimerClient {
        using Key = std::pair<Tick, std::uint64_t>;
        Simulator *sim = nullptr;
        TimerWheel *wheel = nullptr;
        Tick g = 1;
        std::mt19937_64 rng;
        std::uint64_t nextSeq = 0, nextOrder = 0;
        std::map<Key, std::uint64_t> model;
        std::map<std::uint64_t, TimerWheel::Handle> handles;
        std::map<std::uint64_t, Key> keys;
        std::vector<std::pair<std::uint64_t, Tick>> fired, expected;

        void
        arm()
        {
            Tick delay;
            switch (rng() % 4) {
              case 0: delay = 0; break;
              case 1: delay = rng() % (2 * g); break;
              case 2: delay = rng() % (16 * g); break;
              default: delay = rng() % (64 * g); break;
            }
            const std::uint64_t seq = nextSeq++;
            const Key key{quantizedDeadline(sim->curTick(), delay, g),
                          nextOrder++};
            handles[seq] = wheel->arm(*this, seq, delay);
            keys[seq] = key;
            model.emplace(key, seq);
        }

        /** A random pending timer's token, or false if none is. */
        bool
        pick(std::uint64_t &token)
        {
            if (handles.empty())
                return false;
            auto it = handles.begin();
            std::advance(it, rng() % handles.size());
            token = it->first;
            return true;
        }

        void
        cancelOne()
        {
            std::uint64_t token;
            if (!pick(token))
                return;
            wheel->cancel(handles[token]);
            model.erase(keys[token]);
            handles.erase(token);
        }

        void
        rearmOne()
        {
            std::uint64_t token;
            if (!pick(token))
                return;
            // Half the re-arms ask for the deadline the timer has.
            const Tick now = sim->curTick();
            const Key old = keys[token];
            const Tick delay = rng() % 2 ? old.first - now
                                         : rng() % (16 * g);
            Key key{quantizedDeadline(now, delay, g), old.second};
            if (!wheel->exact() || key.first != old.first)
                key.second = nextOrder++;
            wheel->rearm(handles[token], *this, token, delay);
            model.erase(old);
            model.emplace(key, token);
            keys[token] = key;
        }

        void
        act()
        {
            const unsigned n = static_cast<unsigned>(rng() % 4);
            for (unsigned i = 0; i < n && nextSeq < armBudget; ++i)
                arm();
            switch (rng() % 3) {
              case 0: cancelOne(); break;
              case 1: rearmOne(); break;
              default: break;
            }
        }

        void
        timerFired(std::uint64_t token, Tick deadline) override
        {
            fired.emplace_back(token, deadline);
            if (!model.empty()) {
                expected.emplace_back(model.begin()->second,
                                      model.begin()->first.first);
                model.erase(model.begin());
            }
            handles.erase(token);
            act();
        }
    };

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Simulator sim;
        TimerWheel wheel(sim, g, 16);
        Driver d;
        d.sim = &sim;
        d.wheel = &wheel;
        d.g = g;
        d.rng.seed(seed);
        // Arms and cancels from outside callbacks too, at ticks off
        // the bucket boundaries, between bounded runs.
        while (d.nextSeq < armBudget) {
            d.act();
            sim.runUntil(sim.curTick() + d.rng() % (8 * g) + 1);
        }
        sim.run();
        EXPECT_TRUE(d.model.empty()) << "seed " << seed;
        EXPECT_EQ(d.fired.size(), wheel.stats().fired) << "seed " << seed;
        EXPECT_EQ(d.fired, d.expected) << "seed " << seed;
        EXPECT_EQ(wheel.live(), 0u) << "seed " << seed;
        if (!wheel.exact()) {
            EXPECT_GT(wheel.stats().overflowMigrations, 0u);
        }
        EXPECT_GT(wheel.stats().cancelled, 0u);
    }
}

TEST_P(WheelOrderTest, RearmToSameDeadlineKeepsFifoPositionOnlyInExactMode)
{
    // A and B share a deadline; A is re-armed for that same deadline
    // from off the boundary. Exact mode keeps A ahead of B, as a
    // rescheduled kernel event keeps its FIFO slot; the ring treats a
    // re-arm as cancel + arm, so A goes behind B.
    const Tick g = GetParam();
    Simulator sim;
    TimerWheel wheel(sim, g);
    RecordingClient rec;
    TimerWheel::Handle a = wheel.arm(rec, 'A', 10 * g);
    TimerWheel::Handle b = wheel.arm(rec, 'B', 10 * g);
    sim.runUntil(3 * g + 1);
    wheel.rearm(a, rec, 'A', 7 * g - 1);
    EXPECT_TRUE(wheel.pending(a));
    EXPECT_TRUE(wheel.pending(b));
    EXPECT_EQ(wheel.deadline(a), 10 * g);
    // Moving to another deadline moves the timer in both modes.
    TimerWheel::Handle c = wheel.arm(rec, 'C', 5 * g);
    wheel.rearm(c, rec, 'C', 20 * g);
    sim.run();

    const std::vector<std::pair<std::uint64_t, Tick>> exact = {
        {'A', 10 * g}, {'B', 10 * g}, {'C', 24 * g}};
    const std::vector<std::pair<std::uint64_t, Tick>> ring = {
        {'B', 10 * g}, {'A', 10 * g}, {'C', 24 * g}};
    EXPECT_EQ(rec.fired, wheel.exact() ? exact : ring);
    // A re-arm of a pending timer counts as a cancel plus an arm.
    EXPECT_EQ(wheel.stats().armed, 5u);
    EXPECT_EQ(wheel.stats().cancelled, 2u);
    EXPECT_EQ(wheel.stats().fired, 3u);
}

INSTANTIATE_TEST_SUITE_P(Granularity, WheelOrderTest,
                         ::testing::Values(Tick{1}, Tick{7}, Tick{256}));

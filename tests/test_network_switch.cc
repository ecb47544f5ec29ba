/**
 * @file
 * Tests for the switch power hierarchy: port LPI, adaptive link
 * rate, line card sleep, whole-switch sleep and energy accounting.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "network/switch.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "telemetry/trace_manager.hh"
#include "telemetry/trace_sink.hh"

using namespace holdcsim;

namespace {

struct SwitchFixture : ::testing::Test {
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    std::unique_ptr<Switch> sw;

    void
    makeSwitch(unsigned n_ports = 24, Tick sleep_delay = maxTick)
    {
        SwitchConfig cfg;
        cfg.portRates.assign(n_ports, 1e9);
        cfg.switchSleepDelay = sleep_delay;
        sw = std::make_unique<Switch>(sim, cfg, prof);
    }

    PacketPtr
    packet(Bytes bytes)
    {
        auto p = std::make_shared<Packet>();
        p->bytes = bytes;
        return p;
    }
};

} // namespace

TEST_F(SwitchFixture, PowerAtFullActivity)
{
    makeSwitch(24);
    // All ports start active: chassis + 1 linecard + 24 ports.
    EXPECT_NEAR(sw->power(),
                prof.chassisBase + prof.linecardActive +
                    24 * prof.portActive,
                1e-9);
}

TEST_F(SwitchFixture, PortsDropToLpiWhenIdle)
{
    makeSwitch(24);
    sim.runUntil(1 * msec); // > lpiIdleThreshold
    for (unsigned p = 0; p < 24; ++p)
        EXPECT_EQ(sw->port(p).state(), PortState::lpi);
    EXPECT_NEAR(sw->power(),
                prof.chassisBase + prof.linecardActive +
                    24 * prof.portLpi,
                1e-9);
}

TEST_F(SwitchFixture, LineCardSleepsAfterThreshold)
{
    makeSwitch(24);
    sim.runUntil(prof.lpiIdleThreshold +
                 prof.linecardSleepThreshold + 1 * msec);
    EXPECT_EQ(sw->lineCard(0).state(), LineCardState::sleep);
    EXPECT_NEAR(sw->power(),
                prof.chassisBase + prof.linecardSleep +
                    24 * prof.portLpi,
                1e-9);
}

TEST_F(SwitchFixture, MultipleLineCards)
{
    SwitchConfig cfg;
    cfg.portRates.assign(30, 1e9);
    cfg.portsPerLinecard = 24;
    sw = std::make_unique<Switch>(sim, cfg, prof);
    EXPECT_EQ(sw->numLineCards(), 2u);
    EXPECT_EQ(sw->numPorts(), 30u);
    EXPECT_NEAR(sw->power(),
                prof.chassisBase + 2 * prof.linecardActive +
                    30 * prof.portActive,
                1e-9);
}

TEST_F(SwitchFixture, WholeSwitchSleepsWhenEnabled)
{
    makeSwitch(4, 100 * msec);
    sim.runUntil(1 * sec);
    EXPECT_TRUE(sw->asleep());
    EXPECT_DOUBLE_EQ(sw->power(), prof.switchSleep);
    EXPECT_EQ(sw->sleepTransitions(), 1u);
}

// The ladder is replayed when the switch is read, but a traced run
// settles it before returning: a tracer flushed without anyone reading
// the switch still holds the card's and the switch's sleep.
TEST_F(SwitchFixture, TracedRunWritesTheLadderNobodyRead)
{
    std::ostringstream os;
    const Tick card_at = prof.lpiIdleThreshold + prof.linecardSleepThreshold;
    {
        TraceManager tm(std::make_unique<JsonTraceSink>(os));
        sim.setTracer(&tm);
        makeSwitch(2, 1 * msec);
        EXPECT_EQ(sim.run(), card_at + 1 * msec);
        sim.setTracer(nullptr);
    }
    // The card slept at 10.05 ms, the switch 1 ms later.
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"name\":\"sleep\",\"cat\":\"network\","
                       "\"ts\":10050.000"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"name\":\"asleep\",\"cat\":\"network\","
                       "\"ts\":11050.000"),
              std::string::npos)
        << doc;
}

TEST_F(SwitchFixture, SleepDisabledByDefault)
{
    makeSwitch(4);
    sim.runUntil(10 * sec);
    EXPECT_FALSE(sw->asleep());
}

TEST_F(SwitchFixture, WakeForActivityReportsLatency)
{
    makeSwitch(4, 100 * msec);
    sim.runUntil(1 * sec);
    ASSERT_TRUE(sw->asleep());
    Tick delay = sw->wakeForActivity(2);
    EXPECT_EQ(delay, prof.switchWakeLatency +
                         prof.linecardWakeLatency +
                         prof.lpiExitLatency);
    EXPECT_FALSE(sw->asleep());
    EXPECT_EQ(sw->lineCard(0).state(), LineCardState::active);
    EXPECT_EQ(sw->port(2).state(), PortState::active);
    // Already-awake components report zero.
    EXPECT_EQ(sw->wakeForActivity(2), 0u);
}

TEST_F(SwitchFixture, FlowRefcountsKeepPortsAwake)
{
    makeSwitch(4);
    sw->flowStarted(0, 1);
    sim.runUntil(1 * sec);
    EXPECT_EQ(sw->port(0).state(), PortState::active);
    EXPECT_EQ(sw->port(1).state(), PortState::active);
    EXPECT_EQ(sw->port(2).state(), PortState::lpi);
    sw->flowEnded(0, 1);
    sim.runUntil(2 * sec);
    EXPECT_EQ(sw->port(0).state(), PortState::lpi);
    EXPECT_EQ(sw->port(1).state(), PortState::lpi);
}

TEST_F(SwitchFixture, PacketForwardingSerializes)
{
    makeSwitch(4);
    Tick delivered_at = 0;
    sw->port(1).setDeliver([&](const PacketPtr &) {
        delivered_at = sim.curTick();
    });
    ASSERT_TRUE(sw->forwardPacket(packet(1500), 1));
    sim.run();
    // Forwarding delay + 12 us serialization at 1 Gb/s.
    EXPECT_EQ(delivered_at, sw->forwardingDelay() + 12 * usec);
    EXPECT_EQ(sw->packetsForwarded(), 1u);
    EXPECT_EQ(sw->port(1).packetsSent(), 1u);
    EXPECT_EQ(sw->port(1).bytesSent(), 1500u);
}

TEST_F(SwitchFixture, PacketQueueingDelaysLaterPackets)
{
    makeSwitch(4);
    std::vector<Tick> deliveries;
    sw->port(1).setDeliver([&](const PacketPtr &) {
        deliveries.push_back(sim.curTick());
    });
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(sw->forwardPacket(packet(1500), 1));
    sim.run();
    ASSERT_EQ(deliveries.size(), 3u);
    // Head pays forwarding delay; the rest queue behind at 12 us
    // per serialization.
    EXPECT_EQ(deliveries[1] - deliveries[0], 12 * usec);
    EXPECT_EQ(deliveries[2] - deliveries[1], 12 * usec);
}

TEST_F(SwitchFixture, BufferOverflowDrops)
{
    SwitchConfig cfg;
    cfg.portRates.assign(2, 1e9);
    cfg.portBufferCapacity = 2;
    sw = std::make_unique<Switch>(sim, cfg, prof);
    sw->port(0).setDeliver([](const PacketPtr &) {});
    // 1 transmitting + 2 queued fit; the 4th drops.
    EXPECT_TRUE(sw->forwardPacket(packet(1500), 0));
    EXPECT_TRUE(sw->forwardPacket(packet(1500), 0));
    EXPECT_TRUE(sw->forwardPacket(packet(1500), 0));
    EXPECT_FALSE(sw->forwardPacket(packet(1500), 0));
    EXPECT_EQ(sw->packetsDropped(), 1u);
    sim.run();
}

TEST_F(SwitchFixture, AdaptiveLinkRatePower)
{
    makeSwitch(2);
    auto &port = sw->port(0);
    EXPECT_DOUBLE_EQ(port.power(), prof.portActive);
    port.setRateFraction(0.1);
    EXPECT_NEAR(port.power(), prof.portPowerAt(0.1), 1e-12);
    EXPECT_LT(port.power(), prof.portActive);
    EXPECT_GT(port.power(), prof.portLpi);
    // Serialization slows down accordingly.
    EXPECT_DOUBLE_EQ(port.currentRate(), 1e8);
    EXPECT_THROW(port.setRateFraction(0.0), FatalError);
    EXPECT_THROW(port.setRateFraction(1.5), FatalError);
}

TEST_F(SwitchFixture, LpiExitDelaysFirstPacket)
{
    makeSwitch(2);
    sim.runUntil(1 * msec);
    ASSERT_EQ(sw->port(0).state(), PortState::lpi);
    ASSERT_EQ(sw->lineCard(0).state(), LineCardState::active);
    Tick delivered_at = 0;
    sw->port(0).setDeliver([&](const PacketPtr &) {
        delivered_at = sim.curTick();
    });
    Tick t0 = sim.curTick();
    sw->forwardPacket(packet(1500), 0);
    sim.run();
    EXPECT_EQ(delivered_at, t0 + prof.lpiExitLatency +
                                sw->forwardingDelay() + 12 * usec);
}

TEST_F(SwitchFixture, EnergyIntegration)
{
    makeSwitch(24, 500 * msec);
    sim.runUntil(10 * sec);
    sw->finishStats();
    // Mostly asleep after ~0.5 s; energy must be far below
    // always-active but above always-sleep.
    double active_energy =
        (prof.chassisBase + prof.linecardActive +
         24 * prof.portActive) * 10.0;
    double sleep_energy = prof.switchSleep * 10.0;
    EXPECT_LT(sw->energy(), 0.3 * active_energy);
    EXPECT_GT(sw->energy(), sleep_energy);
    // Residency: awake (state 0) + asleep (state 1) covers all time.
    EXPECT_EQ(sw->residency().residency(0) +
                  sw->residency().residency(1),
              10 * sec);
}

TEST_F(SwitchFixture, PortResidencyTracksLpi)
{
    makeSwitch(2);
    sim.runUntil(1 * sec);
    sw->finishStats();
    const auto &res = sw->port(0).residency();
    EXPECT_GT(res.residency(static_cast<int>(PortState::lpi)),
              900 * msec);
}

TEST_F(SwitchFixture, ConfigValidation)
{
    SwitchConfig cfg;
    EXPECT_THROW(Switch(sim, cfg, prof), FatalError); // no ports
    cfg.portRates.assign(2, 1e9);
    cfg.portsPerLinecard = 0;
    EXPECT_THROW(Switch(sim, cfg, prof), FatalError);
    SwitchPowerProfile bad = prof;
    bad.portLpi = bad.portActive + 1;
    cfg.portsPerLinecard = 24;
    EXPECT_THROW(Switch(sim, cfg, bad), FatalError);
}

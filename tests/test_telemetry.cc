/**
 * @file
 * Tests for the telemetry subsystem: trace sinks and manager (the
 * JSON backend must emit parseable Chrome trace-event documents),
 * the periodic sampler (period arithmetic, rollover safety), the
 * layer probe (its counts must agree with the simulator's own, every
 * DataCenter event must map to a layer, and its timed stride must be
 * deterministic),
 * and the end-to-end guarantee that disabled telemetry changes
 * nothing.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "dc/datacenter.hh"
#include "sim/logging.hh"
#include "telemetry/layer_probe.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_manager.hh"
#include "telemetry/trace_sink.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

// ------------------------------------------------- minimal JSON parser
// Just enough of RFC 8259 to verify that an emitted trace document is
// one complete, well-formed JSON value with no trailing garbage.

struct JsonParser {
    const std::string &s;
    std::size_t i = 0;

    explicit JsonParser(const std::string &text) : s(text) {}

    void ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool literal(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s.compare(i, n, lit) != 0)
            return false;
        i += n;
        return true;
    }

    bool string()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-')) {
            ++i;
        }
        return i > start;
    }

    bool value()
    {
        ws();
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool object()
    {
        ++i; // '{'
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool array()
    {
        ++i; // '['
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }
};

bool
jsonWellFormed(const std::string &text)
{
    JsonParser p(text);
    if (!p.value())
        return false;
    p.ws();
    return p.i == text.size();
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

std::shared_ptr<ServiceModel>
fixedSvc(Tick t)
{
    return std::make_shared<FixedService>(t);
}

/** The type @p probe interned as @p name, or null. */
const LayerProbe::EventType *
findType(const LayerProbe &probe, const std::string &name)
{
    for (const LayerProbe::EventType &t : probe.eventTypes()) {
        if (t.name == name)
            return &t;
    }
    return nullptr;
}

std::uint64_t
layerCount(const LayerProbe &probe, LayerProbe::Layer layer)
{
    std::uint64_t n = 0;
    for (const LayerProbe::EventType &t : probe.eventTypes())
        n += t.layer == layer ? t.count : 0;
    return n;
}

/** Run a small deterministic experiment and return its stats dump. */
std::string
runAndDump(DataCenterConfig cfg)
{
    cfg.nServers = 4;
    cfg.nCores = 2;
    cfg.seed = 11;
    DataCenter dc(cfg);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 2 * msec, 4 * msec, 40 * msec, 41 * msec}, gen);
    dc.run();
    std::ostringstream os;
    dc.dumpStats(os);
    return os.str();
}

} // namespace

// ------------------------------------------------------- trace sinks

TEST(JsonTraceSinkTest, EmitsWellFormedDocument)
{
    std::ostringstream os;
    {
        TraceManager tm(std::make_unique<JsonTraceSink>(os));
        TraceTrackId t = tm.track("servers", "server0");
        tm.transition(t, TraceCategory::server, "idle", 0);
        tm.transition(t, TraceCategory::server, "active", 3 * msec);
        tm.instant(t, TraceCategory::server, "marker", 4 * msec);
        tm.asyncBegin(t, TraceCategory::flow, "flow", 7, 1 * msec);
        tm.asyncEnd(t, TraceCategory::flow, "flow", 7, 9 * msec);
        tm.flush(10 * msec);
    }
    std::string doc = os.str();
    EXPECT_TRUE(jsonWellFormed(doc)) << doc;
    // Track metadata, two closed slices, one instant, one async pair.
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"M\""), 2u);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"X\""), 2u);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"b\""), 1u);
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"e\""), 1u);
}

TEST(JsonTraceSinkTest, EscapesSpecialCharacters)
{
    std::ostringstream os;
    {
        TraceManager tm(std::make_unique<JsonTraceSink>(os));
        TraceTrackId t = tm.track("g", "t");
        tm.instant(t, TraceCategory::task, "quote\"back\\slash",
                   1 * msec);
        tm.flush(1 * msec);
    }
    EXPECT_TRUE(jsonWellFormed(os.str())) << os.str();
}

TEST(JsonTraceSinkTest, TimestampsAreExactMicroseconds)
{
    std::ostringstream os;
    {
        TraceManager tm(std::make_unique<JsonTraceSink>(os));
        TraceTrackId t = tm.track("g", "t");
        // 1234567 ns = 1234.567 us: the sub-microsecond digits must
        // survive (no double rounding).
        tm.instant(t, TraceCategory::task, "m", 1234567);
        tm.flush(1234567);
    }
    EXPECT_NE(os.str().find("1234.567"), std::string::npos) << os.str();
}

TEST(CsvTraceSinkTest, RowsMatchRecords)
{
    std::ostringstream os;
    {
        TraceManager tm(std::make_unique<CsvTraceSink>(os));
        TraceTrackId t = tm.track("servers", "server0");
        tm.transition(t, TraceCategory::server, "idle", 0);
        tm.transition(t, TraceCategory::server, "active", 5 * msec);
        tm.flush(10 * msec);
    }
    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line))
        ++lines;
    // Header + 2 metadata rows + 2 closed slices.
    EXPECT_EQ(lines, 5u);
    EXPECT_EQ(os.str().rfind("type,pid,tid,name,category,", 0), 0u);
}

// ----------------------------------------------------- trace manager

TEST(TraceManagerTest, CategoryMaskSuppressesRecords)
{
    std::ostringstream os;
    std::uint64_t emitted = 0;
    {
        TraceManager tm(std::make_unique<JsonTraceSink>(os),
                        parseTraceCategories("server"));
        EXPECT_TRUE(tm.wants(TraceCategory::server));
        EXPECT_FALSE(tm.wants(TraceCategory::flow));
        TraceTrackId t = tm.track("servers", "server0");
        tm.transition(t, TraceCategory::flow, "x", 0);
        tm.instant(t, TraceCategory::flow, "y", 1 * msec);
        tm.flush(2 * msec);
        emitted = tm.eventsEmitted();
    }
    // Only the two track-metadata records survive the mask.
    EXPECT_EQ(emitted, 2u);
    EXPECT_TRUE(jsonWellFormed(os.str())) << os.str();
}

TEST(TraceManagerTest, ParseCategories)
{
    EXPECT_EQ(parseTraceCategories("all"), allTraceCategories);
    EXPECT_EQ(parseTraceCategories(""), allTraceCategories);
    EXPECT_EQ(parseTraceCategories("server,task"),
              static_cast<std::uint32_t>(TraceCategory::server) |
                  static_cast<std::uint32_t>(TraceCategory::task));
    EXPECT_THROW(parseTraceCategories("bogus"), FatalError);
}

TEST(TraceManagerTest, FlushClosesOpenSlicesOnce)
{
    std::ostringstream os;
    TraceManager tm(std::make_unique<JsonTraceSink>(os));
    TraceTrackId t = tm.track("g", "t");
    tm.transition(t, TraceCategory::server, "busy", 0);
    tm.flush(5 * msec);
    tm.flush(9 * msec); // idempotent; must not re-close or re-emit
    tm.transition(t, TraceCategory::server, "late", 10 * msec);
    std::string doc = os.str();
    EXPECT_TRUE(jsonWellFormed(doc)) << doc;
    EXPECT_EQ(countOccurrences(doc, "\"ph\":\"X\""), 1u);
}

TEST(TraceManagerTest, TrackHandlesAreStable)
{
    std::ostringstream os;
    TraceManager tm(std::make_unique<JsonTraceSink>(os));
    TraceTrackId a = tm.track("servers", "server0");
    TraceTrackId b = tm.track("servers", "server1");
    EXPECT_NE(a, b);
    EXPECT_EQ(tm.track("servers", "server0"), a);
    tm.flush(0);
}

// ----------------------------------------------------------- sampler

TEST(SamplerTest, SamplesAtFixedPeriodWithBaseline)
{
    Simulator sim;
    std::ostringstream os;
    Sampler sampler(sim, os, 10 * msec);
    sampler.addProbe("clock_s", [&] { return toSeconds(sim.curTick()); });
    sampler.addProbe("answer", [] { return 42.0; });

    // Foreground work keeps the simulation alive to 35 ms; the
    // sampler itself (a background event) must not extend the run.
    EventFunctionWrapper work([] {}, "work");
    sim.schedule(work, 35 * msec);
    sampler.start();
    sim.run();

    EXPECT_EQ(sim.curTick(), 35 * msec);
    // Baseline at 0 plus ticks at 10/20/30 ms; the 40 ms snapshot
    // never fires (rollover-safe: no partial trailing sample).
    EXPECT_EQ(sampler.samplesTaken(), 4u);
    EXPECT_EQ(sampler.rowsWritten(), 8u);

    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "time_s,metric,value");
    std::size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, 8u);
    EXPECT_NE(os.str().find("0.03,clock_s,0.03"), std::string::npos)
        << os.str();
}

TEST(SamplerTest, StopDisarms)
{
    Simulator sim;
    std::ostringstream os;
    Sampler sampler(sim, os, 10 * msec);
    sampler.addProbe("one", [] { return 1.0; });
    EventFunctionWrapper work([] {}, "work");
    sim.schedule(work, 50 * msec);
    sampler.start();
    sampler.stop();
    sim.run();
    EXPECT_EQ(sampler.samplesTaken(), 1u); // baseline only
}

TEST(SamplerTest, LateProbeRegistrationFatals)
{
    Simulator sim;
    std::ostringstream os;
    Sampler sampler(sim, os, 10 * msec);
    sampler.start();
    EXPECT_THROW(sampler.addProbe("late", [] { return 0.0; }),
                 FatalError);
}

TEST(SamplerTest, ZeroPeriodFatals)
{
    Simulator sim;
    std::ostringstream os;
    EXPECT_THROW(Sampler(sim, os, 0), FatalError);
}

// ------------------------------------------------------- layer probe

TEST(KernelProfilerTest, CountMatchesSimulatorExactly)
{
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);

    EventFunctionWrapper ping([] {}, "ping");
    EventFunctionWrapper pong([] {}, "pong");
    for (Tick t = 1; t <= 20; ++t) {
        sim.schedule(ping, t * msec);
        sim.run();
        sim.schedule(pong, sim.curTick() + 1);
        sim.run();
    }

    EXPECT_EQ(probe.eventsObserved(), sim.eventsProcessed());
    EXPECT_EQ(probe.eventsObserved(), 40u);
    ASSERT_NE(findType(probe, "ping"), nullptr);
    EXPECT_EQ(findType(probe, "ping")->count, 20u);
    EXPECT_GE(probe.peakQueueDepth(), 1u);
    // Names no rule knows land in the other layer.
    EXPECT_EQ(layerCount(probe, LayerProbe::Layer::other), 40u);
}

TEST(KernelProfilerTest, StatsAndHotTable)
{
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);
    EventFunctionWrapper work([] {}, "work");
    sim.schedule(work, 1 * msec);
    sim.run();

    std::ostringstream os;
    probe.dump(os, sim.eventQueue(), nullptr);
    const std::string out = os.str();
    EXPECT_EQ(out.rfind("profile.events_observed 1", 0), 0u) << out;
    EXPECT_NE(out.find("profile.type.work.count 1"), std::string::npos);
    EXPECT_NE(out.find("profile.queue.pops 1"), std::string::npos);
    EXPECT_EQ(out.find("profile.wheel."), std::string::npos);
    for (const char *layer :
         {"server_completion", "sched", "other", "kernel"}) {
        EXPECT_NE(out.find(std::string("profile.layer.") + layer +
                           ".host_us "),
                  std::string::npos)
            << layer;
    }

    // The hot-events table follows the stats, every line "# "-prefixed.
    const std::size_t table = out.find("# kernel hot events");
    ASSERT_NE(table, std::string::npos) << out;
    EXPECT_GT(table, out.find("profile.queue.pops"));
    std::istringstream rows(out.substr(table));
    std::string row;
    while (std::getline(rows, row))
        EXPECT_EQ(row.rfind("# ", 0), 0u) << row;
    EXPECT_NE(out.find("work", table), std::string::npos);
    EXPECT_NE(out.find("# other: work\n", table), std::string::npos);
}

TEST(KernelProfilerTest, TypeRowsAreSortedByName)
{
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);
    EventFunctionWrapper b([] {}, "sched.retry");
    EventFunctionWrapper a([] {}, "core.completion");
    sim.schedule(b, 1);
    sim.schedule(a, 2);
    sim.run();

    std::ostringstream os;
    probe.dump(os, sim.eventQueue(), nullptr);
    const std::string out = os.str();
    EXPECT_EQ(probe.eventTypes().front().name, "sched.retry");
    EXPECT_LT(out.find("profile.type.core.completion.count"),
              out.find("profile.type.sched.retry.count"));
    EXPECT_EQ(out.find("# other:"), std::string::npos);
}

TEST(KernelProfilerTest, LayerMapByPrefix)
{
    using L = LayerProbe::Layer;
    EXPECT_EQ(LayerProbe::layerOf("core.completion"), L::serverCompletion);
    EXPECT_EQ(LayerProbe::layerOf("server.wakeDone"), L::serverGovernor);
    EXPECT_EQ(LayerProbe::layerOf("dvfs.tick"), L::serverGovernor);
    EXPECT_EQ(LayerProbe::layerOf("flow.completion"), L::networkFlow);
    EXPECT_EQ(LayerProbe::layerOf("port.txDone"), L::networkGovernor);
    EXPECT_EQ(LayerProbe::layerOf("pump.arrival"), L::sched);
    // Governor timers schedule no events, so the wheel has no layer.
    EXPECT_EQ(LayerProbe::layerOf("wheel.tick"), L::other);
    EXPECT_EQ(LayerProbe::layerOf("orch.reconcile"), L::orch);
    EXPECT_EQ(LayerProbe::layerOf("fault.switch"), L::fault);
    EXPECT_EQ(LayerProbe::layerOf("invariant_audit"), L::telemetry);
    EXPECT_EQ(LayerProbe::layerOf("inject"), L::other);
    EXPECT_STREQ(LayerProbe::layerName(L::networkGovernor),
                 "network_governor");
}

TEST(KernelProfilerTest, InternsManyNamesAndTimesAFixedStride)
{
    // More names than the initial table holds: it must grow.
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (int i = 0; i < 300; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [] {}, "ev" + std::to_string(i % 100)));
        sim.schedule(*events.back(), static_cast<Tick>(i + 1));
    }
    sim.run();
    ASSERT_EQ(probe.eventTypes().size(), 100u);
    std::uint64_t timed = 0;
    for (const LayerProbe::EventType &t : probe.eventTypes()) {
        EXPECT_EQ(t.count, 3u) << t.name;
        timed += t.timed;
    }
    // Ordinals 0, N, 2N, ... are timed.
    const std::uint64_t n = LayerProbe::timingStride;
    EXPECT_EQ(timed, (300 + n - 1) / n);
    EXPECT_EQ(findType(probe, "ev0")->timed, 1u);
}

TEST(KernelProfilerTest, LongNamesDifferingInTheMiddleStayApart)
{
    // Same length, same first and last 8 bytes: only the full string
    // compare tells these apart.
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);
    EventFunctionWrapper a([] {}, "pump.arr_A_ival.xyz");
    EventFunctionWrapper b([] {}, "pump.arr_B_ival.xyz");
    sim.schedule(a, 1);
    sim.schedule(b, 2);
    sim.run();
    sim.schedule(a, 3);
    sim.run();
    ASSERT_EQ(probe.eventTypes().size(), 2u);
    EXPECT_EQ(findType(probe, "pump.arr_A_ival.xyz")->count, 2u);
    EXPECT_EQ(findType(probe, "pump.arr_B_ival.xyz")->count, 1u);
}

TEST(KernelProfilerTest, AbortDumpListsLastEventsNewestLast)
{
    Simulator sim;
    LayerProbe probe;
    sim.setProbe(&probe);
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    const int total = 40;
    for (int i = 0; i < total; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [] {}, "e" + std::to_string(i)));
        sim.schedule(*events.back(), static_cast<Tick>(10 * (i + 1)));
    }
    sim.run();

    std::ostringstream os;
    sim.abortDump(os, "test abort");
    const std::string out = os.str();
    const std::string head = "recent events (newest last):\n";
    const std::size_t at = out.find(head);
    ASSERT_NE(at, std::string::npos) << out;
    std::istringstream lines(out.substr(at + head.size()));
    const int kept = static_cast<int>(LayerProbe::recentCapacity);
    ASSERT_EQ(kept, 32);
    for (int i = total - kept; i < total; ++i) {
        std::string line;
        ASSERT_TRUE(std::getline(lines, line));
        // All events were queued up front: event i popped with
        // total - i still queued, itself included.
        EXPECT_EQ(line, "  tick " + std::to_string(10 * (i + 1)) +
                            "  depth " + std::to_string(total - i) +
                            "  e" + std::to_string(i));
    }
    std::string last;
    ASSERT_TRUE(std::getline(lines, last));
    EXPECT_EQ(last, "==== end abort dump ====");
}

// ------------------------------------------------------- integration

TEST(TelemetryIntegration, DisabledModeIsByteIdentical)
{
    DataCenterConfig plain;
    std::string baseline = runAndDump(plain);

    // Outputs configured but explicitly vetoed: nothing may change
    // and no file may appear.
    std::string trace_path =
        testing::TempDir() + "holdcsim_vetoed_trace.json";
    std::remove(trace_path.c_str());
    DataCenterConfig vetoed;
    vetoed.telemetry.enabled = false;
    vetoed.telemetry.traceOut = trace_path;
    vetoed.telemetry.sampleOut =
        testing::TempDir() + "holdcsim_vetoed_series.csv";
    vetoed.telemetry.profile = true;
    EXPECT_EQ(runAndDump(vetoed), baseline);
    EXPECT_FALSE(std::ifstream(trace_path).good());
}

TEST(TelemetryIntegration, TracedRunEmitsParseableJson)
{
    std::string trace_path =
        testing::TempDir() + "holdcsim_trace.json";
    DataCenterConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.traceOut = trace_path;
    std::string dump = runAndDump(cfg);

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string doc = buf.str();
    EXPECT_TRUE(jsonWellFormed(doc));
    EXPECT_NE(doc.find("\"cat\":\"server\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"task\""), std::string::npos);
    EXPECT_NE(doc.find("\"cat\":\"core\""), std::string::npos);

    // Tracing must not perturb the simulation itself.
    EXPECT_EQ(dump, runAndDump(DataCenterConfig{}));
}

TEST(TelemetryIntegration, ProfiledRunMatchesKernelCount)
{
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 2;
    cfg.seed = 11;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profile = true;
    DataCenter dc(cfg);
    ASSERT_NE(dc.profiler(), nullptr);
    SingleTaskGenerator gen(fixedSvc(5 * msec));
    dc.pumpTrace({0, 2 * msec, 4 * msec}, gen);
    dc.run();
    EXPECT_EQ(dc.profiler()->eventsObserved(),
              dc.sim().eventsProcessed());

    std::ostringstream os;
    dc.dumpStats(os);
    EXPECT_NE(os.str().find("profile.events_observed"),
              std::string::npos);
}

namespace {

/** A plant that exercises every layer: star fabric, faults, orch,
 *  audit and the sampler, on a coarse timer wheel, profiled. */
DataCenterConfig
everyLayerConfig()
{
    DataCenterConfig cfg;
    cfg.nServers = 8;
    cfg.nCores = 2;
    cfg.seed = 5;
    cfg.fabric = DataCenterConfig::Fabric::star;
    cfg.timerMode = DataCenterConfig::TimerMode::wheel;
    cfg.wheelGranularity = 100 * usec;
    cfg.fault.enabled = true;
    cfg.fault.mttfHours = 1.0 / 3600.0;
    cfg.fault.mttrMinutes = 0.2 / 60.0;
    cfg.fault.maxRetries = 5;
    cfg.orch.enabled = true;
    cfg.orch.replicas = 4;
    cfg.orch.containerCores = 1.0;
    cfg.audit.enabled = true;
    cfg.audit.period = 50 * msec;
    cfg.telemetry.enabled = true;
    cfg.telemetry.profile = true;
    cfg.telemetry.sampleOut =
        testing::TempDir() + "holdcsim_every_layer.csv";
    cfg.telemetry.samplePeriod = 20 * msec;
    return cfg;
}

/** Pump @p jobs fan-out/in jobs into @p dc, run it and dump its stats. */
std::string
runEveryLayer(DataCenter &dc, std::size_t jobs)
{
    FanOutInGenerator gen(fixedSvc(2 * msec), fixedSvc(10 * msec),
                          fixedSvc(1 * msec), 3, 20'000);
    dc.pump(std::make_unique<PoissonArrival>(200.0,
                                             dc.makeRng("arrivals")),
            gen, jobs);
    dc.run();
    std::ostringstream os;
    dc.dumpStats(os);
    return os.str();
}

} // namespace

TEST(TelemetryIntegration, EveryDataCenterEventHasALayer)
{
    DataCenter dc(everyLayerConfig());
    runEveryLayer(dc, 300);

    const LayerProbe &probe = *dc.profiler();
    std::string other;
    for (const LayerProbe::EventType &t : probe.eventTypes()) {
        if (t.layer == LayerProbe::Layer::other)
            other += t.name + ' ';
    }
    EXPECT_EQ(other, "");
    std::uint64_t sum = 0;
    for (std::size_t l = 0; l < LayerProbe::numLayers; ++l)
        sum += layerCount(probe, static_cast<LayerProbe::Layer>(l));
    EXPECT_EQ(sum, dc.sim().eventsProcessed());
    for (LayerProbe::Layer l :
         {LayerProbe::Layer::serverCompletion, LayerProbe::Layer::networkFlow,
          LayerProbe::Layer::sched, LayerProbe::Layer::orch,
          LayerProbe::Layer::fault,
          LayerProbe::Layer::telemetry}) {
        EXPECT_GT(layerCount(probe, l), 0u) << LayerProbe::layerName(l);
    }
}

TEST(TelemetryIntegration, ProfiledRunsCountAndTimeIdentically)
{
    auto run = [](std::vector<LayerProbe::EventType> &types,
                  std::string &dump) {
        DataCenter dc(everyLayerConfig());
        dump = runEveryLayer(dc, 100);
        types = dc.profiler()->eventTypes();
    };
    std::vector<LayerProbe::EventType> a, b;
    std::string dump_a, dump_b;
    run(a, dump_a);
    run(b, dump_b);
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t events = 0, timed = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].count, b[i].count) << a[i].name;
        EXPECT_EQ(a[i].timed, b[i].timed) << a[i].name;
        events += a[i].count;
        timed += a[i].timed;
    }
    const std::uint64_t n = LayerProbe::timingStride;
    EXPECT_EQ(timed, (events + n - 1) / n);

    // Profiling must not perturb the simulation: every row but the
    // profile.* ones and the "# " tables is identical to a plain run.
    auto strip = [](const std::string &dump) {
        std::istringstream in(dump);
        std::string kept;
        for (std::string line; std::getline(in, line);) {
            if (line.rfind("profile.", 0) != 0 && line.rfind("# ", 0) != 0)
                kept += line + '\n';
        }
        return kept;
    };
    DataCenterConfig plain = everyLayerConfig();
    plain.telemetry.profile = false;
    DataCenter dc(plain);
    EXPECT_EQ(strip(dump_a), runEveryLayer(dc, 100));
}

TEST(TelemetryIntegration, SampledRunWritesSeries)
{
    std::string sample_path =
        testing::TempDir() + "holdcsim_series.csv";
    DataCenterConfig cfg;
    cfg.nServers = 4;
    cfg.nCores = 2;
    cfg.seed = 11;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sampleOut = sample_path;
    cfg.telemetry.samplePeriod = 5 * msec;
    {
        DataCenter dc(cfg);
        ASSERT_NE(dc.sampler(), nullptr);
        SingleTaskGenerator gen(fixedSvc(5 * msec));
        dc.pumpTrace({0, 2 * msec, 4 * msec, 40 * msec}, gen);
        dc.run();
        dc.finishStats();
        EXPECT_GE(dc.sampler()->samplesTaken(), 2u);
    }
    std::ifstream in(sample_path);
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, "time_s,metric,value");
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(body.find("server_power_w"), std::string::npos);
    EXPECT_NE(body.find("awake_servers"), std::string::npos);
}

// ------------------------------------------------------------ config

TEST(TelemetryConfig, OutputsImplyEnabled)
{
    auto cfg = DataCenterConfig::fromConfig(Config::parseString(
        "[telemetry]\ntrace_out = t.json\n"));
    EXPECT_TRUE(cfg.telemetry.enabled);
    EXPECT_TRUE(cfg.telemetry.wantsTracing());
    EXPECT_FALSE(cfg.telemetry.wantsSampling());
    EXPECT_FALSE(cfg.telemetry.wantsProfiling());
}

TEST(TelemetryConfig, ExplicitDisableVetoes)
{
    auto cfg = DataCenterConfig::fromConfig(Config::parseString(
        "[telemetry]\nenabled = false\ntrace_out = t.json\n"
        "profile = true\n"));
    EXPECT_FALSE(cfg.telemetry.enabled);
    EXPECT_FALSE(cfg.telemetry.wantsTracing());
    EXPECT_FALSE(cfg.telemetry.wantsProfiling());
}

TEST(TelemetryConfig, AbsentSectionIsOff)
{
    auto cfg = DataCenterConfig::fromConfig(Config::parseString(""));
    EXPECT_FALSE(cfg.telemetry.enabled);
}

TEST(TelemetryConfig, RejectsBadValues)
{
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[telemetry]\ntrace_out = t\n"
                     "trace_format = xml\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[telemetry]\ntrace_out = t\n"
                     "trace_categories = nonsense\n")),
                 FatalError);
    EXPECT_THROW(DataCenterConfig::fromConfig(Config::parseString(
                     "[telemetry]\nprofile = true\n"
                     "sample_period_ms = 0\n")),
                 FatalError);
}

/**
 * @file
 * Runs one workload once and prints one JSON line: host timings,
 * peak memory, the digest of the full statistics dump, the exact
 * counters read from the simulator's public accessors and, when
 * traced, the host-time split by layer.
 *
 *   perfbench_runner --workload NAME --seed N [--quick]
 *                    [--traced | --probe] [--wrap=policy,jobs,arrivals]
 *   perfbench_runner --info
 *
 * --traced installs the kernel probe and all three decorators; --probe
 * and --wrap select them one by one (the decorator tests use them).
 * perfbench/run.py drives this binary; it is not meant to be timed by
 * hand.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <streambuf>
#include <string>

#include "dc/metrics.hh"
#include "sim/logging.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace holdcsim;
using namespace perfbench;

namespace {

/** FNV-1a over every byte written: the stats dump's digest. */
class DigestBuf : public std::streambuf
{
  public:
    std::uint64_t digest() const { return _hash; }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c != traits_type::eof())
            mix(static_cast<char>(c));
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            mix(s[i]);
        return n;
    }

  private:
    void
    mix(char c)
    {
        _hash ^= static_cast<unsigned char>(c);
        _hash *= 1099511628211ull;
    }

    std::uint64_t _hash = 14695981039346656037ull;
};

/** Minimal writer for one flat-ish JSON object. */
class Json
{
  public:
    Json() { _os << '{'; }

    Json &
    num(const std::string &key, double v)
    {
        sep(key);
        if (std::isfinite(v)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            _os << buf;
        } else {
            _os << "null";
        }
        return *this;
    }

    Json &
    count(const std::string &key, std::uint64_t v)
    {
        sep(key);
        _os << v;
        return *this;
    }

    Json &
    str(const std::string &key, const std::string &v)
    {
        sep(key);
        quote(v);
        return *this;
    }

    Json &
    boolean(const std::string &key, bool v)
    {
        sep(key);
        _os << (v ? "true" : "false");
        return *this;
    }

    Json &
    object(const std::string &key, const Json &inner)
    {
        sep(key);
        _os << inner.text();
        return *this;
    }

    std::string text() const { return _os.str() + '}'; }

  private:
    void
    sep(const std::string &key)
    {
        if (!_first)
            _os << ',';
        _first = false;
        quote(key);
        _os << ':';
    }

    void
    quote(const std::string &s)
    {
        _os << '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                _os << '\\';
            _os << c;
        }
        _os << '"';
    }

    std::ostringstream _os;
    bool _first = true;
};

double
secondsSince(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

Json
buildInfo()
{
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitized = true;
#else
    const bool sanitized =
        std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
        std::string::npos;
#endif
    Json j;
    j.str("compiler", __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .boolean("optimized", optimized)
        .boolean("sanitized", sanitized);
    return j;
}

/** The exact counters of a finished run, all from public accessors. */
Json
counters(Plant &plant)
{
    Simulator &sim = plant.sim();
    const EventQueue::Counters &q = sim.eventQueue().counters();
    GlobalScheduler &sched = plant.scheduler();
    std::uint64_t tasks = 0;
    for (Server *s : plant.servers())
        tasks += s->tasksCompleted();

    Json c;
    c.count("sim.events", sim.eventsProcessed())
        .count("sim.queue.schedules", q.schedules)
        .count("sim.queue.pops", q.pops)
        .count("sim.queue.heap_schedules", q.heapSchedules)
        .count("sim.queue.peak", q.peakSize);
    TimerWheel::Stats w;
    if (TimerWheel *wheel = plant.timerWheel())
        w = wheel->stats();
    c.count("sim.wheel.fired", w.fired)
        .count("sim.wheel.tick_events", w.tickEvents)
        .count("sim.wheel.max_batch", w.maxBatch)
        .count("server.tasks", tasks)
        .count("sched.jobs_submitted", sched.jobsSubmitted())
        .count("sched.jobs_completed", sched.jobsCompleted())
        .count("sched.tasks_dispatched", sched.tasksDispatched())
        .count("sched.transfers", sched.transfersStarted());
    NetSolverStats ss;
    std::uint64_t flows = 0;
    if (Network *net = plant.network()) {
        ss = net->flows().solverStats();
        flows = net->flows().flowsCompleted();
    }
    c.count("network.flows", flows)
        .count("network.resolves", ss.resolves)
        .count("network.resolved_flows", ss.resolvedFlows)
        .count("network.dirty_links", ss.dirtyLinks)
        .count("network.max_dirty_flows", ss.maxDirtyFlows)
        .count("network.fast_path_hits", ss.fastPathHits);
    return c;
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::serverCompletion: return "server.completion";
      case Layer::serverGovernor: return "server.governor";
      case Layer::networkFlow: return "network.flow";
      case Layer::networkGovernor: return "network.governor";
      case Layer::sched: return "sched.dispatch";
      case Layer::wheel: return "sim.wheel";
    }
    return "?";
}

/**
 * Per-layer host time of a traced run, plus the per-name table. The
 * probe's calibrated fixed cost is taken out of the event and kernel
 * times it lands in, and reported on its own.
 */
Json
layers(const Tracer &t, double run_s, Json &events, std::string &unknown)
{
    const double spt = t.secondsPerTick();
    auto sec = [spt](auto ticks) {
        return static_cast<double>(ticks) * spt;
    };
    auto less = [](std::uint64_t ticks, double probe) {
        return std::max(0.0, static_cast<double>(ticks) - probe);
    };
    const ProbeCost cost = calibrate(t);
    constexpr int nLayers = 6;
    double self[nLayers] = {};
    std::uint64_t counts[nLayers] = {};
    double all_self = 0.0;
    for (const Tracer::EventType &e : t.eventTypes()) {
        const double probe = cost.inEvent * static_cast<double>(e.count);
        const double own = less(e.selfTicks, probe);
        Json row;
        row.count("count", e.count)
            .num("s", sec(less(e.ticks, probe)))
            .num("self_s", sec(own));
        if (e.known) {
            row.str("layer", layerName(e.layer));
            self[static_cast<int>(e.layer)] += own;
            counts[static_cast<int>(e.layer)] += e.count;
        } else {
            unknown += (unknown.empty() ? "" : ",") + e.name;
        }
        all_self += own;
        events.object(e.name, row);
    }

    const std::uint64_t n = t.events();
    const double gaps = n > 0 ? static_cast<double>(n - 1) : 0.0;
    const double kernel = less(t.kernelTicks(), cost.gap * gaps);
    const double probe_total =
        cost.inEvent * static_cast<double>(n) + cost.gap * gaps;
    const Tracer::SpanStats &pick = t.span(Span::pick);
    const Tracer::SpanStats &make = t.span(Span::makeJob);
    const Tracer::SpanStats &arrive = t.span(Span::nextArrival);
    std::uint64_t workload_in_events = t.spanTicksInEvents(Span::makeJob) +
                                       t.spanTicksInEvents(Span::nextArrival);
    std::uint64_t pick_outside =
        t.spanTicksInEvents(Span::pick) - t.pickTicksInSched();
    // Event self times, the kernel gaps, the decorator spans that ran
    // inside events and the probe's own cost partition the traced run;
    // picks inside job intake are already part of the dispatch self time.
    double covered = kernel + all_self + probe_total +
                     static_cast<double>(workload_in_events + pick_outside);

    auto at = [](Layer l) { return static_cast<int>(l); };
    Json j;
    j.count("probe_events", n)
        .num("trace.probe_ns_per_event",
             sec(cost.inEvent + cost.gap) * 1e9)
        .num("trace.probe_s", sec(probe_total))
        .num("sim.kernel_s", sec(kernel))
        .count("sim.wheel.events", counts[at(Layer::wheel)])
        .num("sim.wheel.tick_s", sec(self[at(Layer::wheel)]))
        .count("server.completion_events",
               counts[at(Layer::serverCompletion)])
        .num("server.completion_s", sec(self[at(Layer::serverCompletion)]))
        .count("server.governor_events", counts[at(Layer::serverGovernor)])
        .num("server.governor_s", sec(self[at(Layer::serverGovernor)]))
        .count("network.flow_events", counts[at(Layer::networkFlow)])
        .num("network.flow_event_s", sec(self[at(Layer::networkFlow)]))
        .count("network.governor_events",
               counts[at(Layer::networkGovernor)])
        .num("network.governor_s", sec(self[at(Layer::networkGovernor)]))
        .count("sched.events", counts[at(Layer::sched)])
        .num("sched.dispatch_s", sec(self[at(Layer::sched)]))
        .count("sched.picks", pick.count)
        .num("sched.pick_s", sec(pick.ticks))
        .num("sched.pick_outside_dispatch_s", sec(pick_outside))
        .count("workload.make_jobs", make.count)
        .num("workload.make_job_s", sec(make.ticks))
        .count("workload.arrivals", arrive.count)
        .num("workload.arrival_s", sec(arrive.ticks))
        .num("workload.in_events_s", sec(workload_in_events))
        .num("trace.coverage", run_s > 0.0 ? sec(covered) / run_s : 0.0);
    return j;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    bool quick = false;
    bool probe = false;
    bool wrapPolicy = false;
    bool wrapJobs = false;
    bool wrapArrivals = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload NAME --seed N "
                 "[--quick] [--traced | --probe] "
                 "[--wrap=policy,jobs,arrivals]\n"
                 "       perfbench_runner --info\n",
                 why.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            std::string v = value();
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("bad --seed '" + v + "'");
        } else if (arg == "--quick") {
            o.quick = true;
        } else if (arg == "--traced") {
            o.probe = o.wrapPolicy = o.wrapJobs = o.wrapArrivals = true;
        } else if (arg == "--probe") {
            o.probe = true;
        } else if (arg.rfind("--wrap=", 0) == 0) {
            std::stringstream list(arg.substr(7));
            for (std::string item; std::getline(list, item, ',');) {
                if (item == "policy")
                    o.wrapPolicy = true;
                else if (item == "jobs")
                    o.wrapJobs = true;
                else if (item == "arrivals")
                    o.wrapArrivals = true;
                else
                    usage("unknown decorator '" + item + "'");
            }
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    return o;
}

int
runOnce(const Options &o)
{
    std::unique_ptr<Workload> wl = makeWorkload(o.workload, o.seed, o.quick);
    if (!wl)
        usage("unknown workload '" + o.workload + "'");

    Tracer tracer;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Plant> plant = wl->build();
    Clock::time_point t_built = Clock::now();

    if (o.probe)
        plant->sim().setProbe(&tracer);
    if (o.wrapPolicy) {
        plant->scheduler().setPolicy(
            std::make_unique<TimedPolicy>(wl->policy(), tracer));
    }
    std::unique_ptr<JobGenerator> jobs = wl->jobs(*plant);
    std::unique_ptr<TimedGenerator> timed_jobs;
    JobGenerator *gen = jobs.get();
    if (o.wrapJobs) {
        timed_jobs = std::make_unique<TimedGenerator>(*jobs, tracer);
        gen = timed_jobs.get();
    }
    std::unique_ptr<ArrivalProcess> arrivals = wl->arrivals(*plant);
    if (o.wrapArrivals) {
        arrivals =
            std::make_unique<TimedArrival>(std::move(arrivals), tracer);
    }
    plant->pump(std::move(arrivals), *gen, wl->numJobs());
    Clock::time_point t_setup = Clock::now();

    plant->run();
    Clock::time_point t_run = Clock::now();
    plant->sim().setProbe(nullptr);
    double sim_s = toSeconds(plant->sim().curTick());

    DigestBuf digest_buf;
    std::ostream digest_os(&digest_buf);
    plant->dumpStats(digest_os);
    digest_os.flush();
    Clock::time_point t_end = Clock::now();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double run_s = secondsSince(t_setup, t_run);
    Joules energy = fleetEnergy(plant->servers()).total.total();
    if (Network *net = plant->network())
        energy += net->switchEnergy();

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(digest_buf.digest()));

    Json out;
    out.str("workload", o.workload)
        .count("seed", o.seed)
        .boolean("quick", o.quick)
        .boolean("probe", o.probe)
        .boolean("traced", o.probe && o.wrapPolicy && o.wrapJobs &&
                               o.wrapArrivals)
        .num("dc.build_s", secondsSince(t0, t_built))
        .num("setup_s", secondsSince(t0, t_setup))
        .num("run_s", run_s)
        .num("dc.stats_s", secondsSince(t_run, t_end))
        .num("total_s", secondsSince(t0, t_end))
        .num("sim_s", sim_s)
        .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .count("jobs_expected", wl->numJobs())
        .str("stats_digest", digest)
        .num("sim_job_p99_s", plant->scheduler().jobLatency().p99())
        .num("sim_energy_j", energy)
        .object("counters", counters(*plant))
        .object("build", buildInfo());
    if (o.probe) {
        Json events;
        std::string unknown;
        out.object("layers", layers(tracer, run_s, events, unknown))
            .object("events", events)
            .str("unknown_events", unknown);
    }
    std::cout << out.text() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--info") {
        std::cout << buildInfo().text() << std::endl;
        return 0;
    }
    Options o = parse(argc, argv);
    if (o.workload.empty())
        usage("--workload is required");
    setQuiet(true);
    try {
        return runOnce(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
        return 1;
    }
}

/**
 * @file
 * The `holdcsim` driver: a complete experiment from one INI file
 * (paper Figure 1 -- workload model, server profile and switch
 * profile in; power/energy, network delay, job latency and state
 * transition statistics out).
 *
 * Usage:
 *   holdcsim_cli [options] [experiment.ini]
 *
 * With no configuration file a built-in demo configuration runs.
 * Telemetry options override the [telemetry] section of the file:
 *
 *   --trace-out=FILE      write a timeline trace to FILE
 *   --trace-format=FMT    json (Perfetto, default) | csv
 *   --sample-out=FILE     write time-series samples to FILE
 *   --sample-period=DUR   sampling period (e.g. 100ms, 2s, 500us)
 *   --profile             profile the DES kernel (profile.* stats)
 *   --help                this text
 *
 * Example configuration:
 *
 *   [datacenter]
 *   servers = 20
 *   cores = 4
 *   seed = 7
 *   [server]
 *   controller = delay_timer
 *   tau_ms = 800
 *   [server_power]
 *   core_active_w = 6.5
 *   [scheduler]
 *   policy = least_loaded
 *   [network]
 *   fabric = fat_tree
 *   param = 4
 *   [workload]
 *   arrival = wikipedia
 *   utilization = 0.3
 *   duration_s = 60
 *   service = exponential
 *   service_mean_ms = 5
 *   job = chain
 *   stages = 2
 *   transfer_kb = 64
 *   [telemetry]
 *   trace_out = timeline.json
 *   sample_out = series.csv
 *   sample_period_ms = 100
 *   profile = true
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dc/datacenter.hh"
#include "exp/aggregate.hh"
#include "exp/campaign.hh"
#include "exp/sweep.hh"
#include "mc/explorer.hh"

using namespace holdcsim;

namespace {

const char *demo_config = R"(
[datacenter]
servers = 10
cores = 4
seed = 1
[server]
controller = delay_timer
tau_ms = 500
[scheduler]
policy = least_loaded
[workload]
arrival = poisson
utilization = 0.3
duration_s = 20
service = exponential
service_mean_ms = 5
job = single
)";

const char *usage = R"(usage: holdcsim_cli [options] [experiment.ini]

Runs a HolDCSim experiment described by an INI file (or a built-in
demo configuration) and dumps "component.stat value" lines to stdout.

options:
  --trace-out=FILE      write a timeline trace to FILE; load json
                        traces at https://ui.perfetto.dev
  --trace-format=FMT    trace backend: json (default) | csv
  --trace-categories=C  comma list of server,core,task,flow,network,
                        fault,audit,orch (default: all)
  --sample-out=FILE     write long-format time-series CSV to FILE
  --sample-period=DUR   sampling period: a number with an optional
                        ns/us/ms/s suffix (default unit ms)
  --fast-path-kb=K      transfers of at most K KiB complete
                        analytically without entering the max-min
                        flow solver (default 0 = off)
  --orch                run the container orchestration layer (as if
                        the config had an [orch] section): generated
                        jobs route through containers of a default
                        deployment; adds orch.* stats
  --placement=P         container placement policy: bin_pack
                        (default) | spread | affinity; implies --orch
  --autoscale           enable the orchestrator's threshold
                        autoscaler; implies --orch
  --profile             profile the DES kernel; adds profile.* stats
                        and a hot-events table to the dump
  --timer-mode=M        governor timer deadlines: events
                        (default; exact, 1-tick buckets) | wheel
                        (quantized up to --wheel-granularity-us;
                        adds profile.wheel.granularity_ticks under
                        --profile). Neither schedules an event
                        per timeout
  --wheel-granularity-us=N
                        wheel bucket width in us (default and
                        minimum 0.001 = 1 ns, exact firing)
  --jobs=N              run experiment cells on N worker threads
                        (0 = one per hardware thread; default 1)
  --replicas=R          run R replications per sweep point, each
                        with a deterministic per-replica seed
  --sweep=KEY=A,B,C     sweep config KEY over the listed values;
                        repeatable, crossed with [sweep] sections
  --csv=FILE            write raw long-format results to FILE
                        (point,label,replica,metric,value)
  --journal=FILE        append completed cells to FILE as JSONL
                        (crash-tolerant campaign checkpoint)
  --resume              replay the journal and skip cells it already
                        holds; requires --journal
  --watchdog-sec=S      cancel a replica attempt after S wall-clock
                        seconds (retried, then quarantined; 0 = off)
  --max-events=N        cancel a replica attempt after N simulated
                        events (0 = unlimited)
  --max-attempts=N      tries per cell before quarantine (default 3)
  --explore             systematically explore fault-injection
                        schedules: enumerate the [mc] strategy's
                        schedules, run each through the simulator
                        with every invariant audited, and shrink the
                        first failure to a minimal replayable
                        reproducer (see the [mc] config section)
  --explore-budget=N    cap the number of schedules explored
                        (overrides [mc] budget; implies --explore)
  --repro-out=FILE      where --explore writes the shrunk reproducer
                        (default mc-repro.fault)
  --replay-schedule=F   replay the fault schedule in F (a fault-trace
                        file, e.g. an --explore reproducer) with
                        audits fatal; exits 3 if the failure
                        reproduces, 0 if the run passes
  --fault-schedule-out=FILE
                        after a single run, write the realized fault
                        episodes as a replayable fault trace (turns
                        any stochastic run into a deterministic one)
  --help                show this text

Any of --replicas, --sweep, --csv or a [sweep] config section (or
--jobs != 1) switches to experiment mode: the (sweep point x replica)
grid runs on the campaign runner and per-point summaries (mean,
stddev, 95% CI across replicas) are printed instead of the raw stat
dump. Replica r of every point uses replicaSeed(datacenter.seed, r),
so results are independent of --jobs.

Experiment mode is crash tolerant: with --journal every finished cell
is checkpointed, SIGINT/SIGTERM stop the campaign with the journal
flushed, and a rerun with --resume re-executes only the missing cells
-- the aggregate CSV is byte-identical to an uninterrupted run. Cells
that keep failing (crash, watchdog, event budget) are quarantined
after --max-attempts tries and the campaign completes without them.
The [campaign] config section supplies defaults for these flags.
)";

/** Parse "100ms" / "2s" / "500us" / "250" (ms) into milliseconds. */
double
parseDurationMs(const std::string &text)
{
    char *end = nullptr;
    double value = std::strtod(text.c_str(), &end);
    std::string unit = end ? std::string(end) : std::string();
    if (end == text.c_str() || value <= 0.0) {
        std::fprintf(stderr, "bad duration '%s'\n", text.c_str());
        std::exit(2);
    }
    if (unit.empty() || unit == "ms")
        return value;
    if (unit == "ns")
        return value * 1e-6;
    if (unit == "us")
        return value * 1e-3;
    if (unit == "s")
        return value * 1e3;
    std::fprintf(stderr, "bad duration unit '%s'\n", unit.c_str());
    std::exit(2);
}

/** If @p arg is "--<name>=V", store V in @p out and return true. */
bool
valueFlag(const std::string &arg, const std::string &name,
          std::string &out)
{
    std::string prefix = "--" + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = arg.substr(prefix.size());
    if (out.empty()) {
        std::fprintf(stderr, "%s needs a value\n", prefix.c_str());
        std::exit(2);
    }
    return true;
}

/**
 * Like valueFlag, but also accepts the two-token "--name V" form,
 * consuming argv[i + 1] when it does.
 */
bool
valueFlag2(int argc, char **argv, int &i, const std::string &name,
           std::string &out)
{
    std::string arg = argv[i];
    if (valueFlag(arg, name, out))
        return true;
    if (arg != "--" + name)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "--%s needs a value\n", name.c_str());
        std::exit(2);
    }
    out = argv[++i];
    return true;
}

unsigned
parseUnsigned(const std::string &text, const char *what)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
        std::fprintf(stderr, "bad %s '%s'\n", what, text.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

/** Run one experiment cell: sweep point @p point under @p seed. */
MetricRow
runCell(const Config &base, const SweepSpec &spec, std::size_t point,
        std::uint64_t seed, const ReplicaLimits &limits)
{
    Config cfg = base;
    spec.apply(cfg, point);

    DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
    // Not via cfg.set: replica seeds use the full uint64 range,
    // which the signed config-int parser would reject.
    dc_cfg.seed = seed;
    DataCenter dc(dc_cfg);
    // Watchdog / signal cancellation and the event budget reach the
    // replica through the engine's cooperative limits.
    dc.sim().setInterruptFlag(limits.cancel);
    dc.sim().setEventBudget(limits.maxEvents);

    ConfiguredWorkload wl =
        makeWorkload(dc_cfg.workload, dc.config(), dc_cfg.seed);
    JobGenerator &jobs = *wl.jobs;
    dc.pump(std::move(wl.arrivals), jobs, wl.maxJobs, wl.until);
    if (wl.until != maxTick)
        dc.runUntil(wl.until);
    dc.run();
    dc.finishStats();

    MetricRow row;
    row.emplace_back("sim_seconds", toSeconds(dc.sim().curTick()));
    row.emplace_back("events",
                     static_cast<double>(dc.sim().eventsProcessed()));
    row.emplace_back(
        "jobs_completed",
        static_cast<double>(dc.scheduler().jobsCompleted()));
    const Percentile &lat = dc.scheduler().jobLatency();
    row.emplace_back("job_latency_mean_s", lat.mean());
    row.emplace_back("job_latency_p95_s", lat.p95());
    row.emplace_back("job_latency_p99_s", lat.p99());
    FleetEnergy fe = dc.energy();
    row.emplace_back("server_energy_j", fe.total.total());
    row.emplace_back("switch_energy_j", dc.switchEnergy());
    if (dc.faults())
        row.emplace_back("fleet_availability",
                         dc.faults()->fleetAvailability());
    return row;
}

/** Print per-point replica summaries as an aligned table. */
void
printSummaries(const ResultTable &table, const SweepSpec &spec)
{
    for (std::size_t p = 0; p < table.numPoints(); ++p) {
        std::string label = spec.point(p).label();
        std::printf("point %zu%s%s\n", p, label.empty() ? "" : ": ",
                    label.c_str());
        for (const std::string &metric : table.metrics()) {
            Summary s = table.summary(p, metric);
            if (s.n == 0)
                continue;
            std::printf("  %-22s %14.6g", metric.c_str(), s.mean);
            if (s.n > 1)
                std::printf("  +/- %-12.4g (n=%llu)", s.ci95,
                            static_cast<unsigned long long>(s.n));
            std::printf("\n");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string config_path;
    std::string value;
    // Telemetry flags land on the parsed Config as [telemetry] keys,
    // so the CLI and the INI section stay one mechanism.
    std::vector<std::pair<std::string, std::string>> overrides;
    unsigned n_jobs = 1;
    std::size_t n_replicas = 1;
    bool engine_mode = false;
    std::vector<std::string> sweep_flags;
    std::string csv_path;
    std::string journal_path;
    bool resume = false;
    bool have_watchdog = false, have_max_events = false;
    bool have_max_attempts = false;
    double watchdog_sec = 0.0;
    std::uint64_t max_events = 0;
    unsigned max_attempts = 0;
    bool explore = false;
    std::string repro_out = "mc-repro.fault";
    std::string replay_path;
    std::string schedule_out;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage, stdout);
            return 0;
        } else if (valueFlag2(argc, argv, i, "jobs", value)) {
            n_jobs = parseUnsigned(value, "--jobs");
            engine_mode |= n_jobs != 1;
        } else if (valueFlag2(argc, argv, i, "replicas", value)) {
            n_replicas = parseUnsigned(value, "--replicas");
            if (n_replicas == 0) {
                std::fprintf(stderr, "--replicas must be >= 1\n");
                return 2;
            }
            engine_mode = true;
        } else if (valueFlag2(argc, argv, i, "sweep", value)) {
            sweep_flags.push_back(value);
            engine_mode = true;
        } else if (valueFlag2(argc, argv, i, "csv", value)) {
            csv_path = value;
            engine_mode = true;
        } else if (valueFlag2(argc, argv, i, "journal", value)) {
            journal_path = value;
            engine_mode = true;
        } else if (arg == "--resume") {
            resume = true;
            engine_mode = true;
        } else if (valueFlag2(argc, argv, i, "watchdog-sec", value)) {
            char *end = nullptr;
            watchdog_sec = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                watchdog_sec < 0.0) {
                std::fprintf(stderr, "bad --watchdog-sec '%s'\n",
                             value.c_str());
                return 2;
            }
            have_watchdog = true;
        } else if (valueFlag2(argc, argv, i, "max-events", value)) {
            char *end = nullptr;
            max_events = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0') {
                std::fprintf(stderr, "bad --max-events '%s'\n",
                             value.c_str());
                return 2;
            }
            have_max_events = true;
        } else if (valueFlag2(argc, argv, i, "max-attempts", value)) {
            max_attempts = parseUnsigned(value, "--max-attempts");
            if (max_attempts == 0) {
                std::fprintf(stderr, "--max-attempts must be >= 1\n");
                return 2;
            }
            have_max_attempts = true;
        } else if (arg == "--explore") {
            explore = true;
        } else if (valueFlag2(argc, argv, i, "explore-budget",
                              value)) {
            overrides.emplace_back("mc.budget", value);
            explore = true;
        } else if (valueFlag2(argc, argv, i, "repro-out", value)) {
            repro_out = value;
        } else if (valueFlag2(argc, argv, i, "replay-schedule",
                              value)) {
            replay_path = value;
        } else if (valueFlag2(argc, argv, i, "fault-schedule-out",
                              value)) {
            schedule_out = value;
        } else if (valueFlag(arg, "trace-out", value)) {
            overrides.emplace_back("telemetry.trace_out", value);
        } else if (valueFlag(arg, "trace-format", value)) {
            overrides.emplace_back("telemetry.trace_format", value);
        } else if (valueFlag(arg, "trace-categories", value)) {
            overrides.emplace_back("telemetry.trace_categories", value);
        } else if (valueFlag(arg, "sample-out", value)) {
            overrides.emplace_back("telemetry.sample_out", value);
        } else if (valueFlag(arg, "sample-period", value)) {
            overrides.emplace_back(
                "telemetry.sample_period_ms",
                std::to_string(parseDurationMs(value)));
        } else if (valueFlag(arg, "fast-path-kb", value)) {
            overrides.emplace_back("network.fast_path_kb", value);
        } else if (arg == "--orch") {
            overrides.emplace_back("orch.enabled", "true");
        } else if (valueFlag(arg, "placement", value)) {
            overrides.emplace_back("orch.placement", value);
        } else if (arg == "--autoscale") {
            overrides.emplace_back("orch.autoscale", "true");
        } else if (arg == "--profile") {
            overrides.emplace_back("telemetry.profile", "true");
        } else if (valueFlag(arg, "timer-mode", value)) {
            overrides.emplace_back("datacenter.timer_mode", value);
        } else if (valueFlag(arg, "wheel-granularity-us", value)) {
            overrides.emplace_back("datacenter.wheel_granularity_us",
                                   value);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n%s",
                         arg.c_str(), usage);
            return 2;
        } else if (config_path.empty()) {
            config_path = arg;
        } else {
            std::fprintf(stderr, "more than one config file given\n");
            return 2;
        }
    }

    Config cfg = config_path.empty()
                     ? Config::parseString(demo_config)
                     : Config::load(config_path);
    for (const auto &[key, val] : overrides)
        cfg.set(key, val);

    SweepSpec spec = SweepSpec::fromConfig(cfg);
    std::vector<std::string> swept;
    for (const std::string &flag : sweep_flags)
        swept.push_back(spec.addFlag(flag));
    warnUnknownConfigKeys(cfg, swept);
    engine_mode |= spec.numKeys() > 0;

    if (resume && journal_path.empty()) {
        DataCenterConfig probe = DataCenterConfig::fromConfig(cfg);
        if (probe.campaign.journal.empty()) {
            std::fprintf(stderr,
                         "--resume needs --journal=FILE (or a "
                         "[campaign] journal key)\n");
            return 2;
        }
    }

    if (explore) {
        // Parallel oracle runs cannot share telemetry output files.
        cfg.set("telemetry.enabled", "false");
        DataCenterConfig probe = DataCenterConfig::fromConfig(cfg);

        mc::ExplorerOptions eopts;
        eopts.jobs = n_jobs;
        eopts.journalPath = journal_path.empty()
                                ? probe.campaign.journal
                                : journal_path;
        eopts.resume = resume;
        eopts.reproPath = repro_out;
        eopts.configPath =
            config_path.empty() ? "<demo>" : config_path;
        eopts.log = &std::cout;

        CampaignRunner::installSignalHandlers();
        mc::ExplorerReport rep = mc::exploreFaultSchedules(cfg, eopts);

        std::printf("mc.schedules %zu\n", rep.schedules);
        std::printf("mc.executed %zu\n", rep.executed);
        std::printf("mc.skipped %zu\n", rep.skipped);
        std::printf("mc.failures %zu\n", rep.failures);
        std::printf("mc.found %d\n", rep.found ? 1 : 0);
        if (rep.found) {
            std::printf("mc.minimal_faults %zu\n", rep.minimal.size());
            std::printf("mc.shrink_runs %zu\n", rep.shrinkRuns);
            std::printf("mc.outcome %s\n",
                        mc::toString(rep.outcome.kind));
            if (!rep.reproPath.empty())
                std::printf("mc.repro %s\n", rep.reproPath.c_str());
        }
        return 0;
    }

    if (!replay_path.empty()) {
        mc::FaultSchedule schedule{readFaultTrace(replay_path)};
        auto seed = static_cast<std::uint64_t>(
            cfg.getInt("datacenter.seed", 1));
        mc::OracleOutcome oc =
            mc::runScheduleOracle(cfg, schedule, seed);
        std::printf("mc.replay.outcome %s\n",
                    mc::toString(oc.kind));
        if (oc.failed()) {
            std::fprintf(stderr, "schedule reproduces (%s): %s\n",
                         mc::toString(oc.kind), oc.what.c_str());
            return 3;
        }
        return 0;
    }

    if (engine_mode) {
        // Replicas of one grid cannot share telemetry output files;
        // force telemetry off rather than corrupt them.
        DataCenterConfig probe = DataCenterConfig::fromConfig(cfg);
        if (probe.telemetry.enabled) {
            std::fprintf(stderr, "warning: telemetry is disabled in "
                                 "experiment mode\n");
            cfg.set("telemetry.enabled", "false");
        }

        CampaignOptions opts;
        opts.jobs = n_jobs;
        opts.replicas = n_replicas;
        opts.baseSeed = probe.seed;
        opts.journalPath = journal_path.empty()
                               ? probe.campaign.journal
                               : journal_path;
        opts.resume = resume;
        opts.watchdogSec = have_watchdog ? watchdog_sec
                                         : probe.campaign.watchdogSec;
        opts.maxEvents = have_max_events ? max_events
                                         : probe.campaign.maxEvents;
        opts.retry.maxAttempts = have_max_attempts
                                     ? max_attempts
                                     : probe.campaign.maxAttempts;
        opts.retry.backoffBase = probe.campaign.retryBackoffBase;
        opts.retry.backoffMax = probe.campaign.retryBackoffMax;

        // The journal key covers the config *text* (every key=value
        // incl. CLI sweeps), so a journal from a different campaign
        // is never replayed into this one.
        std::string canonical;
        for (const std::string &key : cfg.keys())
            canonical += key + "=" + cfg.getString(key, "") + "\n";
        for (const std::string &flag : sweep_flags)
            canonical += "sweep-flag=" + flag + "\n";

        CampaignRunner::installSignalHandlers();
        CampaignRunner runner(opts);
        CampaignResult res = runner.run(
            spec.numPoints(), canonical,
            [&cfg, &spec](std::size_t point, std::size_t,
                          std::uint64_t seed,
                          const ReplicaLimits &limits) {
                return runCell(cfg, spec, point, seed, limits);
            });

        ResultTable table;
        for (std::size_t p = 0; p < spec.numPoints(); ++p)
            table.setPointLabel(p, spec.point(p).label());
        tabulate(res.records, table);

        if (!csv_path.empty()) {
            std::ofstream csv(csv_path);
            if (!csv) {
                std::fprintf(stderr, "cannot write '%s'\n",
                             csv_path.c_str());
                return 1;
            }
            table.writeCsv(csv);
        }
        printSummaries(table, spec);

        std::printf("reliability.campaign.executed %zu\n",
                    res.executed);
        std::printf("reliability.campaign.skipped %zu\n", res.skipped);
        std::printf("reliability.campaign.retries %llu\n",
                    static_cast<unsigned long long>(res.retries));
        std::printf("reliability.campaign.watchdog_cancels %llu\n",
                    static_cast<unsigned long long>(
                        res.watchdogCancels));
        std::printf("reliability.campaign.quarantined %zu\n",
                    res.quarantined.size());
        std::printf("reliability.campaign.interrupted %d\n",
                    res.interrupted ? 1 : 0);
        for (const QuarantineRecord &q : res.quarantined) {
            std::fprintf(stderr,
                         "quarantined point %zu replica %zu: %s\n",
                         q.point, q.replica, q.error.c_str());
        }
        if (res.interrupted) {
            std::fprintf(stderr, "campaign interrupted; rerun with "
                                 "--resume to continue\n");
            return 130;
        }
        return 0;
    }

    DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
    DataCenter dc(dc_cfg);

    ConfiguredWorkload wl =
        makeWorkload(dc_cfg.workload, dc.config(), dc_cfg.seed);
    JobGenerator &jobs = *wl.jobs;
    dc.pump(std::move(wl.arrivals), jobs, wl.maxJobs, wl.until);

    auto writeScheduleOut = [&] {
        if (schedule_out.empty() || !dc.faults())
            return;
        std::ofstream out(schedule_out);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         schedule_out.c_str());
            std::exit(1);
        }
        dc.faults()->writeScheduleTrace(out);
    };

    try {
        if (wl.until != maxTick)
            dc.runUntil(wl.until);
        dc.run();
    } catch (const SimAbortError &e) {
        // The structured abort dump already went to stderr. The
        // realized schedule is still worth exporting: it replays
        // straight into this abort.
        writeScheduleOut();
        std::fprintf(stderr, "simulation aborted: %s\n", e.what());
        return 1;
    }

    writeScheduleOut();
    dc.dumpStats(std::cout);
    return 0;
}

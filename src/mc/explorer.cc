#include "explorer.hh"

#include <atomic>
#include <fstream>
#include <ostream>

#include "dc/datacenter.hh"
#include "shrink.hh"
#include "sim/logging.hh"
#include "strategy.hh"

namespace holdcsim::mc {

const char *
toString(OracleOutcome::Kind kind)
{
    switch (kind) {
      case OracleOutcome::Kind::pass:      return "pass";
      case OracleOutcome::Kind::violation: return "violation";
      case OracleOutcome::Kind::hang:      return "hang";
      case OracleOutcome::Kind::error:     return "error";
    }
    return "?";
}

std::string
failureSignature(const OracleOutcome &outcome)
{
    std::string sig = toString(outcome.kind);
    if (outcome.kind == OracleOutcome::Kind::violation) {
        // "invariant 'name' violated: <live counters>" -> keep the
        // name; "event 'x' scheduled in the past (10 < 20)" -> keep
        // the text before the tick values.
        std::string head = outcome.what;
        auto pos = head.find("' violated");
        if (pos == std::string::npos)
            pos = head.find('(');
        if (pos != std::string::npos)
            head.erase(pos);
        sig += "|" + head;
    }
    return sig;
}

OracleOutcome
runScheduleOracle(const Config &cfg, const FaultSchedule &schedule,
                  std::uint64_t seed, const ReplicaLimits &limits)
{
    try {
        DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
        dc_cfg.seed = seed;
        // The oracle configuration: the exact schedule under test,
        // every invariant armed and fatal.
        dc_cfg.fault.enabled = true;
        dc_cfg.fault.schedule = schedule.faults;
        dc_cfg.audit.enabled = true;
        dc_cfg.audit.fatal = true;

        DataCenter dc(dc_cfg);
        dc.sim().setInterruptFlag(limits.cancel);
        std::uint64_t budget = dc_cfg.mc.eventBudget;
        if (limits.maxEvents != 0 &&
            (budget == 0 || limits.maxEvents < budget))
            budget = limits.maxEvents;
        dc.sim().setEventBudget(budget);

        ConfiguredWorkload wl =
            makeWorkload(dc_cfg.workload, dc.config(), seed);
        JobGenerator &jobs = *wl.jobs;
        dc.pump(std::move(wl.arrivals), jobs, wl.maxJobs, wl.until);
        if (wl.until != maxTick)
            dc.runUntil(wl.until);
        dc.run();
        // Closing audit: catch violations whose periodic window the
        // drained queue never reached.
        if (dc.auditor())
            dc.auditor()->auditNow();
        dc.finishStats();
        return {};
    } catch (const SimAbortError &e) {
        return {OracleOutcome::Kind::violation, e.what()};
    } catch (const SimInterrupted &e) {
        // A raised cancel flag is the campaign (watchdog, SIGINT)
        // talking, not the plant: propagate so the runner records a
        // cancelled attempt. Budget trips are findings.
        if (limits.cancel &&
            limits.cancel->load(std::memory_order_relaxed))
            throw;
        return {OracleOutcome::Kind::hang, e.what()};
    } catch (const FatalError &e) {
        return {OracleOutcome::Kind::error, e.what()};
    }
}

namespace {

/** Canonical campaign text: config + schedule identities. */
std::string
explorationKey(const Config &cfg, const std::string &strategy,
               const std::vector<FaultSchedule> &schedules)
{
    std::string text;
    for (const std::string &key : cfg.keys())
        text += key + "=" + cfg.getString(key, "") + "\n";
    text += "mc-strategy=" + strategy + "\n";
    for (const FaultSchedule &s : schedules)
        text += "mc-schedule=" + std::to_string(s.hash()) + "\n";
    return text;
}

} // namespace

ExplorerReport
exploreFaultSchedules(const Config &cfg, const ExplorerOptions &opts)
{
    DataCenterConfig dc_cfg = DataCenterConfig::fromConfig(cfg);
    const auto &mcc = dc_cfg.mc;

    StrategySpace space;
    space.horizon = mcc.horizon;
    space.repair = mcc.repair;
    space.maxFaults = mcc.maxFaults;
    space.budget = mcc.budget;
    space.seed = dc_cfg.seed;
    space.boundaryTimes = boundaryTimes(dc_cfg, mcc.horizon);
    std::size_t numSwitches = 0, numLinks = 0;
    if (dc_cfg.fault.faultSwitches || dc_cfg.fault.faultLinks) {
        // Fabric component counts only exist on a materialized plant;
        // build one probe instance to read them off.
        DataCenterConfig probeCfg = dc_cfg;
        probeCfg.fault.enabled = false;
        DataCenter probe(probeCfg);
        if (probe.network()) {
            numSwitches = probe.network()->numSwitches();
            numLinks = probe.network()->topology().numLinks();
        }
    }
    space.targets = faultTargets(dc_cfg, numSwitches, numLinks);

    std::vector<FaultSchedule> schedules =
        generateSchedules(mcc.strategy, space);

    ExplorerReport report;
    report.schedules = schedules.size();
    if (opts.log) {
        *opts.log << "mc: strategy " << mcc.strategy << ", "
                  << schedules.size() << " schedules over "
                  << space.targets.size() << " targets x "
                  << space.boundaryTimes.size() << " instants, horizon "
                  << toSeconds(mcc.horizon) << " s\n";
    }
    if (schedules.empty())
        return report;

    CampaignOptions copts;
    copts.jobs = opts.jobs;
    copts.replicas = 1;
    copts.baseSeed = dc_cfg.seed;
    copts.journalPath = opts.journalPath;
    copts.resume = opts.resume;
    copts.watchdogSec = dc_cfg.campaign.watchdogSec;
    // Deterministic oracles never benefit from retries: a failure
    // is a finding, not flakiness.
    copts.retry.maxAttempts = 1;

    CampaignRunner runner(copts);
    CampaignResult res = runner.run(
        schedules.size(), explorationKey(cfg, mcc.strategy, schedules),
        [&](std::size_t point, std::size_t, std::uint64_t seed,
            const ReplicaLimits &limits) {
            OracleOutcome oc = runScheduleOracle(cfg, schedules[point],
                                                seed, limits);
            MetricRow row;
            row.emplace_back("mc_failed", oc.failed() ? 1.0 : 0.0);
            row.emplace_back(
                "mc_kind", static_cast<double>(
                               static_cast<int>(oc.kind)));
            row.emplace_back(
                "mc_faults",
                static_cast<double>(schedules[point].size()));
            return row;
        });

    report.executed = res.executed;
    report.skipped = res.skipped;

    // First failing schedule in grid order -- independent of worker
    // count and of which cells the journal already had.
    std::size_t firstFail = schedules.size();
    for (const ReplicaRecord &r : res.records) {
        for (const auto &[name, value] : r.metrics) {
            if (name == "mc_failed" && value != 0.0) {
                ++report.failures;
                firstFail = std::min(firstFail, r.point);
                break;
            }
        }
    }
    if (firstFail == schedules.size())
        return report;

    report.found = true;
    report.failing = schedules[firstFail];
    std::uint64_t seed = replicaSeed(dc_cfg.seed, 0);

    // Re-run the finding to capture its message, then shrink against
    // the same failure signature.
    OracleOutcome original =
        runScheduleOracle(cfg, report.failing, seed);
    if (!original.failed()) {
        // Journal/model mismatch (e.g. resumed against an edited
        // config that no longer fails): report what we know.
        report.outcome = original;
        report.minimal = report.failing;
        return report;
    }
    std::string signature = failureSignature(original);
    if (opts.log) {
        *opts.log << "mc: schedule " << firstFail << " fails ("
                  << toString(original.kind) << "): " << original.what
                  << "\nmc: shrinking " << report.failing.size()
                  << "-episode schedule...\n";
    }
    ShrinkResult shrunk = shrinkSchedule(
        report.failing, [&](const FaultSchedule &cand) {
            OracleOutcome oc = runScheduleOracle(cfg, cand, seed);
            return oc.failed() && failureSignature(oc) == signature;
        });
    report.minimal = shrunk.minimal;
    report.shrinkRuns = shrunk.oracleRuns;
    report.outcome = runScheduleOracle(cfg, report.minimal, seed);

    report.replayCommand = "holdcsim --config " + opts.configPath +
                           " --replay-schedule " +
                           (opts.reproPath.empty() ? "<repro.fault>"
                                                   : opts.reproPath);
    if (!opts.reproPath.empty()) {
        std::ofstream out(opts.reproPath);
        if (!out)
            fatal("cannot write reproducer '", opts.reproPath, "'");
        writeReproFile(
            out, report.minimal,
            {"holdcsim mc minimal reproducer",
             "verdict: " + std::string(toString(report.outcome.kind)) +
                 ": " + report.outcome.what,
             "schedule hash: " + std::to_string(report.minimal.hash()),
             "shrunk from " + std::to_string(report.failing.size()) +
                 " episodes in " + std::to_string(report.shrinkRuns) +
                 " oracle runs",
             "replay: " + report.replayCommand});
        report.reproPath = opts.reproPath;
    }
    if (opts.log) {
        *opts.log << "mc: minimal reproducer: "
                  << report.minimal.size() << " episode(s), "
                  << report.shrinkRuns << " shrink runs\n"
                  << report.minimal.canonicalText()
                  << "mc: replay: " << report.replayCommand << "\n";
    }
    return report;
}

} // namespace holdcsim::mc

#include "fault_manager.hh"

#include <algorithm>
#include <ostream>

#include "network/network.hh"
#include "sched/global_scheduler.hh"
#include "server/server.hh"
#include "sim/logging.hh"

namespace holdcsim {

static_assert(1 < StateResidency::maxStates,
              "component residency books hold up (0) and down (1)");

FaultManager::TargetState::TargetState(FaultManager &mgr,
                                       const FaultTarget &t)
    : event([&mgr, this] { mgr.onEvent(*this); },
            "fault." + toString(t))
{
    stats.target = t;
    // Background: a fault schedule reaching past the workload's end
    // must not keep the simulation running.
    event.setBackground(true);
}

FaultManager::FaultManager(Simulator &sim,
                           std::unique_ptr<FaultModel> model,
                           std::span<Server *const> servers,
                           Network *net,
                           GlobalScheduler *sched,
                           const FaultManagerConfig &config)
    : _sim(sim), _model(std::move(model)), _servers(servers),
      _net(net), _sched(sched)
{
    if (!_model)
        fatal("fault manager needs a fault model");
    if ((config.faultSwitches || config.faultLinecards ||
         config.faultLinks) &&
        !_net) {
        fatal("network faults requested but no network attached");
    }

    std::vector<FaultTarget> targets;
    if (config.faultServers) {
        for (std::size_t i = 0; i < _servers.size(); ++i)
            targets.push_back({FaultKind::server, i, 0});
    }
    if (config.faultSwitches) {
        for (std::size_t i = 0; i < _net->numSwitches(); ++i)
            targets.push_back({FaultKind::swtch, i, 0});
    }
    if (config.faultLinecards) {
        for (std::size_t i = 0; i < _net->numSwitches(); ++i) {
            std::size_t cards = _net->switchAt(i).numLineCards();
            for (unsigned lc = 0; lc < cards; ++lc)
                targets.push_back({FaultKind::linecard, i, lc});
        }
    }
    if (config.faultLinks) {
        for (std::size_t l = 0; l < _net->topology().numLinks(); ++l)
            targets.push_back({FaultKind::link, l, 0});
    }

    Tick now = _sim.curTick();
    for (const FaultTarget &t : targets) {
        auto ts = std::make_unique<TargetState>(*this, t);
        ts->stats.residency.start(now);
        _targets.push_back(std::move(ts));
        armNext(*_targets.back(), now);
    }

    _sim.addAbortContext("fault_schedule", [this](std::ostream &os) {
        dumpAbortContext(os);
    });
}

FaultManager::~FaultManager()
{
    _sim.removeAbortContext("fault_schedule");
    for (auto &ts : _targets) {
        if (ts->event.scheduled())
            _sim.deschedule(ts->event);
    }
}

void
FaultManager::armNext(TargetState &ts, Tick from)
{
    auto rec = _model->nextFault(ts.stats.target, from);
    if (!rec)
        return; // this component never fails (again)
    if (rec->upAt <= rec->downAt)
        fatal("fault model produced an empty episode for ",
              toString(ts.stats.target));
    ts.pending = *rec;
    // An episode may start at the very tick the last one ended
    // (back-to-back trace lines): it fires then, after the repair.
    _sim.schedule(ts.event, std::max(ts.pending.downAt, from));
}

void
FaultManager::onEvent(TargetState &ts)
{
    if (!ts.stats.down) {
        applyDown(ts);
        ts.stats.down = true;
        ++ts.stats.faults;
        ++_faultsInjected;
        ++_currentlyDown;
        ts.stats.residency.accrue(0, _sim.curTick());
        ts.openEpisode = _episodeLog.size();
        _episodeLog.push_back(
            {ts.stats.target, {_sim.curTick(), maxTick}});
        traceEdge(ts, true);
        Tick up = ts.pending.upAt;
        Tick now = _sim.curTick();
        _sim.schedule(ts.event, up > now ? up : now + 1);
        return;
    }
    applyUp(ts);
    ts.stats.down = false;
    --_currentlyDown;
    Tick now = _sim.curTick();
    ts.stats.residency.accrue(1, now);
    if (ts.openEpisode != static_cast<std::size_t>(-1)) {
        _episodeLog.at(ts.openEpisode).record.upAt = now;
        ts.openEpisode = static_cast<std::size_t>(-1);
    }
    traceEdge(ts, false);
    armNext(ts, now);
}

void
FaultManager::writeScheduleTrace(std::ostream &os) const
{
    Tick now = _sim.curTick();
    // Still-down components get a synthetic repair just past the
    // clock: the replay injects the same down edge and the repair
    // lands beyond the horizon that mattered.
    std::vector<ScheduledFault> faults = _episodeLog;
    for (ScheduledFault &fault : faults) {
        if (fault.record.upAt == maxTick)
            fault.record.upAt = now + 1;
    }
    writeFaultTrace(os, faults,
                    {"realized fault schedule (" +
                     std::to_string(faults.size()) +
                     " episodes, exported at tick " + std::to_string(now) +
                     ")"});
}

void
FaultManager::dumpAbortContext(std::ostream &os) const
{
    os << "  faults_injected: " << _faultsInjected << '\n';
    os << "  currently_down:";
    if (_currentlyDown == 0) {
        os << " none";
    } else {
        for (const auto &ts : _targets) {
            if (ts->stats.down)
                os << ' ' << toString(ts->stats.target);
        }
    }
    os << '\n';
    os << "  episodes (down_tick up_tick target):\n";
    for (const ScheduledFault &ep : _episodeLog) {
        os << "    " << ep.record.downAt << ' ';
        if (ep.record.upAt == maxTick)
            os << "pending";
        else
            os << ep.record.upAt;
        os << ' ' << toString(ep.target) << '\n';
    }
}

void
FaultManager::traceEdge(TargetState &ts, bool down)
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::fault))
        return;
    if (ts.traceTrack == noTraceTrack)
        ts.traceTrack = tr->track("faults", toString(ts.stats.target));
    tr->transition(ts.traceTrack, TraceCategory::fault,
                   down ? "down" : "up", _sim.curTick());
}

void
FaultManager::applyDown(TargetState &ts)
{
    const FaultTarget &t = ts.stats.target;
    switch (t.kind) {
      case FaultKind::server: {
        std::vector<TaskRef> killed = _servers[t.index]->fail();
        if (_sched)
            _sched->onServerFailed(t.index, killed);
        if (_serverEvent)
            _serverEvent(t.index, true);
        break;
      }
      case FaultKind::swtch:
        _net->failSwitch(t.index);
        break;
      case FaultKind::linecard:
        _net->failLinecard(t.index, t.sub);
        break;
      case FaultKind::link:
        _net->failLink(static_cast<LinkId>(t.index));
        break;
    }
}

void
FaultManager::applyUp(TargetState &ts)
{
    const FaultTarget &t = ts.stats.target;
    switch (t.kind) {
      case FaultKind::server:
        _servers[t.index]->repair();
        if (_sched)
            _sched->onServerRepaired(t.index);
        if (_serverEvent)
            _serverEvent(t.index, false);
        break;
      case FaultKind::swtch:
        _net->repairSwitch(t.index);
        break;
      case FaultKind::linecard:
        _net->repairLinecard(t.index, t.sub);
        break;
      case FaultKind::link:
        _net->repairLink(static_cast<LinkId>(t.index));
        break;
    }
}

double
FaultManager::availability(std::size_t i) const
{
    const ComponentStats &cs = _targets.at(i)->stats;
    if (cs.residency.totalTime() == 0)
        return 1.0;
    return cs.residency.fraction(0);
}

double
FaultManager::fleetAvailability() const
{
    if (_targets.empty())
        return 1.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < _targets.size(); ++i)
        sum += availability(i);
    return sum / static_cast<double>(_targets.size());
}

Tick
FaultManager::totalDowntime() const
{
    Tick total = 0;
    for (const auto &ts : _targets)
        total += ts->stats.residency.residency(1);
    return total;
}

void
FaultManager::finishStats()
{
    Tick now = _sim.curTick();
    for (auto &ts : _targets)
        ts->stats.residency.accrue(ts->stats.down ? 1 : 0, now);
}

void
FaultManager::resetStats()
{
    Tick now = _sim.curTick();
    _episodeLog.clear();
    for (auto &ts : _targets) {
        ts->stats.faults = 0;
        ts->stats.residency.start(now);
        // A component down across the reset re-opens its episode at
        // the reset tick: the exported schedule stays replayable from
        // the measured interval's start.
        if (ts->stats.down) {
            ts->openEpisode = _episodeLog.size();
            _episodeLog.push_back({ts->stats.target, {now, maxTick}});
        } else {
            ts->openEpisode = static_cast<std::size_t>(-1);
        }
    }
    _faultsInjected = 0;
}

} // namespace holdcsim

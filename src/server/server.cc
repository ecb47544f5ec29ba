#include "server.hh"

#include <algorithm>
#include <optional>

#include "sim/logging.hh"

namespace holdcsim {

static_assert(static_cast<int>(ServerState::failed) <
                  StateResidency::maxStates,
              "every observable server state needs a residency book");

Server::Server(Simulator &sim, const ServerConfig &config,
               const ServerPowerProfile &profile)
    : Server(sim, config, std::make_shared<const ServerPowerProfile>(profile))
{}

Server::Server(Simulator &sim, const ServerConfig &config,
               std::shared_ptr<const ServerPowerProfile> profile,
               const CorePlacement *placement)
    : _corePool(sim, *this, std::move(profile), config.nCores,
                config.coreFreqGhz, placement),
      _local(config.queueMode, config.corePick, config.nCores),
      _taskTypes(config.taskTypes.begin(), config.taskTypes.end()),
      _lastAccrue(sim.curTick()), _wakeDoneEvent(*this), _id(config.id),
      _allowPkgC6(config.allowPkgC6)
{
    // Labels feed the timeline tracer only; skip the 2 * nCores heap
    // strings per server when no tracer is installed (100k-server
    // plants). DataCenter installs its tracer before the plant.
    if (sim.tracer()) {
        for (unsigned i = 0; i < config.nCores; ++i) {
            core(i).setTraceLabel("server" + std::to_string(id()) +
                                  ".core" + std::to_string(i));
        }
    }
    const Tick now = sim.curTick();
    recomputePkgState(now);
    _residency.enter(static_cast<int>(stateNow()), now);
    traceState(now);
}

Server::~Server()
{
    if (_wakeDoneEvent.scheduled())
        simulator().deschedule(_wakeDoneEvent);
}

void
Server::wakeDone()
{
    settle();
    const Tick now = simulator().curTick();
    accrueTo(now);
    _waking = false;
    _sstate = SState::s0;
    updateResidency(now);
    dispatch();
}

Core
Server::core(unsigned i)
{
    if (i >= numCores())
        HOLDCSIM_PANIC("server ", id(), " has no core ", i);
    return Core(_corePool, i);
}

void
Server::setDelayTimer(Tick tau, SState target)
{
    if (target == SState::s0)
        fatal("delay timer target must be a sleep state");
    settle();
    _tau = tau;
    _sleepTarget = target;
    if (idleNow() && tau != maxTick)
        _corePool.armHostTimer(tau); // restarts any pending countdown
    else
        _corePool.cancelHostTimer();
}

void
Server::becameIdle()
{
    if (_tau != maxTick)
        _corePool.armHostTimer(_tau);
}

bool
Server::servesType(int type) const
{
    return _taskTypes.empty() ||
           std::binary_search(_taskTypes.begin(), _taskTypes.end(), type);
}

void
Server::submit(const TaskRef &task)
{
    settle();
    if (_failed) {
        fatal("server ", id(), " given a task while failed "
              "(scheduler must skip crashed servers)");
    }
    if (!servesType(task.type)) {
        fatal("server ", id(), " does not serve task type ", task.type,
              " (scheduler bug or misconfiguration)");
    }
    _local.enqueue(task);
    _corePool.cancelHostTimer(); // busy again: no countdown
    if (isAsleep()) {
        wakeUp();
        return;
    }
    if (!_waking)
        dispatch();
}

bool
Server::sleep(SState target)
{
    settle();
    return sleepAt(target, simulator().curTick());
}

bool
Server::sleepAt(SState target, Tick at)
{
    if (target == SState::s0)
        fatal("sleep target must be S3 or S5");
    if (!idleNow())
        return false;
    accrueTo(at);
    _corePool.sleepAll(at);
    _sstate = target;
    ++_sleepTransitions;
    updateResidency(at);
    return true;
}

void
Server::wakeUp()
{
    settle();
    if (_failed || _sstate == SState::s0 || _waking)
        return;
    const Tick now = simulator().curTick();
    accrueTo(now);
    _waking = true;
    ++_wakeTransitions;
    updateResidency(now);
    // Entry latency is folded into the wake path: a server roused
    // during/after suspend pays wake plus any residual entry time.
    simulator().scheduleAfter(_wakeDoneEvent,
                       profile().s3WakeLatency +
                           profile().s3EntryLatency);
}

std::vector<TaskRef>
Server::fail()
{
    settle();
    if (_failed)
        HOLDCSIM_PANIC("server ", id(), " failed twice without repair");
    const Tick now = simulator().curTick();
    accrueTo(now); // integrate pre-crash power before the rates drop to 0
    _failed = true;
    ++_failures;
    if (_wakeDoneEvent.scheduled())
        simulator().deschedule(_wakeDoneEvent);
    _waking = false;
    std::vector<TaskRef> killed;
    for (unsigned c = 0; c < numCores(); ++c) {
        if (!core(c).busy())
            continue;
        Core::AbortResult aborted = core(c).abortTask();
        _wastedJoules += aborted.wasted;
        ++_tasksKilled;
        killed.push_back(aborted.task);
    }
    _running = 0;
    _local.drainAll(killed);
    // Park the cores so no idle ladder runs while we are down; power
    // is forced to zero by componentPower() regardless.
    _corePool.sleepAll(now);
    updateResidency(now);
    return killed;
}

void
Server::repair()
{
    settle();
    if (!_failed)
        HOLDCSIM_PANIC("server ", id(), " repaired while healthy");
    const Tick now = simulator().curTick();
    accrueTo(now);
    _failed = false;
    _sstate = SState::s0;
    _waking = false;
    recomputePkgState(now);
    updateResidency(now);
    // The machine is back and idle: its delay timer starts over.
    becameIdle();
}

bool
Server::cancelTask(JobId job, TaskId task)
{
    settle();
    if (_local.remove(job, task)) {
        updateResidency(simulator().curTick());
        if (load() == 0)
            becameIdle();
        return true;
    }
    for (unsigned c = 0; c < numCores(); ++c) {
        Core core(_corePool, c);
        if (!core.busy() || core.currentTask().job != job ||
            core.currentTask().task != task) {
            continue;
        }
        Core::AbortResult aborted = core.abortTask();
        _wastedJoules += aborted.wasted;
        ++_tasksKilled;
        if (_running == 0)
            HOLDCSIM_PANIC("server ", id(), " cancelled an unaccounted task");
        --_running;
        updateResidency(simulator().curTick());
        dispatch(); // the freed core can pull buffered work
        if (load() == 0)
            becameIdle();
        return true;
    }
    return false;
}

void
Server::setAllowPkgC6(bool allow)
{
    settle();
    if (_allowPkgC6 == allow)
        return;
    _allowPkgC6 = allow;
    const Tick now = simulator().curTick();
    recomputePkgState(now);
    updateResidency(now);
}

ServerState
Server::stateNow() const
{
    if (_failed)
        return ServerState::failed;
    if (_waking)
        return ServerState::wakingUp;
    if (_sstate != SState::s0)
        return ServerState::sysSleep;
    if (_running > 0)
        return ServerState::active;
    if (_pkgState == PkgCState::pc6)
        return ServerState::pkgC6;
    return ServerState::idle;
}

Server::ComponentPower
Server::componentPower() const
{
    if (_failed)
        return {0.0, 0.0, 0.0};
    if (_waking) {
        // Wake-up burns near-idle-active power without doing work:
        // every component is powered but no instructions retire.
        return {profile().pkgPc0 +
                    numCores() * profile().coreC0Idle,
                profile().dramActive, profile().platformS0};
    }
    switch (_sstate) {
      case SState::s5:
        return {0.0, 0.0, profile().platformS5};
      case SState::s3:
        return {0.0, profile().dramSelfRefresh, profile().platformS3};
      case SState::s0:
        break;
    }
    Watts cpu = 0.0;
    bool any_busy = false;
    for (unsigned c = 0; c < numCores(); ++c) {
        cpu += _corePool.power(c);
        any_busy = any_busy || _corePool.busy(c);
    }
    switch (_pkgState) {
      case PkgCState::pc0:
        cpu += profile().pkgPc0;
        break;
      case PkgCState::pc2:
        cpu += profile().pkgPc2;
        break;
      case PkgCState::pc6:
        cpu += profile().pkgPc6;
        break;
    }
    Watts dram = any_busy ? profile().dramActive
                          : (_pkgState == PkgCState::pc6
                                 ? profile().dramSelfRefresh
                                 : profile().dramIdle);
    return {cpu, dram, profile().platformS0};
}

Watts
Server::power() const
{
    settle();
    ComponentPower p = componentPower();
    return p.cpu + p.dram + p.platform;
}

void
Server::accrue()
{
    settle();
    accrueTo(simulator().curTick());
}

void
Server::accrueTo(Tick now)
{
    if (now == _lastAccrue)
        return;
    if (now < _lastAccrue)
        HOLDCSIM_PANIC("server ", id(), " accrue() with time reversed");
    Tick dt = now - _lastAccrue;
    ComponentPower p = componentPower();
    _energy.cpu += energyOver(p.cpu, dt);
    _energy.dram += energyOver(p.dram, dt);
    _energy.platform += energyOver(p.platform, dt);
    _lastAccrue = now;
}

void
Server::finishStats()
{
    settle();
    Tick now = simulator().curTick();
    accrueTo(now);
    _residency.finish(now);
    for (unsigned c = 0; c < numCores(); ++c)
        core(c).finishStats(now);
}

void
Server::resetStats()
{
    settle();
    Tick now = simulator().curTick();
    accrueTo(now);
    _energy = EnergyBreakdown{};
    _tasksCompleted = 0;
    _wakeTransitions = 0;
    _sleepTransitions = 0;
    _failures = 0;
    _tasksKilled = 0;
    _wastedJoules = 0.0;
    _residency.reset();
    _residency.enter(static_cast<int>(stateNow()), now);
    for (unsigned c = 0; c < numCores(); ++c)
        core(c).resetStats(now);
}

void
Server::dispatch()
{
    if (_failed || _sstate != SState::s0 || _waking || _inDispatch)
        return;
    _inDispatch = true;
    // Package C6 exit is paid once by the first task that rouses the
    // package; capture the state before any core wakes.
    Tick pkg_exit =
        _pkgState == PkgCState::pc6 ? profile().pc6ExitLatency : 0;
    if (_local.mode() == LocalQueueMode::unified) {
        while (_local.pending() > 0) {
            // Prefer the fastest free core (heterogeneous-aware).
            std::optional<Core> best;
            for (unsigned c = 0; c < numCores(); ++c) {
                Core core(_corePool, c);
                if (core.busy())
                    continue;
                if (!best ||
                    core.frequencyGhz() > best->frequencyGhz()) {
                    best = core;
                }
            }
            if (!best)
                break;
            auto task = _local.dequeueFor(best->id());
            ++_running;
            best->startTask(*task, pkg_exit);
            pkg_exit = 0;
        }
    } else {
        for (unsigned c = 0; c < numCores(); ++c) {
            Core core(_corePool, c);
            if (core.busy() || !_local.hasWorkFor(core.id()))
                continue;
            auto task = _local.dequeueFor(core.id());
            ++_running;
            core.startTask(*task, pkg_exit);
            pkg_exit = 0;
        }
    }
    _inDispatch = false;
    updateResidency(simulator().curTick());
}

void
Server::taskFinished(const TaskRef &task)
{
    if (_running == 0)
        HOLDCSIM_PANIC("server ", id(), " finished a task it never ran");
    --_running;
    ++_tasksCompleted;
    updateResidency(simulator().curTick());
    if (_taskSink)
        _taskSink->taskDone(*this, task); // may submit follow-up work
    dispatch();
    if (load() == 0)
        becameIdle();
}

void
Server::recomputePkgState(Tick at)
{
    if (_sstate != SState::s0)
        return; // package state is moot while suspended
    bool any_c0 = false;
    bool all_c6 = true;
    for (unsigned c = 0; c < numCores(); ++c) {
        CoreCState s = _corePool.cstate(c);
        any_c0 = any_c0 || s == CoreCState::c0Active ||
                 s == CoreCState::c0Idle;
        all_c6 = all_c6 && s == CoreCState::c6;
    }
    PkgCState next = PkgCState::pc2;
    if (any_c0)
        next = PkgCState::pc0;
    else if (all_c6 && _allowPkgC6)
        next = PkgCState::pc6;
    if (next != _pkgState) {
        accrueTo(at);
        _pkgState = next;
    }
}

void
Server::updateResidency(Tick at)
{
    auto s = static_cast<int>(stateNow());
    if (s != _residency.currentState()) {
        _residency.enter(s, at);
        traceState(at);
    }
}

void
Server::traceState(Tick at)
{
    TraceManager *tr = simulator().tracer();
    if (!tr || !tr->wants(TraceCategory::server))
        return;
    if (_traceTrack == noTraceTrack) {
        _traceTrack =
            tr->track("servers", "server" + std::to_string(id()));
    }
    tr->transition(_traceTrack, TraceCategory::server,
                   toString(stateNow()), at);
}

} // namespace holdcsim

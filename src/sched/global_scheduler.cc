#include "global_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "network/network.hh"
#include "sim/logging.hh"

namespace holdcsim {

GlobalScheduler::GlobalScheduler(Simulator &sim,
                                 std::vector<Server *> servers,
                                 std::unique_ptr<DispatchPolicy> policy,
                                 GlobalSchedulerConfig config,
                                 Network *net)
    : GlobalScheduler(sim, servers.size(), std::move(policy), config, net)
{
    for (std::size_t i = 0; i < servers.size(); ++i)
        adopt(i, *servers[i]);
}

GlobalScheduler::GlobalScheduler(Simulator &sim, std::size_t n,
                                 std::unique_ptr<DispatchPolicy> policy,
                                 GlobalSchedulerConfig config,
                                 Network *net)
    : _sim(sim), _servers(n), _policy(std::move(policy)), _config(config),
      _net(net), _dispatch(n), _numEligible(n), _oneShots(sim, "sched.retry")
{
    if (n == 0)
        fatal("global scheduler needs at least one server");
    if (!_policy)
        fatal("global scheduler needs a dispatch policy");
    if (_net && _net->topology().numServers() < n)
        fatal("network topology has fewer servers than the fleet");
}

void
GlobalScheduler::adopt(std::size_t i, Server &server)
{
    if (server.id() != i)
        fatal("server ", i, " must be configured with id ", i);
    server.setTaskSink(this);
    _servers[i] = &server;
    // Build workers write distinct bytes, and a default server none.
    if (server.failed() || server.typed()) {
        _dispatch[i] = static_cast<std::uint8_t>(
            (server.failed() ? failedBit : 0) |
            (server.typed() ? typedBit : 0));
    }
}

void
GlobalScheduler::setPolicy(std::unique_ptr<DispatchPolicy> policy)
{
    if (!policy)
        fatal("cannot install a null dispatch policy");
    _policy = std::move(policy);
}

void
GlobalScheduler::setRetryPolicy(const RetryPolicy &policy,
                                Rng *jitter_rng)
{
    if (policy.maxAttempts == 0)
        fatal("retry policy needs at least one attempt");
    _retry = policy;
    _retryJitter = jitter_rng;
    _retryEnabled = true;
}

void
GlobalScheduler::setTaskRouter(TaskRouteFn router, TaskClosedFn closed)
{
    _router = std::move(router);
    _taskClosed = std::move(closed);
}

void
GlobalScheduler::resumeTask(JobId job, TaskId t)
{
    RuntimeJob *rt = findJob(job);
    if (!rt)
        return; // job finished or abandoned while deferred
    if (t >= rt->tasks.size() || rt->tasks[t].state != TaskState::deferred)
        return;
    --_deferredCount;
    taskReady(*rt, t);
}

void
GlobalScheduler::setEligible(std::size_t idx, bool eligible)
{
    std::uint8_t &state = _dispatch.at(idx);
    if (!(state & ineligibleBit) == eligible)
        return;
    state ^= ineligibleBit;
    _numEligible = eligible ? _numEligible + 1 : _numEligible - 1;
    invalidateCandidateCache();
}

double
GlobalScheduler::loadPerEligibleServer() const
{
    std::size_t eligible = numEligible();
    if (eligible == 0)
        return 0.0;
    std::size_t total = _globalQueue.size();
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        if (!(_dispatch[i] & ineligibleBit))
            total += _servers[i]->load();
    }
    return static_cast<double>(total) / static_cast<double>(eligible);
}

GlobalScheduler::TaskCensus
GlobalScheduler::taskCensus() const
{
    TaskCensus c;
    c.created = _tasksCreated;
    c.finished = _tasksFinished;
    c.aborted = _tasksAborted;
    for (const RuntimeJob &rt : _slots)
        c.live += rt.live ? rt.remaining : 0;
    return c;
}

void
GlobalScheduler::resetStats()
{
    _jobsSubmitted = _jobsCompleted = 0;
    _tasksDispatched = _transfersStarted = 0;
    _taskRetries = _taskTimeouts = 0;
    _transfersAborted = _jobsFailedCount = 0;
    _jobLatency.reset();
}

TaskRef
GlobalScheduler::makeRef(const RuntimeJob &rt, TaskId t) const
{
    const TaskSpec &spec = rt.job.task(t);
    TaskRef ref{rt.job.id(), t, spec.serviceTime,
                spec.computeIntensity, spec.type,
                rt.job.orchGroup()};
    // Routed placements may inflate the service time (co-location
    // interference, remote-memory latency). The exact-1.0 test keeps
    // the unrouted path bit-identical to a build without routing.
    double scale = rt.tasks[t].serviceScale;
    if (scale != 1.0) {
        ref.serviceTime = static_cast<Tick>(std::llround(
            static_cast<double>(spec.serviceTime) * scale));
    }
    return ref;
}

TraceManager *
GlobalScheduler::taskTracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::task))
        return nullptr;
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("scheduler", "tasks");
    return tr;
}

std::string
GlobalScheduler::taskName(JobId job, TaskId t)
{
    return "j" + std::to_string(job) + ".t" + std::to_string(t);
}

void
GlobalScheduler::submitJob(Job job)
{
    ++_jobsSubmitted;
    JobId id = job.id();
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    "j" + std::to_string(id) + ".submit",
                    _sim.curTick());
    }
    std::uint32_t slot = _freeSlots.empty()
                             ? static_cast<std::uint32_t>(_slots.size())
                             : _freeSlots.back();
    if (!_index.insert(id, slot))
        fatal("duplicate job id ", id);
    if (slot == _slots.size())
        _slots.emplace_back();
    else
        _freeSlots.pop_back();
    RuntimeJob &rt = _slots[slot];
    rt.job = std::move(job);
    rt.live = true;
    const std::size_t n = rt.job.numTasks();
    rt.tasks.assign(n, TaskRt{});
    for (TaskId t = 0; t < n; ++t) {
        rt.tasks[t].pendingParents =
            static_cast<std::uint32_t>(rt.job.parents(t).size());
    }
    rt.remaining = static_cast<std::uint32_t>(n);
    _tasksCreated += n;

    // Roots are ready immediately. A root that fails the job ends
    // the walk: the slot no longer holds it.
    for (TaskId t : rt.job.rootTasks()) {
        taskReady(rt, t);
        if (!holds(rt, id))
            break;
    }
    notifyLoadChanged();
}

void
GlobalScheduler::releaseJob(JobId id)
{
    std::uint32_t slot = _index.erase(id);
    RuntimeJob &rt = _slots[slot];
    rt.job = Job(0, 0); // drop the finished job's arrays
    rt.live = false;
    _freeSlots.push_back(slot);
}

const std::vector<std::size_t> &
GlobalScheduler::candidates(int type) const
{
    // Cached per type and invalidated whenever eligibility changes:
    // O(N) to rebuild, then O(1) per dispatch (handed out by reference).
    auto it = _candidateCache.find(type);
    if (it != _candidateCache.end())
        return it->second;
    // Crashed servers drop out of the cached lists too; the fault
    // hooks invalidate the cache on every transition.
    const std::uint8_t skip = ineligibleBit | failedBit;
    std::size_t n = 0;
    for (std::size_t i = 0; i < _dispatch.size(); ++i)
        n += dispatchable(i, type, skip);
    std::vector<std::size_t> out;
    out.reserve(n);
    for (std::size_t i = 0; i < _dispatch.size(); ++i) {
        if (dispatchable(i, type, skip))
            out.push_back(i);
    }
    return _candidateCache.emplace(type, std::move(out)).first->second;
}

std::vector<std::size_t>
GlobalScheduler::freeCandidates(int type) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        if (dispatchable(i, type, ineligibleBit | failedBit) &&
            _servers[i]->load() < _servers[i]->numCores()) {
            out.push_back(i);
        }
    }
    return out;
}

void
GlobalScheduler::taskReady(RuntimeJob &rt, TaskId t)
{
    if (_router) {
        // Orchestration routing: tagged tasks go to a container
        // replica (or wait for one); untagged tasks fall through to
        // the normal dispatch path below.
        rt.tasks[t].serviceScale = 1.0;
        TaskRoute route = _router(makeRef(rt, t));
        if (route.action == TaskRoute::Action::defer) {
            rt.tasks[t].state = TaskState::deferred;
            ++_deferredCount;
            return;
        }
        if (route.action == TaskRoute::Action::pin) {
            if (route.server >= _servers.size())
                HOLDCSIM_PANIC("task routed to unknown server ",
                               route.server);
            rt.tasks[t].serviceScale = route.serviceScale;
            if (_servers[route.server]->failed()) {
                // The replica's host crashed under us. Burn an
                // attempt and back off; by the redispatch the
                // orchestrator has rescheduled the container.
                if (_retryEnabled) {
                    ++rt.tasks[t].attempts;
                    taskAttemptFailed(rt.job.id(), t);
                    return;
                }
                fatal("task routed to failed server ", route.server);
            }
            assignTask(rt, t, route.server);
            return;
        }
    }

    TaskRef ref = makeRef(rt, t);
    std::optional<std::size_t> parent;
    if (!rt.job.parents(t).empty())
        parent = static_cast<std::size_t>(
            rt.tasks[rt.job.parents(t)[0]].server);
    if (_config.useGlobalQueue) {
        // Pull model: only dispatch when a free execution unit
        // exists; otherwise park the task centrally.
        auto candidates = freeCandidates(ref.type);
        if (candidates.empty()) {
            rt.tasks[t].state = TaskState::queued;
            _globalQueue.push_back(QueuedTask{rt.job.id(), t});
            return;
        }
        std::size_t target = _policy->pick(candidates, _servers,
                                           DispatchContext{ref, parent});
        assignTask(rt, t, target);
        return;
    }

    // pick() never calls back into the scheduler, so the cached list
    // it reads by reference stays valid; copy only to change it.
    const std::vector<std::size_t> *candidates = &this->candidates(ref.type);
    std::vector<std::size_t> filtered;
    if (_config.antiAffinity && parent && candidates->size() > 1 &&
        std::binary_search(candidates->begin(), candidates->end(),
                           *parent)) {
        filtered = *candidates;
        filtered.erase(std::find(filtered.begin(), filtered.end(), *parent));
        candidates = &filtered;
    }
    if (candidates->empty()) {
        // Eligibility filtered everything out: fall back to any
        // healthy type-capable server rather than deadlock.
        for (std::size_t i = 0; i < _servers.size(); ++i) {
            if (dispatchable(i, ref.type, failedBit))
                filtered.push_back(i);
        }
        if (filtered.empty()) {
            if (_retryEnabled) {
                // Every capable server is down. Burn an attempt and
                // back off; a permanently dead fleet then fails the
                // job instead of spinning or crashing the sim.
                ++rt.tasks[t].attempts;
                taskAttemptFailed(rt.job.id(), t);
                return;
            }
            fatal("no server can serve task type ", ref.type);
        }
        warn("no eligible server for task type ", ref.type,
             "; dispatching to an ineligible one");
        candidates = &filtered;
    }
    std::size_t target = _policy->pick(*candidates, _servers,
                                       DispatchContext{ref, parent});
    assignTask(rt, t, target);
}

void
GlobalScheduler::assignTask(RuntimeJob &rt, TaskId t,
                            std::size_t server)
{
    TaskRt &task = rt.tasks[t];
    task.server = static_cast<std::int64_t>(server);
    ++task.attempts;
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    taskName(rt.job.id(), t) + ".dispatch.sv" +
                        std::to_string(server),
                    _sim.curTick());
    }
    // Ship each parent's result over the fabric; the task launches
    // when the last transfer lands. Each transfer records the attempt
    // number so leftovers from a superseded attempt are inert.
    if (_net) {
        JobId id = rt.job.id();
        std::uint32_t epoch = task.attempts;
        std::span<const TaskId> parents = rt.job.parents(t);
        std::span<const Bytes> bytes = rt.job.parentBytes(t);
        // Whether parent i's result must cross the fabric.
        auto ships = [&](std::size_t i) {
            return bytes[i] != 0 &&
                   static_cast<std::size_t>(rt.tasks[parents[i]].server) !=
                       server;
        };
        unsigned transfers = 0;
        for (std::size_t i = 0; i < parents.size(); ++i)
            transfers += ships(i);
        if (transfers > 0) {
            task.state = TaskState::transferring;
            task.pendingTransfers = transfers;
            for (std::size_t i = 0; i < parents.size(); ++i) {
                if (!ships(i))
                    continue;
                ++_transfersStarted;
                // The callbacks capture 16 B, which std::function
                // holds without allocating; the record sits in
                // _transfers.
                std::uint32_t rec = openTransfer(Transfer{id, t, epoch});
                _net->startFlow(
                    static_cast<std::size_t>(rt.tasks[parents[i]].server),
                    server, bytes[i],
                    [this, rec] { transferDone(closeTransfer(rec)); },
                    [this, rec] { transferAborted(closeTransfer(rec)); });
            }
            return;
        }
    }
    launchTask(rt, t);
}

std::uint32_t
GlobalScheduler::openTransfer(const Transfer &transfer)
{
    if (_freeTransfers.empty()) {
        _transfers.push_back(transfer);
        return static_cast<std::uint32_t>(_transfers.size() - 1);
    }
    std::uint32_t idx = _freeTransfers.back();
    _freeTransfers.pop_back();
    _transfers[idx] = transfer;
    return idx;
}

GlobalScheduler::Transfer
GlobalScheduler::closeTransfer(std::uint32_t idx)
{
    _freeTransfers.push_back(idx);
    return _transfers[idx];
}

void
GlobalScheduler::transferDone(const Transfer &tr)
{
    RuntimeJob *rj = findJob(tr.job);
    if (!rj) {
        if (_failedJobs.count(tr.job))
            return; // job abandoned meanwhile
        HOLDCSIM_PANIC("transfer for finished job ", tr.job);
    }
    TaskRt &task = rj->tasks[tr.task];
    if (task.attempts != tr.epoch ||
        task.state != TaskState::transferring) {
        return; // attempt superseded
    }
    if (--task.pendingTransfers == 0)
        launchTask(*rj, tr.task);
}

void
GlobalScheduler::transferAborted(const Transfer &tr)
{
    // A fault severed this transfer: retry the whole placement
    // (results must re-ship).
    RuntimeJob *rj = findJob(tr.job);
    if (!rj)
        return;
    const TaskRt &task = rj->tasks[tr.task];
    if (task.attempts != tr.epoch ||
        task.state != TaskState::transferring) {
        return;
    }
    ++_transfersAborted;
    taskAttemptFailed(tr.job, tr.task);
}

void
GlobalScheduler::launchTask(RuntimeJob &rt, TaskId t)
{
    auto server = static_cast<std::size_t>(rt.tasks[t].server);
    if (_servers[server]->failed()) {
        // The target crashed while transfers were in flight.
        taskAttemptFailed(rt.job.id(), t);
        return;
    }
    rt.tasks[t].state = TaskState::running;
    ++_tasksDispatched;
    if (TraceManager *tr = taskTracer()) {
        tr->asyncBegin(_traceTrack, TraceCategory::task,
                       taskName(rt.job.id(), t),
                       taskSpanId(rt.job.id(), t), _sim.curTick());
    }
    _servers[server]->submit(makeRef(rt, t));
    armTaskTimeout(rt, t);
}

void
GlobalScheduler::armTaskTimeout(RuntimeJob &rt, TaskId t)
{
    if (!_retryEnabled || _retry.taskTimeout == 0)
        return;
    JobId id = rt.job.id();
    std::uint32_t epoch = rt.tasks[t].attempts;
    _oneShots.schedule(_retry.taskTimeout, [this, id, t, epoch] {
        RuntimeJob *rj = findJob(id);
        if (!rj)
            return;
        const TaskRt &tk = rj->tasks[t];
        if (tk.attempts != epoch || tk.state != TaskState::running)
            return; // completed or already retried
        ++_taskTimeouts;
        auto srv = static_cast<std::size_t>(tk.server);
        if (!_servers[srv]->failed())
            _servers[srv]->cancelTask(id, t);
        taskAttemptFailed(id, t);
    });
}

void
GlobalScheduler::taskAttemptFailed(JobId job, TaskId t)
{
    RuntimeJob *rt = findJob(job);
    if (!rt)
        return; // job finished or already abandoned
    TaskRt &task = rt->tasks[t];
    if (task.state == TaskState::done)
        return;
    if (!_retryEnabled || task.attempts >= _retry.maxAttempts) {
        failJob(job); // closes any open task spans
        return;
    }
    // The routed attempt died; the retry re-routes from scratch.
    if (_taskClosed)
        _taskClosed(job, t, false);
    ++_taskRetries;
    if (TraceManager *tr = taskTracer()) {
        if (task.state == TaskState::running) {
            // Close the attempt's span: it died instead of completing.
            tr->asyncEnd(_traceTrack, TraceCategory::task,
                         taskName(job, t), taskSpanId(job, t),
                         _sim.curTick());
        }
        tr->instant(_traceTrack, TraceCategory::task,
                    taskName(job, t) + ".retry", _sim.curTick());
    }
    task.state = TaskState::backoff;
    task.pendingTransfers = 0;
    std::uint32_t epoch = task.attempts;
    Tick delay = _retry.backoff(task.attempts, _retryJitter);
    _oneShots.schedule(delay, [this, job, t, epoch] {
        RuntimeJob *rj = findJob(job);
        if (!rj)
            return;
        const TaskRt &tk = rj->tasks[t];
        if (tk.attempts != epoch || tk.state != TaskState::backoff)
            return;
        taskReady(*rj, t);
    });
}

void
GlobalScheduler::failJob(JobId job)
{
    RuntimeJob *found = findJob(job);
    if (!found)
        return;
    RuntimeJob &rt = *found;
    ++_jobsFailedCount;
    // Every not-yet-done task of the job is abandoned with it.
    _tasksAborted += rt.remaining;
    // Tell the orchestration router every live task is gone
    // (receivers ignore tasks they never routed).
    for (TaskId t = 0; t < rt.job.numTasks(); ++t) {
        if (rt.tasks[t].state == TaskState::deferred)
            --_deferredCount;
        if (_taskClosed && rt.tasks[t].state != TaskState::done)
            _taskClosed(job, t, false);
    }
    // Cancel every sibling still holding resources.
    for (TaskId t = 0; t < rt.job.numTasks(); ++t) {
        if (rt.tasks[t].state != TaskState::running)
            continue;
        if (TraceManager *tr = taskTracer()) {
            tr->asyncEnd(_traceTrack, TraceCategory::task,
                         taskName(job, t), taskSpanId(job, t),
                         _sim.curTick());
        }
        auto srv = static_cast<std::size_t>(rt.tasks[t].server);
        if (!_servers[srv]->failed())
            _servers[srv]->cancelTask(job, t);
    }
    // Purge parked siblings from the global queue.
    _globalQueue.erase(
        std::remove_if(_globalQueue.begin(), _globalQueue.end(),
                       [job](const QueuedTask &q) {
                           return q.job == job;
                       }),
        _globalQueue.end());
    _failedJobs.insert(job);
    releaseJob(job);
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    "j" + std::to_string(job) + ".failed",
                    _sim.curTick());
    }
    if (_jobFailed)
        _jobFailed(job);
    notifyLoadChanged();
}

void
GlobalScheduler::onServerFailed(std::size_t idx,
                                const std::vector<TaskRef> &killed)
{
    if (_pairBugArmed && idx == _pairBug.second &&
        _pairBug.first < _servers.size() &&
        _servers.at(_pairBug.first)->failed()) {
        debugInjectTaskLeak();
    }
    _dispatch.at(idx) |= failedBit;
    invalidateCandidateCache();
    for (const TaskRef &ref : killed)
        taskAttemptFailed(ref.job, ref.task);
    notifyLoadChanged();
}

void
GlobalScheduler::onServerRepaired(std::size_t idx)
{
    _dispatch.at(idx) &= static_cast<std::uint8_t>(~failedBit);
    invalidateCandidateCache();
    if (_config.useGlobalQueue)
        drainGlobalQueue(*_servers.at(idx));
    notifyLoadChanged();
}

void
GlobalScheduler::taskDone(Server &server, const TaskRef &task)
{
    RuntimeJob *found = findJob(task.job);
    if (!found) {
        if (_failedJobs.count(task.job))
            return; // straggler of an abandoned job
        HOLDCSIM_PANIC("completion for unknown job ", task.job);
    }
    RuntimeJob &rt = *found;
    if (rt.tasks[task.task].state == TaskState::done)
        HOLDCSIM_PANIC("job ", task.job, " task ", task.task,
                       " completed twice");
    rt.tasks[task.task].state = TaskState::done;
    if (TraceManager *tr = taskTracer()) {
        tr->asyncEnd(_traceTrack, TraceCategory::task,
                     taskName(task.job, task.task),
                     taskSpanId(task.job, task.task), _sim.curTick());
    }
    if (rt.remaining == 0)
        HOLDCSIM_PANIC("job ", task.job, " over-completed");
    --rt.remaining;
    ++_tasksFinished;

    // Free the container slot before waking children so their
    // routing sees the updated replica occupancy.
    if (_taskClosed)
        _taskClosed(task.job, task.task, true);

    // Wake children whose last parent just finished. A child that
    // fails the job ends the walk: the slot no longer holds it.
    for (TaskId child : rt.job.children(task.task)) {
        if (--rt.tasks[child].pendingParents == 0) {
            taskReady(rt, child);
            if (!holds(rt, task.job))
                break;
        }
    }

    if (holds(rt, task.job) && rt.remaining == 0) {
        Tick latency = _sim.curTick() - rt.job.arrivalTick();
        ++_jobsCompleted;
        _jobLatency.sample(toSeconds(latency));
        JobId id = task.job;
        releaseJob(id);
        if (_jobDone)
            _jobDone(id, latency);
    }

    if (_config.useGlobalQueue)
        drainGlobalQueue(server);
    notifyLoadChanged();
}

void
GlobalScheduler::drainGlobalQueue(Server &server)
{
    if (server.failed())
        return;
    // The freed server pulls the first queued task it can serve
    // while it still has spare execution units.
    while (server.load() < server.numCores() && !_globalQueue.empty()) {
        auto pos = std::find_if(
            _globalQueue.begin(), _globalQueue.end(),
            [&](const QueuedTask &q) {
                const RuntimeJob *rj = findJob(q.job);
                return rj &&
                       server.servesType(rj->job.task(q.task).type);
            });
        if (pos == _globalQueue.end())
            return;
        QueuedTask q = *pos;
        _globalQueue.erase(pos);
        assignTask(*findJob(q.job), q.task, server.id());
    }
}

void
GlobalScheduler::notifyLoadChanged()
{
    if (_loadChanged)
        _loadChanged();
}

} // namespace holdcsim

/**
 * @file
 * The global job scheduler (paper section III-E).
 *
 * The front end receives job requests, expands each into its task
 * DAG, and dispatches ready tasks to servers through a pluggable
 * DispatchPolicy. Two dispatch models are supported, as in the
 * paper: direct dispatch (push: the chosen server buffers the task
 * in its local queue) and a global task queue (pull: when no
 * eligible server has a free execution unit, the task waits
 * centrally and servers pull work as they free up).
 *
 * When a Network is attached, a parent task's results are shipped to
 * the child's server as flows of the DAG edge's transfer size; the
 * child starts only after every inbound transfer arrives (temporal
 * dependence, section III-C).
 */

#ifndef HOLDCSIM_SCHED_GLOBAL_SCHEDULER_HH
#define HOLDCSIM_SCHED_GLOBAL_SCHEDULER_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "dispatch_policy.hh"
#include "fault/retry_policy.hh"
#include "server/server.hh"
#include "sim/one_shot.hh"
#include "sim/simulator.hh"
#include "sim/slot_index.hh"
#include "sim/stats.hh"
#include "sim/zeroed_allocator.hh"
#include "telemetry/trace_manager.hh"
#include "workload/job.hh"

namespace holdcsim {

class Network;

/** Scheduler-level configuration. */
struct GlobalSchedulerConfig {
    /** Use the global task queue (pull) model. */
    bool useGlobalQueue = false;
    /**
     * Place a task away from its parent's server whenever another
     * candidate exists (models distributed services whose tiers
     * always communicate over the fabric, as in the paper's
     * server/network study where every DAG edge is a 100 MB flow).
     */
    bool antiAffinity = false;
};

/** The data center front end: job intake and task dispatch. Every
 *  server of the fleet hands its finished tasks to it. */
class GlobalScheduler : private TaskSink
{
  public:
    /** (job id, response time in ticks). */
    using JobDoneFn = std::function<void(JobId, Tick)>;
    /** A job exhausted its retries and was abandoned. */
    using JobFailedFn = std::function<void(JobId)>;
    /** Invoked whenever offered load changes (policy hooks). */
    using LoadChangedFn = std::function<void()>;

    /**
     * @param sim     engine
     * @param servers the server fleet; server i must have id i
     * @param policy  dispatch policy (owned)
     * @param config  scheduler options
     * @param net     optional fabric for result transfers
     */
    GlobalScheduler(Simulator &sim, std::vector<Server *> servers,
                    std::unique_ptr<DispatchPolicy> policy,
                    GlobalSchedulerConfig config = {},
                    Network *net = nullptr);

    /**
     * A scheduler for a fleet of @p n servers still to be built: the
     * caller hands each over with adopt() before the first job. (A
     * DataCenter does so on its build workers, while each server's
     * memory is hot.) The other parameters are as above.
     */
    GlobalScheduler(Simulator &sim, std::size_t n,
                    std::unique_ptr<DispatchPolicy> policy,
                    GlobalSchedulerConfig config = {},
                    Network *net = nullptr);

    /**
     * Take @p server, which must have id @p i, into the fleet as
     * server i; its finished tasks come here. Calls for distinct
     * servers may run concurrently.
     */
    void adopt(std::size_t i, Server &server);

    /** Accept a job (ownership transfers). */
    void submitJob(Job job);

    void setJobDoneCallback(JobDoneFn fn) { _jobDone = std::move(fn); }
    void setJobFailedCallback(JobFailedFn fn)
    {
        _jobFailed = std::move(fn);
    }
    void setLoadChangedHook(LoadChangedFn fn)
    {
        _loadChanged = std::move(fn);
    }

    /** Swap the dispatch policy at runtime (policy studies). */
    void setPolicy(std::unique_ptr<DispatchPolicy> policy);

    /** @name Eligibility (server pool management) */
    ///@{
    /** Allow/disallow dispatching new tasks to server @p idx. */
    void setEligible(std::size_t idx, bool eligible);
    bool
    eligible(std::size_t idx) const
    {
        return !(_dispatch.at(idx) & ineligibleBit);
    }
    std::size_t numEligible() const { return _numEligible; }
    ///@}

    /** @name Fault tolerance (fault subsystem) */
    ///@{
    /**
     * Install the retry policy. @p jitter_rng (optional, not owned,
     * must outlive the scheduler) decorrelates backoff intervals.
     */
    void setRetryPolicy(const RetryPolicy &policy,
                        Rng *jitter_rng = nullptr);
    const RetryPolicy &retryPolicy() const { return _retry; }

    /**
     * Server @p idx crashed; @p killed holds the task attempts that
     * died with it (running and locally queued). Each is retried
     * under the retry policy.
     */
    void onServerFailed(std::size_t idx,
                        const std::vector<TaskRef> &killed);

    /** Server @p idx is back; it may pull queued work again. */
    void onServerRepaired(std::size_t idx);

    /** Whether @p job was abandoned after retry exhaustion. */
    bool jobHasFailed(JobId job) const
    {
        return _failedJobs.count(job) != 0;
    }
    ///@}

    /** @name Container orchestration hooks (src/orch) */
    ///@{
    /**
     * How the orchestration router wants a ready task handled.
     * `none` falls through to the normal dispatch policy; `pin`
     * bypasses the policy and places the task on a specific server
     * with its service time inflated by @p serviceScale (co-location
     * interference, remote-memory latency); `defer` parks the task
     * until resumeTask() (e.g. every replica is in a migration
     * stop-and-copy window).
     */
    struct TaskRoute {
        enum class Action : std::uint8_t { none, pin, defer };
        Action action = Action::none;
        std::size_t server = 0;
        double serviceScale = 1.0;
    };
    /** Decides placement for each ready task of a tagged job. */
    using TaskRouteFn = std::function<TaskRoute(const TaskRef &)>;
    /**
     * A previously routed attempt left the system: completed
     * (@p done true), or died/was abandoned (@p done false). Fires
     * at least once per routed attempt; the router sees the next
     * attempt again, so receivers must treat repeats as idempotent.
     */
    using TaskClosedFn =
        std::function<void(JobId, TaskId, bool done)>;

    /**
     * Install the orchestration router. With no router installed
     * (the default) scheduling behavior is byte-identical to a
     * build without orchestration.
     */
    void setTaskRouter(TaskRouteFn router, TaskClosedFn closed);

    /** Re-enter placement for a task the router deferred. No-op if
     * the job is gone or the task is not deferred. */
    void resumeTask(JobId job, TaskId t);

    /** Tasks currently parked by a `defer` route. */
    std::size_t deferredTasks() const { return _deferredCount; }
    ///@}

    /** @name Introspection */
    ///@{
    /** Jobs admitted but not yet fully finished. */
    std::size_t activeJobs() const { return _index.size(); }
    /** Tasks waiting in the global queue. */
    std::size_t globalQueueLength() const { return _globalQueue.size(); }
    /** Offered tasks (queued + running) per eligible server. */
    double loadPerEligibleServer() const;
    /** Eligible healthy servers that serve @p type, in id order: the
     *  list push dispatch picks from (cached; O(N) bytes to rebuild). */
    const std::vector<std::size_t> &candidates(int type) const;
    const std::vector<Server *> &servers() const { return _servers; }
    Simulator &simulator() { return _sim; }
    Network *network() { return _net; }
    ///@}

    /** @name Statistics */
    ///@{
    std::uint64_t jobsSubmitted() const { return _jobsSubmitted; }
    std::uint64_t jobsCompleted() const { return _jobsCompleted; }
    std::uint64_t tasksDispatched() const { return _tasksDispatched; }
    std::uint64_t transfersStarted() const { return _transfersStarted; }
    /** Task attempts that died and were re-dispatched. */
    std::uint64_t taskRetries() const { return _taskRetries; }
    /** Attempts killed by the per-task timeout. */
    std::uint64_t taskTimeouts() const { return _taskTimeouts; }
    /** Result transfers severed by network faults. */
    std::uint64_t transfersAborted() const { return _transfersAborted; }
    /** Jobs abandoned after a task ran out of attempts. */
    std::uint64_t jobsFailed() const { return _jobsFailedCount; }
    /** Job response time distribution, in seconds. */
    const Percentile &jobLatency() const { return _jobLatency; }
    /** Reset measured statistics (end of warmup). */
    void resetStats();
    ///@}

    /** @name Invariant auditing (task conservation) */
    ///@{
    /**
     * Task-conservation census. Counters run from construction and
     * are never reset (resetStats() leaves them alone), so the
     * conservation identity created == finished + aborted + live
     * holds at every instant of the run.
     */
    struct TaskCensus {
        std::uint64_t created = 0;
        std::uint64_t finished = 0;
        /** Tasks abandoned when their job failed retry exhaustion. */
        std::uint64_t aborted = 0;
        /** Waiting, queued, transferring, running or in backoff. */
        std::uint64_t live = 0;
    };
    TaskCensus taskCensus() const;

    /**
     * Test hook: fabricate a created-but-untracked task, deliberately
     * breaking conservation so auditor negative tests can prove the
     * audit fires.
     */
    void debugInjectTaskLeak() { ++_tasksCreated; }

    /**
     * Test hook: arm a seeded coincidence bug. When server @p b
     * fails while server @p a is already down, one task leaks from
     * the census (exactly debugInjectTaskLeak()). Only schedules
     * where the two crash windows overlap trip it, so the
     * fault-schedule explorer (src/mc) must discover the pairwise
     * coincidence -- the negative tests and the mc-smoke CI job
     * prove it does, and that shrinking converges to the 2-episode
     * core.
     */
    void
    debugArmPairCrashBug(std::size_t a, std::size_t b)
    {
        _pairBug = {a, b};
        _pairBugArmed = true;
    }
    ///@}

  private:
    /**
     * Where a task currently stands. Stale asynchronous callbacks
     * (transfer completions, timeouts, backoff redispatches from a
     * superseded attempt) check this plus the attempt number before
     * acting, so a retried task can never be double-launched.
     */
    enum class TaskState : std::uint8_t {
        waiting,      ///< parents unfinished
        queued,       ///< parked in the global queue
        transferring, ///< inbound result transfers in flight
        running,      ///< submitted to a server
        backoff,      ///< attempt died; redispatch scheduled
        deferred,     ///< parked by the orchestration router
        done,         ///< completed
    };

    /** Runtime progress of one task. */
    struct TaskRt {
        /** Unfinished parents. */
        std::uint32_t pendingParents = 0;
        /** Inbound transfers still in flight. */
        std::uint32_t pendingTransfers = 0;
        /** Assigned server (-1 = unassigned). */
        std::int64_t server = -1;
        /** Attempts started (1 = first dispatch). */
        std::uint32_t attempts = 0;
        TaskState state = TaskState::waiting;
        /**
         * Service-time inflation of the current routed attempt
         * (1.0 = nominal). Set by the orchestration router per
         * placement; applied in makeRef.
         */
        double serviceScale = 1.0;
    };

    /**
     * One slab slot. A free slot holds an empty Job, and its task
     * vector keeps its capacity for the next job to use.
     */
    struct RuntimeJob {
        Job job{0, 0};
        std::vector<TaskRt> tasks;
        /** Tasks not yet done. */
        std::uint32_t remaining = 0;
        bool live = false;
    };

    /** A result transfer in flight: the task attempt it feeds. */
    struct Transfer {
        JobId job;
        TaskId task;
        std::uint32_t epoch;
    };

    /** A task waiting in the global queue. */
    struct QueuedTask {
        JobId job;
        TaskId task;
    };

    /** The live job @p id, or nullptr when it finished or failed. */
    RuntimeJob *
    findJob(JobId id)
    {
        std::uint32_t slot = _index.find(id);
        return slot == SlotIndex::npos ? nullptr : &_slots[slot];
    }
    /** Whether @p rt still holds job @p id (a task hook may have
     *  failed the job, and a new one may have taken the slot). */
    static bool
    holds(const RuntimeJob &rt, JobId id)
    {
        return rt.live && rt.job.id() == id;
    }
    /** Drop finished or failed job @p id and recycle its slot. */
    void releaseJob(JobId id);
    /** All parents done: place and (if needed) transfer. */
    void taskReady(RuntimeJob &rt, TaskId t);
    /** Place @p t on @p server and ship parent results. */
    void assignTask(RuntimeJob &rt, TaskId t, std::size_t server);
    /** Park @p transfer in _transfers; returns its index. */
    std::uint32_t openTransfer(const Transfer &transfer);
    /** Take transfer @p idx back out (its flow ended either way). */
    Transfer closeTransfer(std::uint32_t idx);
    /** A result landed: launch the task once its last one has. */
    void transferDone(const Transfer &tr);
    /** A fault severed a result transfer: retry its task. */
    void transferAborted(const Transfer &tr);
    /** All transfers arrived: hand the task to its server. */
    void launchTask(RuntimeJob &rt, TaskId t);
    /** TaskSink: a server finished @p task. */
    void taskDone(Server &server, const TaskRef &task) override;
    /**
     * The current attempt of (@p job, @p t) died. Re-dispatch after
     * backoff, or abandon the whole job once attempts are exhausted.
     * Tolerates jobs that are already gone.
     */
    void taskAttemptFailed(JobId job, TaskId t);
    /** Abandon @p job: cancel every live task, purge queues. */
    void failJob(JobId job);
    /** Arm the per-task timeout for the current attempt, if any. */
    void armTaskTimeout(RuntimeJob &rt, TaskId t);
    /** Let a freed-up server pull from the global queue. */
    void drainGlobalQueue(Server &server);
    /**
     * Whether server @p i serves @p type and its dispatch byte has
     * none of the @p skip bits. Only a typed server's Server is read.
     */
    bool
    dispatchable(std::size_t i, int type, std::uint8_t skip) const
    {
        const std::uint8_t s = _dispatch[i];
        return !(s & skip) &&
               (!(s & typedBit) || _servers[i]->servesType(type));
    }
    /** Eligible servers for @p type with a free core (not cached). */
    std::vector<std::size_t> freeCandidates(int type) const;
    void invalidateCandidateCache() { _candidateCache.clear(); }
    TaskRef makeRef(const RuntimeJob &rt, TaskId t) const;
    void notifyLoadChanged();
    /** Tracer (and shared tasks track) if task tracing is on. */
    TraceManager *taskTracer();
    /** "j<job>.t<task>" label used on the task timeline. */
    static std::string taskName(JobId job, TaskId t);
    /** Async-span id for (job, task); the name disambiguates. */
    static std::uint64_t
    taskSpanId(JobId job, TaskId t)
    {
        return (job << 16) + t;
    }

    Simulator &_sim;
    std::vector<Server *> _servers;
    std::unique_ptr<DispatchPolicy> _policy;
    GlobalSchedulerConfig _config;
    Network *_net;

    /**
     * One byte of dispatch state per server. A zero byte is an
     * eligible, healthy server that serves every type, so a default
     * fleet's candidate lists are built from these bytes alone, and
     * calloc'd storage leaves its bytes unwritten. The bits change
     * exactly where the candidate cache is invalidated.
     */
    enum : std::uint8_t {
        ineligibleBit = 1, ///< setEligible(false)
        failedBit = 2,     ///< crashed (onServerFailed)
        typedBit = 4,      ///< serves only its taskTypes
    };
    std::vector<std::uint8_t, ZeroedAllocator<std::uint8_t>> _dispatch;
    /** Servers without ineligibleBit. */
    std::size_t _numEligible;
    /** Cached candidate lists per type, rebuilt from _dispatch. */
    mutable std::map<int, std::vector<std::size_t>> _candidateCache;
    /**
     * The job slab. A deque keeps slot addresses stable while a task
     * hook submits a job re-entrantly; freed slots are reused.
     */
    std::deque<RuntimeJob> _slots;
    std::vector<std::uint32_t> _freeSlots;
    SlotIndex _index;
    std::deque<QueuedTask> _globalQueue;
    /** Transfers in flight, reused through _freeTransfers. A flow
     *  ends once, completed or aborted, and closes its entry then. */
    std::vector<Transfer> _transfers;
    std::vector<std::uint32_t> _freeTransfers;

    JobDoneFn _jobDone;
    JobFailedFn _jobFailed;
    LoadChangedFn _loadChanged;
    TaskRouteFn _router;
    TaskClosedFn _taskClosed;
    std::size_t _deferredCount = 0;

    RetryPolicy _retry;
    bool _retryEnabled = false;
    Rng *_retryJitter = nullptr;
    /** Owns backoff/timeout one-shots; freed with the scheduler. */
    OneShotPool _oneShots;
    /**
     * Tombstones for abandoned jobs so late completions/transfers
     * are recognized as stale instead of treated as bugs.
     */
    std::set<JobId> _failedJobs;

    std::uint64_t _jobsSubmitted = 0;
    std::uint64_t _jobsCompleted = 0;
    std::uint64_t _tasksDispatched = 0;
    std::uint64_t _transfersStarted = 0;
    std::uint64_t _taskRetries = 0;
    std::uint64_t _taskTimeouts = 0;
    std::uint64_t _transfersAborted = 0;
    std::uint64_t _jobsFailedCount = 0;
    Percentile _jobLatency;

    /** Seeded pair-crash bug (debugArmPairCrashBug). */
    bool _pairBugArmed = false;
    std::pair<std::size_t, std::size_t> _pairBug{0, 0};

    // Conservation counters (see TaskCensus): never reset.
    std::uint64_t _tasksCreated = 0;
    std::uint64_t _tasksFinished = 0;
    std::uint64_t _tasksAborted = 0;

    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_SCHED_GLOBAL_SCHEDULER_HH

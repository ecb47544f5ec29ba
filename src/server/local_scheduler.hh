/**
 * @file
 * Per-server local task scheduling (paper sections II and III-E).
 *
 * The local scheduler manages the buffering of tasks between the
 * global dispatcher and the cores. Two queue structures are modeled,
 * following the tail-latency study of Li et al. [37] that the paper
 * cites: a single unified server queue that any free core pulls
 * from, or per-core queues where each task is bound to a core at
 * enqueue time. For heterogeneous processors the core-pick policy
 * can prefer the fastest available core.
 */

#ifndef HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH
#define HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH

#include <deque>
#include <optional>
#include <vector>

#include "task.hh"

namespace holdcsim {

/** Queue structure between global dispatch and cores. */
enum class LocalQueueMode {
    /** One server-wide FIFO; free cores pull from it. */
    unified,
    /** One FIFO per core; tasks bound to a core on arrival. */
    perCore,
};

/** Core selection policy for per-core enqueue. */
enum class CorePickPolicy {
    /** Cycle through cores (the classic default). */
    roundRobin,
    /** Pick the core with the fewest queued tasks. */
    leastLoaded,
};

/** Task buffering for one server. */
class LocalScheduler
{
  public:
    LocalScheduler(LocalQueueMode mode, CorePickPolicy pick,
                   unsigned n_cores);

    /** Buffer a task (binds it to a core in perCore mode). */
    void enqueue(const TaskRef &task);

    /**
     * Next task for core @p core_id, if any. In unified mode any
     * core sees the head of the shared queue.
     */
    std::optional<TaskRef> dequeueFor(unsigned core_id);

    /** Whether core @p core_id could obtain a task right now. */
    bool hasWorkFor(unsigned core_id) const;

    /** Total buffered (not yet running) tasks. */
    std::size_t pending() const;

    /**
     * Remove the buffered task identified by (@p job, @p task), if
     * present. Returns whether a task was removed.
     */
    bool remove(JobId job, TaskId task);

    /** Move every buffered task into @p out, leaving queues empty. */
    void drainAll(std::vector<TaskRef> &out);

    LocalQueueMode mode() const { return _mode; }

  private:
    LocalQueueMode _mode;
    CorePickPolicy _pick;
    unsigned _nCores;
    std::deque<TaskRef> _unified;
    std::vector<std::deque<TaskRef>> _perCore;
    unsigned _rrNext = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH

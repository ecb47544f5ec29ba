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
 *
 * An empty scheduler holds no heap: every server of a 100k-server
 * plant carries one, and most of them never queue a task.
 */

#ifndef HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH
#define HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "task.hh"

namespace holdcsim {

/** Queue structure between global dispatch and cores. */
enum class LocalQueueMode : std::uint8_t {
    /** One server-wide FIFO; free cores pull from it. */
    unified,
    /** One FIFO per core; tasks bound to a core on arrival. */
    perCore,
};

/** Core selection policy for per-core enqueue. */
enum class CorePickPolicy : std::uint8_t {
    /** Cycle through cores (the classic default). */
    roundRobin,
    /** Pick the core with the fewest queued tasks. */
    leastLoaded,
};

/**
 * FIFO of tasks over one vector: a pop advances a head index, and
 * the vector is cleared (keeping its capacity) whenever it empties.
 * Unlike libstdc++'s deque, whose empty state already costs a map
 * and a node, it allocates nothing until the first push.
 */
class TaskFifo
{
  public:
    bool empty() const { return _head == _buf.size(); }
    std::size_t size() const { return _buf.size() - _head; }

    void push(const TaskRef &task);

    /** Remove and return the oldest task. @pre !empty() */
    TaskRef pop();

    /** Remove the task identified by (@p job, @p task), if present. */
    bool remove(JobId job, TaskId task);

    /** Append every task to @p out, oldest first, and empty. */
    void drainInto(std::vector<TaskRef> &out);

  private:
    void clear();

    std::vector<TaskRef> _buf;
    /** Index of the oldest task; [0, _head) are already popped. */
    std::size_t _head = 0;
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
    /** Core @p core_id's queue in perCore mode, or nullptr while no
     *  task has been queued yet (the queues are built lazily). */
    const TaskFifo *perCoreQueue(unsigned core_id) const;

    LocalQueueMode _mode;
    CorePickPolicy _pick;
    unsigned _nCores;
    unsigned _rrNext = 0;
    TaskFifo _unified;
    /** perCore mode: one FIFO per core, built on the first enqueue;
     *  null until then, and always in unified mode. */
    std::unique_ptr<TaskFifo[]> _perCore;
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH

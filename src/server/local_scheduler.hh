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
#include <type_traits>
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
 * FIFO of tasks in one ring buffer, grown by doubling and kept (with
 * its capacity) once allocated. The object is one pointer, null until
 * the first push: unlike libstdc++'s deque, whose empty state already
 * costs a map and a node, an unused queue allocates nothing, and
 * unlike a vector plus a head index it costs 8 bytes in the server.
 */
class TaskFifo
{
  public:
    TaskFifo() = default;
    ~TaskFifo();
    TaskFifo(const TaskFifo &) = delete;
    TaskFifo &operator=(const TaskFifo &) = delete;

    bool empty() const { return size() == 0; }
    std::size_t size() const { return _ring ? _ring->size : 0; }

    void push(const TaskRef &task);

    /** Remove and return the oldest task. @pre !empty() */
    TaskRef pop();

    /** Remove the task identified by (@p job, @p task), if present. */
    bool remove(JobId job, TaskId task);

    /** Append every task to @p out, oldest first, and empty. */
    void drainInto(std::vector<TaskRef> &out);

  private:
    /** The buffer's header; its capacity tasks follow it. */
    struct Ring {
        std::size_t capacity;
        /** Index of the oldest task. */
        std::size_t head;
        std::size_t size;

        TaskRef *items() { return reinterpret_cast<TaskRef *>(this + 1); }
        /** The @p i-th oldest task. */
        TaskRef &at(std::size_t i)
        {
            std::size_t k = head + i;
            return items()[k < capacity ? k : k - capacity];
        }
    };
    static_assert(alignof(Ring) >= alignof(TaskRef) &&
                  std::is_trivially_copyable_v<TaskRef> &&
                  std::is_trivially_destructible_v<TaskRef>);

    /** Move the tasks into a buffer of twice the capacity. */
    void grow();

    Ring *_ring = nullptr;
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

// Every server embeds one; AllocBudget records the Server it is in.
static_assert(sizeof(LocalScheduler) <= 32, "the local scheduler grew");

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_LOCAL_SCHEDULER_HH

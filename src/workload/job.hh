/**
 * @file
 * Jobs and tasks (paper section III-C).
 *
 * Each job j is a directed acyclic graph G_j(V_j, E_j): vertices are
 * tasks with an execution-time requirement w_v; a link (i, r) means
 * task i must finish and communicate its result (D_l bytes) to the
 * server of task r before r may start. A job finishes when all of its
 * tasks finish.
 *
 * Job is pure structure -- runtime progress (which tasks have run,
 * where) lives with the scheduler so that one Job template could in
 * principle be shared.
 */

#ifndef HOLDCSIM_WORKLOAD_JOB_HH
#define HOLDCSIM_WORKLOAD_JOB_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hh"

namespace holdcsim {

/** Task index within its job. */
using TaskId = std::uint32_t;
/** Globally unique job identifier. */
using JobId = std::uint64_t;

/** Static description of one task. */
struct TaskSpec {
    /** Execution-time requirement w_v at nominal core frequency. */
    Tick serviceTime = 0;
    /**
     * Task type; servers can be configured to serve specific types
     * (e.g. application tier vs database tier). Type 0 = any.
     */
    int type = 0;
    /**
     * Computation intensiveness in [0, 1]: the fraction of the
     * service time that scales with core frequency (the rest is
     * memory/IO bound). 1.0 = fully compute bound.
     */
    double computeIntensity = 1.0;
};

/** A dependence edge: @p from must finish and ship @p bytes to @p to. */
struct TaskEdge {
    TaskId from;
    TaskId to;
    Bytes bytes;
};

/**
 * A user service request: a DAG of tasks. Build with addTask/addEdge,
 * then call validate() once; accessors assume a validated job.
 */
class Job
{
  public:
    Job(JobId id, Tick arrival) : _id(id), _arrival(arrival) {}

    JobId id() const { return _id; }
    Tick arrivalTick() const { return _arrival; }

    /** @name Container orchestration tag (src/orch)
     * Jobs may be tagged with an orchestration group: the id of the
     * container deployment whose replicas serve the job's tasks.
     * Untagged jobs (-1, the default) bypass the orchestrator
     * entirely and dispatch to bare servers as before.
     */
    ///@{
    void setOrchGroup(int group) { _orchGroup = group; }
    int orchGroup() const { return _orchGroup; }
    ///@}

    /** Make room for @p tasks tasks and @p edges edges. */
    void reserve(std::size_t tasks, std::size_t edges);

    /** Append a task; returns its TaskId. */
    TaskId addTask(const TaskSpec &spec);

    /** Add a dependence edge with a result-transfer size. */
    void addEdge(TaskId from, TaskId to, Bytes bytes);

    std::size_t numTasks() const { return _tasks.size(); }
    std::size_t numEdges() const { return _parentBytes.size(); }

    const TaskSpec &task(TaskId t) const { return _tasks[t]; }

    /** Tasks with no incoming edges (runnable on arrival), ascending. */
    std::span<const TaskId> rootTasks() const
    {
        const std::size_t begin = rowsBegin() + 2 * numEdges();
        return {_csr.data() + begin, _csr.size() - begin};
    }

    /** Parent tasks of @p t, in edge insertion order. */
    std::span<const TaskId> parents(TaskId t) const { return row(t); }

    /** Transfer size of each edge parents(t)[i] -> t, same order. */
    std::span<const Bytes> parentBytes(TaskId t) const
    {
        return {_parentBytes.data() + _csr[t], _csr[t + 1] - _csr[t]};
    }

    /** Child tasks of @p t, in edge insertion order. */
    std::span<const TaskId> children(TaskId t) const
    {
        return row(static_cast<std::uint32_t>(_tasks.size()) + t);
    }

    /** Transfer size on edge (from, to); 0 when no such edge. */
    Bytes edgeBytes(TaskId from, TaskId to) const;

    /** Sum of all task service times (work content of the job). */
    Tick totalWork() const;

    /**
     * Check structural sanity: edge endpoints in range, no
     * self-edges, no duplicate edges, acyclic. Throws FatalError on
     * violation; also builds the parent/child/root indexes. Must be
     * called once, after the last addTask/addEdge.
     */
    void validate();

    /** A topological order of the tasks. @pre validate() passed. */
    std::vector<TaskId> topologicalOrder() const;

  private:
    /** Where the rows start in _csr: past 2n + 1 offsets. */
    std::size_t rowsBegin() const { return 2 * _tasks.size() + 1; }

    /** Row @p r of the CSR index: parents of r < n, children of r - n. */
    std::span<const TaskId>
    row(std::uint32_t r) const
    {
        return {_csr.data() + rowsBegin() + _csr[r], _csr[r + 1] - _csr[r]};
    }

    /**
     * Kahn's algorithm: writes a topological order into @p order
     * (room for every task) using @p indegree (one per task) as
     * scratch, and returns how many tasks it ordered -- fewer than
     * numTasks() when the graph has a cycle. The first entries
     * written are the roots, ascending.
     */
    std::size_t kahn(TaskId *order, std::uint32_t *indegree) const;

    JobId _id;
    Tick _arrival;
    int _orchGroup = -1;
    std::vector<TaskSpec> _tasks;
    /**
     * Compressed index built by validate(), one array: 2n + 1 row
     * offsets, then n parent rows and n child rows (each in edge
     * insertion order), then the roots. Row r spans entries
     * [_csr[r], _csr[r + 1]) of the part past the offsets. Until
     * then it holds each added edge's (from, to).
     */
    std::vector<std::uint32_t> _csr;
    /**
     * Byte count of each parent-row entry's edge, same positions
     * (until validate(), in edge insertion order).
     */
    std::vector<Bytes> _parentBytes;
};

} // namespace holdcsim

#endif // HOLDCSIM_WORKLOAD_JOB_HH

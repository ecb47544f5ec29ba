#include "job.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace holdcsim {

void
Job::reserve(std::size_t tasks, std::size_t edges)
{
    // validate() needs room for the index, its scratch and the edges.
    _tasks.reserve(tasks);
    _csr.reserve(4 * tasks + 1 + 5 * edges);
    _parentBytes.reserve(edges);
}

TaskId
Job::addTask(const TaskSpec &spec)
{
    if (spec.serviceTime == 0)
        fatal("task service time must be positive");
    if (spec.computeIntensity < 0.0 || spec.computeIntensity > 1.0)
        fatal("task compute intensity must be in [0, 1]");
    _tasks.push_back(spec);
    return static_cast<TaskId>(_tasks.size() - 1);
}

void
Job::addEdge(TaskId from, TaskId to, Bytes bytes)
{
    _csr.push_back(from);
    _csr.push_back(to);
    _parentBytes.push_back(bytes);
}

Bytes
Job::edgeBytes(TaskId from, TaskId to) const
{
    std::span<const TaskId> ps = parents(to);
    for (std::size_t i = 0; i < ps.size(); ++i) {
        if (ps[i] == from)
            return parentBytes(to)[i];
    }
    return 0;
}

Tick
Job::totalWork() const
{
    Tick total = 0;
    for (const auto &t : _tasks)
        total += t.serviceTime;
    return total;
}

void
Job::validate()
{
    const auto n = static_cast<TaskId>(_tasks.size());
    if (n == 0)
        fatal("job ", _id, " has no tasks");
    const std::size_t m = numEdges();

    // Move the edges past the index and its scratch, then count each
    // row's entries one slot ahead, prefix-sum them into row starts,
    // fill rows by advancing those starts to the row ends, then shift
    // the ends back into starts. Past the rows, room for n roots and,
    // while validating, n task slots of scratch.
    const std::size_t base = rowsBegin();
    const std::size_t edges = base + 2 * m + 2 * n;
    _csr.resize(edges + 3 * m);
    std::copy_n(_csr.begin(), 2 * m, _csr.begin() + edges);
    std::fill_n(_csr.begin(), edges, 0);
    std::uint32_t *off = _csr.data();
    TaskId *entry = _csr.data() + base;
    const TaskId *ends = _csr.data() + edges;
    std::uint32_t *slot = _csr.data() + edges + 2 * m;
    for (std::size_t e = 0; e < m; ++e) {
        const TaskId from = ends[2 * e], to = ends[2 * e + 1];
        if (from >= n || to >= n)
            fatal("job ", _id, ": edge endpoint out of range");
        if (from == to)
            fatal("job ", _id, ": self-edge on task ", from);
        ++off[to + 1];
        ++off[n + from + 1];
    }
    for (std::size_t r = 1; r <= 2 * n; ++r)
        off[r] += off[r - 1];
    for (std::size_t e = 0; e < m; ++e) {
        const TaskId from = ends[2 * e], to = ends[2 * e + 1];
        slot[e] = off[to];
        entry[off[to]++] = from;
        entry[off[n + from]++] = to;
    }
    for (std::size_t r = 2 * n; r > 0; --r)
        off[r] = off[r - 1];
    off[0] = 0;
    // Put the byte counts in parent-row order, one cycle at a time.
    for (std::size_t e = 0; e < m; ++e) {
        while (slot[e] != e) {
            std::swap(_parentBytes[e], _parentBytes[slot[e]]);
            std::swap(slot[e], slot[slot[e]]);
        }
    }

    // A duplicate edge repeats a parent within one row: mark each
    // parent with the row it was last seen in.
    TaskId *mark = entry + 2 * m + n;
    std::fill(mark, mark + n, n);
    for (TaskId t = 0; t < n; ++t) {
        for (TaskId p : parents(t)) {
            if (mark[p] == t)
                fatal("job ", _id, ": duplicate edge ", p, "->", t);
            mark[p] = t;
        }
    }

    // Acyclicity via Kahn's algorithm; a cycle leaves tasks unordered.
    // The order starts with the roots, which the index keeps.
    TaskId *order = entry + 2 * m;
    if (kahn(order, mark) != n)
        fatal("job ", _id, ": task dependence graph has a cycle");
    const auto roots = static_cast<std::size_t>(
        std::find_if(order, order + n,
                     [&](TaskId t) { return !parents(t).empty(); }) -
        order);
    _csr.resize(base + 2 * m + roots);
}

std::size_t
Job::kahn(TaskId *order, std::uint32_t *indegree) const
{
    const auto n = static_cast<TaskId>(_tasks.size());
    std::size_t tail = 0;
    for (TaskId t = 0; t < n; ++t) {
        indegree[t] = static_cast<std::uint32_t>(parents(t).size());
        if (indegree[t] == 0)
            order[tail++] = t;
    }
    for (std::size_t head = 0; head < tail; ++head) {
        for (TaskId c : children(order[head])) {
            if (--indegree[c] == 0)
                order[tail++] = c;
        }
    }
    return tail;
}

std::vector<TaskId>
Job::topologicalOrder() const
{
    std::vector<TaskId> order(_tasks.size());
    std::vector<std::uint32_t> indegree(_tasks.size());
    order.resize(kahn(order.data(), indegree.data()));
    return order;
}

} // namespace holdcsim

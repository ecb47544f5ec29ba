#include "local_scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace holdcsim {

void
TaskFifo::push(const TaskRef &task)
{
    // Before the vector would grow, reclaim the popped prefix if it
    // is at least half the buffer: a queue that never drains then
    // stays within twice its live size, at amortized O(1) per push.
    if (_buf.size() == _buf.capacity() && _head > 0 &&
        2 * _head >= _buf.size()) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<std::ptrdiff_t>(_head));
        _head = 0;
    }
    _buf.push_back(task);
}

TaskRef
TaskFifo::pop()
{
    TaskRef t = _buf[_head++];
    if (empty())
        clear();
    return t;
}

bool
TaskFifo::remove(JobId job, TaskId task)
{
    auto it = std::find_if(
        _buf.begin() + static_cast<std::ptrdiff_t>(_head), _buf.end(),
        [&](const TaskRef &t) { return t.job == job && t.task == task; });
    if (it == _buf.end())
        return false;
    _buf.erase(it);
    if (empty())
        clear();
    return true;
}

void
TaskFifo::drainInto(std::vector<TaskRef> &out)
{
    out.insert(out.end(),
               _buf.begin() + static_cast<std::ptrdiff_t>(_head),
               _buf.end());
    clear();
}

void
TaskFifo::clear()
{
    _buf.clear();
    _head = 0;
}

LocalScheduler::LocalScheduler(LocalQueueMode mode, CorePickPolicy pick,
                               unsigned n_cores)
    : _mode(mode), _pick(pick), _nCores(n_cores)
{
    if (n_cores == 0)
        fatal("local scheduler needs at least one core");
}

const TaskFifo *
LocalScheduler::perCoreQueue(unsigned core_id) const
{
    if (core_id >= _nCores)
        HOLDCSIM_PANIC("core ", core_id, " out of range");
    return _perCore ? &_perCore[core_id] : nullptr;
}

void
LocalScheduler::enqueue(const TaskRef &task)
{
    if (_mode == LocalQueueMode::unified) {
        _unified.push(task);
        return;
    }
    if (!_perCore)
        _perCore = std::make_unique<TaskFifo[]>(_nCores);
    unsigned target = 0;
    if (_pick == CorePickPolicy::roundRobin) {
        target = _rrNext;
        _rrNext = (_rrNext + 1) % _nCores;
    } else {
        auto it = std::min_element(
            _perCore.get(), _perCore.get() + _nCores,
            [](const TaskFifo &a, const TaskFifo &b) {
                return a.size() < b.size();
            });
        target = static_cast<unsigned>(it - _perCore.get());
    }
    _perCore[target].push(task);
}

std::optional<TaskRef>
LocalScheduler::dequeueFor(unsigned core_id)
{
    if (!hasWorkFor(core_id))
        return std::nullopt;
    return _mode == LocalQueueMode::unified ? _unified.pop()
                                            : _perCore[core_id].pop();
}

bool
LocalScheduler::hasWorkFor(unsigned core_id) const
{
    if (_mode == LocalQueueMode::unified)
        return !_unified.empty();
    const TaskFifo *q = perCoreQueue(core_id);
    return q && !q->empty();
}

std::size_t
LocalScheduler::pending() const
{
    std::size_t total = _unified.size();
    for (unsigned c = 0; _perCore && c < _nCores; ++c)
        total += _perCore[c].size();
    return total;
}

bool
LocalScheduler::remove(JobId job, TaskId task)
{
    if (_unified.remove(job, task))
        return true;
    for (unsigned c = 0; _perCore && c < _nCores; ++c)
        if (_perCore[c].remove(job, task))
            return true;
    return false;
}

void
LocalScheduler::drainAll(std::vector<TaskRef> &out)
{
    _unified.drainInto(out);
    for (unsigned c = 0; _perCore && c < _nCores; ++c)
        _perCore[c].drainInto(out);
}

} // namespace holdcsim

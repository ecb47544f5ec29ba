#include "local_scheduler.hh"

#include <algorithm>
#include <new>

#include "sim/logging.hh"

namespace holdcsim {

TaskFifo::~TaskFifo()
{
    ::operator delete(_ring);
}

void
TaskFifo::grow()
{
    const std::size_t capacity = _ring ? 2 * _ring->capacity : 1;
    auto *ring = static_cast<Ring *>(
        ::operator new(sizeof(Ring) + capacity * sizeof(TaskRef)));
    ring->capacity = capacity;
    ring->head = 0;
    ring->size = size();
    for (std::size_t i = 0; i < ring->size; ++i)
        ::new (ring->items() + i) TaskRef(_ring->at(i));
    ::operator delete(_ring);
    _ring = ring;
}

void
TaskFifo::push(const TaskRef &task)
{
    if (!_ring || _ring->size == _ring->capacity)
        grow();
    ::new (&_ring->at(_ring->size)) TaskRef(task);
    ++_ring->size;
}

TaskRef
TaskFifo::pop()
{
    TaskRef t = _ring->at(0);
    if (++_ring->head == _ring->capacity)
        _ring->head = 0;
    --_ring->size;
    return t;
}

bool
TaskFifo::remove(JobId job, TaskId task)
{
    for (std::size_t i = 0; i < size(); ++i) {
        const TaskRef &t = _ring->at(i);
        if (t.job != job || t.task != task)
            continue;
        // Close the gap: every later task moves up one place.
        for (std::size_t k = i + 1; k < _ring->size; ++k)
            _ring->at(k - 1) = _ring->at(k);
        --_ring->size;
        return true;
    }
    return false;
}

void
TaskFifo::drainInto(std::vector<TaskRef> &out)
{
    for (std::size_t i = 0; i < size(); ++i)
        out.push_back(_ring->at(i));
    if (_ring)
        _ring->head = _ring->size = 0;
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

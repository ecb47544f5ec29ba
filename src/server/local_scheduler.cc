#include "local_scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace holdcsim {

LocalScheduler::LocalScheduler(LocalQueueMode mode, CorePickPolicy pick,
                               unsigned n_cores)
    : _mode(mode), _pick(pick), _nCores(n_cores)
{
    if (n_cores == 0)
        fatal("local scheduler needs at least one core");
    if (mode == LocalQueueMode::perCore)
        _perCore.resize(n_cores);
}

void
LocalScheduler::enqueue(const TaskRef &task)
{
    if (_mode == LocalQueueMode::unified) {
        _unified.push_back(task);
        return;
    }
    unsigned target = 0;
    if (_pick == CorePickPolicy::roundRobin) {
        target = _rrNext;
        _rrNext = (_rrNext + 1) % _nCores;
    } else {
        auto it = std::min_element(
            _perCore.begin(), _perCore.end(),
            [](const auto &a, const auto &b) {
                return a.size() < b.size();
            });
        target = static_cast<unsigned>(it - _perCore.begin());
    }
    _perCore[target].push_back(task);
}

std::optional<TaskRef>
LocalScheduler::dequeueFor(unsigned core_id)
{
    auto &q = _mode == LocalQueueMode::unified ? _unified
                                               : _perCore.at(core_id);
    if (q.empty())
        return std::nullopt;
    TaskRef t = q.front();
    q.pop_front();
    return t;
}

bool
LocalScheduler::hasWorkFor(unsigned core_id) const
{
    return _mode == LocalQueueMode::unified
               ? !_unified.empty()
               : !_perCore.at(core_id).empty();
}

std::size_t
LocalScheduler::pending() const
{
    if (_mode == LocalQueueMode::unified)
        return _unified.size();
    std::size_t total = 0;
    for (const auto &q : _perCore)
        total += q.size();
    return total;
}

bool
LocalScheduler::remove(JobId job, TaskId task)
{
    auto match = [&](const TaskRef &t) {
        return t.job == job && t.task == task;
    };
    if (_mode == LocalQueueMode::unified) {
        auto it = std::find_if(_unified.begin(), _unified.end(), match);
        if (it == _unified.end())
            return false;
        _unified.erase(it);
        return true;
    }
    for (auto &q : _perCore) {
        auto it = std::find_if(q.begin(), q.end(), match);
        if (it != q.end()) {
            q.erase(it);
            return true;
        }
    }
    return false;
}

void
LocalScheduler::drainAll(std::vector<TaskRef> &out)
{
    for (auto &t : _unified)
        out.push_back(t);
    _unified.clear();
    for (auto &q : _perCore) {
        for (auto &t : q)
            out.push_back(t);
        q.clear();
    }
}

} // namespace holdcsim

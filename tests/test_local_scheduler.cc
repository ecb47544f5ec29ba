/**
 * @file
 * The local scheduler's task FIFOs, checked against a std::deque
 * reference model: seeded random enqueue, dequeue, remove and drain
 * sequences must yield the same tasks in the same order, and the
 * same pending count after every step, in both queue modes under
 * both core-pick policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "server/local_scheduler.hh"

using namespace holdcsim;

namespace {

/** The pre-FIFO behaviour: one std::deque per queue. */
class DequeModel
{
  public:
    DequeModel(LocalQueueMode mode, CorePickPolicy pick, unsigned n)
        : _mode(mode), _pick(pick), _n(n),
          _queues(mode == LocalQueueMode::unified ? 1 : n)
    {}

    void
    enqueue(const TaskRef &t)
    {
        unsigned target = 0;
        if (_mode == LocalQueueMode::perCore) {
            if (_pick == CorePickPolicy::roundRobin) {
                target = _rr;
                _rr = (_rr + 1) % _n;
            } else {
                auto it = std::min_element(
                    _queues.begin(), _queues.end(),
                    [](const auto &a, const auto &b) {
                        return a.size() < b.size();
                    });
                target = static_cast<unsigned>(it - _queues.begin());
            }
        }
        _queues[target].push_back(t);
    }

    std::optional<TaskRef>
    dequeueFor(unsigned core)
    {
        auto &q = queueFor(core);
        if (q.empty())
            return std::nullopt;
        TaskRef t = q.front();
        q.pop_front();
        return t;
    }

    bool
    remove(JobId job, TaskId task)
    {
        for (auto &q : _queues) {
            auto it = std::find_if(q.begin(), q.end(), [&](const auto &t) {
                return t.job == job && t.task == task;
            });
            if (it != q.end()) {
                q.erase(it);
                return true;
            }
        }
        return false;
    }

    std::vector<TaskRef>
    drainAll()
    {
        std::vector<TaskRef> out;
        for (auto &q : _queues) {
            out.insert(out.end(), q.begin(), q.end());
            q.clear();
        }
        return out;
    }

    bool hasWorkFor(unsigned core) { return !queueFor(core).empty(); }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto &q : _queues)
            n += q.size();
        return n;
    }

    /** A queued task at @p where (0 head, 1 middle, 2 tail) of a
     *  random non-empty queue, or nullopt when everything is empty. */
    std::optional<TaskRef>
    pickQueued(std::mt19937_64 &rng, int where)
    {
        std::vector<const std::deque<TaskRef> *> busy;
        for (const auto &q : _queues)
            if (!q.empty())
                busy.push_back(&q);
        if (busy.empty())
            return std::nullopt;
        const auto &q = *busy[rng() % busy.size()];
        std::size_t at = where == 0   ? 0
                         : where == 1 ? q.size() / 2
                                      : q.size() - 1;
        return q[at];
    }

  private:
    std::deque<TaskRef> &
    queueFor(unsigned core)
    {
        return _queues[_mode == LocalQueueMode::unified ? 0 : core];
    }

    LocalQueueMode _mode;
    CorePickPolicy _pick;
    unsigned _n;
    std::vector<std::deque<TaskRef>> _queues;
    unsigned _rr = 0;
};

bool
sameTask(const TaskRef &a, const TaskRef &b)
{
    return a.job == b.job && a.task == b.task &&
           a.serviceTime == b.serviceTime;
}

struct Case {
    LocalQueueMode mode;
    CorePickPolicy pick;
};

std::string
caseName(const Case &c)
{
    return std::string(c.mode == LocalQueueMode::unified ? "Unified"
                                                         : "PerCore") +
           (c.pick == CorePickPolicy::roundRobin ? "RoundRobin"
                                                 : "LeastLoaded");
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << caseName(c);
}

class FifoModel : public ::testing::TestWithParam<Case>
{};

} // namespace

TEST_P(FifoModel, MatchesDequeReference)
{
    constexpr unsigned cores = 4;
    const Case c = GetParam();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::mt19937_64 rng(seed);
        LocalScheduler sut(c.mode, c.pick, cores);
        DequeModel ref(c.mode, c.pick, cores);
        JobId nextJob = 0;
        for (int step = 0; step < 4000; ++step) {
            // Alternate fill-heavy and drain-heavy phases of 500
            // steps, so queues both grow deep (the popped prefix gets
            // reclaimed) and empty out completely.
            const bool filling = (step / 500) % 2 == 0;
            const unsigned roll = static_cast<unsigned>(rng() % 1000);
            const unsigned enqueueBelow = filling ? 600 : 250;
            if (roll < enqueueBelow) {
                TaskRef t{nextJob, static_cast<TaskId>(nextJob % 3),
                          static_cast<Tick>(rng() % 1000 + 1), 1.0, 0};
                ++nextJob;
                sut.enqueue(t);
                ref.enqueue(t);
            } else if (roll < 850) {
                const unsigned core = static_cast<unsigned>(rng() % cores);
                auto got = sut.dequeueFor(core);
                auto want = ref.dequeueFor(core);
                ASSERT_EQ(got.has_value(), want.has_value())
                    << "seed " << seed << " step " << step;
                if (want) {
                    ASSERT_TRUE(sameTask(*got, *want))
                        << "seed " << seed << " step " << step;
                }
            } else if (roll < 998) {
                // Remove at the head, middle or tail of some queue,
                // or a task that was never queued.
                const int where = static_cast<int>(rng() % 4);
                std::optional<TaskRef> victim =
                    where < 3 ? ref.pickQueued(rng, where) : std::nullopt;
                const JobId job = victim ? victim->job : nextJob + 1;
                const TaskId task = victim ? victim->task : 0;
                ASSERT_EQ(sut.remove(job, task), ref.remove(job, task))
                    << "seed " << seed << " step " << step;
            } else {
                std::vector<TaskRef> got;
                sut.drainAll(got);
                std::vector<TaskRef> want = ref.drainAll();
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_TRUE(sameTask(got[i], want[i])) << i;
            }
            ASSERT_EQ(sut.pending(), ref.pending())
                << "seed " << seed << " step " << step;
            for (unsigned core = 0; core < cores; ++core)
                ASSERT_EQ(sut.hasWorkFor(core), ref.hasWorkFor(core));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LocalScheduler, FifoModel,
    ::testing::Values(
        Case{LocalQueueMode::unified, CorePickPolicy::roundRobin},
        Case{LocalQueueMode::unified, CorePickPolicy::leastLoaded},
        Case{LocalQueueMode::perCore, CorePickPolicy::roundRobin},
        Case{LocalQueueMode::perCore, CorePickPolicy::leastLoaded}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return caseName(info.param);
    });

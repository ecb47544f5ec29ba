#include "one_shot.hh"

namespace holdcsim {

/**
 * The event itself: unregisters from its pool and parks itself on the
 * pool's free list after running. Safe because the engine never
 * touches an event object after process() returns -- even if the
 * pool immediately re-arms this same shot from inside the fired
 * function.
 */
class OneShotPool::Shot : public Event
{
  public:
    explicit Shot(OneShotPool &pool)
        : Event(pool._name, pool._priority), _pool(pool)
    {}

    void
    arm(std::function<void()> fn, std::size_t live_idx)
    {
        _fn = std::move(fn);
        _liveIdx = live_idx;
    }

    void
    process() override
    {
        auto fn = std::move(_fn);
        _fn = nullptr; // drop captures before running, like delete did
        _pool.recycle(this);
        fn();
    }

  private:
    friend class OneShotPool;

    OneShotPool &_pool;
    std::function<void()> _fn;
    std::size_t _liveIdx = 0;
};

OneShotPool::OneShotPool(Simulator &sim, const char *name, int priority)
    : _sim(sim), _name(name), _priority(priority)
{}

OneShotPool::~OneShotPool()
{
    for (Shot *shot : _live) {
        if (shot->scheduled())
            _sim.deschedule(*shot);
        delete shot;
    }
    for (Shot *shot : _free)
        delete shot;
}

OneShotPool::Shot *
OneShotPool::acquire(std::function<void()> fn)
{
    Shot *shot;
    if (_free.empty()) {
        shot = new Shot(*this);
    } else {
        shot = _free.back();
        _free.pop_back();
    }
    shot->arm(std::move(fn), _live.size());
    _live.push_back(shot);
    return shot;
}

void
OneShotPool::schedule(Tick delay, std::function<void()> fn)
{
    _sim.scheduleAfter(*acquire(std::move(fn)), delay);
}

void
OneShotPool::scheduleAt(Tick when, std::function<void()> fn)
{
    _sim.schedule(*acquire(std::move(fn)), when);
}

void
OneShotPool::recycle(Shot *shot)
{
    std::size_t idx = shot->_liveIdx;
    std::size_t last = _live.size() - 1;
    if (idx != last) {
        _live[idx] = _live[last];
        _live[idx]->_liveIdx = idx;
    }
    _live.pop_back();
    _free.push_back(shot);
}

} // namespace holdcsim

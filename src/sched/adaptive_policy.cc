#include "adaptive_policy.hh"

#include "sim/logging.hh"

namespace holdcsim {

AdaptivePoolPolicy::AdaptivePoolPolicy(GlobalScheduler &sched,
                                       const AdaptiveConfig &config)
    : _sched(sched), _config(config),
      _checkEvent([this] { check(); }, "adaptive.check",
                  Event::powerPriority)
{
    // A policy heartbeat must not keep an otherwise-finished
    // simulation running.
    _checkEvent.setBackground(true);
    if (config.sleepThreshold >= config.wakeupThreshold)
        fatal("adaptive policy needs sleepThreshold < wakeupThreshold");
    if (config.initialActive == 0 ||
        config.initialActive > sched.servers().size()) {
        fatal("adaptive policy initialActive out of range");
    }

    const auto &servers = _sched.servers();
    for (std::size_t i = 0; i < servers.size(); ++i) {
        bool active = i < config.initialActive;
        servers[i]->setDelayTimer(active ? maxTick
                                         : config.deepSleepAfter);
        _sched.setEligible(i, active);
    }
    // Bursty arrivals must be able to rouse servers promptly
    // (paper: "promptly adjust the resources in these two pools"),
    // so promotions ride the load-changed hook; demotions only
    // happen on the slower periodic check.
    _sched.setLoadChangedHook([this] { checkPromotion(); });
}

AdaptivePoolPolicy::~AdaptivePoolPolicy()
{
    _sched.setLoadChangedHook(nullptr);
    if (_checkEvent.scheduled())
        _sched.simulator().deschedule(_checkEvent);
}

void
AdaptivePoolPolicy::start()
{
    _running = true;
    _sched.simulator().reschedule(
        _checkEvent,
        _sched.simulator().curTick() + _config.checkInterval);
}

void
AdaptivePoolPolicy::stop()
{
    _running = false;
    if (_checkEvent.scheduled())
        _sched.simulator().deschedule(_checkEvent);
}

bool
AdaptivePoolPolicy::cooldownActive() const
{
    Tick now = _sched.simulator().curTick();
    return now - _lastTransition < _config.transitionCooldown &&
           !(_lastTransition == 0 && now == 0);
}

void
AdaptivePoolPolicy::checkPromotion()
{
    double load = _sched.loadPerEligibleServer();
    if (load <= _config.wakeupThreshold)
        return;
    // While a promoted server is still waking, its capacity is not
    // yet visible in the load estimate; promoting again would
    // cascade wakes off the same backlog.
    for (std::size_t i = 0; i < _sched.servers().size(); ++i) {
        if (_sched.eligible(i) && _sched.servers()[i]->isWaking())
            return;
    }
    // Urgent overload bypasses the cooldown.
    bool urgent = load > 2.0 * _config.wakeupThreshold;
    if (!urgent && cooldownActive())
        return;
    promoteOne();
}

void
AdaptivePoolPolicy::check()
{
    double load = _sched.loadPerEligibleServer();
    if (load > _config.wakeupThreshold) {
        checkPromotion();
    } else if (load < _config.sleepThreshold &&
               _sched.numEligible() > 1 && !cooldownActive()) {
        demoteOne();
    }
    if (_running) {
        _sched.simulator().reschedule(_checkEvent,
                                      _sched.simulator().curTick() +
                                          _config.checkInterval);
    } else if (_checkEvent.scheduled()) {
        _sched.simulator().deschedule(_checkEvent);
    }
}

void
AdaptivePoolPolicy::promoteOne()
{
    const auto &servers = _sched.servers();
    // Prefer a sleep-pool server that is still awake (package C6
    // wake is sub-millisecond); fall back to a suspended one.
    std::size_t pick = servers.size();
    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (_sched.eligible(i))
            continue;
        if (!servers[i]->isAsleep()) {
            pick = i;
            break;
        }
        if (pick == servers.size())
            pick = i;
    }
    if (pick == servers.size())
        return; // sleep pool empty
    _sched.setEligible(pick, true);
    servers[pick]->setDelayTimer(maxTick);
    servers[pick]->wakeUp();
    ++_promotions;
    _lastTransition = _sched.simulator().curTick();
}

void
AdaptivePoolPolicy::demoteOne()
{
    const auto &servers = _sched.servers();
    // Demote the least-loaded active server.
    std::size_t pick = servers.size();
    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (!_sched.eligible(i))
            continue;
        if (pick == servers.size() ||
            servers[i]->load() < servers[pick]->load()) {
            pick = i;
        }
    }
    if (pick == servers.size())
        return;
    _sched.setEligible(pick, false);
    servers[pick]->setDelayTimer(_config.deepSleepAfter);
    ++_demotions;
    _lastTransition = _sched.simulator().curTick();
}

void
configureDualTimers(GlobalScheduler &sched,
                    const DualTimerConfig &config)
{
    const auto &servers = sched.servers();
    if (config.highPoolSize == 0 ||
        config.highPoolSize > servers.size()) {
        fatal("dual-timer high pool size out of range");
    }
    std::set<std::size_t> preferred;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        bool high = i < config.highPoolSize;
        if (high)
            preferred.insert(i);
        servers[i]->setDelayTimer(high ? config.tauHigh
                                       : config.tauLow);
    }
    sched.setPolicy(
        std::make_unique<PreferredPoolPolicy>(std::move(preferred)));
}

} // namespace holdcsim

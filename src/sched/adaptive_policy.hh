/**
 * @file
 * Workload-adaptive energy-latency optimization (paper case study
 * IV-C, after WASP [66]).
 *
 * Servers are coordinated between two pools. Active-pool servers
 * receive work and are allowed only the shallow sleep state (package
 * C6, sub-millisecond wakeup); sleep-pool servers receive no work
 * and their delay timer takes them from package C6 down to system
 * sleep (suspend-to-RAM) after a short residency. A load
 * estimator tracks the number of pending jobs per active server:
 * above T_wakeup one server is promoted from the sleep pool; below
 * T_sleep one active server is demoted. The front-end load balancer
 * dispatches to the active pool only.
 */

#ifndef HOLDCSIM_SCHED_ADAPTIVE_POLICY_HH
#define HOLDCSIM_SCHED_ADAPTIVE_POLICY_HH

#include <cstdint>
#include <vector>

#include "global_scheduler.hh"
#include "sim/event.hh"

namespace holdcsim {

/** Thresholds for the workload-adaptive pool manager. */
struct AdaptiveConfig {
    /**
     * Promote a server when load per active server exceeds this.
     * To concentrate work on few fully-packed servers (the paper's
     * Figure 8 behavior) set it slightly above the core count.
     */
    double wakeupThreshold = 1.5;
    /** Demote a server when load/active-server falls below this. */
    double sleepThreshold = 0.5;
    /**
     * Minimum spacing between pool transitions: damps wake/sleep
     * thrash around the thresholds. Urgent promotions (load at
     * twice the wakeup threshold) bypass it.
     */
    Tick transitionCooldown = 500 * msec;
    /** Sleep-pool delay from package C6 to system sleep (tau). */
    Tick deepSleepAfter = 500 * msec;
    /** Periodic re-evaluation (bursts are also caught via the
     *  scheduler's load-changed hook). */
    Tick checkInterval = 50 * msec;
    /** Servers initially in the active pool. */
    std::size_t initialActive = 1;
};

/** Two-pool (active / sleep) adaptive server manager. */
class AdaptivePoolPolicy
{
  public:
    /**
     * Sets the delay timer of every server of @p sched (off in the
     * active pool, deepSleepAfter in the sleep pool) and registers
     * itself on the scheduler's load-changed hook.
     */
    AdaptivePoolPolicy(GlobalScheduler &sched,
                       const AdaptiveConfig &config);
    ~AdaptivePoolPolicy();
    AdaptivePoolPolicy(const AdaptivePoolPolicy &) = delete;
    AdaptivePoolPolicy &operator=(const AdaptivePoolPolicy &) = delete;

    /** Begin periodic control. */
    void start();
    void stop();

    /** Servers currently in the active pool. */
    std::size_t activePoolSize() const { return _sched.numEligible(); }

    std::uint64_t promotions() const { return _promotions; }
    std::uint64_t demotions() const { return _demotions; }

  private:
    void check();
    /** Fast path: called on every load change, promotions only. */
    void checkPromotion();
    void promoteOne();
    void demoteOne();
    bool cooldownActive() const;

    GlobalScheduler &_sched;
    AdaptiveConfig _config;
    bool _running = false;
    Tick _lastTransition = 0;
    EventFunctionWrapper _checkEvent;
    std::uint64_t _promotions = 0;
    std::uint64_t _demotions = 0;
};

/**
 * Dual delay timer setup (paper case study IV-B, after [69]): a
 * high-tau pool of @p highPoolSize servers is preferred for
 * dispatch; the rest carry a short tau and suspend quickly.
 */
struct DualTimerConfig {
    std::size_t highPoolSize = 2;
    Tick tauHigh = 4 * sec;
    Tick tauLow = 100 * msec;
};

/**
 * Set every server's delay timer per the dual-timer scheme and switch
 * the scheduler to the preferred-pool dispatch policy.
 */
void configureDualTimers(GlobalScheduler &sched,
                         const DualTimerConfig &config);

} // namespace holdcsim

#endif // HOLDCSIM_SCHED_ADAPTIVE_POLICY_HH

/**
 * @file
 * Built-in server power controllers (paper sections III-F, IV-B and
 * IV-C).
 *
 * Controllers implement the local sleep-state transition policies the
 * case studies compare:
 *
 *  - AlwaysOnController: the "Active-Idle" baseline; the server never
 *    enters a system sleep state (cores still use C-states).
 *  - DelayTimerController: after tau of idleness, suspend to RAM --
 *    the single delay timer of case study IV-B. tau = 0 gives the
 *    aggressive on-off policy.
 *
 * The WASP sleep pools of case study IV-C are not a controller of
 * their own: sched/adaptive_policy retunes each server's
 * DelayTimerController (package C6 comes from the core idle governor
 * as soon as the cores drain).
 *
 * A controller schedules nothing itself. The delay timer is the
 * server's sleep timer (Server::armSleepTimer()), which the server's
 * CorePool keeps as one deadline and fires, at its own tick, when the
 * server is next read -- no event per idle period.
 */

#ifndef HOLDCSIM_SERVER_POWER_CONTROLLER_HH
#define HOLDCSIM_SERVER_POWER_CONTROLLER_HH

#include "server.hh"

namespace holdcsim {

/** The Active-Idle baseline: never suspends the system. */
class AlwaysOnController : public ServerPowerController
{
  public:
    void becameBusy(Server &server) override { (void)server; }
    void becameIdle(Server &server) override { (void)server; }
};

/**
 * Single delay timer: when the server has been idle for tau, it is
 * suspended (default S3). New work cancels the timer; work arriving
 * during sleep triggers the server's wake path.
 */
class DelayTimerController : public ServerPowerController
{
  public:
    explicit DelayTimerController(Tick tau, SState target = SState::s3);

    void attach(Server &server) override;
    void becameBusy(Server &server) override;
    void becameIdle(Server &server) override;

    Tick tau() const { return _tau; }

    /**
     * Retune the timer. Takes effect immediately: a pending
     * countdown is re-armed from its start; maxTick disables the
     * timer entirely (the server then never self-suspends).
     */
    void setTau(Tick tau);

  private:
    Tick _tau;
    SState _target;
    Server *_server = nullptr;
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_POWER_CONTROLLER_HH

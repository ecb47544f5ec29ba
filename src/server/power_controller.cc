#include "power_controller.hh"

#include "sim/logging.hh"

namespace holdcsim {

// -------------------------------------------------------- DelayTimerController

DelayTimerController::DelayTimerController(Tick tau, SState target)
    : _tau(tau), _target(target)
{
    if (target == SState::s0)
        fatal("delay timer target must be a sleep state");
}

DelayTimerController::~DelayTimerController()
{
    if (_server && _timer && _timer->scheduled())
        _server->simulator().deschedule(*_timer);
}

void
DelayTimerController::attach(Server &server)
{
    _server = &server;
    _timer.emplace([this] { _server->sleep(_target); },
                   "delayTimer.fire", Event::powerPriority);
    if (server.isIdle())
        becameIdle(server);
}

void
DelayTimerController::becameBusy(Server &server)
{
    (void)server;
    if (_timer && _timer->scheduled())
        _server->simulator().deschedule(*_timer);
}

void
DelayTimerController::becameIdle(Server &server)
{
    if (!_timer)
        HOLDCSIM_PANIC("delay timer used before attach()");
    if (_tau == maxTick)
        return; // timer disabled: behave like Active-Idle
    server.simulator().reschedule(*_timer,
                                  server.simulator().curTick() + _tau);
}

void
DelayTimerController::setTau(Tick tau)
{
    _tau = tau;
    if (!_server || !_timer)
        return;
    if (_server->isIdle() && _tau != maxTick)
        becameIdle(*_server); // reschedule moves any live timer
    else if (_timer->scheduled())
        _server->simulator().deschedule(*_timer);
}

} // namespace holdcsim

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

void
DelayTimerController::attach(Server &server)
{
    _server = &server;
    if (server.isIdle())
        becameIdle(server);
}

void
DelayTimerController::becameBusy(Server &server)
{
    server.cancelSleepTimer();
}

void
DelayTimerController::becameIdle(Server &server)
{
    if (_tau == maxTick)
        return; // timer disabled: behave like Active-Idle
    server.armSleepTimer(_tau, _target);
}

void
DelayTimerController::setTau(Tick tau)
{
    _tau = tau;
    if (!_server)
        return;
    if (_server->isIdle() && _tau != maxTick)
        becameIdle(*_server); // restarts any pending countdown
    else
        _server->cancelSleepTimer();
}

} // namespace holdcsim

#include "dvfs.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace holdcsim {

DvfsGovernor::DvfsGovernor(Server &server, const DvfsConfig &config)
    : _server(server), _config(config),
      _tickEvent([this] { tick(); }, "dvfs.tick",
                 Event::powerPriority)
{
    if (config.lowWatermark >= config.highWatermark)
        fatal("DVFS governor needs lowWatermark < highWatermark");
    if (config.interval == 0)
        fatal("DVFS interval must be positive");
    _tickEvent.setBackground(true);
}

DvfsGovernor::~DvfsGovernor()
{
    if (_tickEvent.scheduled())
        _server.simulator().deschedule(_tickEvent);
}

void
DvfsGovernor::start()
{
    _running = true;
    _server.simulator().reschedule(
        _tickEvent, _server.simulator().curTick() + _config.interval);
}

void
DvfsGovernor::stop()
{
    _running = false;
    if (_tickEvent.scheduled())
        _server.simulator().deschedule(_tickEvent);
}

void
DvfsGovernor::tick()
{
    const auto n_pstates = _server.profile().pstates.size();
    double util = static_cast<double>(_server.load()) /
                  static_cast<double>(_server.numCores());

    // Map utilization linearly onto the P-state table: at or above
    // the high watermark run flat out; at or below the low one use
    // the deepest state.
    std::size_t target;
    if (util >= _config.highWatermark) {
        target = 0;
    } else if (util <= _config.lowWatermark) {
        target = n_pstates - 1;
    } else {
        double span = _config.highWatermark - _config.lowWatermark;
        double frac = (util - _config.lowWatermark) / span; // (0,1)
        target = static_cast<std::size_t>(
            std::lround((1.0 - frac) *
                        static_cast<double>(n_pstates - 1)));
    }
    _target = target;

    // Apply at task boundaries: only idle cores retune now; busy
    // cores pick the new state up after their current task.
    for (unsigned c = 0; c < _server.numCores(); ++c) {
        Core core = _server.core(c);
        if (!core.busy() && core.pstate() != target) {
            core.setPState(target);
            ++_transitions;
        }
    }

    if (_running) {
        _server.simulator().scheduleAfter(_tickEvent,
                                          _config.interval);
    }
}

} // namespace holdcsim

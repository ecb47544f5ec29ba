#include "power_state.hh"

#include "sim/logging.hh"

namespace holdcsim {

std::string
toString(CoreCState s)
{
    switch (s) {
      case CoreCState::c0Active: return "C0-active";
      case CoreCState::c0Idle:   return "C0-idle";
      case CoreCState::c1:       return "C1";
      case CoreCState::c3:       return "C3";
      case CoreCState::c6:       return "C6";
    }
    HOLDCSIM_PANIC("unknown CoreCState");
}

std::string
toString(ServerState s)
{
    switch (s) {
      case ServerState::active:   return "active";
      case ServerState::wakingUp: return "wake-up";
      case ServerState::idle:     return "idle";
      case ServerState::pkgC6:    return "pkg-c6";
      case ServerState::sysSleep: return "sys-sleep";
      case ServerState::failed:   return "failed";
    }
    HOLDCSIM_PANIC("unknown ServerState");
}

} // namespace holdcsim

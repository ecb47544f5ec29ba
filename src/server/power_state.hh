/**
 * @file
 * ACPI-based hierarchical power states for servers (paper section
 * III-A).
 *
 * The model follows the ACPI structure the paper describes: system
 * sleep states Sx define the power status of the whole platform;
 * while the system is in S0 the processor cores reside in C-states
 * (core level) and the package derives its own PC-state from its
 * cores; P-states (DVFS) set execution speed while in C0.
 */

#ifndef HOLDCSIM_SERVER_POWER_STATE_HH
#define HOLDCSIM_SERVER_POWER_STATE_HH

#include <cstdint>
#include <string>

namespace holdcsim {

/** Core-level C-states (one byte: a core slot packs it). */
enum class CoreCState : std::uint8_t {
    /** Executing instructions. */
    c0Active,
    /** Clock running, no work (polling idle). */
    c0Idle,
    /** Halt: core clock gated. */
    c1,
    /** Deeper sleep: caches flushed progressively. */
    c3,
    /** Core power gated. */
    c6,
};

/** Package-level C-states, derived from the member cores. */
enum class PkgCState : std::uint8_t {
    /** At least one core active. */
    pc0,
    /** All cores idle but uncore still up. */
    pc2,
    /** Package power gated (all cores in C6, uncore down). */
    pc6,
};

/** ACPI system sleep states. */
enum class SState : std::uint8_t {
    /** Working. */
    s0,
    /** Suspend to RAM. */
    s3,
    /** Soft off. */
    s5,
};

/**
 * Observable server-level states used for residency accounting;
 * matches the categories of the paper's Figure 8: Active, Wake-up,
 * Idle, Pkg C6, System Sleep.
 */
enum class ServerState {
    /** At least one core executing a task. */
    active,
    /** Transitioning from a sleep state back to S0. */
    wakingUp,
    /** In S0 with no task executing, package not power-gated. */
    idle,
    /** In S0 with the package in PC6. */
    pkgC6,
    /** System sleep (S3 or S5). */
    sysSleep,
    /**
     * Crashed by the fault model: the machine is down and draws no
     * power until repaired. Appended after the paper's Figure 8
     * categories so their residency indices stay stable.
     */
    failed,
};

/** Human-readable state names (for logs and stat dumps). */
std::string toString(CoreCState s);
std::string toString(ServerState s);

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_POWER_STATE_HH

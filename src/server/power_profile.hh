/**
 * @file
 * Hierarchical server power profiles (paper section III-F).
 *
 * A profile holds per-state component powers (core C-states, package
 * C-states, DRAM, platform), state-transition latencies, the DVFS
 * P-state table, and the core idle-governor demotion thresholds.
 * Users derive profiles from measurements (RAPL/IPMI) or modeling
 * tools (CACTI/McPAT); the built-in default is derived from public
 * data-sheet and measurement literature for the Intel Xeon E5-2680 v2
 * (10 cores) that the paper validates against.
 */

#ifndef HOLDCSIM_SERVER_POWER_PROFILE_HH
#define HOLDCSIM_SERVER_POWER_PROFILE_HH

#include <vector>

#include "sim/types.hh"

namespace holdcsim {

/** Component powers, transition latencies and DVFS table. */
struct ServerPowerProfile {
    /** @name Per-core power by C-state (watts) */
    ///@{
    Watts coreActive = 6.5;
    Watts coreC0Idle = 3.0;
    Watts coreC1 = 1.5;
    Watts coreC3 = 0.8;
    Watts coreC6 = 0.05;
    ///@}

    /** @name Package/uncore power by PC-state (watts) */
    ///@{
    Watts pkgPc0 = 10.0;
    Watts pkgPc2 = 5.0;
    Watts pkgPc6 = 1.0;
    ///@}

    /** @name DRAM power (watts) */
    ///@{
    Watts dramActive = 6.0;
    Watts dramIdle = 2.5;
    Watts dramSelfRefresh = 0.3;
    ///@}

    /** @name Platform power: PSU losses, fans, disk, NIC (watts) */
    ///@{
    Watts platformS0 = 45.0;
    Watts platformS3 = 4.0;
    Watts platformS5 = 1.0;
    ///@}

    /** @name C-state exit latencies */
    ///@{
    Tick c1ExitLatency = 2 * usec;
    Tick c3ExitLatency = 80 * usec;
    Tick c6ExitLatency = 100 * usec;
    /** Package C6 exit (paper: "less than 1 ms"). */
    Tick pc6ExitLatency = 600 * usec;
    ///@}

    /** @name System sleep (S3, suspend-to-RAM) transition latencies */
    ///@{
    Tick s3WakeLatency = 1500 * msec;
    Tick s3EntryLatency = 300 * msec;
    ///@}

    /** One DVFS operating point. */
    struct PState {
        /** Core clock at this P-state. */
        double freqGhz;
        /** Active-power multiplier relative to P0 (~ f * V^2). */
        double powerScale;
    };

    /** P-state table; index 0 is the nominal (highest) P-state. */
    std::vector<PState> pstates = {
        {2.8, 1.00}, {2.4, 0.72}, {2.0, 0.51},
        {1.6, 0.34}, {1.2, 0.21},
    };

    /**
     * @name Core idle-governor demotion thresholds
     * After this much idle time the governor demotes the core to the
     * respective C-state; maxTick disables a state.
     */
    ///@{
    Tick demoteC1After = 0;
    Tick demoteC3After = 100 * usec;
    Tick demoteC6After = 500 * usec;
    ///@}

    /** Throw FatalError if the profile is inconsistent, or has more
     *  than the 256 P-states a core's one-byte index can name. */
    void validate() const;

    /**
     * Default profile modeled after the Intel Xeon E5-2680 v2 server
     * used in the paper's validation (10 cores, 2.8 GHz nominal).
     */
    static ServerPowerProfile xeonE5_2680();

    /**
     * Profile scoped to what Intel RAPL reports (package domain
     * only): platform and DRAM contributions zeroed, used to mirror
     * the paper's Figure 12 server-power validation setup.
     */
    static ServerPowerProfile xeonE5_2680RaplOnly();
};

} // namespace holdcsim

#endif // HOLDCSIM_SERVER_POWER_PROFILE_HH

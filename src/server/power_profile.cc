#include "power_profile.hh"

#include "sim/logging.hh"

namespace holdcsim {

void
ServerPowerProfile::validate() const
{
    if (pstates.empty())
        fatal("power profile needs at least one P-state");
    if (pstates.size() > 256)
        fatal("a profile may define at most 256 P-states");
    for (const auto &p : pstates) {
        if (p.freqGhz <= 0.0 || p.powerScale <= 0.0)
            fatal("P-state frequencies and power scales must be positive");
    }
    for (std::size_t i = 1; i < pstates.size(); ++i) {
        if (pstates[i].freqGhz > pstates[i - 1].freqGhz)
            fatal("P-states must be ordered fastest first");
    }
    if (coreActive < coreC0Idle || coreC0Idle < coreC1 ||
        coreC1 < coreC3 || coreC3 < coreC6 || coreC6 < 0.0) {
        fatal("core C-state powers must decrease with state depth");
    }
    if (pkgPc0 < pkgPc2 || pkgPc2 < pkgPc6 || pkgPc6 < 0.0)
        fatal("package C-state powers must decrease with state depth");
    if (dramActive < dramIdle || dramIdle < dramSelfRefresh ||
        dramSelfRefresh < 0.0) {
        fatal("DRAM powers must decrease with state depth");
    }
    if (platformS0 < platformS3 || platformS3 < platformS5 ||
        platformS5 < 0.0) {
        fatal("platform powers must decrease with state depth");
    }
}

ServerPowerProfile
ServerPowerProfile::xeonE5_2680()
{
    // The class defaults are the E5-2680 v2 numbers.
    return ServerPowerProfile{};
}

ServerPowerProfile
ServerPowerProfile::xeonE5_2680RaplOnly()
{
    ServerPowerProfile p;
    // RAPL's package domain excludes DRAM (separate domain) and the
    // rest of the platform; zero them so simulated power is directly
    // comparable to package-power measurements.
    p.dramActive = p.dramIdle = p.dramSelfRefresh = 0.0;
    p.platformS0 = p.platformS3 = p.platformS5 = 0.0;
    return p;
}

} // namespace holdcsim

/**
 * @file
 * The benchmark's workloads. Each builds a plant, installs an
 * open-loop job stream whose every random draw comes from the
 * workload seed, runs it to drain, and dumps its statistics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "network/network.hh"
#include "sched/global_scheduler.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"
#include "workload/arrival.hh"
#include "workload/job_generator.hh"

namespace perfbench {

/** A built data center, whichever way it was assembled. */
class Plant
{
  public:
    virtual ~Plant() = default;

    virtual holdcsim::Simulator &sim() = 0;
    virtual holdcsim::GlobalScheduler &scheduler() = 0;
    virtual const std::vector<holdcsim::Server *> &servers() = 0;
    /** Null without a fabric. */
    virtual holdcsim::Network *network() = 0;
    /** Null unless governor timers ride the shared wheel. */
    virtual holdcsim::TimerWheel *timerWheel() = 0;

    virtual void pump(std::unique_ptr<holdcsim::ArrivalProcess> arrivals,
                      holdcsim::JobGenerator &jobs,
                      std::size_t max_jobs) = 0;
    virtual void run() = 0;
    /** Every statistic the plant reports, as "group.stat value". */
    virtual void dumpStats(std::ostream &os) = 0;
};

/** One workload at one size. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the plant (the part timed as dc.build_s). */
    virtual std::unique_ptr<Plant> build() const = 0;
    /** A fresh instance of the dispatch policy the plant was built with. */
    virtual std::unique_ptr<holdcsim::DispatchPolicy> policy() const = 0;
    virtual std::unique_ptr<holdcsim::JobGenerator>
    jobs(Plant &plant) const = 0;
    virtual std::unique_ptr<holdcsim::ArrivalProcess>
    arrivals(Plant &plant) const = 0;
    /** Jobs the stream injects before it stops. */
    virtual std::size_t numJobs() const = 0;
};

/**
 * The workload called @p name ("three_tier", "farm_20k",
 * "fattree_fanout", "warehouse_100k"), or null for an unknown name.
 * @p quick selects a small size of the same shape, for tests.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, bool quick);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

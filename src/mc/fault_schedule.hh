/**
 * @file
 * The unit of exploration: one explicit fault schedule.
 *
 * A FaultSchedule is a finite list of (target, down, up) episodes
 * over a bounded horizon -- the "input word" the model-checking
 * explorer enumerates, runs through the deterministic simulator, and
 * delta-debugs down to a minimal reproducer. Schedules have a
 * canonical text form (the fault-trace format writeFaultTrace
 * writes and readFaultTrace reads, sorted) and a stable 64-bit
 * hash over it, used for deduplication across strategy tiers and for
 * campaign-journal keying, so interrupted explorations resume
 * without re-running completed schedules.
 */

#ifndef HOLDCSIM_MC_FAULT_SCHEDULE_HH
#define HOLDCSIM_MC_FAULT_SCHEDULE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault_model.hh"

namespace holdcsim::mc {

/** An explicit, bounded fault schedule (the explored object). */
struct FaultSchedule {
    std::vector<ScheduledFault> faults;

    /**
     * Sort episodes into the canonical order (downAt, target, upAt).
     * Replay semantics are order-independent -- the FaultManager
     * plays each target's episodes by time -- so sorting never
     * changes behavior, only the text and hash.
     */
    void canonicalize();

    /** The canonical text: writeFaultTrace of the sorted episodes. */
    std::string canonicalText() const;

    /**
     * FNV-1a 64-bit hash of canonicalText(). Stable across runs and
     * platforms; the dedup and journal key.
     */
    std::uint64_t hash() const;

    bool empty() const { return faults.empty(); }
    std::size_t size() const { return faults.size(); }

    bool
    operator==(const FaultSchedule &o) const
    {
        return faults == o.faults;
    }
};

/**
 * Write @p schedule as a replayable repro file: writeFaultTrace of the
 * sorted episodes after @p header_lines (e.g. the oracle verdict and
 * the exact replay command). readFaultTrace reads it back.
 */
void writeReproFile(std::ostream &os, const FaultSchedule &schedule,
                    const std::vector<std::string> &header_lines);

} // namespace holdcsim::mc

#endif // HOLDCSIM_MC_FAULT_SCHEDULE_HH

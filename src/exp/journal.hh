/**
 * @file
 * Append-only campaign journal.
 *
 * Every completed (sweep point, replica) cell of a campaign is
 * appended to a JSONL file -- one self-contained JSON object per
 * line, flushed per record -- keyed by a 64-bit hash of the campaign
 * configuration plus the cell's seed. A campaign restarted with
 * --resume replays the journal, skips every cell already recorded
 * and re-executes only the rest; metric values are journaled as
 * shortest-round-trip decimal strings (formatMetricValue), so a
 * resumed campaign's aggregate CSV is byte-identical to an
 * uninterrupted run's.
 *
 * Records whose config hash does not match the current campaign are
 * ignored with a warning (a stale journal never contaminates
 * results), and a torn final line -- the crash case an append-only
 * journal exists for -- is skipped on load.
 */

#ifndef HOLDCSIM_EXP_JOURNAL_HH
#define HOLDCSIM_EXP_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace holdcsim {

/** Ordered metric name/value pairs returned by one run. */
using MetricRow = std::vector<std::pair<std::string, double>>;

/** A completed (point, replica) cell. */
struct ReplicaRecord {
    std::size_t point = 0;
    std::size_t replica = 0;
    std::uint64_t seed = 0;
    MetricRow metrics;
};

/** A (point, replica) cell quarantined after repeated failures. */
struct QuarantineRecord {
    std::size_t point = 0;
    std::size_t replica = 0;
    std::uint64_t seed = 0;
    /** Last failure message before giving up. */
    std::string error;
};

/** Append-only JSONL record of completed campaign cells. */
class CampaignJournal
{
  public:
    /**
     * Open the journal at @p path for the campaign hashed to
     * @p config_hash: fnv1a64 (sim/random.hh) of the canonical campaign
     * description (config + sweep + replicas + base seed). Records
     * are only replayed into campaigns with a matching hash. With
     * @p resume, existing records (matching the hash) are loaded and
     * new ones appended; without it, any existing file is truncated
     * and the campaign starts clean.
     * Throws FatalError when the file cannot be opened.
     */
    CampaignJournal(const std::string &path, std::uint64_t config_hash,
                    bool resume);

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /** Whether cell (point, replica) already has a journaled result. */
    bool hasResult(std::size_t point, std::size_t replica) const;

    /** The journaled result of (point, replica). @pre hasResult(). */
    const ReplicaRecord &result(std::size_t point,
                                std::size_t replica) const;

    /** Whether (point, replica) was quarantined in a previous run. */
    bool isQuarantined(std::size_t point, std::size_t replica) const;

    /** Append (and flush) a completed cell. */
    void appendResult(const ReplicaRecord &rec);

    /** Append (and flush) a quarantined cell. */
    void appendQuarantine(const QuarantineRecord &rec);

    /** Journaled results (loaded + appended this run). */
    std::size_t resultCount() const { return _results.size(); }

    /** Journaled quarantines (loaded + appended this run). */
    std::size_t quarantineCount() const { return _quarantined.size(); }

    /** Records loaded from a previous run (resume only). */
    std::size_t loadedCount() const { return _loaded; }

    /** All journaled quarantine records. */
    std::vector<QuarantineRecord> quarantines() const;

    std::uint64_t configHash() const { return _configHash; }
    const std::string &path() const { return _path; }

  private:
    using CellKey = std::pair<std::size_t, std::size_t>;

    void load();

    std::string _path;
    std::uint64_t _configHash;
    std::ofstream _out;
    std::map<CellKey, ReplicaRecord> _results;
    std::map<CellKey, QuarantineRecord> _quarantined;
    std::size_t _loaded = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_EXP_JOURNAL_HH

#include "campaign.hh"

#include <chrono>
#include <csignal>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "parallel_for.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace holdcsim {

namespace {

/**
 * The campaign interrupt flag. Process-wide by necessity: signal
 * handlers cannot carry state, and one flag for every concurrently
 * running campaign is exactly the SIGINT semantics users expect.
 */
std::atomic<bool> g_interrupt{false};

void
campaignSignalHandler(int)
{
    // Async-signal-safe: a lock-free atomic store and nothing else.
    // Everything observable (cancelling cells, flushing the journal)
    // happens on the campaign threads that poll the flag.
    g_interrupt.store(true, std::memory_order_relaxed);
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Sleep @p ns host-nanoseconds, waking early on interrupt. */
void
interruptibleSleep(std::int64_t ns)
{
    const std::int64_t slice = 10'000'000; // 10 ms
    std::int64_t deadline = monotonicNs() + ns;
    while (!g_interrupt.load(std::memory_order_relaxed)) {
        std::int64_t left = deadline - monotonicNs();
        if (left <= 0)
            return;
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(left < slice ? left : slice));
    }
}

/** Live cancellation state of one in-flight cell. */
struct CellState {
    std::size_t point = 0;
    std::size_t replica = 0;
    std::uint64_t seed = 0;
    std::atomic<bool> cancel{false};
    /** Monotonic deadline in ns; 0 = no attempt in flight. */
    std::atomic<std::int64_t> deadlineNs{0};
};

} // namespace

std::uint64_t
replicaSeed(std::uint64_t base, std::uint64_t replica)
{
    if (replica == 0)
        return base;
    // One splitmix64 round over base ^ (replica * golden-gamma):
    // the same mixing the Rng seeder uses for stream separation.
    std::uint64_t z = base ^ (replica * 0x9e3779b97f4a7c15ULL);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
tabulate(const std::vector<ReplicaRecord> &records, ResultTable &table)
{
    for (const ReplicaRecord &rec : records) {
        for (const auto &[name, value] : rec.metrics)
            table.add(rec.point, rec.replica, name, value);
    }
}

CampaignRunner::CampaignRunner(CampaignOptions opts)
    : _opts(std::move(opts))
{
    if (_opts.retry.maxAttempts == 0)
        fatal("campaign needs at least one attempt per cell");
    if (_opts.replicas == 0)
        fatal("campaign needs at least one replica");
}

void
CampaignRunner::installSignalHandlers()
{
    std::signal(SIGINT, campaignSignalHandler);
    std::signal(SIGTERM, campaignSignalHandler);
}

void
CampaignRunner::requestInterrupt()
{
    g_interrupt.store(true, std::memory_order_relaxed);
}

bool
CampaignRunner::interruptRequested()
{
    return g_interrupt.load(std::memory_order_relaxed);
}

void
CampaignRunner::clearInterrupt()
{
    g_interrupt.store(false, std::memory_order_relaxed);
}

CampaignResult
CampaignRunner::run(std::size_t points, const std::string &config_text,
                    const RunFn &fn)
{
    using CellKey = std::pair<std::size_t, std::size_t>;

    CampaignResult res;

    // The journal key covers everything that shapes a cell's result:
    // the model config, the sweep, the grid and the root seed.
    std::string key_text = config_text + "\n[campaign-grid]\npoints=" +
                           std::to_string(points) + "\nreplicas=" +
                           std::to_string(_opts.replicas) +
                           "\nbase_seed=" +
                           std::to_string(_opts.baseSeed) + "\n";
    std::uint64_t hash = fnv1a64(key_text);

    std::unique_ptr<CampaignJournal> journal;
    if (!_opts.journalPath.empty())
        journal = std::make_unique<CampaignJournal>(
            _opts.journalPath, hash, _opts.resume);

    std::map<CellKey, ReplicaRecord> completed;
    std::map<CellKey, QuarantineRecord> quarantined;
    std::vector<std::unique_ptr<CellState>> cells;

    for (std::size_t p = 0; p < points; ++p) {
        for (std::size_t r = 0; r < _opts.replicas; ++r) {
            std::uint64_t seed = replicaSeed(_opts.baseSeed, r);
            if (journal && journal->hasResult(p, r)) {
                const ReplicaRecord &rec = journal->result(p, r);
                if (rec.seed != seed) {
                    fatal("campaign journal '", journal->path(),
                          "' replica ", r, " of point ", p,
                          " was run with seed ", rec.seed,
                          ", this campaign uses ", seed);
                }
                completed[CellKey{p, r}] = rec;
                ++res.skipped;
                continue;
            }
            if (journal && journal->isQuarantined(p, r)) {
                // A cell that kept failing is not retried across
                // restarts either; the quarantine record survives.
                ++res.skipped;
                continue;
            }
            auto cell = std::make_unique<CellState>();
            cell->point = p;
            cell->replica = r;
            cell->seed = seed;
            cells.push_back(std::move(cell));
        }
    }
    if (journal) {
        for (const QuarantineRecord &q : journal->quarantines())
            quarantined[CellKey{q.point, q.replica}] = q;
    }

    std::mutex mu; // journal appends + result/counter updates
    std::atomic<std::uint64_t> wd_cancels{0};

    // The monitor propagates the interrupt flag into every in-flight
    // cell and enforces the wall-clock watchdog. One thread for the
    // whole campaign: cells publish their deadlines via atomics.
    std::atomic<bool> monitor_stop{false};
    std::thread monitor([&] {
        while (!monitor_stop.load(std::memory_order_relaxed)) {
            bool intr = g_interrupt.load(std::memory_order_relaxed);
            std::int64_t now = monotonicNs();
            for (auto &cell : cells) {
                if (cell->cancel.load(std::memory_order_relaxed))
                    continue;
                std::int64_t deadline =
                    cell->deadlineNs.load(std::memory_order_relaxed);
                if (intr) {
                    cell->cancel.store(true,
                                       std::memory_order_relaxed);
                } else if (deadline != 0 && now > deadline) {
                    cell->cancel.store(true,
                                       std::memory_order_relaxed);
                    wd_cancels.fetch_add(1,
                                         std::memory_order_relaxed);
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });

    auto run_cell = [&](std::size_t idx) {
        CellState &cell = *cells[idx];
        std::string last_error;
        for (unsigned attempt = 1;
             attempt <= _opts.retry.maxAttempts; ++attempt) {
            if (g_interrupt.load(std::memory_order_relaxed))
                return; // unfinished: the next --resume re-runs it
            cell.cancel.store(false, std::memory_order_relaxed);
            if (_opts.watchdogSec > 0.0) {
                cell.deadlineNs.store(
                    monotonicNs() + static_cast<std::int64_t>(
                                        _opts.watchdogSec * 1e9),
                    std::memory_order_relaxed);
            }
            ReplicaLimits limits{&cell.cancel, _opts.maxEvents};
            try {
                MetricRow row =
                    fn(cell.point, cell.replica, cell.seed, limits);
                cell.deadlineNs.store(0, std::memory_order_relaxed);
                ReplicaRecord rec;
                rec.point = cell.point;
                rec.replica = cell.replica;
                rec.seed = cell.seed;
                rec.metrics = std::move(row);
                std::lock_guard<std::mutex> lock(mu);
                if (journal)
                    journal->appendResult(rec);
                completed[CellKey{cell.point, cell.replica}] =
                    std::move(rec);
                ++res.executed;
                return;
            } catch (const SimInterrupted &e) {
                cell.deadlineNs.store(0, std::memory_order_relaxed);
                if (g_interrupt.load(std::memory_order_relaxed))
                    return; // campaign-level interrupt, not a failure
                last_error = e.what();
            } catch (const std::exception &e) {
                cell.deadlineNs.store(0, std::memory_order_relaxed);
                last_error = e.what();
            } catch (...) {
                cell.deadlineNs.store(0, std::memory_order_relaxed);
                last_error = "unknown exception";
            }
            if (attempt < _opts.retry.maxAttempts) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++res.retries;
                }
                // Backoff ticks are nanoseconds; sleeping them on
                // the host decorrelates retries from transient host
                // contention (the wall-clock watchdog case).
                interruptibleSleep(static_cast<std::int64_t>(
                    _opts.retry.backoff(attempt, nullptr)));
            }
        }
        QuarantineRecord q;
        q.point = cell.point;
        q.replica = cell.replica;
        q.seed = cell.seed;
        q.error = last_error;
        std::lock_guard<std::mutex> lock(mu);
        warn("campaign: quarantined point ", q.point, " replica ",
             q.replica, " after ", _opts.retry.maxAttempts,
             " attempts: ", q.error);
        if (journal)
            journal->appendQuarantine(q);
        quarantined[CellKey{q.point, q.replica}] = q;
        ++res.executed;
    };

    // run_cell absorbs run failures; what escapes it (a journal
    // write error) surfaces after the monitor is stopped.
    std::exception_ptr error;
    try {
        parallelFor(_opts.jobs, cells.size(), run_cell);
    } catch (...) {
        error = std::current_exception();
    }

    monitor_stop.store(true, std::memory_order_relaxed);
    monitor.join();
    if (error)
        std::rethrow_exception(error);

    res.watchdogCancels = wd_cancels.load();
    res.interrupted = g_interrupt.load(std::memory_order_relaxed);

    // Grid order, independent of completion order and worker count.
    for (std::size_t p = 0; p < points; ++p) {
        for (std::size_t r = 0; r < _opts.replicas; ++r) {
            auto it = completed.find(CellKey{p, r});
            if (it != completed.end())
                res.records.push_back(it->second);
        }
    }
    for (const auto &[key, q] : quarantined)
        res.quarantined.push_back(q);
    return res;
}

} // namespace holdcsim

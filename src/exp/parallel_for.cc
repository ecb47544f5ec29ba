#include "parallel_for.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace holdcsim {

namespace {

/** Set on every thread parallelFor or orderedPipeline starts. */
thread_local bool tlInWorker = false;

/**
 * Start @p count threads running @p body, run @p caller on the
 * calling thread, then join them all. If a thread cannot be created,
 * @p stop runs (it must make the started threads finish), they are
 * joined and the failure propagates.
 */
template <typename Body, typename Stop, typename Caller>
void
runThreads(std::size_t count, const Body &body, const Stop &stop,
           const Caller &caller)
{
    std::vector<std::thread> threads;
    threads.reserve(count);
    try {
        for (std::size_t t = 0; t < count; ++t) {
            threads.emplace_back([&body] {
                tlInWorker = true;
                body();
            });
        }
    } catch (...) {
        stop();
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    caller();
    for (std::thread &t : threads)
        t.join();
}

} // namespace

unsigned
defaultWorkers()
{
    // The CPUs this thread may run on (taskset, cgroup cpusets), not
    // every CPU the host has.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0 && CPU_COUNT(&cpus) > 0)
        return static_cast<unsigned>(CPU_COUNT(&cpus));
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

bool
inParallelWorker()
{
    return tlInWorker;
}

void
parallelFor(unsigned workers, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (workers == 0)
        workers = defaultWorkers();

    std::mutex mu; // guards the two fields below
    std::size_t error_index = n;
    std::exception_ptr error;
    auto call = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (i < error_index) {
                error_index = i;
                error = std::current_exception();
            }
        }
    };

    if (workers == 1 || tlInWorker || n == 0) {
        for (std::size_t i = 0; i < n; ++i)
            call(i);
    } else {
        std::atomic<std::size_t> next{0};
        auto claim = [&] {
            for (std::size_t i = next++; i < n; i = next++)
                call(i);
        };
        // The calling thread is one of the workers, so nested calls it
        // makes run inline too. A failed thread start lets the started
        // threads finish their current index before the failure is
        // reported.
        runThreads(std::min<std::size_t>(workers, n) - 1, claim,
                   [&] { next = n; },
                   [&] {
                       tlInWorker = true;
                       claim();
                       tlInWorker = false;
                   });
    }

    if (error)
        std::rethrow_exception(error);
}

void
orderedPipeline(unsigned workers, std::size_t n, std::size_t slots,
                const ChunkFn &produce, const ChunkFn &consume)
{
    slots = std::max<std::size_t>(slots, 1);
    if (workers == 0 || tlInWorker) {
        for (std::size_t i = 0; i < n; ++i) {
            produce(i, i % slots);
            consume(i, i % slots);
        }
        return;
    }

    std::mutex mu; // guards every field below
    std::condition_variable chunkDone; // the consumer waits on it
    std::condition_variable slotFreed; // workers wait on it
    std::size_t next = 0;     // the next chunk to claim
    std::size_t consumed = 0; // chunks the caller has consumed
    // No chunk at or past limit is claimed or consumed: n, or the
    // lowest index that has thrown so far.
    std::size_t limit = n;
    std::exception_ptr error;
    // The chunk each slot holds a finished product of (n: none).
    std::vector<std::size_t> ready(slots, n);

    auto fail = [&](std::size_t i) {
        // Called with mu held.
        if (i < limit) {
            limit = i;
            error = std::current_exception();
        }
        chunkDone.notify_one();
        slotFreed.notify_all();
    };

    auto work = [&] {
        std::unique_lock<std::mutex> lock(mu);
        while (next < limit) {
            const std::size_t i = next++;
            slotFreed.wait(lock,
                           [&] { return i >= limit || i < consumed + slots; });
            if (i >= limit)
                break;
            lock.unlock();
            try {
                produce(i, i % slots);
            } catch (...) {
                lock.lock();
                fail(i);
                continue;
            }
            lock.lock();
            ready[i % slots] = i;
            chunkDone.notify_one();
        }
    };

    // The caller consumes in index order while the workers produce.
    auto consumeAll = [&] {
        for (std::size_t i = 0;; ++i) {
            std::unique_lock<std::mutex> lock(mu);
            chunkDone.wait(lock,
                           [&] { return i >= limit || ready[i % slots] == i; });
            if (i >= limit)
                return;
            lock.unlock();
            try {
                consume(i, i % slots);
            } catch (...) {
                lock.lock();
                fail(i);
                return;
            }
            lock.lock();
            consumed = i + 1;
            slotFreed.notify_all();
        }
    };

    runThreads(
        std::min<std::size_t>(workers, n), work,
        [&] {
            std::lock_guard<std::mutex> lock(mu);
            limit = 0;
            slotFreed.notify_all();
        },
        consumeAll);

    if (error)
        std::rethrow_exception(error);
}

} // namespace holdcsim

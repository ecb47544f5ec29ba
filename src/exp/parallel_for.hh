/**
 * @file
 * The threading primitives of the experiment layer, on plain threads:
 * run fn(i) for every index of a grid (parallelFor), and produce
 * chunks on workers while the caller consumes them in index order
 * (orderedPipeline).
 *
 * Shared-nothing by design: threads only claim indices, never share
 * simulation state, so determinism is entirely the callback's
 * responsibility.
 *
 * A call made on a worker thread of either primitive runs inline on
 * that worker, in index order: a CampaignRunner cell whose plant
 * dumps its stats, or a pipeline chunk that loops with parallelFor,
 * never multiplies the threads the outer call already started.
 */

#ifndef HOLDCSIM_EXP_PARALLEL_FOR_HH
#define HOLDCSIM_EXP_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace holdcsim {

/** Worker count used for workers = 0: one per CPU the calling thread
 *  may run on (its affinity mask), else one per hardware thread. */
unsigned defaultWorkers();

/** True on a thread parallelFor or orderedPipeline started, and on
 *  a parallelFor caller while it claims indices with them. */
bool inParallelWorker();

/**
 * Run fn(i) for every i in [0, n) and return once all have finished.
 *
 * workers == 1, or a call from a worker thread, runs inline on the
 * calling thread in index order: the sequential reference. Otherwise
 * min(workers, n) workers (workers = 0 means defaultWorkers()) claim
 * indices from a shared counter: the calling thread and
 * min(workers, n) - 1 threads it starts. Iterations run concurrently
 * and in any order; fn must only touch per-index state.
 *
 * A throwing fn(i) does not stop the other indices. After every
 * index has run, the exception of the lowest throwing index is
 * rethrown -- the same one at every worker count.
 */
void parallelFor(unsigned workers, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** One pipeline stage: called with (chunk index, slot). */
using ChunkFn = std::function<void(std::size_t, std::size_t)>;

/**
 * A bounded, ordered producer/consumer pipeline over chunks [0, n).
 *
 * min(workers, n) threads claim chunks in index order and run
 * produce(i, i % slots); the calling thread runs consume(i, i % slots)
 * for i = 0, 1, ... in order, each after its produce has returned. A
 * chunk starts only once consume(i - slots) has returned, so each of
 * the caller's @p slots (>= 1) buffers holds one chunk at a time and
 * memory stays bounded whatever n is.
 *
 * workers == 0, or a call from a worker thread, runs inline: produce
 * then consume, chunk by chunk, on the calling thread.
 *
 * A throw from produce(i) or consume(i) stops the claiming of later
 * chunks; every chunk before the lowest throwing index is still
 * produced and consumed, in order. Once the threads have joined, that
 * index's exception is rethrown -- the same one at every worker count.
 */
void orderedPipeline(unsigned workers, std::size_t n, std::size_t slots,
                     const ChunkFn &produce, const ChunkFn &consume);

} // namespace holdcsim

#endif // HOLDCSIM_EXP_PARALLEL_FOR_HH

/**
 * @file
 * The one threading primitive of the experiment layer: run fn(i) for
 * every index of a grid on plain threads.
 *
 * Shared-nothing by design: threads only claim indices, never share
 * simulation state, so determinism is entirely the callback's
 * responsibility.
 */

#ifndef HOLDCSIM_EXP_PARALLEL_FOR_HH
#define HOLDCSIM_EXP_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace holdcsim {

/** Worker count used for workers = 0: one per hardware thread. */
unsigned defaultWorkers();

/**
 * Run fn(i) for every i in [0, n) and return once all have finished.
 *
 * workers == 1 runs inline on the calling thread in index order: the
 * sequential reference. Otherwise min(workers, n) threads (workers =
 * 0 means defaultWorkers()) claim indices from a shared counter, so
 * iterations run concurrently and in any order; fn must only touch
 * per-index state.
 *
 * A throwing fn(i) does not stop the other indices. After every
 * index has run, the exception of the lowest throwing index is
 * rethrown -- the same one at every worker count.
 */
void parallelFor(unsigned workers, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace holdcsim

#endif // HOLDCSIM_EXP_PARALLEL_FOR_HH

#!/bin/bash
# Build with ThreadSanitizer and exercise every threaded code path:
# the test_exp suite (parallelFor index claiming and exception
# hand-off, parallel Simulators, the campaign runner's parallel grid)
# plus the campaign-runner acceptance bench and the event-kernel
# backend-equivalence smoke (calendar vs heap pop order must match
# under TSan too). The PDES suite runs as well -- the window barrier,
# mailbox hand-off and cross-worker error plumbing in src/sim/pdes
# are exactly the code TSan exists for -- and the bench's --quick
# gate replays the pod cluster at 1/2/4 workers, failing if any
# parallel stats dump drifts from sequential. The fault-schedule
# explorer smoke runs its oracle fleet on the campaign runner's
# threads, so its find -> shrink -> replay loop gets the TSan
# treatment too.
# Usage: bench/run_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHOLDCSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j \
    --target test_exp test_pdes test_mc bench_engine_parallel \
    bench_event_kernel

TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_exp
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_pdes
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_mc \
    --gtest_filter='Explorer.*:Oracle.*'
TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD_DIR"/bench/bench_engine_parallel
TSAN_OPTIONS=halt_on_error=1 \
    "$BUILD_DIR"/bench/bench_event_kernel --quick

#!/bin/bash
# Build with ThreadSanitizer and exercise every threaded code path:
# the test_exp suite (parallelFor index claiming and exception
# hand-off, parallel Simulators, the campaign runner's parallel grid,
# parallel-vs-sequential bit identity), the PDES suite (the window
# barrier, mailbox hand-off and cross-worker error plumbing in
# src/sim/pdes are exactly the code TSan exists for; it replays pod
# clusters at 1/2/4 workers and requires byte-identical dumps), and
# the fault-schedule explorer, whose oracle fleet runs on the
# campaign runner's threads.
# Usage: bench/run_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHOLDCSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j --target test_exp test_pdes test_mc

TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_exp
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_pdes
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_mc \
    --gtest_filter='Explorer.*:Oracle.*'

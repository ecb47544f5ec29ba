#!/bin/bash
# Build with ThreadSanitizer and exercise every threaded code path:
# the test_exp suite (parallelFor index claiming and exception
# hand-off, parallel Simulators, the campaign runner's parallel grid,
# parallel-vs-sequential bit identity), the PDES suite (the window
# barrier, mailbox hand-off and cross-worker error plumbing in
# src/sim/pdes are exactly the code TSan exists for; it replays pod
# clusters at 1/2/4 workers and requires byte-identical dumps), and
# the fault-schedule explorer, whose oracle fleet runs on the
# campaign runner's threads, and DataCenter's stats dump, whose
# server rows settle and format on orderedPipeline workers while the
# calling thread writes them (the faulted star plants of the dump
# gates, with a nested serial dump and a traced one), and its fleet
# build, whose servers are constructed and registered on parallelFor
# workers (an 8,000-server faulted fleet, built and run twice), and
# the drain horizons those workers record and the dump's workers mark
# stale (the horizon properties, random plants and an 8,000-server
# fleet built, dumped and drained), and the dispatch bytes adopt()
# writes from those workers, one byte per server, which the candidate
# lists are built from (the candidate-list property).
# Usage: bench/run_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DHOLDCSIM_TSAN=ON
cmake --build "$BUILD_DIR" -j --target test_exp test_pdes test_mc \
    test_dc test_properties

TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_exp
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_pdes
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_mc \
    --gtest_filter='Explorer.*:Oracle.*'
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_dc \
    --gtest_filter='DataCenter.*StatsDump*:IdleLadderGolden.*:DataCenter.ParallelBuildMatchesSerialBuild'
TSAN_OPTIONS=halt_on_error=1 "$BUILD_DIR"/tests/test_properties \
    --gtest_filter='Seeds/DeferredHorizonProperty.*:DeferredHorizonFleet.*:Seeds/CandidateListProperty.*'

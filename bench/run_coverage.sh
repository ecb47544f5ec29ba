#!/bin/bash
# Line coverage of src/*.cc under the full test suite, from gcov alone
# (no gcovr or lcov). Configures an -O0 --coverage build, runs ctest,
# then sums `gcov -n` line counts over every compiled src/ object.
# Usage: bench/run_coverage.sh [build-dir]   (default: build-coverage)
# Prints the covered share of executable lines, then the ten files
# with the most lines that never ran. Exits with ctest's status.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD_DIR="${1:-build-coverage}"

# Atomic counters: the PDES and campaign tests run threads, and racy
# increments corrupt the counts gcov solves lines from.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O0 --coverage -fprofile-update=atomic" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" >/dev/null
# Counts accumulate across runs; start from zero.
find "$BUILD_DIR" -name '*.gcda' -delete
status=0
ctest --test-dir "$BUILD_DIR" -j "$(nproc)" >/dev/null || status=$?

# gcov reads each .gcno with its .gcda beside it; an object no test
# ran has no .gcda and counts as wholly unrun.
find "$BUILD_DIR/src" -name '*.gcno' | sort | while read -r gcno; do
    gcov -n -o "$(dirname "$gcno")" "$gcno" 2>/dev/null || true
done | python3 -c '
import re, sys
root = sys.argv[1] + "/src/"
files, name = {}, None
for line in sys.stdin:
    m = re.match(r"File \x27(.*)\x27", line)
    if m:
        name = m.group(1)
        continue
    m = re.match(r"Lines executed:([0-9.]+)% of ([0-9]+)", line)
    if m and name and name.startswith(root) and name.endswith(".cc"):
        total = int(m.group(2))
        run = round(float(m.group(1)) * total / 100)
        files[name[len(root):]] = (run, total)
    name = None
total = sum(t for _, t in files.values())
run = sum(r for r, _ in files.values())
if not total:
    sys.exit("no coverage data for src/*.cc")
print(f"covered: {100 * run / total:.1f}% of src/*.cc executable lines "
      f"({run} of {total}; {total - run} never ran, {len(files)} files)")
print("most unrun lines:")
worst = sorted(files.items(), key=lambda kv: (kv[1][0] - kv[1][1], kv[0]))
for path, (r, t) in worst[:10]:
    print(f"  {t - r:5d} of {t:5d}  {path}")
' "$ROOT"
exit "$status"

#!/bin/bash
# Run the parallel experiment-engine acceptance bench and leave the
# results (parallel-vs-sequential speedup + bit-identical check,
# dense-vs-map reshare timings, and the flow-churn points: us/update,
# mean dirty set and share of global resolves under the scope the
# flow solver picks) in BENCH_engine.json at the repo root.
# Exits nonzero if any parallel replica stat differs from the
# sequential run -- CI's perf-smoke step relies on that.
#
# BENCH_CHURN_MAX caps the largest flow-churn population (default
# 1000000); sanitizer CI runs set it low to keep the job fast while
# still exercising the churn path.
#
# Also exercises campaign crash tolerance end to end: a journaled
# sweep is run to completion, the journal is truncated to simulate a
# crash, and a --resume rerun must skip the journaled cells and
# produce a byte-identical aggregate CSV.
# Usage: bench/run_engine.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT="BENCH_engine.json"

if [ ! -d "$BUILD_DIR" ]; then
    cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j --target bench_engine_parallel holdcsim_cli

"$BUILD_DIR"/bench/bench_engine_parallel --json="$OUT" \
    --churn-max="${BENCH_CHURN_MAX:-1000000}"
echo "engine bench results written to $OUT"

# ---- campaign resume acceptance --------------------------------------
CLI="$BUILD_DIR/examples/holdcsim_cli"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cat > "$TMP/resume.ini" <<'EOF'
[datacenter]
servers = 4
cores = 2
seed = 5
[workload]
arrival = poisson
utilization = 0.3
duration_s = 2
service = exponential
service_mean_ms = 5
job = single
[sweep]
scheduler.policy = round_robin, least_loaded
EOF

"$CLI" "$TMP/resume.ini" --replicas=3 --jobs=2 \
    --journal="$TMP/journal.jsonl" --csv="$TMP/full.csv" > /dev/null

# Simulate a crash after two completed cells.
head -n 2 "$TMP/journal.jsonl" > "$TMP/truncated.jsonl"
mv "$TMP/truncated.jsonl" "$TMP/journal.jsonl"

"$CLI" "$TMP/resume.ini" --replicas=3 --jobs=2 \
    --journal="$TMP/journal.jsonl" --resume \
    --csv="$TMP/resumed.csv" > "$TMP/resume.out"

cmp "$TMP/full.csv" "$TMP/resumed.csv"
grep -q "reliability.campaign.skipped 2" "$TMP/resume.out"
echo "campaign resume: CSV byte-identical, 2 cells skipped"

#!/bin/bash
# A deliberately armed pair-crash bug (mc.seed_bug) leaks a task when
# two specific servers are down at once. The explorer must find it
# within its budget and shrink it to a <= 3-event schedule; the
# written reproducer must replay to the same violation (exit 3); and
# resuming from the finished journal must re-execute nothing and
# write the same minimal schedule.
# Usage: explorer_seeded_bug.sh <holdcsim_cli binary>
set -euo pipefail

CLI="$1"
dir=$(mktemp -d)
cd "$dir"
trap 'rm -rf "$dir"' EXIT
# Every violating schedule prints an abort dump on stderr; show the
# captured output only when a check fails.
trap 'tail -n 40 explore.out replay.out replay.err mc-resume.out \
    2>/dev/null' ERR

cat > mc.ini <<'INI'
[datacenter]
servers = 3
cores = 2
seed = 7
[workload]
arrival = poisson
rate = 200
duration_s = 1
service = exponential
service_mean_ms = 5
job = single
[fault]
enabled = true
mttf_hours = 1000
[mc]
strategy = pairwise
horizon_ms = 800
budget = 200
repair_ms = 100
seed_bug = true
[audit]
enabled = true
period_ms = 10
INI

"$CLI" mc.ini --explore --jobs=2 --journal=mc.jsonl \
    --repro-out=repro.trace > explore.out 2> explore.err
grep -q '^mc.found 1' explore.out
# 1-minimal: the seeded bug needs exactly the two downs.
awk '/^mc.minimal_faults/ { exit !($2 <= 3) }' explore.out
test -s repro.trace

rc=0
"$CLI" mc.ini --replay-schedule=repro.trace \
    > replay.out 2> replay.err || rc=$?
test "$rc" -eq 3
grep -q 'schedule reproduces' replay.err

"$CLI" mc.ini --explore --jobs=2 --journal=mc.jsonl --resume \
    --repro-out=repro2.trace > mc-resume.out 2> mc-resume.err
grep -q '^mc.executed 0' mc-resume.out
# Same minimal schedule (headers differ: they embed the repro path in
# the replay command).
cmp <(grep -v '^#' repro.trace) <(grep -v '^#' repro2.trace)

#!/bin/bash
# The fault-trace round trip: a stochastic faulted run (server, switch
# and link faults on a star) exports its realized schedule with
# --fault-schedule-out; the same plant with fault_trace = that file and
# no MTTF/MTTR keys must print a byte-identical stats dump; and
# --replay-schedule of the file must run the explorer's oracle to a
# pass (exit 0).
# Usage: fault_schedule_roundtrip.sh <holdcsim_cli binary>
set -euo pipefail

CLI="$1"
dir=$(mktemp -d)
cd "$dir"
trap 'rm -rf "$dir"' EXIT
trap 'tail -n 20 schedule.trace replay.out 2>/dev/null' ERR

cat > plant.ini <<'INI'
[datacenter]
servers = 8
cores = 2
seed = 3
[network]
fabric = star
[workload]
arrival = poisson
utilization = 0.3
duration_s = 2
job = chain
transfer_kb = 16
[fault]
enabled = true
fault_servers = true
fault_switches = true
fault_links = true
INI
{ cat plant.ini; printf 'mttf_hours = 0.0002\nmttr_minutes = 0.002\n'; } \
    > stochastic.ini
{ cat plant.ini; printf 'fault_trace = schedule.trace\n'; } > replay.ini

"$CLI" stochastic.ini --fault-schedule-out=schedule.trace > stochastic.dump
# The run must fault every class, and end with a component still down
# (its episode is exported closed one tick past the clock).
grep -q '^server ' schedule.trace
grep -q '^switch ' schedule.trace
grep -q '^link ' schedule.trace
awk '$1 == "reliability.components_down" { exit !($2 > 0) }' \
    stochastic.dump

"$CLI" replay.ini > replay.dump
cmp stochastic.dump replay.dump

"$CLI" stochastic.ini --replay-schedule=schedule.trace > replay.out
grep -q '^mc.replay.outcome pass' replay.out
echo "fault schedule round trip ok ($(grep -c '^[a-z]' schedule.trace) episodes)"

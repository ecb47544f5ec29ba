#!/bin/bash
# Run a small INI under --profile and require that the layer probe
# counted every event the kernel processed and printed its per-layer
# host-time rows.
# Usage: cli_profile.sh <holdcsim_cli binary>
set -euo pipefail

CLI="$1"
dir=$(mktemp -d)
cd "$dir"
trap 'rm -rf "$dir"' EXIT

cat > profile.ini <<'INI'
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
service = exponential
service_mean_ms = 5
job = single
INI

"$CLI" profile.ini --profile > out.txt
events=$(awk '$1 == "sim.events" { print $2 }' out.txt)
observed=$(awk '$1 == "profile.events_observed" { print $2 }' out.txt)
test -n "$events"
if [ "$events" != "$observed" ]; then
    echo "profile.events_observed $observed != sim.events $events" >&2
    exit 1
fi
grep -q "^profile\.layer\." out.txt

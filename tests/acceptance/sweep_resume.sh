#!/bin/bash
# SIGINT an in-flight journaled sweep, rerun it with --resume and
# require that the journaled cells are skipped and that the final
# aggregate CSV is byte-identical to an uninterrupted run.
# Usage: sweep_resume.sh <holdcsim_cli binary>
set -euo pipefail

CLI="$1"
dir=$(mktemp -d)
cd "$dir"
trap 'rm -rf "$dir"' EXIT

# Cells are deliberately long (60 simulated seconds, about 0.5 s each
# in a Release build) so the SIGINT below lands while most of the
# 8-cell grid (2 policies x 4 replicas) is in flight.
cat > resume.ini <<'INI'
[datacenter]
servers = 8
cores = 4
seed = 5
[workload]
arrival = poisson
utilization = 0.5
duration_s = 60
service = exponential
service_mean_ms = 5
job = single
[sweep]
scheduler.policy = round_robin, least_loaded
INI

"$CLI" resume.ini --replicas=4 --jobs=2 \
    --journal=ref.jsonl --csv=ref.csv > /dev/null
"$CLI" resume.ini --replicas=4 --jobs=2 \
    --journal=part.jsonl --csv=part.csv > /dev/null 2>&1 &
pid=$!
# Let a cell finish, then interrupt the campaign.
while [ ! -s part.jsonl ] && kill -0 "$pid" 2>/dev/null; do
    sleep 0.1
done
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || true
test -s part.jsonl
# A sweep that finished before the SIGINT landed journals every cell
# and would pass below without testing the interrupt at all.
cells=$(wc -l < part.jsonl)
if [ "$cells" -ge 8 ]; then
    echo "the sweep finished ($cells cells journaled) before the" \
        "SIGINT landed: lengthen the cells" >&2
    exit 1
fi
"$CLI" resume.ini --replicas=4 --jobs=2 \
    --journal=part.jsonl --resume --csv=final.csv > resume.out
cmp ref.csv final.csv
grep "reliability.campaign.skipped [1-9]" resume.out

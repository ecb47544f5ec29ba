#!/bin/bash
# A config error ends holdcsim_cli cleanly: a stochastic fault model
# with a zero MTTF must print the error on stderr and exit 1, not
# abort (exit 134) through an uncaught holdcsim::FatalError.
# Usage: cli_fatal_error.sh <holdcsim_cli binary>
set -euo pipefail

CLI="$1"
dir=$(mktemp -d)
cd "$dir"
trap 'rm -rf "$dir"' EXIT

cat > bad.ini <<'INI'
[datacenter]
servers = 2
[fault]
enabled = true
mttf_hours = 0
INI

status=0
"$CLI" bad.ini > out.txt 2> err.txt || status=$?
cat err.txt
if [ "$status" -ne 1 ]; then
    echo "expected exit status 1, got $status" >&2
    exit 1
fi
grep -qx 'fatal: stochastic faults need positive MTTF and MTTR' err.txt
if grep -q 'terminate called' err.txt; then
    echo "the FatalError escaped main" >&2
    exit 1
fi
echo "config error exits 1 with its message"

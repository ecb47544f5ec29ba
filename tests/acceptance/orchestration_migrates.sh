#!/bin/bash
# The orchestration demo's drain at t = 5 s must live-migrate at
# least one container over the fabric.
# Usage: orchestration_migrates.sh <orchestration binary>
set -euo pipefail

out="$("$1")"
grep -q '^orch.migrations_completed [1-9]' <<<"$out" || {
    echo "no completed migration:" >&2
    grep '^orch\.' <<<"$out" >&2
    exit 1
}

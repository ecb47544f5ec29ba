#!/usr/bin/env python3
"""Paper gate for Table I's scalability row: more than 20K servers.

Runs `bench_table1_scalability --json` (1,024, 5,120 and 20,480
four-core servers under delay timers and round-robin dispatch, 500k,
500k and 1M Poisson single-task jobs at rho = 0.3) and checks the
model outputs only:

* every farm size runs, and every job completes;
* the event count at 20,480 servers equals the recorded value, so
  that any drift in the model fails here and is either explained in
  EXPERIMENTS.md or fixed.

Wall time and throughput depend on the host and stay ungated.

Usage: table1_scalability.py <bench_table1_scalability binary>
"""

import json
import subprocess
import sys

FARMS = {1024: 500_000, 5120: 500_000, 20480: 1_000_000}
GOLDEN_EVENTS = {20480: 2_000_000}


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = {r["servers"]: r for r in map(json.loads, out.splitlines())}
    errors = []
    if sorted(rows) != sorted(FARMS):
        errors.append(f"farm sizes {sorted(rows)}, want {sorted(FARMS)}")
    for servers, jobs in FARMS.items():
        r = rows.get(servers)
        if r is None:
            continue
        if r["jobs"] != jobs or r["jobs_completed"] != jobs:
            errors.append(f"{servers} servers: {r['jobs_completed']} of "
                          f"{r['jobs']} jobs completed, want {jobs}")
    for servers, want in GOLDEN_EVENTS.items():
        got = rows.get(servers, {}).get("events")
        if got != want:
            errors.append(f"{servers} servers: golden events {want}, "
                          f"got {got}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"table1: {len(rows)} farms, every job completes, golden "
          f"event count holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

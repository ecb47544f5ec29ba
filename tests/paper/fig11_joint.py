#!/usr/bin/env python3
"""Paper gate for Figure 11: network-aware placement on a fat tree.

Runs `bench_fig11_joint --json` (fat tree k = 4, 2,000 DAG jobs with
100 MB flows per edge, at rho = 0.3 and 0.6; about 1 s) and checks the
figure's shape:

* at rho = 0.3 the Server-Network-Aware policy draws at least 15% less
  server power than Server-Balanced (the paper reports about 20%);
* at both utilization levels it draws less switch power.

It also pins one exact value, the network-aware server power at
rho = 0.3, so that any drift in the model fails here and is either
explained in EXPERIMENTS.md or fixed.

Usage: fig11_joint.py <bench_fig11_joint binary>
"""

import json
import subprocess
import sys

GOLDEN = {0.3: 749.99998127451408}
MIN_SERVER_SAVING = 0.15


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = {r["rho"]: r
            for r in (json.loads(line) for line in out.splitlines())}
    errors = []
    server_saving = (1.0 - rows[0.3]["aware_server_w"] /
                     rows[0.3]["balanced_server_w"])
    if not server_saving >= MIN_SERVER_SAVING:
        errors.append(f"rho 0.3: server saving {server_saving:.3f} is "
                      f"below {MIN_SERVER_SAVING}")
    for rho in (0.3, 0.6):
        r = rows[rho]
        if not r["aware_switch_w"] < r["balanced_switch_w"]:
            errors.append(f"rho {rho}: no switch saving "
                          f"({r['aware_switch_w']} W against "
                          f"{r['balanced_switch_w']} W)")
    for rho, want in GOLDEN.items():
        got = rows[rho]["aware_server_w"]
        if got != want:
            errors.append(f"rho {rho}: golden server power {want!r}, "
                          f"got {got!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig11: server saving {server_saving:.1%} at rho 0.3, shape "
          f"and golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

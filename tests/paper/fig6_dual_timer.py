#!/usr/bin/env python3
"""Paper gate for Figure 6: dual delay timers against Active-Idle.

Runs `bench_fig6_dual_timer --quick --json` (a fifth of each window:
6 s of web search, 24 s of web serving) and checks the figure's shape:

* for each farm size (20 and 100 servers) and each workload, the
  energy saving is positive and falls as utilization rises;
* p95 latency stays within 5% of the Active-Idle baseline in every
  cell (the paper's "comparable tail latency").

It also pins one exact value, the web-search saving at 100 servers and
rho = 0.3, so that any drift in the model fails here and is either
explained in EXPERIMENTS.md or fixed.

Usage: fig6_dual_timer.py <bench_fig6_dual_timer binary>
"""

import json
import subprocess
import sys

GOLDEN = {(100, "google", 0.3): 0.4413863439330954}
P95_TOLERANCE = 0.05


def main():
    out = subprocess.run([sys.argv[1], "--quick", "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    cells = {(r["servers"], r["workload"], r["rho"]): r for r in rows}
    errors = []
    for servers in (20, 100):
        for workload in ("google", "apache"):
            savings = [cells[(servers, workload, rho)]["saving"]
                       for rho in (0.1, 0.3, 0.6)]
            label = f"{servers} servers, {workload}"
            if not all(s > 0 for s in savings):
                errors.append(f"{label}: a saving is not positive "
                              f"{savings}")
            if not savings[0] > savings[1] > savings[2]:
                errors.append(f"{label}: savings do not fall as rho "
                              f"rises {savings}")
    for key, r in sorted(cells.items()):
        ratio = r["dual_p95_s"] / r["base_p95_s"]
        if abs(ratio - 1.0) > P95_TOLERANCE:
            errors.append(f"{key}: dual p95 is {ratio:.3f}x the "
                          f"baseline's")
    for key, want in GOLDEN.items():
        got = cells[key]["saving"]
        if got != want:
            errors.append(f"{key}: golden saving {want!r}, got {got!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig6: {len(cells)} cells, shape and golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

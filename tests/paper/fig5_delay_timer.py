#!/usr/bin/env python3
"""Paper gate for Figure 5: the single delay timer's energy-vs-tau sweep.

Runs `bench_fig5_delay_timer --quick --json` (a fifth of each window:
24 s of web search, 60 s of web serving) and checks the figure's shape:

* for each workload and utilization, both ends of the tau sweep cost
  more than the optimum: tau = 0 (suspend at once) and the largest
  tau (almost never suspend) are each beaten by an interior tau;
* at every utilization the web-serving optimum tau exceeds the
  web-search optimum (longer service prefers a longer timer).

It also pins one exact value, the web-search energy at rho = 0.3 and
tau = 0, so that any drift in the delay-timer or tau = 0 path fails
here and is either explained in EXPERIMENTS.md or fixed.

Usage: fig5_delay_timer.py <bench_fig5_delay_timer binary>
"""

import json
import subprocess
import sys

GOLDEN = {("search", 0.3, 0.0): 92935.29054532127}


def main():
    out = subprocess.run([sys.argv[1], "--quick", "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    cells = {(r["workload"], r["rho"], r["tau_s"]): r["energy_j"]
             for r in rows}
    errors = []
    optimum = {}
    for workload in ("search", "serving"):
        for rho in (0.1, 0.3, 0.6):
            curve = sorted((tau, e) for (w, r, tau), e in cells.items()
                           if w == workload and r == rho)
            best_tau, best = min(curve, key=lambda c: c[1])
            optimum[(workload, rho)] = best_tau
            label = f"{workload}, rho {rho}"
            if not curve[0][1] > best:
                errors.append(f"{label}: tau = 0 is the optimum")
            if not curve[-1][1] > best:
                errors.append(f"{label}: the largest tau "
                              f"({curve[-1][0]} s) is the optimum")
    for rho in (0.1, 0.3, 0.6):
        search, serving = optimum[("search", rho)], optimum[("serving", rho)]
        if not serving > search:
            errors.append(f"rho {rho}: web-serving optimum {serving} s "
                          f"does not exceed web-search optimum {search} s")
    for key, want in GOLDEN.items():
        got = cells[key]
        if got != want:
            errors.append(f"{key}: golden energy {want!r}, got {got!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig5: {len(cells)} cells, shape and golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

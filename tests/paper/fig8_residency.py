#!/usr/bin/env python3
"""Paper gate for Figure 8: state residency under the adaptive framework.

Runs `bench_fig8_residency --json` (ten 10-core servers, web search
for 60 s and web serving for 120 s at rho = 0.1 ... 0.9, about 7 s)
and checks the figure's shape with the tolerances EXPERIMENTS.md
states for it:

* the active fraction tracks rho: it rises with rho and lies in
  [rho, rho + 0.10] ("rho + ~8%", 19% at rho = 0.1);
* up to rho = 0.6, system sleep is the largest inactive state;
* the slivers stay small: wake-up at most 5% ("3-5%"), idle plus
  package C6 at most 2% ("0-2%").

It also pins one exact value, the web-search system-sleep fraction at
rho = 0.3, so that any drift in the model fails here and is either
explained in EXPERIMENTS.md or fixed.

Usage: fig8_residency.py <bench_fig8_residency binary>
"""

import json
import subprocess
import sys

GOLDEN = {("search", 0.3): 0.5704213521817632}
ACTIVE_MARGIN = 0.10
SLEEP_DOMINANT_UP_TO = 0.6
MAX_WAKEUP = 0.05
MAX_IDLE_PKG_C6 = 0.02


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    cells = {(r["workload"], r["rho"]): r for r in rows}
    errors = []
    for workload in ("search", "serving"):
        sweep = sorted((r for r in rows if r["workload"] == workload),
                       key=lambda r: r["rho"])
        if len(sweep) != 9:
            errors.append(f"{workload}: {len(sweep)} rho cells, not 9")
        active = [r["active"] for r in sweep]
        if active != sorted(active):
            errors.append(f"{workload}: active fraction does not rise "
                          f"with rho {active}")
        for r in sweep:
            label = f"{workload}, rho {r['rho']}"
            if not r["rho"] <= r["active"] <= r["rho"] + ACTIVE_MARGIN:
                errors.append(f"{label}: active {r['active']:.3f} outside "
                              f"[rho, rho + {ACTIVE_MARGIN}]")
            inactive = ("wakeup", "idle", "pkg_c6")
            if (r["rho"] <= SLEEP_DOMINANT_UP_TO and
                    not all(r["sys_sleep"] > r[k] for k in inactive)):
                errors.append(f"{label}: system sleep {r['sys_sleep']:.3f}"
                              f" is not the largest inactive state")
            if r["wakeup"] > MAX_WAKEUP:
                errors.append(f"{label}: wake-up {r['wakeup']:.3f}")
            if r["idle"] + r["pkg_c6"] > MAX_IDLE_PKG_C6:
                errors.append(f"{label}: idle + pkg C6 "
                              f"{r['idle'] + r['pkg_c6']:.3f}")
    for key, want in GOLDEN.items():
        got = cells[key]["sys_sleep"]
        if got != want:
            errors.append(f"{key}: golden system sleep {want!r}, "
                          f"got {got!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig8: {len(cells)} cells, shape and golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

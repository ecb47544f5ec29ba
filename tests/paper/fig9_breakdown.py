#!/usr/bin/env python3
"""Paper gate for Figure 9: adaptive sleep pools against a delay timer.

Runs `bench_fig9_breakdown --json` (ten 10-core servers, 120 s of a
Wikipedia-like trace, about 2 s) and checks the figure's shape:

* the workload-adaptive policy saves between 35% and 50% of the
  delay-timer farm's energy (the paper reports 39%);
* it saves on every component: CPU, DRAM and platform.

It also pins one exact value, the adaptive farm's total energy, so
that any drift in the model fails here and is either explained in
EXPERIMENTS.md or fixed.

Usage: fig9_breakdown.py <bench_fig9_breakdown binary>
"""

import json
import subprocess
import sys

GOLDEN_ADAPTIVE_J = 49306.706581354694
SAVING_BAND = (0.35, 0.50)


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = {r["policy"]: r
            for r in (json.loads(line) for line in out.splitlines())}
    timer, adaptive = rows["delay_timer"], rows["adaptive"]
    errors = []
    saving = 1.0 - adaptive["total_j"] / timer["total_j"]
    if not SAVING_BAND[0] <= saving <= SAVING_BAND[1]:
        errors.append(f"adaptive saving {saving:.3f} outside "
                      f"{SAVING_BAND}")
    for part in ("cpu_j", "dram_j", "platform_j"):
        if not adaptive[part] < timer[part]:
            errors.append(f"adaptive {part} {adaptive[part]} is not "
                          f"below the delay timer's {timer[part]}")
    if adaptive["total_j"] != GOLDEN_ADAPTIVE_J:
        errors.append(f"golden adaptive energy {GOLDEN_ADAPTIVE_J!r}, "
                      f"got {adaptive['total_j']!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig9: saving {saving:.1%}, shape and golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

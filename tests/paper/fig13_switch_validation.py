#!/usr/bin/env python3
"""Paper gate for Figure 13: switch power validation.

Runs `bench_fig13_switch_validation --json` (24 servers on one Cisco
WS-C2960-24-S replaying two hours of a Wikipedia-like trace against
the switch's reference-noise model, sampled at 1 Hz; about 2 s) and
checks the residual against the paper's band: the average difference
between the physical and simulated traces is under 0.12 W in
magnitude and the residual's standard deviation is at most 0.05 W.

It also pins one exact value, the simulated mean switch power, so
that any drift in the model fails here and is either explained in
EXPERIMENTS.md or fixed.

Usage: fig13_switch_validation.py <bench_fig13_switch_validation binary>
"""

import json
import subprocess
import sys

GOLDEN_SIM_MEAN_W = 14.077574166665663
MAX_MEAN_DIFF_W = 0.12
MAX_STDDEV_W = 0.05


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    r = json.loads(out)
    errors = []
    if not abs(r["mean_diff_w"]) < MAX_MEAN_DIFF_W:
        errors.append(f"average difference {r['mean_diff_w']:.3f} W "
                      f"is not under {MAX_MEAN_DIFF_W} W")
    if not r["stddev_diff_w"] <= MAX_STDDEV_W:
        errors.append(f"residual sigma {r['stddev_diff_w']:.3f} W "
                      f"exceeds {MAX_STDDEV_W} W")
    if r["sim_mean_w"] != GOLDEN_SIM_MEAN_W:
        errors.append(f"golden simulated mean {GOLDEN_SIM_MEAN_W!r} W, "
                      f"got {r['sim_mean_w']!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig13: difference {r['mean_diff_w']:.3f} W, sigma "
          f"{r['stddev_diff_w']:.3f} W, golden value holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

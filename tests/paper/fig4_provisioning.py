#!/usr/bin/env python3
"""Paper gate for Figure 4: active jobs and active servers over time.

Runs `bench_fig4_provisioning --json` (50 four-core servers, 600 s of
a Wikipedia-like trace, 2 s samples, about 2 s) and checks the
figure's shape:

* the fleet parks down from its 50 active servers: no sample exceeds
  50, the first (at 2 s) is already below it, and the count falls to
  half the fleet or less;
* the policy both parks and re-activates servers;
* after the first 60 s the active-server series tracks the load: its
  Pearson correlation with the active-job series is at least 0.6
  (0.82 when this gate was written).

It also pins one exact value, the mean active-server count, so that
any drift in the model fails here and is either explained in
EXPERIMENTS.md or fixed.

Usage: fig4_provisioning.py <bench_fig4_provisioning binary>
"""

import json
import subprocess
import sys

FLEET = 50
GOLDEN_MEAN_ACTIVE_SERVERS = 29.783333333333335
SETTLE_S = 60
MIN_CORRELATION = 0.6


def correlation(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / (vx * vy) ** 0.5


def main():
    out = subprocess.run([sys.argv[1], "--json"], check=True,
                         capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    samples = [r for r in rows if "time_s" in r]
    totals = next(r for r in rows if r.get("totals"))
    servers = [r["active_servers"] for r in samples]
    errors = []
    if max(servers) > FLEET:
        errors.append(f"{max(servers)} active servers in a fleet of "
                      f"{FLEET}")
    if not servers[0] < FLEET:
        errors.append(f"no server parked by {samples[0]['time_s']} s")
    if not min(servers) <= FLEET / 2:
        errors.append(f"the fleet never parks below {min(servers)} "
                      f"active servers")
    if not (totals["park_events"] > 0 and totals["activate_events"] > 0):
        errors.append(f"park/activate events {totals['park_events']}/"
                      f"{totals['activate_events']}")
    late = [r for r in samples if r["time_s"] >= SETTLE_S]
    r = correlation([s["active_jobs"] for s in late],
                    [s["active_servers"] for s in late])
    if r < MIN_CORRELATION:
        errors.append(f"active servers do not track the load after "
                      f"{SETTLE_S} s: correlation {r:.3f}")
    got = totals["mean_active_servers"]
    if got != GOLDEN_MEAN_ACTIVE_SERVERS:
        errors.append(f"golden mean active servers "
                      f"{GOLDEN_MEAN_ACTIVE_SERVERS!r}, got {got!r}")
    for e in errors:
        print("FAIL:", e)
    if errors:
        return 1
    print(f"fig4: {len(samples)} samples, correlation {r:.3f}, shape and "
          f"golden value hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

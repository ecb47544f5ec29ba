#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--write]

Runs perfbench/run.py --trace 0 once per seed, seeds 1..10, for
BENCHMARK.json's run_seconds, on each workload BENCHMARK.json gates,
exactly as a single benchmark run is made.  For each end-to-end metric
it prints the median of the ten per-seed values, their first and third
quartiles, and the spread (q3 - q1) / median next to the metric's
bound.  The spread is taken across seeds, so it holds the inputs' own
variation as well as host noise.  Then one --trace 1 run on the
default seed of every workload, gated or not, gives the per-layer
split.

With --write the result goes to perfbench/baseline.json: the host
fingerprint; per gated workload the quartiles across seeds, and each
seed's own values, stats digest and simulated outputs; per workload
the exact counters and the traced split as host-time shares; and the
cross-workload observations later changes size their claims from.
run.py compares a result with the entry for its own seed, and only
when the fingerprints match.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402
OUT_DIR = ROOT / ".bench_build" / "baseline"

RUNS = 10
DEFAULT_SEED = 1
CONFIRM_SEED = 2

# Traced host time by layer, as shares of the traced run() time.
SHARES = [
    ("sim.kernel", "sim.kernel_s"),
    ("sim.wheel", "sim.wheel.tick_s"),
    ("server.completion", "server.completion_s"),
    ("server.governor", "server.governor_s"),
    ("network.flow", "network.flow_event_s"),
    ("network.governor", "network.governor_s"),
    ("sched.dispatch", "sched.dispatch_s"),
    ("sched.pick_outside_dispatch", "sched.pick_outside_dispatch_s"),
    ("workload", "workload.in_events_s"),
    ("trace.probe", "trace.probe_s"),
]


def bench(workload, seed, seconds, trace):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: benchmark failed\n{p.stdout}"
                 f"{p.stderr}")
    with open(out) as f:
        return result, json.load(f)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def shares(raw):
    traced = raw["traced"]
    run_s = statistics.median(r["run_s"] for r in traced)
    return {name: statistics.median(r["layers"][key] for r in traced) / run_s
            for name, key in SHARES}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]

    baseline = {"default_seed": DEFAULT_SEED, "confirm_seed": CONFIRM_SEED,
                "run_seconds": seconds, "runs": RUNS,
                "spread": f"end_to_end quartiles are taken across seeds "
                          f"1..{RUNS}, one run.py window per seed, so they "
                          "hold input variation as well as host noise; "
                          "compare a result with per_seed of its own seed",
                "workloads": {}}
    steady = True
    # Every workload gets one traced run for its split and counters;
    # the gated ones also get the end-to-end spread over the seeds.
    for wl in run.WORKLOADS:
        entry = {"why": run.WORKLOADS[wl]}
        if wl in gated:
            per_seed = {}
            for seed in range(1, RUNS + 1):
                result, raw = bench(wl, seed, seconds, 0)
                first = raw["plain"][0]
                per_seed[str(seed)] = {
                    "end_to_end": {n: m["value"]
                                   for n, m in result["metrics"].items()},
                    **{k: first[k] for k in
                       ("stats_digest", "sim_job_p99_s", "sim_energy_j")}}
            print(f"{wl}: {RUNS} seeds x {seconds:g} s")
            entry["end_to_end"] = {}
            for name, bound in bounds.items():
                q = quartiles([s["end_to_end"][name]
                               for s in per_seed.values()])
                q["bound"] = bound
                entry["end_to_end"][name] = q
                ok = name == "setup_s" or q["spread"] < bound / 3
                steady &= ok
                print(f"  {name:<18} median {q['median']:<12.6g} "
                      f"q1 {q['q1']:<12.6g} q3 {q['q3']:<12.6g} "
                      f"spread {q['spread']:.4f} bound {bound}"
                      f"{'' if ok else '  <-- above bound/3'}")
            entry["per_seed"] = per_seed
        else:
            print(f"{wl}: traced run only (not gated by BENCHMARK.json)")
        _, traced = bench(wl, DEFAULT_SEED, seconds, 1)
        baseline["fingerprint"] = traced["host"]
        entry["counters"] = traced["plain"][0]["counters"]
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["host_time_shares"] = shares(traced)
        baseline["workloads"][wl] = entry
        lay = entry["per_layer"]
        print("  host-time shares: " + ", ".join(
            f"{k} {v:.1%}" for k, v in entry["host_time_shares"].items()
            if v >= 0.005))
        print(f"  trace overhead {lay['trace.overhead_frac']:.1%}, probe "
              f"{lay['trace.probe_ns_per_event']:.1f} ns/event, coverage "
              f"{lay['trace.coverage']:.1%}")

    layer = {wl: e["per_layer"] for wl, e in baseline["workloads"].items()}
    baseline["observations"] = {
        "dispatch_us_per_job_farm_20k": layer["farm_20k"][
            "sched.dispatch_us_per_job"],
        "dispatch_us_per_job_warehouse_100k": layer["warehouse_100k"][
            "sched.dispatch_us_per_job"],
        "schedules_per_pop_fattree_fanout": layer["fattree_fanout"][
            "sim.schedules_per_pop"],
    }
    print("observations:", json.dumps(baseline["observations"]))

    if args.write:
        with open(BENCH_DIR / "baseline.json", "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BENCH_DIR / 'baseline.json'}")
    print("steady" if steady else "NOT steady: a spread is above bound/3")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

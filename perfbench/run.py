#!/usr/bin/env python3
"""HolDCSim benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload three_tier --seed 1 --seconds 20 --trace 0

Builds perfbench_runner from ../src on first use (Release, in
.bench_build/perfbench under the checkout root), then runs the
workload in a fresh process again and again for --seconds seconds.

--trace 0 reports the end-to-end metrics of untraced runs.  The value
of each is the best run in the window (fastest time, highest rate,
smallest footprint): on a shared host, interference from other tenants
only ever adds time and comes in phases lasting seconds, so the best
run tracks the program's own cost far more steadily than the median
does.  The median, the highest percentile with ten samples beyond it
and the sample count are printed beside it.  --trace 1 alternates
untraced and traced runs and reports the per-layer split: exact counts
and the median host time of each layer over the traced runs.  Either
way every run's outputs are checked: all jobs complete, and the stats
digest and every exact counter are identical across all runs, traced
or not.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 when every check passed, 1 when one failed, and 2
when the benchmark could not run at all (no sources, build failure,
unoptimised or sanitizer build).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
BASELINE = BENCH_DIR / "baseline.json"

# Every workload the runner builds, with why it exists.  BENCHMARK.json
# gates a subset; the others stay runnable by hand.
WORKLOADS = {
    "three_tier": "12 typed servers, web-app-db chains over one star "
                  "switch: state fits in cache, so event-queue, C-state, "
                  "port-LPI and flow costs show and fleet-size costs do not",
    "farm_20k": "Paper Table I 20,480-server x 4-core farm, Poisson "
                "single-task jobs at rho 0.3: dispatch and per-server cost "
                "over a working set larger than the caches; no fabric",
    "fattree_fanout": "Fat-tree k=8, fan-out 4 with 32 KB anti-affine edges: "
                      "flow activation and completion re-shares dominate, "
                      "where network solver changes show",
    "warehouse_100k": "100,000 x 4-core fleet, governor timers on the shared "
                      "wheel, idle suspend, small MMPP stream: the wheel user, "
                      "and where dispatch at scale, set-up, memory and "
                      "stats-dump costs show",
}

# (name, unit, better) of the end-to-end metrics, from untraced runs;
# each reports the best run of the window.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s_per_sim_s", "s/s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("total_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better) of the per-layer metrics.  Counts are exact;
# host times come from the traced runs.
PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.queue.schedules", "count", "lower"),
    ("sim.queue.pops", "count", "lower"),
    ("sim.queue.heap_schedules", "count", "lower"),
    ("sim.queue.peak", "count", "lower"),
    ("sim.schedules_per_pop", "ratio", "lower"),
    ("sim.kernel_s", "s", "lower"),
    ("sim.wheel.fired", "count", "lower"),
    ("sim.wheel.tick_events", "count", "lower"),
    ("sim.wheel.max_batch", "count", "lower"),
    ("sim.wheel.tick_s", "s", "lower"),
    ("server.tasks", "count", "higher"),
    ("server.completion_s", "s", "lower"),
    ("server.completion_us_per_task", "us", "lower"),
    ("server.governor_events", "count", "lower"),
    ("server.governor_s", "s", "lower"),
    ("server.events_per_task", "ratio", "lower"),
    ("sched.jobs", "count", "higher"),
    ("sched.tasks_dispatched", "count", "higher"),
    ("sched.transfers", "count", "higher"),
    ("sched.dispatch_s", "s", "lower"),
    ("sched.dispatch_us_per_job", "us", "lower"),
    ("sched.picks", "count", "lower"),
    ("sched.pick_s", "s", "lower"),
    ("network.flows", "count", "higher"),
    ("network.resolves", "count", "lower"),
    ("network.resolved_flows", "count", "lower"),
    ("network.mean_dirty_flows", "count", "lower"),
    ("network.dirty_links", "count", "lower"),
    ("network.fast_path_hits", "count", "higher"),
    ("network.flow_event_s", "s", "lower"),
    ("network.governor_events", "count", "lower"),
    ("network.governor_s", "s", "lower"),
    ("workload.jobs", "count", "higher"),
    ("workload.make_job_s", "s", "lower"),
    ("workload.arrival_s", "s", "lower"),
    ("dc.build_s", "s", "lower"),
    ("dc.stats_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.probe_ns_per_event", "ns", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

# A single run never takes this long; a hung one is killed and failed.
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run at all (exit 2, no result line)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; quiet unless it fails."""
    if not (ROOT / "src" / "sim" / "simulator.hh").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    """Host and build identity; timings compare only within one."""
    p = subprocess.run([str(RUNNER), "--info"], capture_output=True,
                       text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError("perfbench_runner --info failed")
    info = json.loads(p.stdout.strip().splitlines()[-1])
    if not info["optimized"] or info["sanitized"]:
        raise BenchError("refusing to time an unoptimised or sanitizer "
                         f"build: {info}")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
    }


def run_once(workload, seed, traced, quick=False, extra=()):
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           *(["--traced"] if traced else []),
           *(["--quick"] if quick else []), *extra]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if p.returncode != 0:
        return None, p.stderr.strip()[-500:] or f"exit {p.returncode}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable output"


def check_run(r, ref):
    """Problems with one run, judged alone and against run @p ref."""
    problems = []
    c = r["counters"]
    if not (c["sched.jobs_submitted"] == c["sched.jobs_completed"]
            == r["jobs_expected"]):
        problems.append(
            f"jobs incomplete: {c['sched.jobs_completed']} of "
            f"{c['sched.jobs_submitted']} (expected {r['jobs_expected']})")
    if c["sim.events"] != c["sim.queue.pops"]:
        problems.append("events processed != queue pops")
    if not (r["sim_energy_j"] or 0) > 0 or r["sim_job_p99_s"] is None:
        problems.append("non-finite simulated outputs")
    if "layers" in r:
        if r["unknown_events"]:
            problems.append(f"events with no layer: {r['unknown_events']}")
        if r["layers"]["probe_events"] != c["sim.events"]:
            problems.append("probe saw a different number of events")
    if ref is not None:
        if r["stats_digest"] != ref["stats_digest"]:
            problems.append(f"stats digest {r['stats_digest']} != "
                            f"{ref['stats_digest']}")
        diff = [k for k in c if c[k] != ref["counters"].get(k)]
        if diff:
            problems.append(f"counters differ: {', '.join(diff)}")
    return problems


def best(values, better):
    return max(values) if better == "higher" else min(values)


def tail(values, better):
    """(percentile, value): the worst-side percentile with ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    s = sorted(values, reverse=(better == "higher"))
    return round(100.0 * (n - 10) / n, 1), s[n - 11]


def end_to_end(r):
    run_s, sim_s = r["run_s"], r["sim_s"]
    jobs = r["counters"]["sched.jobs_completed"]
    return {
        "setup_s": r["setup_s"],
        "wall_s_per_sim_s": run_s / sim_s if sim_s > 0 else math.inf,
        "jobs_per_s": jobs / run_s if run_s > 0 else 0.0,
        "total_s": r["total_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def per_layer(plain, traced):
    """Per-layer metrics: exact counts plus traced-run host times."""
    c = plain[0]["counters"]
    med = lambda key: statistics.median(r["layers"][key] for r in traced)
    run_plain = min(r["run_s"] for r in plain)
    run_traced = min(r["run_s"] for r in traced)
    lay = traced[0]["layers"]
    tasks = max(c["server.tasks"], 1)
    jobs = max(c["sched.jobs_completed"], 1)
    resolves = c["network.resolves"]
    m = {
        "sim.events": c["sim.events"],
        "sim.events_per_s": c["sim.events"] / run_plain,
        "sim.queue.schedules": c["sim.queue.schedules"],
        "sim.queue.pops": c["sim.queue.pops"],
        "sim.queue.heap_schedules": c["sim.queue.heap_schedules"],
        "sim.queue.peak": c["sim.queue.peak"],
        "sim.schedules_per_pop":
            c["sim.queue.schedules"] / max(c["sim.queue.pops"], 1),
        "sim.kernel_s": med("sim.kernel_s"),
        "sim.wheel.fired": c["sim.wheel.fired"],
        "sim.wheel.tick_events": c["sim.wheel.tick_events"],
        "sim.wheel.max_batch": c["sim.wheel.max_batch"],
        "sim.wheel.tick_s": med("sim.wheel.tick_s"),
        "server.tasks": c["server.tasks"],
        "server.completion_s": med("server.completion_s"),
        "server.completion_us_per_task":
            med("server.completion_s") / tasks * 1e6,
        "server.governor_events": lay["server.governor_events"],
        "server.governor_s": med("server.governor_s"),
        "server.events_per_task":
            (lay["server.completion_events"] +
             lay["server.governor_events"]) / tasks,
        "sched.jobs": c["sched.jobs_completed"],
        "sched.tasks_dispatched": c["sched.tasks_dispatched"],
        "sched.transfers": c["sched.transfers"],
        "sched.dispatch_s": med("sched.dispatch_s"),
        "sched.dispatch_us_per_job": med("sched.dispatch_s") / jobs * 1e6,
        "sched.picks": lay["sched.picks"],
        "sched.pick_s": med("sched.pick_s"),
        "network.flows": c["network.flows"],
        "network.resolves": resolves,
        "network.resolved_flows": c["network.resolved_flows"],
        "network.mean_dirty_flows":
            c["network.resolved_flows"] / resolves if resolves else 0.0,
        "network.dirty_links": c["network.dirty_links"],
        "network.fast_path_hits": c["network.fast_path_hits"],
        "network.flow_event_s": med("network.flow_event_s"),
        "network.governor_events": lay["network.governor_events"],
        "network.governor_s": med("network.governor_s"),
        "workload.jobs": lay["workload.make_jobs"],
        "workload.make_job_s": med("workload.make_job_s"),
        "workload.arrival_s": med("workload.arrival_s"),
        "dc.build_s": statistics.median(r["dc.build_s"] for r in traced),
        "dc.stats_s": statistics.median(r["dc.stats_s"] for r in traced),
        "trace.overhead_frac": run_traced / run_plain - 1.0,
        "trace.probe_ns_per_event": med("trace.probe_ns_per_event"),
        "trace.coverage": med("trace.coverage"),
    }
    return m


def load_baseline():
    try:
        with open(BASELINE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def report_end_to_end(samples, base_seed):
    """Print best / median / tail / n per metric, and the change against
    @p base_seed: the baseline's values for the same workload and seed,
    or {} when there are none to compare with."""
    for name, unit, better in END_TO_END:
        vals = [s[name] for s in samples]
        value = best(vals, better)
        t = tail(vals, better)
        line = (f"  {name:<18} {value:.6g} {unit}  "
                f"median {statistics.median(vals):.6g}")
        line += (f"  p{t[0]:g} {t[1]:.6g}" if t else "  (tail needs n>10)")
        line += f"  n={len(vals)}"
        ref = base_seed.get(name)
        if ref:
            line += f"  vs baseline {100.0 * (value / ref - 1.0):+.1f}%"
        print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small size of each workload (tests only)")
    ap.add_argument("--out", help="also write every run's raw record here")
    args = ap.parse_args(argv)

    try:
        build()
        host = fingerprint()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: {host['nproc']} cpus, {host['cpu']}, "
          f"g++ {host['compiler']}, {host['build_type']}")

    # Untraced and traced runs alternate in trace mode; at least two of
    # each kind (three untraced without tracing) make a median.  A run
    # that would end more than half a run past the deadline is not
    # started, so the window overshoots --seconds by little.
    kinds = [False, True] if args.trace else [False]
    min_runs = 2 if args.trace else 3
    runs = {False: [], True: []}
    errors = []
    attempted = failed = 0
    ref = None
    start = time.monotonic()
    last = 0.0
    i = 0
    while (time.monotonic() - start + last / 2 < args.seconds
           or any(len(runs[k]) < min_runs for k in kinds)):
        if time.monotonic() - start > 150:
            break
        traced = kinds[i % len(kinds)]
        i += 1
        attempted += 1
        t = time.monotonic()
        r, err = run_once(args.workload, args.seed, traced, args.quick)
        last = time.monotonic() - t
        problems = [err] if r is None else check_run(r, ref)
        if problems:
            failed += 1
            errors.extend(problems)
            if r is None and attempted >= 3 and failed == attempted:
                break
            continue
        ref = ref or r
        runs[traced].append(r)

    plain, traced_runs = runs[False], runs[True]
    correct = failed == 0 and bool(plain) and (bool(traced_runs) or
                                               not args.trace)
    for e in sorted(set(errors))[:10]:
        print(f"check failed: {e}")

    metrics = {}
    if correct:
        samples = [end_to_end(r) for r in plain]
        c = plain[0]["counters"]
        print(f"checks: {attempted} runs, all jobs complete, digest "
              f"{ref['stats_digest']} and {len(c)} counters identical")
        print(f"simulated: sim_job_p99_s {ref['sim_job_p99_s']:.6g}  "
              f"sim_energy_j {ref['sim_energy_j']:.6g}  "
              f"jobs_incomplete_frac 0  events {c['sim.events']}")
        base = load_baseline()
        base_wl = (base or {}).get("workloads", {}).get(args.workload, {})
        same_host = base is not None and base.get("fingerprint") == host
        known = base_wl.get("per_seed", {}).get(str(args.seed), {})
        if known and not args.quick:
            same = known["stats_digest"] == ref["stats_digest"]
            print(f"stats digest {'matches' if same else 'DIFFERS FROM'} "
                  f"the baseline's for seed {args.seed}")
        if base is not None and not same_host:
            print("baseline taken on another host or build: "
                  "timings not compared")
        report_end_to_end(samples, known.get("end_to_end", {})
                          if same_host and not args.quick else {})
        if args.trace:
            values = per_layer(plain, traced_runs)
            units = {n: u for n, u, _ in PER_LAYER}
            for name, _, _ in PER_LAYER:
                print(f"  {name:<30} {values[name]:.6g} {units[name]}")
            metrics = {n: {"value": values[n], "unit": u}
                       for n, u, _ in PER_LAYER}
        else:
            metrics = {n: {"value": best([s[n] for s in samples], b),
                           "unit": u} for n, u, b in END_TO_END}

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "host": host,
                       "correct": correct, "metrics": metrics,
                       "plain": plain, "traced": traced_runs}, f)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

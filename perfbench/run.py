#!/usr/bin/env python3
"""Exact-verification benchmark for higgsres.

    python3 perfbench/run.py --workload theorem-f3 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` tree, so nothing needs installing.  One thread, and at most one
child process at a time.

``--trace 0`` measures the end-to-end metrics.  It runs passes of the
workload's fixed batch of trials of the seed, each pass in a fresh
interpreter (``worker.py``): ``--seconds // PASS_S`` of them, at least
two.  Every trial must verify exactly.  Latencies are taken
relative to a fixed reference loop timed beside each trial, because the
machine's own speed drifts; see ``nominal_latencies``.

``--trace 1`` measures the per-layer metrics.  Until ``--seconds`` have
passed it repeats rounds of the workload's fixed batch of trials, once
untraced and once traced at every layer boundary.  Counts come from one
round and must repeat exactly in every round; times are medians over the
rounds.  The round's spans are written to ``perfbench/out``.

Both modes then run the workload's correctness gate outside the timed
region.  The last line of output is one JSON object; the exit code is 1
when any exact check, non-vacuity check or reconciliation fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = Path(__file__).resolve().parent / "out"

WORKER = Path(__file__).resolve().parent / "worker.py"
# worker.reference_loop's duration on an unloaded 2.1 GHz Xeon core: one
# nominal millisecond
REFERENCE_S = 1e-3
# seconds a pass of each workload's batch takes on an unloaded 2.1 GHz
# Xeon core, the batches being sized for it; a run makes seconds // PASS_S
# passes, at least two
PASS_S = 15
# set-up-only interpreters started before each pass
SETUPS_PER_PASS = 3
# instances of the first trials kept for the corruption witness
KEEP_INSTANCES = 4
# boundaries whose times are reported by name: those every workload crosses
TIMED_BOUNDARIES = (
    "solver.solve_system",
    "kernels.p_gcd",
    "kernels.p_mul",
    "kernels.p_series_div",
    "kernels.zi_echelon",
)


def environment() -> dict:
    import higgsres

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
        except OSError:
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "backend": higgsres.KERNEL_BACKEND,
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
    }


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def tail(latencies: list):
    """(percentile, value): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def report_checks(checks: list) -> bool:
    for name, passed, detail in checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    return all(passed for _, passed, _ in checks)


def run_pass(workload, seed: int, trials: int) -> dict:
    """One timed pass of trials 0 .. trials-1 in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(WORKER), workload.name, str(seed), str(trials)],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return json.loads(done.stdout.splitlines()[-1])


def nominal_latencies(p: dict) -> list:
    """A pass's trial latencies in nominal seconds.

    Each latency is divided by the median duration of the reference loops
    run around it (5 trials either side) and multiplied by REFERENCE_S,
    the loop's duration on an unloaded machine.  A shared 2-vCPU 2.1 GHz
    Xeon slows by tens of percent for tens of seconds at a time; the
    reference loop slows with it, so the quotient stays put.
    """
    refs = p["references"]
    out = []
    for t, latency in enumerate(p["latencies"]):
        local = statistics.median(refs[max(0, t - 5) : t + 6])
        out.append(latency * REFERENCE_S / local)
    return out


def run_untraced(workload, seconds: float, seed: int):
    from workloads import Trial, run_trial

    passes, setups = [], []
    start = perf_counter()
    # a fixed number of passes, not as many as fit: the per-trial minimum
    # over more passes reads lower, so it must not depend on machine speed
    for _ in range(max(2, int(seconds // PASS_S))):
        # set-up alone is short and noisy: sample it a few more times,
        # spread over the run
        setups += [run_pass(workload, seed, 0)["setup_s"] for _ in range(SETUPS_PER_PASS)]
        passes.append(run_pass(workload, seed, workload.batch))
        setups.append(passes[-1]["setup_s"])
    elapsed = perf_counter() - start

    n = workload.batch
    # each trial's fastest pass filters the short slow spells the
    # reference loop does not catch
    nominal = [nominal_latencies(p) for p in passes]
    best = [min(lat[t] for lat in nominal) for t in range(n)]
    best_wall = [min(p["latencies"][t] for p in passes) for t in range(n)]
    records = [tuple(r) for r in passes[0]["records"]]
    ok = [all(p["ok"][t] for p in passes) for t in range(n)]
    attempted = n * len(passes)
    verified = sum(sum(p["ok"]) for p in passes)
    pct, tail_s = tail(best)
    print(f"timed: {len(passes)} passes of {n} trials in {elapsed:.3f} s, "
          f"{verified} of {attempted} verified exactly")
    print(f"setup: {', '.join(f'{x:.4f}' for x in setups)} s (median reported)")
    print(f"reference loop: median {statistics.median(r for p in passes for r in p['references']) * 1e3:.3f} ms "
          f"(nominal {REFERENCE_S * 1e3:g} ms)")
    print(f"trial latency, fastest pass, nominal: p50 {statistics.median(best) * 1e3:.3f} ms, "
          f"tail p{pct:.2f} {tail_s * 1e3:.3f} ms over {n} trials")
    print(f"trial latency, fastest pass, wall: p50 {statistics.median(best_wall) * 1e3:.3f} ms, "
          f"{sum(ok) / sum(best_wall):.3f} verified per s")
    batch = [list(r) for r in records[: workload.trace_trials]]
    print(f"instances digest (trials 0-{len(batch) - 1}): {digest(batch)}")
    print(workload.describe(records[: workload.trace_trials]))

    # the gate reruns the first trials here, keeping their instances
    workload.setup(FIXTURES, seed)
    trials = [run_trial(workload, t) for t in range(KEEP_INSTANCES)]
    trials += [Trial(ok[t], records[t]) for t in range(KEEP_INSTANCES, n)]
    checks = [
        (
            "passes-repeat",
            all(p["records"] == passes[0]["records"] for p in passes),
            f"all {len(passes)} passes sample identical instances",
        ),
        (
            "in-process-repeat",
            [tr.record for tr in trials[:KEEP_INSTANCES]] == records[:KEEP_INSTANCES],
            f"trials 0-{KEEP_INSTANCES - 1} rerun in this process give the passes' records",
        ),
    ]
    correct = report_checks(checks + workload.check(trials)) and verified == attempted
    metrics = {
        "verified_per_s": (sum(ok) / sum(best), "1/ref-s"),
        "trial_ms_p50": (statistics.median(best) * 1e3, "ref-ms"),
        "trial_ms_tail": (tail_s * 1e3, "ref-ms"),
        "verified_ratio": (verified / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return correct, attempted, attempted - verified, metrics


def run_traced(workload, seconds: float, seed: int):
    from tracer import LAYERS, Tracer
    from workloads import run_trial

    run_trial(workload, -1)  # warm-up on an instance outside the measured sequence
    n = workload.trace_trials
    rounds = []
    first_plain = None
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        t0 = perf_counter()
        plain = [run_trial(workload, t) for t in range(n)]
        t1 = perf_counter()
        tracer = Tracer()
        traced = []
        with tracer.installed():
            for t in range(n):
                tracer.trial = t
                traced.append(run_trial(workload, t))
        t2 = perf_counter()
        if first_plain is None:
            first_plain = plain
        # kernels call no traced code, so their self time equals busy time
        times = {f"{layer}.busy_s": tracer.layer_busy_s[layer] for layer in LAYERS}
        for layer in LAYERS[:-1]:
            times[f"{layer}.self_s"] = tracer.layer_self_s(layer)
        for key in TIMED_BOUNDARIES:
            times[f"{key}.busy_s"] = tracer.stats[key].busy_s
        times["solver.solve_system.self_s"] = tracer.stats["solver.solve_system"].self_s
        rounds.append(
            {
                "plain_s": t1 - t0,
                "traced_s": t2 - t1,
                "plain": [tr.record for tr in plain],
                "traced": [tr.record for tr in traced],
                "failed": sum(not tr.ok for tr in plain + traced),
                "counts": tracer.counts(),
                "times": times,
            }
        )
    for tr in first_plain[KEEP_INSTANCES:]:
        tr.instance = None

    first = rounds[0]
    counts, records = first["counts"], first["plain"]
    attempted = 2 * n * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"traced: {len(rounds)} rounds of {n} trials, untraced then traced")

    checks = [
        (
            "traced-same-instances",
            all(r["traced"] == r["plain"] == records for r in rounds),
            "traced and untraced passes sample identical instances in every round",
        ),
        (
            "counts-repeat",
            all(r["counts"] == counts for r in rounds),
            f"counts identical in all {len(rounds)} rounds",
        ),
    ]
    if failed == 0:
        for name, traced_count, expected in workload.reconcile(records, counts):
            checks.append(
                (f"reconcile {name}", traced_count == expected, f"traced {traced_count}, expected {expected}")
            )
    checks.extend(workload.check(first_plain))

    print(workload.describe(records))
    print("counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"instances digest: {digest(records)}  work digest: {digest([records, counts])}")
    print(f"{'boundary (last round)':34} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'infeasible':>10}")
    for key, stat in tracer.stats.items():
        if stat.calls:
            print(f"{key:34} {stat.calls:8d} {stat.busy_s:10.4f} {stat.self_s:10.4f} {stat.infeasible:10d}")
    correct = report_checks(checks) and failed == 0

    tangent_calls = (
        counts["solver.build_tangent_space.calls"] + counts["solver.build_higgs_tangent_space.calls"]
    )
    tangent_infeasible = (
        counts["solver.build_tangent_space.infeasible"]
        + counts["solver.build_higgs_tangent_space.infeasible"]
    )
    instances = counts["suites.build_instance.calls"] + counts["suites.random_higgs_pair.calls"]
    section_builds = (
        counts["solver.build_section_space.calls"] + counts["solver.build_higgs_field_space.calls"]
    )
    metrics = {key: (value, "count") for key, value in counts.items()}
    metrics["solver.tangent_useful_ratio"] = (
        (tangent_calls - tangent_infeasible) / tangent_calls,
        "ratio",
    )
    metrics["suites.bundle_useful_ratio"] = (instances / section_builds, "ratio")
    for key in rounds[0]["times"]:
        metrics[key] = (statistics.median(r["times"][key] for r in rounds), "s")
    plain_s = statistics.median(r["plain_s"] for r in rounds)
    traced_s = statistics.median(r["traced_s"] for r in rounds)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
    print(f"trial batch: untraced {plain_s:.3f} s, traced {traced_s:.3f} s (medians)")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.json"
    span_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "fields": ["id", "parent", "trial", "name", "start_s", "end_s"],
                "spans": tracer.spans,
            }
        )
    )
    print(f"spans of the last round: {span_file.relative_to(ROOT)}")
    return correct, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "higgsres" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no higgsres source tree and fixtures under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        workload.setup(FIXTURES, args.seed)
        correct, attempted, failed, metrics = run_traced(workload, args.seconds, args.seed)
    else:
        correct, attempted, failed, metrics = run_untraced(workload, args.seconds, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark: compiled kernels vs the pure-Python fallback.

Micro-benchmarks time both backend modules in the same process;
the end-to-end row re-runs a slice of the randomized theorem suite in a
subprocess per backend (the kernel choice is fixed at import time).  The
compiled columns appear only when the ``_fast`` extension is built; each
end-to-end time is labelled by the backend its subprocess reports.

Usage:  python benchmarks/bench_kernels.py [--trials N]
"""

import argparse
import os
import pathlib
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent

from higgsres._kernels import pure

try:
    from higgsres._kernels import _fast
except ImportError:
    _fast = None

from higgsres.solver import SeedStream


def _random_triple(rng):
    return pure.gq_norm(
        rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 40)
    )


def _random_poly(rng, size):
    return pure.p_norm([_random_triple(rng) for _ in range(size)])


def timeit(fn, repeat=5):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_backend(backend, workloads):
    results = {}
    for name, make in workloads.items():
        fn = make(backend)
        results[name] = timeit(fn)
    return results


def build_workloads():
    rng = SeedStream("bench")
    polys = [(_random_poly(rng.child(i, "a"), 14), _random_poly(rng.child(i, "b"), 14)) for i in range(20)]
    gcd_pairs = []
    for i in range(10):
        base = _random_poly(rng.child("g", i), 6)
        f1 = pure.p_mul(base, _random_poly(rng.child("g1", i), 6))
        f2 = pure.p_mul(base, _random_poly(rng.child("g2", i), 6))
        if f1 and f2:
            gcd_pairs.append((f1, f2))
    series_pairs = [
        (_random_poly(rng.child("s", i), 10), [pure.GQ_ONE] + _random_poly(rng.child("sd", i), 9))
        for i in range(30)
    ]
    mats = []
    for i in range(4):
        sub = rng.child("m", i)
        mats.append(
            [
                [(sub.randint(-30, 30), sub.randint(-30, 30)) for _ in range(36)]
                for _ in range(60)
            ]
        )
    scalars = [(_random_triple(rng.child("x", i)), _random_triple(rng.child("y", i))) for i in range(4000)]

    def scalar_work(K):
        def run():
            for x, y in scalars:
                K.gq_add(K.gq_mul(x, y), K.gq_sub(x, y))
        return run

    def polymul_work(K):
        def run():
            for p, q in polys:
                K.p_mul(p, q)
        return run

    def gcd_work(K):
        def run():
            for p, q in gcd_pairs:
                K.p_gcd(p, q)
        return run

    def series_work(K):
        def run():
            for num, den in series_pairs:
                K.p_series_div(num, den, 12)
        return run

    def echelon_work(K):
        def run():
            for m in mats:
                rows = [list(r) for r in m]
                K.zi_echelon(rows, 30)
        return run

    return {
        "scalar ops (4k mul+add+sub)": scalar_work,
        "poly multiply (20x deg13)": polymul_work,
        "poly gcd (10x deg11 pairs)": gcd_work,
        "series division (30x 12 terms)": series_work,
        "Bareiss echelon (4x 60x36)": echelon_work,
    }


def bench_end_to_end(trials):
    """[(backend, seconds)] for a slice of the f3 theorem suite, labelled by
    the backend each subprocess reports; compiled only when ``_fast`` imports."""
    envs = [{"HIGGSRES_PURE": "1"}] + ([{}] if _fast is not None else [])
    runs = []
    for env_extra in envs:
        env = dict(os.environ, **env_extra)
        code = (
            "import time; t0=time.time();"
            "import higgsres;"
            "from higgsres.scenario import load_scenario;"
            "from higgsres.suites import run_random_suite;"
            f"sc = load_scenario(r'{REPO / 'fixtures' / 'f3.json'}');"
            f"recs = run_random_suite(sc, 1, {trials});"
            "assert all(r.ok for r in recs);"
            "print(higgsres.KERNEL_BACKEND, time.time()-t0)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, text=True
        )
        backend, seconds = out.stdout.split()
        runs.append((backend, float(seconds)))
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=15, help="end-to-end suite trials")
    args = parser.parse_args()

    if _fast is None:
        print("compiled backend unavailable; micro-benchmarks run pure only")
    workloads = build_workloads()
    pure_res = bench_backend(pure, workloads)
    fast_res = bench_backend(_fast, workloads) if _fast else None

    width = max(len(k) for k in workloads)
    print(f"{'workload'.ljust(width)}  {'pure':>10}  {'compiled':>10}  {'speedup':>8}")
    for name in workloads:
        p = pure_res[name]
        line = f"{name.ljust(width)}  {p*1e3:9.2f}ms"
        if fast_res:
            f = fast_res[name]
            line += f"  {f*1e3:9.2f}ms  {p/f:7.2f}x"
        print(line)

    print()
    runs = bench_end_to_end(args.trials)
    for backend, seconds in runs:
        name = f"theorem suite f3 x{args.trials}, {backend}"
        print(f"{name.ljust(width)}  {seconds*1e3:9.0f}ms")
    times = dict(runs)
    if "compiled" in times:
        print(f"end-to-end speedup: {times['pure'] / times['compiled']:.2f}x")

if __name__ == "__main__":
    main()

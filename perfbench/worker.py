#!/usr/bin/env python3
"""One timed pass of a workload's trials, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRIALS

Times the set-up (importing higgsres and loading the scenario).  With
TRIALS > 0 it then runs one warm-up trial outside the batch and times
trials 0 .. TRIALS-1 of the seed, each preceded by one run of
``reference_loop``.  Prints one JSON line: setup_s, peak_rss_mb, and
per trial its latency, the duration of its reference loop, whether it
verified exactly, and its record.

Each pass is a fresh process, like a user's ``random-suite`` run, so no
state a pass leaves behind in the library can speed up the next one.
"""

import json
import resource
import sys
from math import gcd
from pathlib import Path
from time import perf_counter


def reference_loop() -> int:
    """Fixed pure-Python work, about 1 ms on a 2.1 GHz Xeon core.

    It shares no code with higgsres, so a change to the library cannot
    change its duration; only the machine's speed can.  It mixes the
    operations the library spends its time in: small-integer arithmetic
    and gcds, tuple building and dict updates.  Never edit it: timings
    from before and after an edit are not comparable.
    """
    table = {}
    acc = 0
    for i in range(2500):
        a = (i * 7919) % 1009 + 1
        b = i % 17 + 1
        g = gcd(a * 12, b * 18)
        key = (a // g, b, g)
        table[key] = table.get(key, 0) + 1
        acc += key[0] * key[2]
    return acc


def main() -> int:
    start = perf_counter()
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, run_trial

    workload = WORKLOADS[sys.argv[1]]
    workload.setup(root / "fixtures", int(sys.argv[2]))
    setup_s = perf_counter() - start

    trials = int(sys.argv[3])
    if trials:
        run_trial(workload, -1)
    latencies, references, oks, records = [], [], [], []
    for t in range(trials):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        trial = run_trial(workload, t)
        t2 = perf_counter()
        references.append(t1 - t0)
        latencies.append(t2 - t1)
        oks.append(trial.ok)
        records.append(trial.record)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "latencies": latencies,
                "references": references,
                "ok": oks,
                "records": records,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

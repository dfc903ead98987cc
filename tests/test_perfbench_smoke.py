"""The benchmark's traced mode against the library, as a smoke test.

``perfbench/run.py --trace 1`` wraps the layer boundaries of the
library, the echelon kernel among them (its tracer counts the cells of
every system the kernel is given, from the kernel's own arguments),
reconciles the traced counts with the workload's records and runs the
workload's correctness gate.  Each run here is one traced round at
seed 1 (``--seconds 0``); it writes its span file to the ignored
``perfbench/out``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["theorem-f1", "theorem-f3", "cartan-f2"])
def test_traced_round_passes_every_check(workload):
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            *("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True

"""Every CLI report stays byte-identical to the committed golden set.

``tests/golden/reports.json`` maps each command line to its exit code,
stdout and stderr: all ten commands on the four shipped fixtures, in text
and JSON form, at ``--seed 1 --trials 2``.  Each case is re-run in-process
through ``cli.run`` and compared byte for byte.  Regenerate the set only
for an intended report change, from the repository root:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

import pytest

from higgsres.cli import _COMMANDS, run

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden" / "reports.json"
FIXTURES = ("f1", "f2", "f3", "lambda")

CASES = [
    f"{command} fixtures/{fixture}.json --seed 1 --trials 2 --format {fmt}"
    for command in _COMMANDS
    for fixture in FIXTURES
    for fmt in ("text", "json")
]


def run_case(case: str) -> dict:
    """Exit code, stdout and stderr of one command line (cwd: repo root)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, _ = run(case.split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_set_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_is_byte_identical(case, golden, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    reports = {case: run_case(case) for case in CASES}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")

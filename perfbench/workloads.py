"""The benchmark's workloads: one trial body each, plus its correctness gate.

A workload turns a seed into a deterministic sequence of trials.  Each
trial returns whether the instance verified exactly and a record of the
work it did, which the benchmark digests and compares across passes.
``check`` runs outside the timed region; it makes the exact checks
non-vacuous by showing, on the same seed, that they reject bad data.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

from higgsres import moduli, suites
from higgsres.errors import EquivarianceBroken
from higgsres.field import RatFunc, format_gauss
from higgsres.hamiltonian import XVector
from higgsres.scenario import load_scenario
from higgsres.solver import SeedStream


@dataclass
class Trial:
    ok: bool
    record: tuple
    instance: object = None


def run_trial(workload, t: int) -> Trial:
    """One trial; a trial that raises counts as failed and is reported."""
    try:
        return workload.trial(t)
    except Exception:
        print(f"{workload.name} trial {t} raised:", file=sys.stderr)
        traceback.print_exc()
        return Trial(False, ("raised",))


class Workload:
    """A fixture, a seed stream over it, and the sizes of the measured batches.

    ``batch`` trials make one timed pass; ``trace_trials`` make one traced
    round.  Both are fixed, so a seed always names the same instances.
    """

    STREAM = ""

    def __init__(self, name: str, fixture: str, batch: int, trace_trials: int):
        self.name = name
        self.fixture = fixture
        self.batch = batch
        self.trace_trials = trace_trials

    def setup(self, fixtures_dir, seed: int) -> None:
        self.seed = seed
        self.scenario = load_scenario(str(fixtures_dir / self.fixture))
        self.stream = SeedStream(self.STREAM, seed)


class TheoremWorkload(Workload):
    """The trial body of ``run_random_suite`` on one fixture.

    A trial builds a random instance (bundle resampled until the section
    space is nontrivial, two tangents resampled on ``Infeasible``), pulls
    ``Omega`` back through the moment map and runs the per-point identity
    check.  It verifies when the pullback is exactly zero and the identity
    holds.  Its record is (section_dim, bundle_attempts, tangent_retries,
    pullback).
    """

    # trials of the negative-control suite run by the gate
    CORRUPT_TRIALS = 4
    # trials compared against the library's own run_random_suite
    SUITE_TRIALS = 2

    STREAM = "random-suite"

    def trial(self, t: int) -> Trial:
        inst = suites.build_instance(self.scenario, self.stream.child("trial", t))
        t1, t2 = inst.tangents
        pullback = moduli.pullback_omega(inst.point, t1, t2)
        identity_ok = moduli.identity_check(inst.point, t1, t2).ok
        record = (
            inst.section_dim,
            inst.bundle_attempts,
            inst.tangent_retries,
            format_gauss(pullback),
        )
        return Trial(pullback.is_zero() and identity_ok, record, inst)

    def check(self, trials: list) -> list:
        """(name, passed, detail) of each gate.

        ``trials`` start at trial 0; the corruption witness reuses the
        instances the caller kept.
        """
        out = []
        corrupt = suites.run_corrupt_suite(self.scenario, self.seed, self.CORRUPT_TRIALS)
        detected = sum(r.detected for r in corrupt)
        out.append(
            (
                "corrupt-suite",
                detected == len(corrupt),
                f"{detected} of {len(corrupt)} perturbed tangents detected",
            )
        )

        # Perturb every disk coordinate of the first tangent by 1.  The
        # pushforward inside pullback_omega must reject the result, and so
        # must the identity check: a stand-in that skips either computation
        # fails here.
        one = RatFunc.const(1)
        by_pullback = by_identity = 0
        kept = [tr.instance for tr in trials if tr.instance is not None]
        for inst in kept:
            t1, t2 = inst.tangents
            bad = [XVector([c + one for c in v.coords]) for v in t1.s_prime_dot]
            corrupted = moduli.unchecked_y_tangent(t1.base, t1.g_dot, t1.s_circ_dot, bad)
            try:
                moduli.pullback_omega(inst.point, corrupted, t2)
            except EquivarianceBroken:
                by_pullback += 1
            by_identity += not moduli.identity_check(inst.point, corrupted, t2).ok
        out.append(
            (
                "pullback-rejects-corruption",
                by_pullback >= 1,
                f"pullback_omega rejected {by_pullback} of {len(kept)} corrupted tangents",
            )
        )
        out.append(
            (
                "identity-rejects-corruption",
                by_identity >= 1,
                f"identity_check rejected {by_identity} of {len(kept)} corrupted tangents",
            )
        )

        records = suites.run_random_suite(self.scenario, self.seed, self.SUITE_TRIALS)
        library = [
            (r.section_dim, r.bundle_attempts, r.tangent_retries, format_gauss(r.pullback), r.ok)
            for r in records
        ]
        ours = [tr.record + (tr.ok,) for tr in trials[: self.SUITE_TRIALS]]
        out.append(
            (
                "matches-run_random_suite",
                library == ours,
                f"first {len(library)} trials equal the library suite's records",
            )
        )
        return out

    def describe(self, records: list) -> str:
        per_trial = " ".join(f"{r[0]}/{r[1]}/{r[2]}" for r in records)
        return f"per-trial section_dim/bundle_attempts/tangent_retries: {per_trial}"

    def reconcile(self, records: list, counts: dict) -> list:
        """(name, traced count, count the records imply) of each identity."""
        n = len(records)
        n_points = self.scenario.curve.n_points
        attempts = sum(r[1] for r in records)
        retries = sum(r[2] for r in records)
        return [
            ("suites.build_instance.calls", counts["suites.build_instance.calls"], n),
            ("moduli.make_y_point.calls", counts["moduli.make_y_point.calls"], n),
            ("moduli.make_y_tangent.calls", counts["moduli.make_y_tangent.calls"], 2 * n),
            ("moduli.pullback_omega.calls", counts["moduli.pullback_omega.calls"], n),
            ("moduli.identity_check.calls", counts["moduli.identity_check.calls"], n),
            (
                "solver.build_tangent_space.calls",
                counts["solver.build_tangent_space.calls"],
                2 * n + retries,
            ),
            (
                "solver.build_tangent_space.infeasible",
                counts["solver.build_tangent_space.infeasible"],
                retries,
            ),
            ("solver.build_section_space.calls", counts["solver.build_section_space.calls"], attempts),
            ("solver.random_cocycle.calls", counts["solver.random_cocycle.calls"], attempts * n_points),
            (
                "solver.solve_system.calls",
                counts["solver.solve_system.calls"],
                counts["solver.build_section_space.calls"] + counts["solver.build_tangent_space.calls"],
            ),
            ("suites.random_higgs_pair.calls", counts["suites.random_higgs_pair.calls"], 0),
            ("moduli.cartan_check.calls", counts["moduli.cartan_check.calls"], 0),
        ]


class CartanWorkload(Workload):
    """``random_higgs_pair`` plus ``cartan_check`` on one fixture's bundle.

    A trial samples a Higgs field over the scenario's fixed bundle and two
    Higgs tangents, then recomputes ``Omega`` as a jet-differentiated
    exterior derivative.  It verifies when the jet sum equals the direct
    pairing.  Its record is (term1, term2, term3, omega).
    """

    STREAM = "cartan-suite"

    def trial(self, t: int) -> Trial:
        point, (t1, t2) = suites.random_higgs_pair(self.scenario, self.stream.child("trial", t))
        report = moduli.cartan_check(point, t1, t2)
        record = tuple(
            format_gauss(x) for x in (report.term1, report.term2, report.term3, report.omega_value)
        )
        return Trial(report.ok, record)

    @staticmethod
    def jet_nonzero(records: list) -> int:
        """Pairs whose jet-derivative terms are not both zero."""
        return sum(r[0] != "0" or r[1] != "0" for r in records)

    def describe(self, records: list) -> str:
        return f"pairs with a non-zero jet term: {self.jet_nonzero(records)} of {len(records)}"

    def check(self, trials: list) -> list:
        # cartan_check compares term1 - term2 - term3 with the direct
        # pairing; on pairs where every term is zero that comparison is
        # 0 == 0, so some pair must exercise the jet derivative.
        nonzero = self.jet_nonzero([tr.record for tr in trials if tr.ok])
        return [
            (
                "jet-terms-nonzero",
                nonzero >= 1,
                f"{nonzero} of {len(trials)} pairs have a non-zero jet term",
            )
        ]

    def reconcile(self, records: list, counts: dict) -> list:
        # random_higgs_pair records no retries, so the tangent count is
        # checked against the traced Infeasible count
        n = len(records)
        infeasible = counts["solver.build_higgs_tangent_space.infeasible"]
        return [
            ("suites.random_higgs_pair.calls", counts["suites.random_higgs_pair.calls"], n),
            ("moduli.cartan_check.calls", counts["moduli.cartan_check.calls"], n),
            (
                "solver.build_higgs_field_space.calls",
                counts["solver.build_higgs_field_space.calls"],
                n,
            ),
            (
                "solver.build_higgs_tangent_space.calls",
                counts["solver.build_higgs_tangent_space.calls"],
                2 * n + infeasible,
            ),
            (
                "solver.solve_system.calls",
                counts["solver.solve_system.calls"],
                counts["solver.build_higgs_field_space.calls"]
                + counts["solver.build_higgs_tangent_space.calls"],
            ),
            ("suites.build_instance.calls", counts["suites.build_instance.calls"], 0),
            ("solver.build_section_space.calls", counts["solver.build_section_space.calls"], 0),
            ("moduli.pullback_omega.calls", counts["moduli.pullback_omega.calls"], 0),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        TheoremWorkload("theorem-f1", "f1.json", batch=700, trace_trials=50),
        TheoremWorkload("theorem-f3", "f3.json", batch=150, trace_trials=20),
        CartanWorkload("cartan-f2", "f2.json", batch=500, trace_trials=20),
    )
}

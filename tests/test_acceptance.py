"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines; each test also prints an ACCEPTANCE summary line.
The randomized theorem/identity suites share one set of 600 instances
(3 fixtures x 4 seeds x 50 trials), built once per session.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import basis_element, coadjoint_transition, inf_action, mat_vec, rho_group, unit_vector, zero_element

from higgsres import (
    CoadjointElement,
    GaussRat,
    Jet2,
    LoopGroupElement,
    OneForm,
    RatFunc,
    XVector,
    ambient_higgs_tangent,
    bracket,
    builtin_rep,
    cartan_check,
    liouville_lambda,
    make_higgs_point,
    pairing,
    residue_sum,
    symplectic_omega,
    torus,
)
from higgsres.scenario import load_scenario
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    build_section_space,
    random_cocycle,
    random_loop_algebra,
)
from higgsres.suites import random_higgs_pair, run_corrupt_suite, run_random_suite

from conftest import FIXTURES, REPO_ROOT

SUITE_FIXTURES = ("f1.json", "f2.json", "f3.json")
SUITE_SEEDS = (1, 2, 3, 4)
SUITE_TRIALS = 50


def _announce(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="session")
def theorem_records():
    """The shared 600 random instances with their exact check results."""
    records = {}
    for fx in SUITE_FIXTURES:
        scenario = load_scenario(str(FIXTURES / fx))
        for seed in SUITE_SEEDS:
            records[(fx, seed)] = run_random_suite(scenario, seed, SUITE_TRIALS)
    return records


def test_acceptance_01_theorem_suite(theorem_records):
    """600 random instances: the pulled-back pairing is exactly zero."""
    total = 0
    ok = True
    for (fx, seed), recs in theorem_records.items():
        total += len(recs)
        if not all(r.pullback.is_zero() for r in recs):
            ok = False
    assert total == 600
    _announce(1, "theorem-suite (600 exact zeros)", ok)


def test_acceptance_02_identity_suite(theorem_records):
    """Same 600 instances: per-point residuals and both bookkeeping residues."""
    ok = True
    for recs in theorem_records.values():
        for r in recs:
            if not r.identity_ok:
                ok = False
    _announce(2, "identity-suite (residuals and bookkeeping)", ok)


def test_acceptance_03_residue_theorem():
    """200 random 1-forms with split denominators: residue sums vanish."""
    rng = SeedStream("acceptance-residues")
    ok = True
    for trial in range(200):
        sub = rng.child(trial)
        coeff = RatFunc.const(0)
        poles = []
        while len(poles) < sub.randint(1, 4):
            r = sub.gauss(3, 2)
            if all(r != p for p in poles):
                poles.append(r)
        for r in poles:
            for k in range(1, sub.randint(1, 2) + 1):
                c = sub.gauss(3, 2)
                if not c.is_zero():
                    coeff = coeff + RatFunc(c) / RatFunc([-r, 1]) ** k
        if coeff.is_zero():
            continue
        if not residue_sum(OneForm(coeff)).is_zero():
            ok = False
    _announce(3, "residue theorem (200 random forms)", ok)


REP_NAMES = ("sl2-standard", "sl2-standard-x2", "sl3-cotangent")


@pytest.mark.parametrize("rep_name", REP_NAMES)
def test_acceptance_04_hamiltonian_identities(rep_name):
    """100 random (g, x, xi, eta) tuples per representation, five identities."""
    rep = builtin_rep(rep_name)
    alg = rep.algebra
    rng = SeedStream("acceptance-hamiltonian", rep_name)
    dim = rep.space.dim
    U = RatFunc.x()
    ok = True
    for trial in range(100):
        sub = rng.child(trial)
        g = random_cocycle(alg.n, CocycleRecipe(length=2), sub.child("g"))
        x = XVector(
            [RatFunc.const(sub.gauss(2, 2)) + U * sub.gauss(2, 2) for _ in range(dim)]
        )
        xi = random_loop_algebra(alg, GdotRecipe(terms=2, pole_order=1), sub.child("xi"))
        eta = random_loop_algebra(alg, GdotRecipe(terms=2, pole_order=1), sub.child("eta"))
        v = XVector([RatFunc.const(sub.gauss(2, 2)) for _ in range(dim)])
        t = sub.nonzero_gauss(3, 2)

        mu = rep.moment(x)
        # equivariance
        lhs = rep.moment(XVector(mat_vec(rho_group(rep, g.inverse()), x.coords)))
        if lhs != coadjoint_transition(g, mu):
            ok = False
        # moment condition
        if pairing(mu, bracket(xi, eta)) != rep.space.pair(
            inf_action(rep, xi, x), inf_action(rep, eta, x)
        ):
            ok = False
        # omega invariance
        gm = rho_group(rep, g)
        if rep.space.pair(
            XVector(mat_vec(gm, x.coords)), XVector(mat_vec(gm, v.coords))
        ) != rep.space.pair(x, v):
            ok = False
        # homogeneity
        if rep.moment(t * x) != (t * t) * mu:
            ok = False
        # dmoment equals the jet derivative of moment along x + e1 v
        dm = rep.dmoment(x, v)
        jets = [Jet2.lift1(a, b) for a, b in zip(x.coords, v.coords)]
        half = Jet2(RatFunc.const(GaussRat(Fraction(1, 2))))
        for lab in alg.labels:
            rho = rep.rho[lab]
            acc = Jet2(RatFunc.const(0))
            for i in range(dim):
                row = Jet2(RatFunc.const(0))
                for j in range(dim):
                    if not rho[i][j].is_zero():
                        row = row + Jet2(rho[i][j]) * jets[j]
                if row != Jet2(RatFunc.const(0)):
                    col = Jet2(RatFunc.const(0))
                    omega_row = rep.space.omega[i]
                    for j in range(dim):
                        if not omega_row[j].is_zero():
                            col = col + Jet2(omega_row[j]) * jets[j]
                    acc = acc + row * col
            if (half * acc).d1 != pairing(dm, basis_element(alg, lab)):
                ok = False
    _announce(4, f"hamiltonian identities [{rep_name}]", ok)


@pytest.mark.parametrize("fixture_name", ("f1.json", "f2.json"))
def test_acceptance_05_cartan_suite(fixture_name):
    """50 random Higgs tangent pairs per bundle (100 total): jets match."""
    scenario = load_scenario(str(FIXTURES / fixture_name))
    ok = True
    for trial in range(50):
        point, (t1, t2) = random_higgs_pair(
            scenario, SeedStream("acceptance-cartan", fixture_name, trial)
        )
        if not cartan_check(point, t1, t2).ok:
            ok = False
    _announce(5, f"cartan suite [{fixture_name}]", ok)


def test_acceptance_06_derived_fixtures(curve_one_point):
    """The pinned reference values, each recomputed by its stated oracle."""
    rep = builtin_rep("sl2-standard")
    sl2 = rep.algebra
    bundle = [torus(2, [-1, 1])]
    U = RatFunc.x()
    ok = True

    # mu(e1) = -1/2 E; oracle: evaluate 1/2 omega(rho(xi) e1, e1) by hand
    def omega2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    vals = {}
    for lab, cols in (("E", (0, 0)), ("H", (1, 0)), ("F", (0, 1))):
        vals[lab] = Fraction(1, 2) * omega2(cols, (1, 0))
    assert vals == {"E": 0, "H": 0, "F": Fraction(-1, 2)}
    # trace-form solve: <mu, F> = -1/2 forces the E-coefficient -1/2
    mu = rep.moment(unit_vector(2, 0))
    if mu != GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0]):
        ok = False

    # Omega fixture -1; oracle: expand the trace and extract the residue:
    # integrand -tr(E u^-1 F) du = -u^-1 tr(EF) du, residue -1
    zero = CoadjointElement(sl2, [[0, 0], [0, 0]])
    hp = make_higgs_point(curve_one_point, sl2, bundle, zero)
    from higgsres import make_higgs_tangent

    t1 = make_higgs_tangent(hp, [U.inverse() * basis_element(sl2, "F")], zero)
    t2 = make_higgs_tangent(hp, [zero_element(sl2)], CoadjointElement(sl2, sl2.basis[0]))
    trace_ef = pairing(CoadjointElement(sl2, sl2.basis[0]), basis_element(sl2, "F"))
    assert trace_ef == RatFunc.const(1)
    oracle_omega = -(U.inverse() * trace_ef).laurent_coefficient(-1)
    assert oracle_omega == GaussRat(-1)
    if symplectic_omega(hp, t1, t2) != oracle_omega:
        ok = False

    # Lambda fixture -1/2 on ambient data; oracle: tr(EF) = 1, residue of
    # -1/2 u^-1 tr(EF) du
    phi = GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0])
    lp = make_higgs_point(curve_one_point, sl2, bundle, phi)
    lt = ambient_higgs_tangent(
        lp, [U.inverse() * basis_element(sl2, "F")], zero, [zero]
    )
    oracle_lambda = (
        GaussRat(Fraction(-1, 2)) * (U.inverse() * trace_ef).laurent_coefficient(-1)
    )
    assert oracle_lambda == GaussRat(Fraction(-1, 2))
    if liouville_lambda(lp, lt) != oracle_lambda:
        ok = False

    # section dimensions; oracle: expand (p(1/u), u^-2 q(1/u)) coefficient
    # conditions directly: regularity forces p constant and q = 0, so the
    # twisted cocycle has a 1-dim space and the trivial cocycle 0
    bounds = SolverBounds(degree=4, pole_order=0)
    rows = []
    # p(1/u) = sum p_k u^-k regular iff p_k = 0 for k >= 1 (4 conditions);
    # u^-2 q(1/u) regular iff q_k = 0 for all k <= deg (5 conditions)
    oracle_dim_twisted = 2 * (bounds.degree + 1) - bounds.degree - (bounds.degree + 1)
    assert oracle_dim_twisted == 1
    space = build_section_space(curve_one_point, rep, bundle, bounds)
    if space.dim != 1:
        ok = False
    trivial = build_section_space(
        curve_one_point, rep, [LoopGroupElement.identity(2)], bounds
    )
    # oracle: u^-1 p(1/u) and u^-1 q(1/u): every coefficient is obstructed
    if trivial.dim != 0:
        ok = False

    _announce(6, "derived fixtures (omega, lambda, moment, dimensions)", ok)


def test_acceptance_07_negative_control():
    """Every corrupted instance is caught by the validator or the pairing."""
    scenario = load_scenario(str(FIXTURES / "f1.json"))
    records = run_corrupt_suite(scenario, 7, 20)
    ok = len(records) == 20 and all(r.detected for r in records)
    _announce(7, "negative control (20/20 corruptions detected)", ok)


def test_acceptance_08_deterministic_reports():
    """Identical (scenario, seed) produce byte-identical JSON reports."""
    ok = True
    # the child imports higgsres from this checkout, as the test process does
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    for args in (
        ["random-suite", str(FIXTURES / "f1.json"), "--seed", "5", "--trials", "4"],
        ["check-theorem", str(FIXTURES / "f2.json"), "--seed", "1"],
    ):
        cmd = [sys.executable, "-m", "higgsres.cli", *args, "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        if first.stdout != second.stdout or not first.stdout:
            ok = False
    _announce(8, "byte-identical JSON reports", ok)

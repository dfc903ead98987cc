"""Gauge oracles for the twisted-bundle solver.

Two changes of cocycle act on the solution spaces in a known way:

* right-multiplying every g_i by an SL_n matrix h_i that is polynomial
  in u (so invertible at u = 0) keeps the bundle, so the sections and the
  Higgs fields, as coefficient vectors over the same candidates, span the
  same space;
* left-multiplying every g_i by one constant k moves the bundle by k, so
  its sections are rho(k) times the old ones.

The spans are compared by a rank test written here, and rho(k) is built
here from k, so the oracle shares no code with the solver beyond the
systems it checks.

On the Higgs side the same polynomial change g_i -> g_i h_i, with
gdot_i -> h_i^-1 gdot_i h_i, conjugates every disk value by h_i, so the
residue pairings (lambda, Omega and the three cartan_check terms) are
unchanged.
"""

import pytest
from helpers import dense_vector

from higgsres import GaussRat, RatFunc, SolverBounds, builtin_rep, load_scenario
from higgsres.lie import LoopAlgebraElement, elementary, pairing
from higgsres.matrices import mat_mul
from higgsres.moduli import (
    cartan_check,
    liouville_lambda,
    make_higgs_point,
    make_higgs_tangent,
    symplectic_omega,
)
from higgsres.solver import (
    CocycleRecipe,
    SeedStream,
    build_higgs_field_space,
    build_section_space,
    random_cocycle,
)
from higgsres.suites import random_higgs_pair

BOUNDS = SolverBounds(degree=4, pole_order=4)
BUNDLES = 4
U = RatFunc.x()


@pytest.fixture(scope="module")
def curves(fixtures_dir):
    """The one-point curve of f1 and the {0, inf} curve of f3."""
    return {f: load_scenario(str(fixtures_dir / f"{f}.json")).curve for f in ("f1", "f3")}


def _rank(vectors) -> int:
    """Rank of a list of GaussRat vectors by plain Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if not rows[r][c].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if not rows[r][c].is_zero():
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _same_span(a, b) -> bool:
    return _rank(a) == _rank(b) == _rank(a + b)


def _bundles(curve, n, label):
    rng = SeedStream("gauge-oracle", label)
    for b in range(BUNDLES):
        points = range(curve.n_points)
        yield b, [random_cocycle(n, CocycleRecipe(), rng.child(b, i)) for i in points]


def _polynomial_gauge(n, rng):
    """E_jk(p) E_kj(q) with p, q polynomials in u of degree 2: det 1."""
    j = rng.randint(1, n)
    k = rng.randint(1, n - 1)
    k += k >= j
    p, q = (sum((rng.gauss(2, 2) * U**e for e in range(3)), RatFunc.const(0)) for _ in "pq")
    return elementary(n, j, k, p) * elementary(n, k, j, q)


def _dense_null_basis(system):
    """The system's null vectors as dense lists, one entry per candidate
    column, those the solver did not assemble included."""
    ncols = system.rep.dim * system.candidates.size
    return [dense_vector(v, ncols) for v in system.null_vectors]


def _null_bases(curve, rep, g):
    return (
        _dense_null_basis(build_section_space(curve, rep, g, BOUNDS)),
        _dense_null_basis(build_higgs_field_space(curve, rep.algebra, g, BOUNDS)),
    )


@pytest.mark.parametrize("rep_name", ["sl2-standard", "sl3-cotangent"])
@pytest.mark.parametrize("curve_name", ["f1", "f3"])
def test_polynomial_gauge_keeps_sections_and_higgs_fields(curves, curve_name, rep_name):
    curve, rep = curves[curve_name], builtin_rep(rep_name)
    n = rep.algebra.n
    dims = []
    for b, g in _bundles(curve, n, (curve_name, rep_name)):
        rng = SeedStream("gauge-oracle", "h", curve_name, rep_name, b)
        gh = [g_i * _polynomial_gauge(n, rng.child(i)) for i, g_i in enumerate(g)]
        for before, after in zip(_null_bases(curve, rep, g), _null_bases(curve, rep, gh)):
            assert _same_span(before, after)
            dims.append(len(before))
    assert any(dims[0::2]) and any(dims[1::2]), dims


def _constant(n, rng):
    """k = (I + c E_jk)(I + d E_kj), constant and of det 1: the loop-group
    element, and k and k^-1 as GaussRat rows built here."""
    j = rng.randint(0, n - 1)
    k = rng.randint(0, n - 2)
    k += k >= j
    c, d = rng.nonzero_gauss(2, 2), rng.nonzero_gauss(2, 2)

    def unit(a, b, x):
        m = [[GaussRat(int(r == s)) for s in range(n)] for r in range(n)]
        m[a][b] = x
        return m

    def mul(x, y):
        return [
            [sum((x[r][t] * y[t][s] for t in range(n)), GaussRat(0)) for s in range(n)]
            for r in range(n)
        ]

    element = elementary(n, j + 1, k + 1, c) * elementary(n, k + 1, j + 1, d)
    rows = mul(unit(j, k, c), unit(k, j, d))
    assert element.mat == tuple(tuple(RatFunc.const(x) for x in row) for row in rows)
    return element, rows, mul(unit(k, j, -d), unit(j, k, -c))


def _rho(rep_name, k, k_inv):
    """rho(k): k itself (standard) or diag(k, k^-T) (cotangent)."""
    if rep_name.endswith("standard"):
        return k
    n = len(k)
    zero = [GaussRat(0)] * n
    return [row + zero for row in k] + [zero + [k_inv[s][r] for s in range(n)] for r in range(n)]


@pytest.mark.parametrize("rep_name", ["sl2-standard", "sl3-cotangent"])
@pytest.mark.parametrize("curve_name", ["f1", "f3"])
def test_constant_gauge_moves_sections_by_rho(curves, curve_name, rep_name):
    curve, rep = curves[curve_name], builtin_rep(rep_name)
    n = rep.algebra.n
    dims = []
    for b, g in _bundles(curve, n, (curve_name, rep_name)):
        element, k, k_inv = _constant(n, SeedStream("gauge-oracle", "k", curve_name, rep_name, b))
        kg = [element * g_i for g_i in g]
        before = build_section_space(curve, rep, g, BOUNDS)
        after = _dense_null_basis(build_section_space(curve, rep, kg, BOUNDS))
        # coefficient index slot * size + t: rho(k) acts on the slots
        size, rho = before.candidates.size, _rho(rep_name, k, k_inv)
        moved = [
            [
                sum((rho[a][c] * v[c * size + t] for c in range(len(rho))), GaussRat(0))
                for a in range(len(rho))
                for t in range(size)
            ]
            for v in _dense_null_basis(before)
        ]
        assert _same_span(moved, after)
        dims.append(len(after))
    assert any(dims), dims


def _gauged_higgs_pair(point, tangents, h):
    """The same Higgs data over the cocycle g_i h_i: phi and phidot are
    kept, gdot_i becomes h_i^-1 gdot_i h_i, and the disk values are
    derived again."""
    g = [g_i * h_i for g_i, h_i in zip(point.g, h)]
    gauged = make_higgs_point(point.curve, point.algebra, g, point.phi_circ)

    def conjugate(x, h_i):
        return LoopAlgebraElement(x.algebra, mat_mul(mat_mul(h_i.inverse().mat, x.mat), h_i.mat))

    return gauged, [
        make_higgs_tangent(
            gauged, [conjugate(x, h_i) for x, h_i in zip(t.g_dot, h)], t.phi_circ_dot
        )
        for t in tangents
    ]


def test_polynomial_gauge_keeps_higgs_pairings(fixtures_dir):
    scenario = load_scenario(str(fixtures_dir / "f2.json"))
    n = scenario.rep.algebra.n
    rng = SeedStream("gauge-oracle", "higgs")
    jet_nonzero = moved = lambda_integrands = 0
    for trial in range(8):
        point, tangents = random_higgs_pair(scenario, rng.child("pair", trial))
        h = [_polynomial_gauge(n, rng.child("h", trial, i)) for i in range(len(point.g))]
        gauged, gauged_tangents = _gauged_higgs_pair(point, tangents, h)
        moved += any(a.mat != b.mat for a, b in zip(point.phi_prime, gauged.phi_prime))
        for before, after in zip(tangents, gauged_tangents):
            assert liouville_lambda(point, before) == liouville_lambda(gauged, after)
            # lambda is zero on these pairs; its integrands are not
            for i, phi in enumerate(point.phi_prime):
                integrand = pairing(phi, before.g_dot[i])
                assert integrand == pairing(gauged.phi_prime[i], after.g_dot[i])
                lambda_integrands += not integrand.is_zero()
        assert symplectic_omega(point, *tangents) == symplectic_omega(gauged, *gauged_tangents)
        report = cartan_check(point, *tangents)
        gauged_report = cartan_check(gauged, *gauged_tangents)
        terms = (report.term1, report.term2, report.term3)
        assert terms == (gauged_report.term1, gauged_report.term2, gauged_report.term3)
        assert report.ok and gauged_report.ok
        jet_nonzero += not (report.term1.is_zero() and report.term2.is_zero())
    # the disk data really changed, and some pair pins a non-zero jet term
    assert moved and jet_nonzero and lambda_integrands, (moved, jet_nonzero, lambda_integrands)

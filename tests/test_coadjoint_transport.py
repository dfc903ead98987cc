"""The coadjoint transport in sl_n coordinates against the dense oracle.

``moduli.derive_prime`` and ``derive_prime_dot``, for the coadjoint
representation (``lie.Coadjoint``), build each disk value from its
coordinates: the non-zero coordinates of phi, pulled and twisted, times
the coordinates of the conjugates g_i^-1 b_a g_i kept by the group
element.  The oracle is ``T_i^-2 g_i^-1 pull(phi) g_i`` by two dense
matrix products (``helpers.coadjoint_transition``), plus the commutator
``[phi'_i, gdot_i]`` for a tangent.  Also here: the closed forms between
pairings and coordinates, the pole orders read off coordinates, the
columns of rho(g)^-1 kept per group element, and a count guard that the
pushforward runs no dense matrix product and no trace check.
"""

import random
import sys

import pytest
from helpers import coadjoint_transition, commutator, dual_values

from higgsres import (
    INFINITY,
    GaussRat,
    HamiltonianRep,
    IrregularSection,
    LoopGroupElement,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    ValidationError,
    builtin_rep,
    load_scenario,
    make_higgs_point,
)
from higgsres import matrices
from higgsres.lie import Coadjoint, CoadjointElement, MatrixLieAlgebra, elementary, torus
from higgsres.matrices import mat_add
from higgsres.moduli import (
    HiggsPoint,
    ambient_higgs_tangent,
    derive_prime,
    derive_prime_dot,
    pullback_omega,
)
from higgsres.solver import SeedStream
from higgsres.suites import build_instance

U = RatFunc.x()
Z = RatFunc.x()
I = GaussRat(0, 1)
ZERO = RatFunc.const(0)


def _curve_0_inf() -> MarkedCurve:
    return MarkedCurve(
        [P1Point.finite(0), INFINITY],
        OneForm(RatFunc(1, [0, 0, 1])),
        {P1Point.finite(0): U, INFINITY: RatFunc.const(I)},
    )


def _curve_0_1_inf() -> MarkedCurve:
    """Marked at {0, 1, inf}, alpha = dz/(z^2 (z-1)^2), with the
    transitions u*(u-1), u*(u+1) and i*(1-u)/u."""
    return MarkedCurve(
        [P1Point.finite(0), P1Point.finite(1), INFINITY],
        OneForm(RatFunc(1, [0, 0, 1, -2, 1])),
        [U * (U - 1), U * (U + 1), I * (1 - U) / U],
    )


CURVES = {"0-inf": _curve_0_inf, "0-1-inf": _curve_0_1_inf}


def _group_elements(n: int) -> dict:
    """A torus, an elementary and a product element of SL_n."""
    t = torus(n, [1] + [0] * (n - 2) + [-1])
    e = elementary(n, 1, n, GaussRat(1, 2) * U)
    f = elementary(n, n, 1, U ** -1)
    return {"torus": t, "elementary": e, "product": t * e * f}


def _germ(rng: random.Random) -> RatFunc:
    """A global function: a Laurent monomial in z, sometimes over (z - 1)."""
    c = GaussRat(rng.randint(-3, 3) or 1, rng.randint(-2, 2))
    f = RatFunc.monomial(c, rng.randint(-2, 2))
    return f / (Z - 1) if rng.randrange(3) == 0 else f


def _coadjoint(algebra, rng, sparse: bool):
    coeffs = [ZERO] * algebra.dim
    for k in rng.sample(range(algebra.dim), rng.randint(1, 2)) if sparse else range(algebra.dim):
        coeffs[k] = _germ(rng)
    return algebra.coadjoint_from(coeffs)


def _oracle(curve, g, i, phi):
    """T_i^-2 g_i^-1 pull_i(phi) g_i by dense matrix products."""
    chart = curve.chart(i)
    pulled = CoadjointElement(phi.algebra, tuple(tuple(chart.pull(e) for e in row) for row in phi.mat))
    t2_inv = curve.transition(i) ** -2
    return tuple(tuple(t2_inv * e for e in row) for row in coadjoint_transition(g[i], pulled).mat)


CASES = [
    (n, name, curve, sparse)
    for n in (2, 3, 4)
    for name in ("torus", "elementary", "product")
    for curve in CURVES
    for sparse in (True, False)
]


@pytest.mark.parametrize(
    "n, name, curve_name, sparse",
    CASES,
    ids=[f"sl{n}-{name}-{c}-{'sparse' if s else 'dense'}" for n, name, c, s in CASES],
)
def test_coordinate_transport_matches_dense_conjugation(n, name, curve_name, sparse):
    algebra = MatrixLieAlgebra.sl(n)
    rep = Coadjoint(algebra)
    curve = CURVES[curve_name]()
    g = [_group_elements(n)[name]] * curve.n_points
    rng = random.Random(f"transport-{n}-{name}-{curve_name}-{sparse}")
    for _ in range(3):
        phi = _coadjoint(algebra, rng, sparse)
        phi_prime = derive_prime(curve, rep, g, phi.coeffs)
        for i, value in enumerate(phi_prime):
            want = _oracle(curve, g, i, phi)
            assert value.mat == want
            assert value.coeffs == algebra.expand_in_basis(want)
        phi_dot = _coadjoint(algebra, rng, not sparse)
        # 1 and (1+i) u^-1 in the first two coordinates
        coeffs = [RatFunc.monomial(GaussRat(1, k), -k) if k < 2 else ZERO for k in range(algebra.dim)]
        g_dot = [algebra.element_from(coeffs)] * curve.n_points
        actions = [rep.inf_action_terms(xi, p) for xi, p in zip(g_dot, phi_prime)]
        for i, value in enumerate(derive_prime_dot(curve, rep, g, phi_dot.coeffs, actions)):
            want = mat_add(_oracle(curve, g, i, phi_dot), commutator(phi_prime[i].mat, g_dot[i].mat))
            assert value.mat == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairings_and_coordinates_determine_each_other(n):
    """pairings(coords) reads tr(M b_a) as dual_values does off the matrix,
    and coadjoint_from_pairings inverts it."""
    algebra = MatrixLieAlgebra.sl(n)
    rng = random.Random(f"pairings-{n}")
    for sparse in (True, False) * 5:
        phi = _coadjoint(algebra, rng, sparse)
        values = algebra.pairings(phi.coeffs)
        assert values == dual_values(algebra, phi.mat)
        back = algebra.coadjoint_from_pairings(values)
        assert back.coeffs == phi.coeffs and back.mat == phi.mat


def _pole_at_inf(algebra, entries: dict):
    """The coadjoint value with these entries at a point whose chart at
    infinity turns z^k into u^-k (T = 1 there, g = 1)."""
    n = algebra.n
    rows = [[ZERO] * n for _ in range(n)]
    for (r, c), e in entries.items():
        rows[r][c] = e
    return CoadjointElement(algebra, rows)


@pytest.mark.parametrize(
    "n, entries, order",
    [
        (2, {(0, 0): Z ** 2, (1, 1): -(Z ** 2)}, 2),
        (3, {(0, 0): Z ** 3, (2, 2): -(Z ** 3)}, 3),
        (3, {(0, 0): Z, (1, 1): Z ** 2 - Z, (2, 2): -(Z ** 2)}, 2),
        (2, {(0, 1): Z ** 2}, 2),
        (3, {(2, 0): Z ** 3, (1, 2): Z}, 3),
    ],
    ids=["sl2-diagonal", "sl3-diagonal", "sl3-diagonal-partial-sums", "sl2-off", "sl3-off"],
)
def test_irregular_section_order_read_off_coordinates(n, entries, order):
    """A pole only on the diagonal, or only off it, is reported with the
    order of the matrix entries, for the transported and the given disk values."""
    algebra = MatrixLieAlgebra.sl(n)
    curve = MarkedCurve([INFINITY], OneForm(RatFunc.const(-1)), [RatFunc.const(1)])
    g = [LoopGroupElement.identity(n)]
    phi = _pole_at_inf(algebra, entries)
    with pytest.raises(IrregularSection) as err:
        make_higgs_point(curve, algebra, g, phi)
    assert (err.value.order, err.value.what) == (order, "phi'")
    zero = algebra.coadjoint_from([ZERO] * algebra.dim)
    base = HiggsPoint(curve, algebra, g, zero, [zero])
    g_dot = [algebra.element_from([ZERO] * algebra.dim)]
    disk = derive_prime(curve, Coadjoint(algebra), g, phi.coeffs)
    with pytest.raises(IrregularSection) as err:
        ambient_higgs_tangent(base, g_dot, zero, disk)
    assert (err.value.order, err.value.what) == (order, "phidot'")


def test_representation_columns_are_formed_once_per_element():
    """The columns of rho(g)^-1 are kept on g under the blocks, for every
    representation object with those blocks; an explicit representation
    has none to give."""
    rep = builtin_rep("sl3-cotangent")
    g = _group_elements(3)["product"]
    columns = [rep.column(g, k) for k in range(rep.dim)]
    assert all(rep.column(g, k) is c for k, c in enumerate(columns))
    assert all(builtin_rep("sl3-cotangent").column(g, k) is c for k, c in enumerate(columns))
    # products and inverses start with no images
    h = _group_elements(3)["torus"]
    rep.column(h, 0)
    assert list(h.images) == [(False, True)]
    assert h.inverse().images == {} and (h * h).images == {}
    explicit = HamiltonianRep(rep.algebra, rep.space, rep.rho)
    with pytest.raises(ValidationError, match="has no structural group action"):
        explicit.column(g, 0)


def _counting(monkeypatch):
    """Count dense matrix products, through every higgsres module that
    binds ``mat_mul``, and trace checks (``expand_in_basis``)."""
    counts = {"mat_mul": 0, "trace": 0}
    mat_mul = matrices.mat_mul

    def counted_mat_mul(a, b):
        counts["mat_mul"] += 1
        return mat_mul(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "higgsres" and getattr(module, "mat_mul", None) is mat_mul:
            monkeypatch.setattr(module, "mat_mul", counted_mat_mul)
    expand = MatrixLieAlgebra.expand_in_basis

    def counted_expand(self, mat):
        counts["trace"] += 1
        return expand(self, mat)

    monkeypatch.setattr(MatrixLieAlgebra, "expand_in_basis", counted_expand)
    return counts


@pytest.mark.parametrize("fixture", ["f1", "f3"])
def test_pullback_runs_no_matrix_product_and_no_trace_check(fixtures_dir, monkeypatch, fixture):
    """Over three seed-1 instances, the pushforward and Omega read
    coordinates only.  The counts are deterministic."""
    scenario = load_scenario(fixtures_dir / f"{fixture}.json")
    root = SeedStream("random-suite", 1)
    instances = [build_instance(scenario, root.child("trial", t)) for t in range(3)]
    counts = _counting(monkeypatch)
    for inst in instances:
        assert pullback_omega(inst.point, *inst.tangents).is_zero()
    assert counts == {"mat_mul": 0, "trace": 0}
    # the guard itself counts: a dense product and a trace check are seen
    g = instances[0].point.g[0]
    g * g
    CoadjointElement(scenario.rep.algebra, scenario.rep.algebra.basis[0])
    assert counts == {"mat_mul": 1, "trace": 1}

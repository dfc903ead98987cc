"""Lie algebra structure, pairings, and transition actions."""

import pytest
from helpers import basis_element, coadjoint_transition, dual_values, dualize, inf_action, structure, unit_vector, zero_element

from higgsres import (
    CoadjointElement,
    LoopAlgebraElement,
    LoopGroupElement,
    MatrixLieAlgebra,
    NotInAlgebra,
    RatFunc,
    ShapeError,
    ValidationError,
    bracket,
    pairing,
    torus,
)
from higgsres.matrices import det, mat_eq, mat_from, mat_mul
from higgsres.solver import CocycleRecipe, GdotRecipe, SeedStream, random_cocycle, random_loop_algebra

U = RatFunc.x()


@pytest.fixture(scope="module")
def sl2():
    return MatrixLieAlgebra.sl(2)


@pytest.fixture(scope="module")
def sl3():
    return MatrixLieAlgebra.sl(3)


def test_sl2_defining_relations(sl2):
    E, H, F = (basis_element(sl2, l) for l in "EHF")
    assert bracket(E, F) == H
    assert bracket(H, E) == 2 * E
    assert bracket(H, F) == (-2) * F


def test_structure_constants_computed_on_first_read():
    # building or parsing sl12 needs none of its ~10^4 commutators
    assert not MatrixLieAlgebra.sl(12)._brackets
    alg = MatrixLieAlgebra.sl(2)
    assert not alg._brackets
    assert structure(alg)[(0, 2)] == [0, 1, 0]  # [E, F] = H
    assert len(alg._brackets) == 6


def test_bracket_with_loop_coefficients(sl2):
    # oracle: plain matrix multiply of the two factors
    E, F = basis_element(sl2, "E"), basis_element(sl2, "F")
    x, y = U * E, U.inverse() * F
    direct = mat_mul(x.mat, y.mat), mat_mul(y.mat, x.mat)
    want = tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(direct[0], direct[1])
    )
    assert bracket(x, y).mat == want
    assert bracket(x, y) == basis_element(sl2, "H")


def test_trace_pairing_values(sl2):
    E, H, F = (basis_element(sl2, l) for l in "EHF")
    cE, cH = CoadjointElement(sl2, sl2.basis[0]), CoadjointElement(sl2, sl2.basis[1])
    assert pairing(cE, F) == RatFunc.const(1)
    assert pairing(cH, H) == RatFunc.const(2)
    assert pairing(cE, E) == RatFunc.const(0)


def test_coadjoint_transition_examples(sl2):
    cE = CoadjointElement(sl2, sl2.basis[0])
    assert coadjoint_transition(LoopGroupElement.identity(2), cE) == cE
    g = torus(2, [-1, 1])
    assert coadjoint_transition(g, cE) == (U * U) * cE


def test_pairing_invariance_under_transition(sl2):
    rng = SeedStream("pairing-invariance")
    for trial in range(10):
        sub = rng.child(trial)
        g = random_cocycle(2, CocycleRecipe(), sub.child("g"))
        phi_raw = random_loop_algebra(sl2, GdotRecipe(), sub.child("phi"))
        xi = random_loop_algebra(sl2, GdotRecipe(), sub.child("xi"))
        phi = CoadjointElement(sl2, phi_raw.mat)
        ginv = g.inverse()
        xi_conj = LoopAlgebraElement(sl2, mat_mul(mat_mul(ginv.mat, xi.mat), g.mat))
        assert pairing(coadjoint_transition(g, phi), xi_conj) == pairing(phi, xi)


def test_jacobi_identity(sl3):
    rng = SeedStream("jacobi")
    for trial in range(8):
        sub = rng.child(trial)
        x = random_loop_algebra(sl3, GdotRecipe(), sub.child("x"))
        y = random_loop_algebra(sl3, GdotRecipe(), sub.child("y"))
        z = random_loop_algebra(sl3, GdotRecipe(), sub.child("z"))
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()


def test_dualize_examples(sl2):
    one = RatFunc.const(1)
    assert dualize(sl2, {"F": one}) == CoadjointElement(sl2, sl2.basis[0])
    assert dualize(sl2, {"E": one}) == CoadjointElement(sl2, sl2.basis[2])
    assert dualize(sl2, {}).is_zero()


def test_dualize_solves_gram_system(sl3):
    # oracle: dualize output must reproduce the prescribed pairings
    rng = SeedStream("dualize")
    values = {lab: RatFunc.const(rng.gauss(3, 2)) for lab in sl3.labels}
    phi = dualize(sl3, values)
    for lab in sl3.labels:
        assert pairing(phi, basis_element(sl3, lab)) == values[lab]


def test_dualize_round_trip(sl2):
    rng = SeedStream("dualize-rt")
    raw = random_loop_algebra(sl2, GdotRecipe(), rng)
    phi = CoadjointElement(sl2, raw.mat)
    values = {lab: pairing(phi, basis_element(sl2, lab)) for lab in sl2.labels}
    assert dualize(sl2, values) == phi


def _dualize_by_loop(algebra, values):
    """dualize's former body: d_0 as a running sum of h_j * (n-1-j), divided by n."""
    n = algebra.n
    zero = RatFunc.const(0)
    rows = [[zero] * n for _ in range(n)]
    offdiag, h = algebra._split([values.get(lab, zero) for lab in algebra.labels])
    for (j, k), v in offdiag:
        rows[k][j] = v
    d = zero
    for j, hj in enumerate(h):
        if not hj.is_zero():
            d = d + hj * (n - 1 - j)
    d = d / n
    for j in range(n):
        rows[j][j] = d
        if j < n - 1:
            d = d - h[j]
    return CoadjointElement(algebra, rows)


@pytest.mark.parametrize("n", [2, 3])
def test_dualize_matches_running_sum(n):
    algebra = MatrixLieAlgebra.sl(n)
    rng = SeedStream("dualize-loop", n)
    pole = RatFunc(1, [-1, 1])
    for trial in range(20):
        values = {}
        for lab in algebra.labels:
            kind = rng.randint(0, 3)
            if kind:
                c = rng.nonzero_gauss()
                values[lab] = pole * c if kind == 1 else RatFunc.monomial(c, rng.randint(-2, 2))
        assert dualize(algebra, values) == _dualize_by_loop(algebra, values)


def _entry(rng):
    """Zero, a Laurent monomial c u^m, or c / (u - 1), which is not Laurent."""
    kind = rng.randint(0, 3)
    if not kind:
        return RatFunc.const(0)
    c = rng.nonzero_gauss()
    return RatFunc(1, [-1, 1]) * c if kind == 1 else RatFunc.monomial(c, rng.randint(-2, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_values_inverts_dualize(n):
    algebra = MatrixLieAlgebra.sl(n)
    rng = SeedStream("dual-values", n)
    for trial in range(10):
        values = [_entry(rng) for _ in algebra.labels]
        phi = dualize(algebra, dict(zip(algebra.labels, values)))
        assert dual_values(algebra, phi.mat) == values
        # and on traceless matrices the other way round
        mat = algebra.combination([_entry(rng) for _ in algebra.labels])
        back = dualize(algebra, dict(zip(algebra.labels, dual_values(algebra, mat))))
        assert mat_eq(back.mat, mat)
        # the pairings of each basis element, read by the trace
        for lab, v in zip(algebra.labels, dual_values(algebra, mat)):
            assert v == pairing(CoadjointElement(algebra, mat), basis_element(algebra, lab))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_with_trace_is_not_dualized_from_any_values(n):
    algebra = MatrixLieAlgebra.sl(n)
    rng = SeedStream("dual-values-trace", n)
    for trial in range(5):
        rows = [list(row) for row in algebra.combination([_entry(rng) for _ in algebra.labels])]
        rows[trial % n][trial % n] = rows[trial % n][trial % n] + rng.nonzero_gauss() * U ** -1
        mat = tuple(tuple(row) for row in rows)
        assert algebra.expand_in_basis(mat) is None
        # dualize lands on traceless matrices, so its nearest try differs from mat
        back = dualize(algebra, dict(zip(algebra.labels, dual_values(algebra, mat))))
        assert algebra.expand_in_basis(back.mat) is not None
        assert not mat_eq(back.mat, mat)


def test_group_element_determinant_enforced():
    with pytest.raises(ValidationError):
        LoopGroupElement([[U, RatFunc.const(0)], [RatFunc.const(0), U]])


def test_determinant_preserved_by_products_and_inverse():
    rng = SeedStream("det-words")
    one = RatFunc.const(1)
    for trial in range(10):
        g = random_cocycle(3, CocycleRecipe(length=4), rng.child(trial))
        assert det(g.mat) == one
        assert det(g.inverse().mat) == one
        assert det((g * g).mat) == one


def test_membership_checks(sl2):
    with pytest.raises(NotInAlgebra):
        LoopAlgebraElement(sl2, mat_from([[1, 0], [0, 1]]))  # nonzero trace
    with pytest.raises(ShapeError):
        pairing(CoadjointElement(sl2, sl2.basis[0]), basis_element(MatrixLieAlgebra.sl(3), "E12"))


# ---------------------------------------------------------------------------
# span elements: algebra values and dual (coadjoint) values
# ---------------------------------------------------------------------------


def test_algebra_and_coadjoint_values_never_compare_equal(sl2):
    xi, phi = LoopAlgebraElement(sl2, sl2.basis[0]), CoadjointElement(sl2, sl2.basis[0])
    assert xi.mat == phi.mat
    assert xi != phi and phi != xi
    assert xi == LoopAlgebraElement(sl2, sl2.basis[0]) and phi == CoadjointElement(sl2, sl2.basis[0])


@pytest.mark.parametrize("cls", [LoopAlgebraElement, CoadjointElement], ids=["element", "coadjoint"])
def test_span_arithmetic_keeps_the_class(sl2, cls):
    x = cls(sl2, sl2.basis[0])
    y = cls(sl2, sl2.basis[1])
    results = {
        "x + y": (x + y, [[1, 1], [0, -1]]),
        "x - y": (x - y, [[-1, 1], [0, 1]]),
        "u * x": (U * x, [[0, U], [0, 0]]),
        "x * 3": (x * 3, [[0, 3], [0, 0]]),
        "-x": (-x, [[0, -1], [0, 0]]),
    }
    for label, (value, mat) in results.items():
        assert type(value) is cls, label
        assert value.mat == mat_from(mat), label
        assert value == cls(sl2, mat_from(mat)), label
    assert [c.to_text("u") for c in (U * x).coeffs] == ["u", "0", "0"]


def test_span_element_reprs(sl2):
    assert repr(LoopAlgebraElement(sl2, [[1, U], [0, -1]])) == "LoopAlgebraElement((u)*E + (1)*H)"
    assert repr(CoadjointElement(sl2, [[1, U], [0, -1]])) == "CoadjointElement((u)*E^ + (1)*H^)"
    assert repr(zero_element(sl2)) == "LoopAlgebraElement(0)"
    assert repr(CoadjointElement(sl2, [[0, 0], [0, 0]])) == "CoadjointElement(0)"


def test_span_membership_messages(sl2):
    identity = mat_from([[1, 0], [0, 1]])
    with pytest.raises(NotInAlgebra) as err:
        LoopAlgebraElement(sl2, identity)
    assert str(err.value) == "matrix outside the span of sl2"
    with pytest.raises(NotInAlgebra) as err:
        CoadjointElement(sl2, identity)
    assert str(err.value) == (
        "coadjoint matrix outside the span of sl2 (trace-form identification)"
    )


def test_one_notion_of_same_algebra():
    # distinct objects of one algebra compare, add and act alike
    from higgsres import builtin_rep

    a, b = MatrixLieAlgebra.sl(2), MatrixLieAlgebra.sl(2)
    x, y = LoopAlgebraElement(a, a.basis[0]), LoopAlgebraElement(b, b.basis[0])
    assert a is not b
    assert x == y and (x - y).is_zero()
    assert bracket(x, y).is_zero()
    rep = builtin_rep("sl2-standard")
    e2 = unit_vector(2, 1)
    own = LoopAlgebraElement(rep.algebra, rep.algebra.basis[0])
    assert inf_action(rep, y, e2) == inf_action(rep, own, e2) == unit_vector(2, 0)
    c = MatrixLieAlgebra.sl(3)
    z = LoopAlgebraElement(c, c.basis[0])
    assert x != z and z != x
    with pytest.raises(ShapeError):
        x + z
    with pytest.raises(NotInAlgebra):
        inf_action(rep, z, e2)

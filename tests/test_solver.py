"""Exact linear solves, candidate spaces, and seeded sampling."""

from fractions import Fraction

import pytest

from higgsres import (
    EmptySpace,
    GaussRat,
    Infeasible,
    LoopGroupElement,
    RatFunc,
    XVector,
    builtin_rep,
    make_y_point,
    make_y_tangent,
)
from higgsres.linalg import LinearSystem, nullspace, solve_system
from higgsres.moduli import make_higgs_point, make_higgs_tangent
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    build_higgs_field_space,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    candidate_functions,
    random_cocycle,
    random_loop_algebra,
    sample_affine,
    sample_vector,
)

U = RatFunc.x()
BOUNDS = SolverBounds(degree=4, pole_order=4)


def _triple(x) -> tuple:
    return GaussRat(x)._t


# ---------------------------------------------------------------------------
# nullspace kernel
# ---------------------------------------------------------------------------


def test_nullspace_of_identity_is_empty():
    matrix = [[_triple(1 if i == j else 0) for j in range(3)] for i in range(3)]
    basis, _ = solve_system(matrix, 3)
    assert basis == []


def test_nullspace_of_zero_matrix_is_full():
    matrix = [[_triple(0)] * 4 for _ in range(2)]
    basis, _ = solve_system(matrix, 4)
    assert len(basis) == 4
    for k, vec in enumerate(basis):
        assert vec[k] == GaussRat(1)


def test_nullspace_vectors_satisfy_system():
    rng = SeedStream("nullspace")
    for trial in range(10):
        sub = rng.child(trial)
        # random 6x4 built from 3 independent rows: rank <= 3
        rows = [[sub.gauss(3, 2) for _ in range(4)] for _ in range(3)]
        matrix = []
        for _ in range(6):
            c1, c2, c3 = (sub.gauss(2, 1) for _ in range(3))
            matrix.append(
                [
                    (c1 * rows[0][j] + c2 * rows[1][j] + c3 * rows[2][j])._t
                    for j in range(4)
                ]
            )
        basis, _ = solve_system(matrix, 4)
        # rank + nullity = 4
        pivot_count = 4 - len(basis)
        assert pivot_count <= 3
        for vec in basis:
            for row in matrix:
                acc = GaussRat(0)
                for t, v in zip(row, vec):
                    acc = acc + GaussRat.from_triple(t) * v
                assert acc.is_zero()


def test_nullspace_accepts_linear_system_wrapper():
    matrix = [[_triple(1), _triple(2)]]
    system = LinearSystem(row_keys=["r"], matrix=matrix, columns=["a", "b"])
    basis = nullspace(system)
    assert len(basis) == 1
    assert basis[0][0] + 2 * basis[0][1] == GaussRat(0)


def test_affine_solutions_verified():
    rng = SeedStream("affine")
    matrix = [[_triple(1), _triple(1)], [_triple(0), _triple(1)]]
    rhs = [_triple(3), _triple(1)]
    basis, parts = solve_system(matrix, 2, [rhs])
    assert basis == []
    assert parts[0] == [GaussRat(2), GaussRat(1)]
    # inconsistent system
    matrix2 = [[_triple(1), _triple(1)], [_triple(2), _triple(2)]]
    rhs2 = [_triple(0), _triple(1)]
    _, parts2 = solve_system(matrix2, 2, [rhs2])
    assert parts2[0] is None


# ---------------------------------------------------------------------------
# section spaces
# ---------------------------------------------------------------------------


def test_twisted_cocycle_section_dimension(curve_one_point, rep_sl2, twisted_bundle):
    space = build_section_space(curve_one_point, rep_sl2, twisted_bundle, BOUNDS)
    assert space.dim == 1
    assert space.basis[0] == XVector([1, 0])


def test_trivial_cocycle_has_no_sections(curve_one_point, rep_sl2):
    space = build_section_space(
        curve_one_point, rep_sl2, [LoopGroupElement.identity(2)], BOUNDS
    )
    assert space.dim == 0
    tight = build_section_space(
        curve_one_point, rep_sl2, [LoopGroupElement.identity(2)], SolverBounds(0, 0)
    )
    assert tight.dim == 0


def test_candidate_functions_count(curve_two_points):
    cands = candidate_functions(curve_two_points, SolverBounds(degree=2, pole_order=3))
    # denominator z^3 from the finite point, numerator degree up to 3 + 2
    assert cands.size == 6
    vectors = cands.monomial_vectors(2)
    assert len(vectors) == 12
    assert vectors[0].coords[1].is_zero()
    # monomials are pairwise distinct: distinct slot or a distinct candidate
    assert len(set(vectors)) == 12


def test_every_sampled_section_is_valid(curve_two_points):
    rep = builtin_rep("sl2-standard-x2")
    rng = SeedStream("sampled-sections")
    for trial in range(6):
        sub = rng.child(trial)
        g = [
            random_cocycle(2, CocycleRecipe(), sub.child("g", i)) for i in range(2)
        ]
        space = build_section_space(curve_two_points, rep, g, BOUNDS)
        if not space.dim:
            continue
        s = sample_vector(space, sub.child("s"))
        make_y_point(curve_two_points, rep, g, s)  # must not raise


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def f1_point(curve_one_point, rep_sl2, twisted_bundle):
    return make_y_point(curve_one_point, rep_sl2, twisted_bundle, XVector([1, 0]))


def test_regular_gdot_tangent_space(f1_point, rep_sl2):
    sl2 = rep_sl2.algebra
    space = build_tangent_space(f1_point, [sl2.basis_element("F")], BOUNDS)
    assert space.particular.is_zero()
    section_space = build_section_space(
        f1_point.curve, rep_sl2, f1_point.g, BOUNDS
    )
    assert space.dim == section_space.dim


def test_zero_gdot_tangent_space_equals_sections(f1_point, rep_sl2):
    sl2 = rep_sl2.algebra
    space = build_tangent_space(f1_point, [sl2.zero_element()], BOUNDS)
    assert space.particular.is_zero()
    assert space.dim == 1
    assert space.basis[0] == XVector([1, 0])


def test_deep_pole_reported_infeasible(f1_point, rep_sl2):
    sl2 = rep_sl2.algebra
    g_dot = [(U ** -3) * sl2.basis_element("F")]
    with pytest.raises(Infeasible):
        build_tangent_space(f1_point, g_dot, SolverBounds(degree=0, pole_order=0))
    # the same direction becomes solvable once the bounds grow
    space = build_tangent_space(f1_point, g_dot, SolverBounds(degree=2, pole_order=0))
    t = make_y_tangent(f1_point, g_dot, space.particular)
    v = t.s_prime_dot[0].coords[1].valuation()
    assert v is None or v >= 0


def test_sampling_determinism_and_nonzero(f1_point, rep_sl2):
    space = build_section_space(f1_point.curve, rep_sl2, f1_point.g, BOUNDS)
    s1 = sample_vector(space, SeedStream(42))
    s2 = sample_vector(space, SeedStream(42))
    assert s1 == s2
    assert not s1.is_zero()
    assert s1 != sample_vector(space, SeedStream(43)) or True  # different seed may collide


def test_sampling_empty_space_raises(curve_one_point, rep_sl2):
    space = build_section_space(
        curve_one_point, rep_sl2, [LoopGroupElement.identity(2)], BOUNDS
    )
    with pytest.raises(EmptySpace):
        sample_vector(space, SeedStream(1))


# ---------------------------------------------------------------------------
# Higgs-side spaces
# ---------------------------------------------------------------------------


def test_higgs_field_space_matches_transition(curve_one_point, twisted_bundle):
    sl2 = builtin_rep("sl2-standard").algebra
    fields = build_higgs_field_space(curve_one_point, sl2, twisted_bundle, BOUNDS)
    assert len(fields) >= 1
    for phi in fields:
        # every basis field must produce regular disk data
        make_higgs_point(curve_one_point, sl2, twisted_bundle, phi)


def test_higgs_tangent_space_solutions_are_valid(curve_one_point, twisted_bundle):
    sl2 = builtin_rep("sl2-standard").algebra
    phi = GaussRat(Fraction(-1, 2)) * sl2.coadjoint(sl2.basis[0])
    point = make_higgs_point(curve_one_point, sl2, twisted_bundle, phi)
    rng = SeedStream("higgs-tangent")
    for trial in range(5):
        sub = rng.child(trial)
        g_dot = [random_loop_algebra(sl2, GdotRecipe(pole_order=1), sub.child("g"))]
        try:
            space = build_higgs_tangent_space(point, g_dot, BOUNDS)
        except Infeasible:
            continue
        phi_dot = sample_affine(space, sub.child("phi"))
        make_higgs_tangent(point, g_dot, phi_dot)  # must not raise

"""Exact linear solves, candidate spaces, and seeded sampling."""

import itertools
from fractions import Fraction

import pytest

from higgsres import (
    INFINITY,
    EmptySpace,
    GaussRat,
    Infeasible,
    LoopGroupElement,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    XVector,
    builtin_rep,
    laurent_expand,
    make_y_point,
    make_y_tangent,
)
from higgsres import _kernels as K
from higgsres.linalg import Elimination
from higgsres.lie import elementary, torus
from higgsres.matrices import commutator, identity
from higgsres.moduli import make_higgs_point, make_higgs_tangent
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    TwistedSystem,
    _higgs_frame,
    _section_frame,
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


def _rank(matrix) -> int:
    """Rank by plain Gaussian elimination over Q(i), independent of linalg."""
    rows = [[GaussRat.from_triple(t) for t in row] for row in matrix]
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


def _polar(h):
    """[(exponent, triple)] of the nonzero coefficients of h below u^0."""
    v = h.valuation()
    if v is None or v >= 0:
        return []
    series = laurent_expand(h, -v)
    coefficients = [(e, series.coefficient(e)) for e in range(v, 0)]
    return [(e, c._t) for e, c in coefficients if not c.is_zero()]


def _apply(matrix, vec):
    return [
        sum((GaussRat.from_triple(t) * v for t, v in zip(row, vec)), GaussRat(0))
        for row in matrix
    ]


# ---------------------------------------------------------------------------
# nullspace kernel
# ---------------------------------------------------------------------------


def test_nullspace_of_identity_is_empty():
    matrix = [[_triple(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert Elimination(matrix, 3).null_basis == []


def test_nullspace_of_zero_matrix_is_full():
    matrix = [[_triple(0)] * 4 for _ in range(2)]
    basis = Elimination(matrix, 4).null_basis
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
        basis = Elimination(matrix, 4).null_basis
        # rank + nullity = 4
        pivot_count = 4 - len(basis)
        assert pivot_count <= 3
        for vec in basis:
            for row in matrix:
                acc = GaussRat(0)
                for t, v in zip(row, vec):
                    acc = acc + GaussRat.from_triple(t) * v
                assert acc.is_zero()


def test_affine_solutions_verified():
    rng = SeedStream("affine")
    matrix = [[_triple(1), _triple(1)], [_triple(0), _triple(1)]]
    rhs = [_triple(3), _triple(1)]
    elimination = Elimination(matrix, 2)
    assert elimination.null_basis == []
    assert elimination.solve(rhs) == [GaussRat(2), GaussRat(1)]
    # inconsistent system
    matrix2 = [[_triple(1), _triple(1)], [_triple(2), _triple(2)]]
    rhs2 = [_triple(0), _triple(1)]
    assert Elimination(matrix2, 2).solve(rhs2) is None


def _pivot_columns(matrix, ncols):
    """The columns whose rank profile steps up, by ``_rank`` of each prefix."""
    ranks = [_rank([row[: j + 1] for row in matrix]) for j in range(ncols)]
    return [j for j in range(ncols) if ranks[j] > (ranks[j - 1] if j else 0)]


def _replay_case(rng, m, n):
    """A random m x n Q(i) matrix with zero leading runs (pivots out of row
    order, rows cleared above their pivot), a repeated row (a cokernel) and
    non-unit pivots."""
    rows = []
    for _ in range(m):
        lead = rng.randint(0, n - 1)
        rows.append([GaussRat(0)] * lead + [rng.gauss(5, 4) for _ in range(n - lead)])
    if m > 1 and rng.randint(0, 2):
        r, s = rng.randint(0, m - 1), rng.randint(0, m - 1)
        c = rng.nonzero_gauss(3, 2)
        rows[r] = [c * x for x in rows[s]]
    return [[x._t for x in row] for row in rows]


def test_replay_solves_exactly_when_consistent():
    """Elimination.solve against ranks of [A | b] from an independent
    Gaussian elimination: a solution of A x = b with free coordinates 0
    exactly when rank([A | b]) = rank(A), None otherwise."""
    rng = SeedStream("replay-oracle")
    kinds = {"consistent": 0, "inconsistent": 0, "out of row order": 0, "cleared above": 0}
    for trial in range(60):
        sub = rng.child(trial)
        m, n = sub.randint(1, 6), sub.randint(1, 5)
        matrix = _replay_case(sub, m, n)
        elimination = Elimination(matrix, n)
        free = set(range(n)) - set(_pivot_columns(matrix, n))
        # the kernel's own steps, only to show the cases are exercised
        steps = K.zi_echelon(list(matrix), n)
        pivot_rows = [r for r, *_ in steps]
        kinds["out of row order"] += pivot_rows != sorted(pivot_rows)
        kinds["cleared above"] += any(
            i in pivot_rows[:k] for k, (*_, targets) in enumerate(steps) for i, _ in targets
        )
        for d in range(4):
            if d % 2:
                x0 = [sub.gauss(3, 3) for _ in range(n)]
                rhs = [x._t for x in _apply(matrix, x0)]
            else:
                rhs = [sub.gauss(4, 3)._t for _ in range(m)]
            consistent = _rank([row + [t] for row, t in zip(matrix, rhs)]) == _rank(matrix)
            x = elimination.solve(rhs)
            # a zero row of A past its rows changes nothing; a nonzero one is inconsistent
            assert elimination.solve(rhs + [_triple(0)]) == x
            assert elimination.solve(rhs + [_triple(1)]) is None
            if not consistent:
                assert x is None
                kinds["inconsistent"] += 1
                continue
            assert x is not None
            assert _apply(matrix, x) == [GaussRat.from_triple(t) for t in rhs]
            assert all(x[j].is_zero() for j in free)
            kinds["consistent"] += 1
    assert all(kinds.values()), kinds
    assert min(kinds["consistent"], kinds["inconsistent"]) >= 40, kinds


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


def _per_candidate_assembly(curve, candidates, dim, frame):
    """The system's (row_keys, matrix) the slow way: pull every candidate to
    every disk, multiply it by every frame entry and expand the product."""
    size, zero = candidates.size, _triple(0)
    rows = {}
    for i, disk in enumerate(frame):
        for t, f in enumerate(candidates.functions):
            f_loc = curve.chart(i).pull(f)
            for k, entries in enumerate(disk):
                for row, entry in enumerate(entries):
                    for e, triple in _polar(f_loc * entry):
                        rows.setdefault((i, row, e), {})[k * size + t] = triple
    keys = sorted(rows)
    return keys, [[rows[key].get(col, zero) for col in range(dim * size)] for key in keys]


def _marked(*points):
    """P^1 marked at points; assembly reads only the charts, so T_i = u."""
    pts = [INFINITY if p == "inf" else P1Point.finite(p) for p in points]
    return MarkedCurve(pts, OneForm(RatFunc.const(-1)), [U] * len(pts))


def test_window_assembly_matches_per_candidate_products(curve_one_point, curve_two_points):
    half = GaussRat(Fraction(-1, 2))
    curves = [
        curve_one_point,
        curve_two_points,
        _marked(1, "inf"),
        _marked(GaussRat(0, 1), half, "inf"),
        _marked(half),
    ]
    bounds = SolverBounds(degree=3, pole_order=2)
    rng = SeedStream("window-assembly")
    reps = ("sl2-standard", "sl3-cotangent")
    for (c, curve), rep_name in itertools.product(enumerate(curves), reps):
        rep = builtin_rep(rep_name)
        candidates = candidate_functions(curve, bounds)
        for b in range(2):
            sub = rng.child(c, rep_name, b)
            n = rep.algebra.n
            g = [random_cocycle(n, CocycleRecipe(), sub.child(i)) for i in range(curve.n_points)]
            for dim, frame in (
                (rep.space.dim, _section_frame(curve, rep, g)),
                (rep.algebra.dim, _higgs_frame(curve, rep.algebra, g)),
            ):
                system = TwistedSystem(curve, candidates, dim, frame)
                want = _per_candidate_assembly(curve, candidates, dim, frame)
                assert (system.row_keys, system.matrix) == want
                assert system.row_keys


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
    assert fields.dim >= 1
    for phi in fields.basis:
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


# ---------------------------------------------------------------------------
# factor once, solve many: the per-bundle system against a one-shot solve
# ---------------------------------------------------------------------------


def _one_shot(system, rhs):
    """Solve [A | b] in one go, as a fresh system: A gets a zero row for
    each polar coefficient of rhs it has no row for.  Returns (matrix, b,
    null basis, particular or None, whether rhs had such a row)."""
    effect = {}
    for i, germs in enumerate(rhs):
        for row, germ in enumerate(germs):
            for e, triple in _polar(germ):
                effect[(i, row, e)] = triple
    ncols = system.elimination.ncols
    rows = dict(zip(system.row_keys, system.matrix))
    keys = sorted(set(rows) | set(effect))
    zero = _triple(0)
    matrix = [rows.get(k, [zero] * ncols) for k in keys]
    b = [effect.get(k, zero) for k in keys]
    elimination = Elimination(matrix, ncols)
    return matrix, b, elimination.null_basis, elimination.solve(b), not set(effect) <= set(rows)


def _random_point(side, rep, curve, bounds, rng):
    """A point over a random bundle, carrying the system its space built."""
    algebra = rep.algebra
    g = [random_cocycle(algebra.n, CocycleRecipe(), rng.child("g", i)) for i in range(curve.n_points)]
    if side == "section":
        space = build_section_space(curve, rep, g, bounds)
        s = sample_vector(space, rng.child("s")) if space.dim else XVector.zero(rep.space.dim)
        return make_y_point(curve, rep, g, s, space.system), space.system
    space = build_higgs_field_space(curve, algebra, g, bounds)
    if space.dim:
        phi = sample_vector(space, rng.child("phi"))
    else:
        phi = algebra.coadjoint([[0] * algebra.n for _ in range(algebra.n)])
    return make_higgs_point(curve, algebra, g, phi, space.system), space.system


def _tangent_rhs(side, point, g_dot):
    """The prescribed polar data of the tangent system at each disk."""
    n = point.curve.n_points
    if side == "section":
        return [point.rep.inf_action(g_dot[i], point.s_prime[i]).coords for i in range(n)]
    return [
        tuple(e for row in commutator(g_dot[i].mat, point.phi_prime[i].mat) for e in row)
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "side, build, reps, bounds",
    [
        ("section", build_tangent_space, ("sl2-standard", "sl3-cotangent"), BOUNDS),
        # tighter bounds, so that some bracket poles lie in no row of A
        ("higgs", build_higgs_tangent_space, ("sl2-standard", "sl3-cotangent"), SolverBounds(2, 2)),
    ],
)
def test_factor_once_matches_one_shot_solve(
    curve_one_point, curve_two_points, side, build, reps, bounds
):
    kinds = {"feasible": 0, "extra polar row": 0, "cokernel": 0}
    for rep_name in reps:
        rep = builtin_rep(rep_name)
        for curve in (curve_one_point, curve_two_points):
            rng = SeedStream("factor-once", side, rep_name, curve.n_points)
            for b in range(3):
                point, system = _random_point(side, rep, curve, bounds, rng.child("bundle", b))
                for d in range(6):
                    sub = rng.child("bundle", b, "g_dot", d)
                    g_dot = [
                        random_loop_algebra(rep.algebra, GdotRecipe(pole_order=3), sub.child(i))
                        for i in range(curve.n_points)
                    ]
                    rhs = _tangent_rhs(side, point, g_dot)
                    matrix, vector, null, part, extra = _one_shot(system, rhs)
                    assert system.elimination.null_basis == null
                    assert system.basis == [system._combine(v) for v in null]
                    assert system.particular(rhs) == (None if part is None else system._combine(part))
                    try:
                        build(point, g_dot, bounds)
                        feasible = True
                    except Infeasible:
                        feasible = False
                    assert point.system is system
                    assert feasible == (part is not None)
                    if feasible:
                        assert _apply(matrix, part) == [GaussRat.from_triple(t) for t in vector]
                        kinds["feasible"] += 1
                    elif extra:
                        kinds["extra polar row"] += 1
                    else:
                        # every polar row is a row of A: b is outside its column space
                        full = [row + [t] for row, t in zip(matrix, vector)]
                        assert _rank(full) == _rank(matrix) + 1
                        kinds["cokernel"] += 1
                for v in null:
                    assert all(x.is_zero() for x in _apply(system.matrix, v))
    assert all(kinds.values()), kinds


def test_tangent_builder_keeps_one_system_per_bounds(f1_point, rep_sl2):
    point = make_y_point(f1_point.curve, rep_sl2, f1_point.g, f1_point.s_circ)
    assert point.system is None
    g_dot = [rep_sl2.algebra.basis_element("F")]
    build_tangent_space(point, g_dot, BOUNDS)
    system = point.system
    assert system is not None and system.bounds == BOUNDS
    build_tangent_space(point, g_dot, BOUNDS)
    assert point.system is system
    build_tangent_space(point, g_dot, SolverBounds(degree=2, pole_order=0))
    assert point.system.bounds == SolverBounds(degree=2, pole_order=0)


def _group_elements():
    c = GaussRat(Fraction(1, 2), 1) * U
    t = torus(3, [1, 1, -2])
    e = elementary(3, 1, 3, c)
    f = elementary(3, 2, 1, U ** -1)
    return {"torus": t, "elementary": e, "product": t * e * f * torus(3, [-1, 0, 1])}


@pytest.mark.parametrize("name", ["torus", "elementary", "product"])
def test_inverse_is_computed_once_and_knows_its_inverse(name):
    g = _group_elements()[name]
    inv = g.inverse()
    assert g.inverse() is inv
    assert inv.inverse() is g
    one = LoopGroupElement.identity(3)
    assert g * inv == one and inv * g == one
    assert (g * inv).mat == identity(3)

"""Exact linear solves, candidate spaces, and seeded sampling."""

import gc
import itertools
from fractions import Fraction

import pytest
from helpers import (
    DenseElimination,
    FrameRep,
    basis_element,
    basis_values,
    coadjoint_transition,
    commutator,
    dense_rows,
    entry_higgs_rhs,
    entry_higgs_system,
    inf_action,
    monomial_vectors,
    numerator,
    particular_value,
    rho_group,
    sample,
    sparse_column,
    sparse_rows,
    sparse_vector,
    zero_element,
    zero_vector,
)
from test_field import _naive_window
from test_sparse_elimination import _column

from higgsres import (
    INFINITY,
    GaussRat,
    HamiltonianRep,
    Infeasible,
    LoopGroupElement,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    ShapeError,
    XVector,
    YPoint,
    builtin_rep,
    identity_check,
    load_scenario,
    make_y_point,
    make_y_tangent,
    pullback_omega,
)
from higgsres import _kernels as K
from higgsres import moduli, solver, suites
from higgsres.lie import Coadjoint, CoadjointElement, MatrixLieAlgebra, elementary, torus
from higgsres.linalg import Elimination
from higgsres.matrices import identity
from higgsres.moduli import make_higgs_point, make_higgs_tangent
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    TwistedSystem,
    _shift_powers,
    assemble,
    build_higgs_field_space,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    candidate_functions,
    polar_rhs,
    random_cocycle,
    random_loop_algebra,
    sample_affine,
    sample_vector,
)
from higgsres.suites import build_instance

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
    coefficients = zip(range(v, 0), _naive_window(h, v, -1))
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
    assert DenseElimination(matrix, 3).null_basis == []


def test_nullspace_of_zero_matrix_is_full():
    matrix = [[_triple(0)] * 4 for _ in range(2)]
    basis = DenseElimination(matrix, 4).null_basis
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
        basis = DenseElimination(matrix, 4).null_basis
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
    rhs = {0: _triple(3), 1: _triple(1)}
    elimination = DenseElimination(matrix, 2)
    assert elimination.null_basis == []
    assert elimination.solve(rhs) == [GaussRat(2), GaussRat(1)]
    # a key past the last row stands for a zero row of A
    assert elimination.solve({**rhs, 2: _triple(1)}) is None
    assert elimination.solve({5: _triple(1)}) is None
    # inconsistent system
    matrix2 = [[_triple(1), _triple(1)], [_triple(2), _triple(2)]]
    rhs2 = {1: _triple(1)}
    assert DenseElimination(matrix2, 2).solve(rhs2) is None


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
        elimination = DenseElimination(matrix, n)
        free = set(range(n)) - set(_pivot_columns(matrix, n))
        # the kernel's own steps, only to show the cases are exercised
        steps = K.zi_echelon(sparse_rows(matrix), n)
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
            column = _column(rhs)
            x = elimination.solve(column)
            # a key past the rows of A stands for a zero row of A: inconsistent
            assert elimination.solve({**column, m: _triple(1)}) is None
            assert elimination.solve({**column, m + 2: _triple(1)}) is None
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
    assert basis_values(space)[0] == XVector([1, 0])


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
    vectors = monomial_vectors(cands, 2)
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


def _per_candidate_assembly(curve, candidates, dim, frame, weight):
    """The system's (row keys, dense rows) the slow way: pull every candidate
    to every disk, multiply it by the twist T_i^-weight and every frame
    entry, and expand the product."""
    size, zero = candidates.size, _triple(0)
    rows = {}
    for i, disk in enumerate(frame):
        twist = curve.transition(i) ** -weight
        for t, f in enumerate(candidates.functions):
            f_loc = curve.chart(i).pull(f) * twist
            for k, entries in enumerate(disk):
                for row, entry in enumerate(entries):
                    for e, triple in _polar(f_loc * entry):
                        rows.setdefault((i, row, e), {})[k * size + t] = triple
    keys = sorted(rows)
    return keys, [[rows[key].get(col, zero) for col in range(dim * size)] for key in keys]


def _marked(*points, transitions=None):
    """P^1 marked at points; assembly reads only the charts and the T_i,
    so T_i = u unless ``transitions`` are given."""
    pts = [INFINITY if p == "inf" else P1Point.finite(p) for p in points]
    return MarkedCurve(pts, OneForm(RatFunc.const(-1)), transitions or [U] * len(pts))


def _combine_by_loop(functions, dim, vec):
    """Each coordinate sum_t vec[k*size + t] f_t as a running sum acc + f * c."""
    size = len(functions)
    out = []
    for k in range(dim):
        acc = RatFunc.const(0)
        for t, f in enumerate(functions):
            acc = acc + f * vec[k * size + t]
        out.append(acc)
    return out


def _check_assembly(curve, candidates, frame, weight, inverse=None):
    """assemble of every candidate column and TwistedSystem, on a frame
    given entry by entry (and rho(g_i) as ``inverse``, when known),
    against the per-candidate oracle: the rows, and the system's counts
    and null vectors against the oracle matrix's.  Returns the system and
    the oracle's dense null basis."""
    dim = len(frame[0])
    full = [(0, candidates.size - 1)] * dim
    keys, rows, nonzeros = assemble(candidates, [[sparse_column(c) for c in disk] for disk in frame], weight, full)
    ncols = dim * candidates.size
    oracle = _per_candidate_assembly(curve, candidates, dim, frame, weight)
    assert (keys, dense_rows(rows, ncols)) == oracle
    assert keys
    # the rows hold their non-zeros only, and nothing else
    assert not any(K.gq_is_zero(t) for row in rows for t in row.values())
    assert nonzeros == sum(len(row) for row in rows)
    rep = FrameRep(frame, weight, inverse=inverse)
    system = TwistedSystem(candidates, rep, rep.disks)
    null = DenseElimination(oracle[1], ncols).null_basis
    assert system.counts == {"rows": len(keys), "cols": ncols, "rank": ncols - len(null), "nonzeros": nonzeros}
    assert system.null_vectors == [sparse_vector(v) for v in null]
    return system, null


def _check_tables(curve, candidates):
    """Every table entry (i, w, m) holds the polar columns of
    u^m * pull_i(1/D) * T_i^-w, read off the oracle's expansion."""
    for (i, w, m), (columns, starts) in candidates.tables.items():
        frame = [[(RatFunc.const(0),)]] * curve.n_points
        frame[i] = [(U**m,)]
        keys, rows = _per_candidate_assembly(curve, candidates, 1, frame, w)
        assert sorted((t, e, x) for (_, _, e), row in zip(keys, rows) for t, x in enumerate(row)
                      if not K.gq_is_zero(x)) == sorted(columns)
        # in ascending t, and starts[t] counts the columns below t
        exponents = [t for t, _, _ in columns]
        assert exponents == sorted(exponents)
        assert starts == [sum(1 for e in exponents if e < t) for t in range(candidates.size + 1)]


def _dense_frames(rep, g):
    """(representation, frame, rho(g_i) per disk) on each side, by the
    dense oracles: column k of rho(g_i)^-1 = rho(g_i^-1) and rho(g_i) on
    the section side, the coordinates of g_i^-1 b_k g_i and of
    g_i b_k g_i^-1 (column k of rho(g_i)) on the Higgs side."""
    algebra = rep.algebra
    section = [tuple(zip(*rho_group(rep, g_i.inverse()))) for g_i in g]
    higgs = [[coadjoint_transition(g_i, CoadjointElement(algebra, b)).coeffs for b in algebra.basis] for g_i in g]
    higgs_inverse = [
        tuple(zip(*(coadjoint_transition(g_i.inverse(), CoadjointElement(algebra, b)).coeffs for b in algebra.basis)))
        for g_i in g
    ]
    return (rep, section, [rho_group(rep, g_i) for g_i in g]), (Coadjoint(algebra), higgs, higgs_inverse)


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
            for side, frame, inverse in _dense_frames(rep, g):
                # the library's frame, and the columns of rho(g_i) its floors read, are the oracle's
                assert [[side.column(g_i, k) for k in range(side.dim)] for g_i in g] == [
                    [sparse_column(c) for c in disk] for disk in frame
                ]
                assert [[side.column(g_i.inverse(), k) for k in range(side.dim)] for g_i in g] == [
                    [sparse_column(c) for c in zip(*rho)] for rho in inverse
                ]
                system, null = _check_assembly(curve, candidates, frame, side.weight, inverse)
                dim = side.dim
                functions = candidates.functions
                assert basis_values(system) == [_combine_by_loop(functions, dim, v) for v in null]
                assert system.dim == len(null)
                vec = [sub.gauss() for _ in range(dim * len(functions))]
                assert system._combine(sparse_vector(vec)) == _combine_by_loop(functions, dim, vec)
        _check_tables(curve, candidates)
        assert {w for _, w, _ in candidates.tables} == {1, 2}


def _frame_entries():
    """Monomials with c = 1 and c != 1, negative, zero and large positive m,
    zero, and entries that are not monomials (Laurent or not)."""
    c = GaussRat(Fraction(-2, 3), 1)
    return [
        (U**-3, c * U**-2, RatFunc.const(c)),
        (RatFunc.const(0), U**2, c * U**40),
        (U**2 + U**-1, RatFunc(1, [-3, 1]), c * U**-1),
    ]


def test_assembly_tables_serve_any_monomial_and_any_base():
    half = GaussRat(Fraction(-1, 2))
    curves = [
        _marked("inf"),
        _marked(1, "inf"),
        _marked(GaussRat(0, 1), half, "inf"),
        _marked(half),
        # non-monomial transitions: the twisted bases are not Laurent
        _marked(0, "inf", transitions=[U * (U - 1), GaussRat(0, 1) * (1 - U) / U]),
        _marked(1, transitions=[U * (U + 1)]),
    ]
    for curve in curves:
        candidates = candidate_functions(curve, SolverBounds(degree=3, pole_order=2))
        frame = [_frame_entries() for _ in range(curve.n_points)]
        for weight in (1, 2):
            _check_assembly(curve, candidates, frame, weight)
        _check_tables(curve, candidates)
        # u^40 is regular on every disk: an entry with no polar columns
        assert all(candidates.tables[(i, w, 40)][0] == () for i in range(curve.n_points) for w in (1, 2))
        # one entry per (disk, weight, exponent of a monomial entry)
        monomials = {-3, -2, 0, 2, 40, -1}
        assert set(candidates.tables) == {
            (i, w, m) for i in range(curve.n_points) for w in (1, 2) for m in monomials
        }


def _fresh_candidates(curve, bounds):
    """(functions, per-disk data, orders) built the way every system build
    once did, with (disk, s, c, ord T) for ord f_t = s*t + c at a marked
    infinity and at a marked 0."""
    den = RatFunc(1)
    for p in curve.marked_points:
        if not p.is_infinity:
            den = den * RatFunc([-p.value, 1]) ** bounds.pole_order
    t_max = len(numerator(den)) - 1 + (bounds.degree if INFINITY in curve.marked_points else 0)
    functions = tuple(RatFunc([0] * t + [1], numerator(den)) for t in range(t_max + 1))
    size = len(functions)
    disks = []
    orders = []
    for i, p in enumerate(curve.marked_points):
        base = curve.chart(i).pull(functions[0])
        bases = {w: base * curve.transition(i) ** -w for w in (1, 2)}
        disks.append((bases, None if p.is_infinity else _shift_powers(p.value, size)))
        # f_t = z^t / D: ord_inf f_t = deg D - t, ord_0 f_t = t - P
        tau = curve.transition(i).valuation()
        if p.is_infinity:
            orders.append((i, -1, len(numerator(den)) - 1, tau))
        elif p.value.is_zero():
            orders.append((i, 1, -bounds.pole_order, tau))
    return functions, tuple(disks), tuple(orders)


def test_candidate_space_built_once_per_curve_and_bounds(curve_one_point, curve_two_points):
    half = GaussRat(Fraction(-1, 2))
    curves = [curve_one_point, curve_two_points, _marked(1, "inf"), _marked(GaussRat(0, 1), half, "inf")]
    for curve in curves:
        spaces = {}
        for bounds in (SolverBounds(3, 2), SolverBounds(2, 3)):
            spaces[bounds] = candidate_functions(curve, bounds)
            equal = SolverBounds(bounds.degree, bounds.pole_order)
            assert candidate_functions(curve, equal) is spaces[bounds]
            space = spaces[bounds]
            assert (space.functions, space.disks, space.orders) == _fresh_candidates(curve, bounds)
        assert spaces[SolverBounds(3, 2)] is not spaces[SolverBounds(2, 3)]
    # the space belongs to the curve, not to its points
    bounds = SolverBounds(3, 2)
    assert candidate_functions(_marked(1, "inf"), bounds) is not candidate_functions(_marked(1, "inf"), bounds)


def _count_gcds(monkeypatch):
    calls = [0]
    p_gcd = K.p_gcd

    def counted(a, b):
        calls[0] += 1
        return p_gcd(a, b)

    monkeypatch.setattr(K, "p_gcd", counted)
    return calls


def test_combine_reaches_no_more_gcds_than_the_running_sum(monkeypatch):
    """A non-Laurent candidate times the constant 1 in ``field.dot`` is a scale, not a gcd."""
    curve = _marked(1, "inf")
    rep = builtin_rep("sl3-cotangent")
    rng = SeedStream("combine-gcds")
    g = [random_cocycle(3, CocycleRecipe(), rng.child(i)) for i in range(curve.n_points)]
    candidates = candidate_functions(curve, SolverBounds(3, 2))
    dim = rep.dim
    system = TwistedSystem(candidates, rep, g)
    vec = [rng.gauss() for _ in range(dim * candidates.size)]
    calls = _count_gcds(monkeypatch)
    combined = system._combine(sparse_vector(vec))
    by_dot = calls[0]
    by_loop = _combine_by_loop(candidates.functions, dim, vec)
    assert list(combined.coords) == by_loop
    assert 0 < by_dot <= calls[0] - by_dot


def _warm_workloads(fixtures_dir) -> list:
    """One trial function per benchmark workload, each run once (warm):
    a theorem trial on f1 and on f3, and a Higgs pair with its Cartan
    check on f2."""

    def theorem(name):
        scenario = load_scenario(str(fixtures_dir / name))
        rng = SeedStream("warm-trial")

        def trial(t):
            inst = build_instance(scenario, rng.child(t))
            t1, t2 = inst.tangents
            assert pullback_omega(inst.point, t1, t2).is_zero()
            assert identity_check(inst.point, t1, t2).ok

        return trial

    def cartan(name):
        scenario = load_scenario(str(fixtures_dir / name))
        rng = SeedStream("warm-pair")

        def trial(t):
            point, (t1, t2) = suites.random_higgs_pair(scenario, rng.child(t))
            assert moduli.cartan_check(point, t1, t2).ok

        return trial

    workloads = [theorem("f1.json"), theorem("f3.json"), cartan("f2.json")]
    for trial in workloads:
        trial(0)
    return workloads


def _warm_counts(workloads, calls) -> list:
    """The growth of calls[0] over trials 1-5 of each workload."""
    warm = []
    for trial in workloads:
        before = calls[0]
        for t in range(1, 6):
            trial(t)
        warm.append(calls[0] - before)
    return warm


def test_warm_trial_asks_for_no_gcd(fixtures_dir, monkeypatch):
    """Once its curve's constants are built, a trial of each benchmark
    workload asks for no gcd: a theorem trial on f1 and on f3, and a
    Higgs pair with its Cartan check on f2."""
    workloads = _warm_workloads(fixtures_dir)
    assert _warm_counts(workloads, _count_gcds(monkeypatch)) == [0, 0, 0]


def test_warm_transport_asks_for_no_p_mul(fixtures_dir, monkeypatch):
    """``derive_prime`` and ``derive_prime_dot`` ask for no ``p_mul`` in a
    warm trial of any benchmark workload: the chart pull and the twist of
    each coordinate fold into the ``p_dot`` terms of its sum instead of
    being multiplied into a germ first.  Both transports run in every
    workload (cartan-f2 runs only the Higgs side)."""
    workloads = _warm_workloads(fixtures_dir)
    inside, entered, calls = [0], [0], [0]

    def within(fn):
        def wrapped(*args):
            inside[0] += 1
            entered[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1

        return wrapped

    for name in ("derive_prime", "derive_prime_dot"):
        monkeypatch.setattr(moduli, name, within(getattr(moduli, name)))
    p_mul = K.p_mul

    def counted(p, q):
        calls[0] += inside[0] > 0
        return p_mul(p, q)

    monkeypatch.setattr(K, "p_mul", counted)
    assert _warm_counts(workloads, calls) == [0, 0, 0]
    assert entered[0] >= 3 * 5


def _record_calls(monkeypatch, owner, name, method=True):
    """The argument tuples of every call of owner.<name>, a method of
    HamiltonianRep (its self left out) or a function of a module."""
    calls = []
    function = getattr(owner, name)

    def recorded(*args):
        calls.append(args[1:] if method else args)
        return function(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_trial_forms_each_disk_value_once(fixtures_dir, monkeypatch):
    """rho(gdot_i) s'_i is formed once per accepted tangent, by
    make_y_tangent (the tangent solves read only its polar coefficients
    off the terms), and mu(s'_i) once per point, by make_y_point, however
    many checks read them."""
    scenario = load_scenario(str(fixtures_dir / "f3.json"))
    rng = SeedStream("disk-values")
    build_instance(scenario, rng.child(0))
    actions = _record_calls(monkeypatch, moduli, "disk_actions", method=False)
    terms = _record_calls(monkeypatch, HamiltonianRep, "inf_action_terms")
    moments = _record_calls(monkeypatch, HamiltonianRep, "moment_values")
    dmoments = _record_calls(monkeypatch, HamiltonianRep, "dmoment_values")
    inst = build_instance(scenario, rng.child(1))
    p, (t1, t2) = inst.point, inst.tangents
    n = scenario.curve.n_points
    solves = 2 + inst.tangent_retries
    assert inst.tangent_retries  # an infeasible solve is counted too
    assert len(actions) == 2
    assert len(terms) == n * (solves + 2)
    for t in (t1, t2):
        assert sum(g_dot is t.g_dot and disk is p.s_prime for _, g_dot, disk in actions) == 1
        for i in range(n):
            key = (t.g_dot[i], p.s_prime[i])
            assert sum(a is key[0] and x is key[1] for a, x in terms) == 2
    # make_y_point formed mu(s'_i), and no check forms it again
    for s in p.s_prime:
        assert sum(x is s for (x,) in moments) == 1
    assert not dmoments
    assert pullback_omega(p, t1, t2).is_zero()
    assert identity_check(p, t1, t2).ok
    assert len(actions) == 2
    for s in p.s_prime:
        assert sum(x is s for (x,) in moments) == 1
    # mu(s'_i) is the folded quadratic form, not dmu_(s'_i)(s'_i) / 2
    assert not any(x is v for x, v in dmoments)


# ---------------------------------------------------------------------------
# tangent spaces
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def f1_point(curve_one_point, rep_sl2, twisted_bundle):
    return make_y_point(curve_one_point, rep_sl2, twisted_bundle, XVector([1, 0]))


def test_regular_gdot_tangent_space(f1_point, rep_sl2):
    sl2 = rep_sl2.algebra
    space = build_tangent_space(f1_point, [basis_element(sl2, "F")], BOUNDS)
    assert particular_value(space).is_zero()
    section_space = build_section_space(
        f1_point.curve, rep_sl2, f1_point.g, BOUNDS
    )
    assert space.system.dim == section_space.dim


def test_zero_gdot_tangent_space_equals_sections(f1_point, rep_sl2):
    sl2 = rep_sl2.algebra
    space = build_tangent_space(f1_point, [zero_element(sl2)], BOUNDS)
    assert particular_value(space).is_zero()
    assert space.system.dim == 1
    assert basis_values(space.system)[0] == XVector([1, 0])


def test_deep_pole_reported_infeasible(f1_point, rep_sl2):
    """On a point of its own: each bound change replaces the point's
    system, which the module's ``f1_point`` keeps for the other tests."""
    point = make_y_point(f1_point.curve, rep_sl2, f1_point.g, f1_point.s_circ)
    sl2 = rep_sl2.algebra
    g_dot = [(U ** -3) * basis_element(sl2, "F")]
    with pytest.raises(Infeasible):
        build_tangent_space(point, g_dot, SolverBounds(degree=0, pole_order=0))
    # the same direction becomes solvable once the bounds grow
    space = build_tangent_space(point, g_dot, SolverBounds(degree=2, pole_order=0))
    t = make_y_tangent(point, g_dot, particular_value(space))
    v = t.s_prime_dot[0].coords[1].valuation()
    assert v is None or v >= 0


def test_sampling_determinism_and_nonzero(f1_point, rep_sl2):
    space = build_section_space(f1_point.curve, rep_sl2, f1_point.g, BOUNDS)
    s1 = sample_vector(space, SeedStream(42))
    s2 = sample_vector(space, SeedStream(42))
    assert s1 == s2
    assert not s1.is_zero()
    assert s1 != sample_vector(space, SeedStream(43)) or True  # different seed may collide


def test_sample_dispatches_on_the_space(f1_point, rep_sl2):
    space = build_section_space(f1_point.curve, rep_sl2, f1_point.g, BOUNDS)
    assert sample(space, 7) == sample_vector(space, SeedStream("sample", 7))
    # a list of values is summed as values, with the draws of the coefficient path
    assert sample(basis_values(space), SeedStream(3)) == sample_vector(space, SeedStream(3))
    tangents = build_tangent_space(f1_point, [basis_element(rep_sl2.algebra, "F")], BOUNDS)
    assert sample(tangents, 7) == sample_affine(tangents, SeedStream("sample", 7))


def test_sampling_empty_space_gives_zero_and_draws_nothing(curve_one_point, rep_sl2):
    space = build_section_space(
        curve_one_point, rep_sl2, [LoopGroupElement.identity(2)], BOUNDS
    )
    assert space.dim == 0
    rng = SeedStream(1)
    assert sample_vector(space, rng) == zero_vector(2)
    assert rng._counter == 0


# ---------------------------------------------------------------------------
# Higgs-side spaces
# ---------------------------------------------------------------------------


def test_higgs_field_space_matches_transition(curve_one_point, twisted_bundle):
    sl2 = builtin_rep("sl2-standard").algebra
    fields = build_higgs_field_space(curve_one_point, sl2, twisted_bundle, BOUNDS)
    assert fields.dim >= 1
    for phi in basis_values(fields):
        # every basis field must produce regular disk data
        make_higgs_point(curve_one_point, sl2, twisted_bundle, phi)


def test_higgs_tangent_space_solutions_are_valid(curve_one_point, twisted_bundle):
    sl2 = builtin_rep("sl2-standard").algebra
    phi = GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0])
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


def _one_shot(system, rows, rhs):
    """Solve [A | b] in one go, as a fresh system: A (the system's assembled
    ``rows``, by key) gets a zero row for each polar coefficient of rhs it
    has no row for.  Returns (matrix, dense b, null basis, particular or
    None, whether rhs had such a row)."""
    effect = {}
    for i, germs in enumerate(rhs):
        for row, germ in enumerate(germs):
            for e, triple in _polar(germ):
                effect[(i, row, e)] = triple
    ncols = system.rep.dim * system.candidates.size
    keys = sorted(set(rows) | set(effect))
    matrix = dense_rows([rows.get(k, {}) for k in keys], ncols)
    b = [effect.get(k, _triple(0)) for k in keys]
    elimination = DenseElimination(matrix, ncols)
    part = elimination.solve(_column(b))
    return matrix, b, elimination.null_basis, part, not set(effect) <= set(rows)


def _random_point(side, rep, curve, bounds, rng):
    """A point over a random bundle, carrying the space it was sampled
    from, and that space's assembled rows by key."""
    algebra = rep.algebra
    g = [random_cocycle(algebra.n, CocycleRecipe(), rng.child("g", i)) for i in range(curve.n_points)]
    if side == "section":
        space = build_section_space(curve, rep, g, bounds)
        point = make_y_point(curve, rep, g, sample_vector(space, rng.child("s")), space)
    else:
        space = build_higgs_field_space(curve, algebra, g, bounds)
        point = make_higgs_point(curve, algebra, g, sample_vector(space, rng.child("phi")), space)
    frame = [[space.rep.column(g_i, k) for k in range(space.rep.dim)] for g_i in g]
    full = [(0, space.candidates.size - 1)] * space.rep.dim
    keys, rows, _ = assemble(space.candidates, frame, space.rep.weight, full)
    return point, space, dict(zip(keys, rows))


def _rhs(point, g_dot):
    """``polar_rhs`` at a section or Higgs-field point."""
    disk = point.s_prime if isinstance(point, YPoint) else point.phi_prime
    return polar_rhs(point.rep, g_dot, disk)


def _tangent_rhs(side, point, g_dot):
    """The germs whose polar parts the tangent system prescribes at each
    disk: rho(gdot_i) s'_i, or the sl_n coordinates of the dense
    commutator [gdot_i, phi'_i] (the rows of the Higgs frame)."""
    n = point.curve.n_points
    if side == "section":
        return [inf_action(point.rep, g_dot[i], point.s_prime[i]).coords for i in range(n)]
    algebra = point.algebra
    return [
        tuple(algebra.expand_in_basis(commutator(g_dot[i].mat, point.phi_prime[i].mat)))
        for i in range(n)
    ]


def _polar_rhs(germs):
    """The input of ``TwistedSystem.particular``: per disk, {row: {e: triple}}
    of the non-zero polar coefficients of each germ."""
    return [
        {row: dict(_polar(germ)) for row, germ in enumerate(disk) if _polar(germ)}
        for disk in germs
    ]


def _nonzero(rhs):
    """rhs with its zero coefficients and empty rows dropped."""
    out = []
    for disk in rhs:
        rows = {row: {e: t for e, t in c.items() if not K.gq_is_zero(t)} for row, c in disk.items()}
        out.append({row: c for row, c in rows.items() if c})
    return out


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
                point, system, rows = _random_point(side, rep, curve, bounds, rng.child("bundle", b))
                for d in range(6):
                    sub = rng.child("bundle", b, "g_dot", d)
                    g_dot = [
                        random_loop_algebra(rep.algebra, GdotRecipe(pole_order=3), sub.child(i))
                        for i in range(curve.n_points)
                    ]
                    germs = _tangent_rhs(side, point, g_dot)
                    matrix, vector, null, part, extra = _one_shot(system, rows, germs)
                    assert system.null_vectors == [sparse_vector(v) for v in null]
                    assert basis_values(system) == [system._combine(sparse_vector(v)) for v in null]
                    rhs = _polar_rhs(germs)
                    assert _nonzero(_rhs(point, g_dot)) == rhs
                    # the factored solve gives the one-shot solution's coefficients
                    assert system.particular(rhs) == (None if part is None else sparse_vector(part))
                    try:
                        space = build(point, g_dot, bounds)
                        feasible = True
                    except Infeasible:
                        feasible = False
                    assert point.system is system
                    assert feasible == (part is not None)
                    if feasible:
                        # the tangent space shares the point's system
                        assert space.system is system
                        assert space.coefficients == sparse_vector(part)
                        assert particular_value(space) == system._combine(sparse_vector(part))
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
                dense = dense_rows(rows.values(), system.rep.dim * system.candidates.size)
                for v in null:
                    assert all(x.is_zero() for x in _apply(dense, v))
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("bounds", [BOUNDS, SolverBounds(2, 2)], ids=["4-4", "2-2"])
def test_coordinate_rows_match_the_entry_row_oracle(curve_one_point, curve_two_points, bounds):
    """The Higgs-field system keyed by sl_n coordinates has n^2 - 1 rows
    per disk and exponent where the oracle keyed by matrix entries has
    n^2; the coordinates are an invertible constant image of the entries,
    so both give the same dimension, basis and particular solutions, and
    the same None where a tangent is infeasible.  Under bounds (2, 2)
    some polar coefficients of the right side lie in no row."""
    kinds = {"feasible": 0, "infeasible": 0, "no row": 0}
    for rep_name in ("sl2-standard", "sl3-cotangent"):
        rep = builtin_rep(rep_name)
        algebra = rep.algebra
        for curve in (curve_one_point, curve_two_points):
            rng = SeedStream("entry-rows", rep_name, curve.n_points, bounds.degree)
            for b in range(3):
                point, system, _ = _random_point("higgs", rep, curve, bounds, rng.child("bundle", b))
                oracle = entry_higgs_system(curve, algebra, point.g, bounds)
                assert system.dim == oracle.dim
                assert basis_values(system) == basis_values(oracle)
                assert system.counts["rank"] == oracle.counts["rank"]
                assert system.counts["rows"] < oracle.counts["rows"]
                for d in range(4):
                    sub = rng.child("bundle", b, "g_dot", d)
                    g_dot = [
                        random_loop_algebra(algebra, GdotRecipe(pole_order=3), sub.child(i))
                        for i in range(curve.n_points)
                    ]
                    rhs = entry_higgs_rhs(point, g_dot)
                    part = system.particular(_rhs(point, g_dot))
                    assert part == oracle.particular(rhs)
                    kinds["feasible" if part is not None else "infeasible"] += 1
                    kinds["no row"] += any(
                        (i, row, e) not in oracle._row_index
                        for i, disk in enumerate(_nonzero(rhs))
                        for row, coefficients in disk.items()
                        for e in coefficients
                    )
    assert kinds["feasible"] and kinds["infeasible"], kinds
    assert kinds["no row"] or bounds == BOUNDS, kinds


def _three_point_curve():
    """Marked at {0, 1, inf} with T = u(u-1), u(u+1), i(1-u)/u: at the
    point 1 every germ has a pole off u = 0, so none is Laurent."""
    alpha = OneForm(RatFunc(1, [0, 0, 1, -2, 1]))  # dz / (z^2 (z-1)^2)
    transitions = [U * (U - 1), U * (U + 1), GaussRat(0, 1) * (1 - U) / U]
    return MarkedCurve([P1Point.finite(0), P1Point.finite(1), INFINITY], alpha, transitions)


@pytest.mark.parametrize("side", ["section", "higgs"])
def test_polar_rhs_matches_window_of_the_full_germs(curve_two_points, side):
    """polar_rhs reads the polar coefficients of rho(gdot_i) s'_i and
    [gdot_i, phi'_i] off windows of the factors; the oracle forms each
    germ whole (the dense commutator on the Higgs side) and expands it."""
    bounds = SolverBounds(2, 2)
    finite = nonzero = 0
    for curve in (curve_two_points, _three_point_curve()):
        for rep_name in ("sl2-standard", "sl3-cotangent"):
            rep = builtin_rep(rep_name)
            algebra = rep.algebra
            rng = SeedStream("polar-rhs", side, rep_name, curve.n_points)
            # a bundle with a non-zero section or Higgs field
            for b in range(8):
                point, system, _ = _random_point(side, rep, curve, bounds, rng.child("point", b))
                if system.dim:
                    break
            for d in range(4):
                sub = rng.child("g_dot", d)
                g_dot = [
                    random_loop_algebra(algebra, GdotRecipe(terms=2 + d, pole_order=3), sub.child(i))
                    for i in range(curve.n_points)
                ]
                if d == 3:
                    # a coefficient that is not a Laurent polynomial
                    coeffs = list(g_dot[0].coeffs)
                    coeffs[d % algebra.dim] = (U + 2) / (U ** 2 * (U - 3))
                    g_dot[0] = algebra.element_from(coeffs)
                germs = _tangent_rhs(side, point, g_dot)
                assert _nonzero(_rhs(point, g_dot)) == _polar_rhs(germs)
                finite += any(g._k < 0 and g.valuation() is not None and g.valuation() < 0
                              for disk in germs for g in disk)
                nonzero += any(_polar_rhs(germs))
    assert finite >= 2 and nonzero >= 8


def test_tangent_builder_keeps_one_system_per_bounds(f1_point, rep_sl2):
    point = make_y_point(f1_point.curve, rep_sl2, f1_point.g, f1_point.s_circ)
    assert point.system is None
    g_dot = [basis_element(rep_sl2.algebra, "F")]
    build_tangent_space(point, g_dot, BOUNDS)
    system = point.system
    assert system is not None and system.bounds == BOUNDS
    build_tangent_space(point, g_dot, BOUNDS)
    assert point.system is system
    build_tangent_space(point, g_dot, SolverBounds(degree=2, pole_order=0))
    assert point.system.bounds == SolverBounds(degree=2, pole_order=0)


# ---------------------------------------------------------------------------
# one factored system per bundle: the candidate space's last system per weight
# ---------------------------------------------------------------------------


def _build(side, curve, rep, g, bounds):
    if side == "section":
        return build_section_space(curve, rep, g, bounds)
    return build_higgs_field_space(curve, rep.algebra, g, bounds)


def _memo_sides(side, curve, rep, g, system, rng):
    """Right sides for ``particular``: the polar data of eight random
    g_dot at a point sampled from the system, poles deep enough that
    some have no solution, then one with a polar coefficient that lies
    in no row of any system."""
    if side == "section":
        point = make_y_point(curve, rep, g, sample_vector(system, rng.child("s")), system)
    else:
        point = make_higgs_point(curve, rep.algebra, g, sample_vector(system, rng.child("phi")), system)
    sides = []
    for d in range(8):
        sub = rng.child("g_dot", d)
        g_dot = [
            random_loop_algebra(rep.algebra, GdotRecipe(pole_order=8), sub.child(i))
            for i in range(curve.n_points)
        ]
        sides.append(_rhs(point, g_dot))
    sides.append([{0: {-99: K.GQ_ONE}}] + [{}] * (curve.n_points - 1))
    return sides


def _assert_same_system(system, fresh, sides):
    assert system.null_vectors == fresh.null_vectors
    assert system.counts == fresh.counts
    assert [system.particular(b) for b in sides] == [fresh.particular(b) for b in sides]


@pytest.mark.parametrize("fixture, side", [("f1.json", "section"), ("f2.json", "higgs")])
def test_same_bundle_built_twice_shares_one_elimination(fixtures_dir, fixture, side):
    """The second build of a bundle on one curve reuses the first one's
    elimination, and answers as a build on a fresh curve object does,
    feasible and infeasible right sides alike."""
    scenario = load_scenario(str(fixtures_dir / fixture))
    other = load_scenario(str(fixtures_dir / fixture))
    curve, rep, g, bounds = scenario.curve, scenario.rep, scenario.bundle, scenario.bounds
    first = _build(side, curve, rep, g, bounds)
    second = _build(side, curve, rep, g, bounds)
    assert second is not first and second.elimination is first.elimination
    fresh = _build(side, other.curve, other.rep, other.bundle, other.bounds)
    assert fresh.elimination is not first.elimination
    sides = _memo_sides(side, curve, rep, g, second, SeedStream("memo", fixture))
    feasible = [second.particular(b) is not None for b in sides]
    assert True in feasible and False in feasible[:-1] and not feasible[-1]
    _assert_same_system(second, fresh, sides)


@pytest.mark.parametrize("side", ["section", "higgs"])
def test_a_bundle_after_another_factors_again(fixtures_dir, side):
    """Bundles A, B, A in turn on one two-point curve, B equal to A at
    disk 0: each build factors its own system, and each equals a build
    on a fresh curve object; a fourth build of A reuses the third's."""
    path = str(fixtures_dir / "f2.json")
    scenario = load_scenario(path)
    curve, rep, bounds = scenario.curve, scenario.rep, scenario.bounds
    rng = SeedStream("memo", "a-b-a", side)
    n = rep.algebra.n
    a = [random_cocycle(n, CocycleRecipe(), rng.child("g", i)) for i in range(curve.n_points)]
    b = [a[0], random_cocycle(n, CocycleRecipe(), rng.child("g", "b"))]
    systems = [_build(side, curve, rep, g, bounds) for g in (a, b, a)]
    assert len({id(system.elimination) for system in systems}) == 3
    assert (systems[0].counts, systems[0].null_vectors) != (systems[1].counts, systems[1].null_vectors)
    sides = _memo_sides(side, curve, rep, a, systems[0], rng.child("sides"))
    for g, system in zip((a, b, a), systems):
        _assert_same_system(system, _build(side, load_scenario(path).curve, rep, g, bounds), sides)
    assert _build(side, curve, rep, a, bounds).elimination is systems[2].elimination


def test_section_and_higgs_builds_never_share(fixtures_dir):
    """Section and Higgs-field builds of one bundle alternate on one curve
    and bounds: each side keeps its own system, and the two never share."""
    scenario = load_scenario(str(fixtures_dir / "f2.json"))
    curve, rep, g, bounds = scenario.curve, scenario.rep, scenario.bundle, scenario.bounds
    built = [_build(side, curve, rep, g, bounds) for side in ("section", "higgs") * 3]
    sections, fields = built[0::2], built[1::2]
    assert all(system.elimination is sections[0].elimination for system in sections)
    assert all(system.elimination is fields[0].elimination for system in fields)
    assert sections[0].elimination is not fields[0].elimination


@pytest.mark.parametrize("fixture, side", [("f1.json", "section"), ("f2.json", "higgs")])
def test_tangent_solves_leave_the_shared_elimination_unchanged(fixtures_dir, fixture, side):
    """Many tangent solves through one system, then a build that shares its
    elimination.  The solves widen the system but change no elimination
    in place: the first one's steps, pivots, null basis and row index
    still equal those of a build on a fresh curve object, the widened one
    equals that build's after the same solves, and every build answers
    with the same null vectors."""
    scenario = load_scenario(str(fixtures_dir / fixture))
    curve, rep, g, bounds = scenario.curve, scenario.rep, scenario.bundle, scenario.bounds
    system = _build(side, curve, rep, g, bounds)
    first, first_index = system.elimination, system._row_index
    sides = _memo_sides(side, curve, rep, g, system, SeedStream("memo", "solves", fixture))
    for _ in range(4):
        for b in sides:
            system.particular(b)
    assert system.elimination is not first
    again = _build(side, curve, rep, g, bounds)
    assert again.elimination is system.elimination
    other = load_scenario(str(fixtures_dir / fixture))
    fresh = _build(side, other.curve, rep, g, bounds)
    own = fresh.elimination
    assert first._steps == own._steps and first._pivot_rows == own._pivot_rows
    assert first.null_basis == own.null_basis and first_index == fresh._row_index
    for b in sides:
        fresh.particular(b)
    shared, own = system.elimination, fresh.elimination
    assert shared._steps == own._steps and shared._pivot_rows == own._pivot_rows
    assert shared.null_basis == own.null_basis and system._row_index == fresh._row_index
    assert again.null_vectors == system.null_vectors == first.null_basis


def test_random_higgs_pair_factors_the_f2_bundle_once(fixtures_dir, monkeypatch):
    """20 seed-1 cartan pairs on f2's one bundle construct four
    eliminations: the bundle's certified columns, then three widenings for
    tangent right sides with deeper poles, each kept for the pairs after
    it and holding every column of the one before."""
    made = []

    class Counting(Elimination):
        __slots__ = ()

        def __init__(self, matrix, columns):
            super().__init__(matrix, columns)
            made.append(self)

    monkeypatch.setattr(solver, "Elimination", Counting)
    scenario = load_scenario(str(fixtures_dir / "f2.json"))
    root = SeedStream("cartan-suite", 1)
    for t in range(20):
        suites.random_higgs_pair(scenario, root.child("trial", t))
    assert len(made) == 4
    widths = [e.ncols for e in made]
    assert widths == sorted(set(widths))


def _group_elements():
    c = GaussRat(Fraction(1, 2), 1) * U
    t = torus(3, [1, 1, -2])
    e = elementary(3, 1, 3, c)
    f = elementary(3, 2, 1, U ** -1)
    return {"torus": t, "elementary": e, "product": t * e * f * torus(3, [-1, 0, 1])}


@pytest.mark.parametrize("name", ["torus", "elementary", "product"])
def test_inverse_holds_the_two_matrices_swapped(name):
    """g is built with g^-1, and g.inverse() shares both matrices, swapped."""
    g = _group_elements()[name]
    inv = g.inverse()
    assert inv.mat is g.inv and inv.inv is g.mat
    one = LoopGroupElement.identity(3)
    assert g * inv == one and inv * g == one
    assert (g * inv).mat == identity(3)


def test_theorem_trials_leave_no_group_element_in_cycles(fixtures_dir):
    """With the cyclic collector off and every collected object saved, a
    few seed-1 theorem trials on f1 and f3 leave no LoopGroupElement for
    it: an element and its inverse are freed by reference counting."""
    scenarios = [load_scenario(str(fixtures_dir / f)) for f in ("f1.json", "f3.json")]
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for scenario in scenarios:
            root = SeedStream("random-suite", 1)
            for t in range(4):
                g = build_instance(scenario, root.child("trial", t)).point.g
                # an inverse shares the element's matrices and links to no element
                assert all(g_i.inverse().inverse().mat is g_i.mat for g_i in g)
        del g
        gc.collect()
        cyclic = [x for x in gc.garbage if isinstance(x, LoopGroupElement)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == []


@pytest.mark.parametrize("name", ["torus", "elementary", "product"])
def test_conjugated_basis_is_the_untwisted_higgs_transport(name):
    """Each column of the coadjoint representation is g^-1 b_a g by the
    dense oracle, as its non-zero coordinates, which the transport and the
    Higgs frame read (``Coadjoint.column``) and which give back the
    oracle's matrix; it is formed once per index and kept in ``g.images``
    under the index, beside a section representation's table."""
    g = _group_elements()[name]
    algebra = MatrixLieAlgebra.sl(3)
    rep = Coadjoint(algebra)
    for a, b in enumerate(algebra.basis):
        column = rep.column(g, a)
        assert rep.column(g, a) is column
        assert Coadjoint(MatrixLieAlgebra.sl(3)).column(g, a) is column
        want = coadjoint_transition(g, CoadjointElement(algebra, b))
        assert column == tuple((k, c) for k, c in enumerate(want.coeffs) if not c.is_zero())
        coords = [RatFunc.const(0)] * algebra.dim
        for k, c in column:
            coords[k] = c
        assert algebra.combination(coords) == want.mat
    assert sorted(g.images) == list(range(algebra.dim))
    builtin_rep("sl3-cotangent").column(g, 0)
    assert list(g.images) == [*range(algebra.dim), (False, True)]
    # products and inverses start with an empty table
    assert (g * g).images == {}
    assert g.inverse().images == {}
    with pytest.raises(ShapeError):
        Coadjoint(MatrixLieAlgebra.sl(2)).column(g, 0)

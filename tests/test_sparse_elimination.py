"""The sparse Gauss-Jordan eliminator against the dense Bareiss one it replaced.

``BareissElimination`` below is the fraction-free Bareiss elimination over
Z[i] that ``linalg.Elimination`` used before: rows scaled to Z[i] by the
lcm of their denominators, row swaps, the uniform Bareiss update on every
row below each pivot, the steps replayed on a scaled right side and a
back-substitution over Q(i).  Both choose the leftmost column basis as
pivot columns, so the null vector with a unit free coordinate, the
solution with free coordinates 0 and the decision that a right side is
inconsistent must agree exactly, on:

- seeded systems shaped like the benchmark's (12-47 rows, 14/27/42
  columns, 3-12% non-zero, entries of at most 3 bits);
- systems that lose rank: duplicated and scaled rows, zero rows and
  zero columns;
- consistent and inconsistent right sides, with entries past the rows
  of A;
- the systems and right sides the seed-1 trials of theorem-f1,
  theorem-f3 and cartan-f2 build, over the columns each one assembles.

The matrices here are dense; ``helpers.DenseElimination`` hands their
sparse rows to ``linalg.Elimination`` and reads its null vectors and
solutions back dense.  Every system of the benchmark's seed-1 trials is
also eliminated by the dense-input echelon kernel that the indexed one
replaced (``helpers.dense_zi_echelon``), for the same steps and reduced
rows.
"""

from math import gcd

import pytest
from helpers import DenseElimination, dense_rows, dense_zi_echelon

from higgsres import GaussRat, load_scenario, solver, suites
from higgsres import _kernels as K
from higgsres.linalg import Elimination
from higgsres.solver import SeedStream

# ---------------------------------------------------------------------------
# the dense reference: fraction-free Bareiss over Z[i]
# ---------------------------------------------------------------------------


def _zi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _zi_divexact(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) // n, (x[1] * y[0] - x[0] * y[1]) // n)


def _bareiss_echelon(rows, npivot):
    """In-place Bareiss echelon of a Z[i] matrix; steps (row, col, swap, pivot, multipliers)."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    steps = []
    prev = (1, 0)
    r = 0
    for col in range(npivot):
        piv = -1
        for i in range(r, m):
            e = rows[i][col]
            if e[0] != 0 or e[1] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pc = pr[col]
        multipliers = [rows[i][col] for i in range(r + 1, m)]
        for i in range(r + 1, m):
            ri = rows[i]
            ric = ri[col]
            if ric[0] == 0 and ric[1] == 0:
                for j in range(col + 1, ncols):
                    e = ri[j]
                    if e[0] != 0 or e[1] != 0:
                        if prev == (1, 0):
                            ri[j] = _zi_mul(pc, e)
                        else:
                            ri[j] = _zi_divexact(_zi_mul(pc, e), prev)
                continue
            for j in range(col + 1, ncols):
                num = (
                    pc[0] * ri[j][0] - pc[1] * ri[j][1] - ric[0] * pr[j][0] + ric[1] * pr[j][1],
                    pc[0] * ri[j][1] + pc[1] * ri[j][0] - ric[0] * pr[j][1] - ric[1] * pr[j][0],
                )
                if prev == (1, 0):
                    ri[j] = num
                else:
                    n = prev[0] * prev[0] + prev[1] * prev[1]
                    ri[j] = (
                        (num[0] * prev[0] + num[1] * prev[1]) // n,
                        (num[1] * prev[0] - num[0] * prev[1]) // n,
                    )
            ri[col] = (0, 0)
        steps.append((r, col, piv, pc, multipliers))
        prev = pc
        r += 1
        if r == m:
            break
    return steps


def _bareiss_replay(steps, column):
    prev = (1, 0)
    for r, _, swap, pc, multipliers in steps:
        if swap != r:
            column[r], column[swap] = column[swap], column[r]
        x = column[r]
        x_zero = x[0] == 0 and x[1] == 0
        n = prev[0] * prev[0] + prev[1] * prev[1]
        for i, mul in enumerate(multipliers, r + 1):
            e = column[i]
            if e[0] == 0 and e[1] == 0 and (x_zero or (mul[0] == 0 and mul[1] == 0)):
                continue
            num = (
                pc[0] * e[0] - pc[1] * e[1] - mul[0] * x[0] + mul[1] * x[1],
                pc[0] * e[1] + pc[1] * e[0] - mul[0] * x[1] - mul[1] * x[0],
            )
            if prev == (1, 0):
                column[i] = num
            else:
                column[i] = (
                    (num[0] * prev[0] + num[1] * prev[1]) // n,
                    (num[1] * prev[0] - num[0] * prev[1]) // n,
                )
        prev = pc


def _row_to_zi(row):
    lcm = 1
    for t in row:
        d = t[2]
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    return lcm, [(a * (lcm // d), b * (lcm // d)) for (a, b, d) in row]


def _value(pair) -> GaussRat:
    return GaussRat.from_triple(K.gq_norm(pair[0], pair[1], 1))


class BareissElimination:
    """The fraction-free elimination ``linalg.Elimination`` used to be."""

    def __init__(self, matrix, ncols: int):
        self.nrows = len(matrix)
        self.ncols = ncols
        rows = []
        self._scales = []
        for row in matrix:
            scale, zi = _row_to_zi(row)
            rows.append(zi)
            self._scales.append(scale)
        self._steps = _bareiss_echelon(rows, ncols)
        self._reduced = []
        for r, c, *_ in reversed(self._steps):
            row = rows[r]
            tail = [(j, _value(row[j])) for j in range(c + 1, ncols) if row[j] != (0, 0)]
            self._reduced.append((r, c, _value(row[c]), tail))
        pivot_cols = {c for _, c, *_ in self._steps}
        self.null_basis = []
        for f in range(ncols):
            if f in pivot_cols:
                continue
            vec = [GaussRat(0)] * ncols
            vec[f] = GaussRat(1)
            for _, c, pivot, tail in self._reduced:
                acc = GaussRat(0)
                for j, a in tail:
                    if not vec[j].is_zero():
                        acc = acc + a * vec[j]
                vec[c] = -acc / pivot
            self.null_basis.append(vec)

    def solve(self, rhs):
        m = self.nrows
        if any(t[0] or t[1] for t in rhs[m:]):
            return None
        den = 1
        for t in rhs[:m]:
            if (t[0] or t[1]) and t[2] != 1:
                den = den * t[2] // gcd(den, t[2])
        column = [
            (t[0] * (den // t[2]) * s, t[1] * (den // t[2]) * s)
            for t, s in zip(rhs[:m], self._scales)
        ]
        _bareiss_replay(self._steps, column)
        if any(x != (0, 0) for x in column[len(self._steps):]):
            return None
        vec = [GaussRat(0)] * self.ncols
        for r, c, pivot, tail in self._reduced:
            re, im = column[r]
            acc = GaussRat.from_triple(K.gq_norm(re, im, den))
            for j, a in tail:
                if not vec[j].is_zero():
                    acc = acc - a * vec[j]
            vec[c] = acc / pivot
        return vec


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

ZERO = K.GQ_ZERO


def _column(rhs):
    """The sparse column {row: triple} of a dense right side; an entry past
    the rows of A keeps its index, past the last row."""
    return {i: t for i, t in enumerate(rhs) if not K.gq_is_zero(t)}


def _dense(column, nrows):
    """The dense right side of a sparse column, long enough for every key."""
    rhs = [ZERO] * max([nrows, *(i + 1 for i in column)])
    for i, t in column.items():
        rhs[i] = t
    return rhs


def _compare(matrix, ncols, rhs_list):
    """Null basis and every solve of both eliminators agree, the sparse one
    given each dense right side as its column; returns the number of
    inconsistent right sides."""
    sparse, dense = DenseElimination(matrix, ncols), BareissElimination(matrix, ncols)
    assert sparse.null_basis == dense.null_basis
    infeasible = 0
    for rhs in rhs_list:
        column = _column(rhs)
        x = sparse.solve(column)
        assert column == _column(rhs)  # the caller's column is left as it is
        assert x == dense.solve(rhs)
        infeasible += x is None
    return infeasible


def _entry(rng):
    """A non-zero Q(i) triple whose parts have at most 3 bits."""
    while True:
        t = K.gq_norm(rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(1, 7))
        if not K.gq_is_zero(t):
            return t


def _sparse_matrix(rng, nrows, ncols, percent):
    rows = [[ZERO] * ncols for _ in range(nrows)]
    for _ in range(max(1, nrows * ncols * percent // 100)):
        rows[rng.randint(0, nrows - 1)][rng.randint(0, ncols - 1)] = _entry(rng)
    return rows


def _image(matrix, x):
    """A x, for x given as {column: triple}."""
    out = []
    for row in matrix:
        acc = ZERO
        for j, t in x.items():
            if not K.gq_is_zero(row[j]):
                acc = K.gq_add(acc, K.gq_mul(row[j], t))
        out.append(acc)
    return out


def _right_sides(rng, matrix, ncols):
    """Consistent sides A x, random sparse sides (mostly inconsistent when
    A loses rank), the zero side, and sides with entries past the rows."""
    nrows = len(matrix)
    sides = [[ZERO] * nrows]
    for _ in range(3):
        x = {rng.randint(0, ncols - 1): _entry(rng) for _ in range(rng.randint(1, 4))}
        sides.append(_image(matrix, x))
    for _ in range(3):
        b = [ZERO] * nrows
        for _ in range(rng.randint(1, 4)):
            b[rng.randint(0, nrows - 1)] = _entry(rng)
        sides.append(b)
    sides.append(sides[1] + [ZERO, ZERO])
    sides.append(sides[1] + [ZERO, _entry(rng)])
    return sides


def test_workload_shaped_systems_match_dense():
    rng = SeedStream("sparse-elimination", "shaped")
    infeasible = total = 0
    for trial in range(36):
        ncols = (14, 27, 42)[trial % 3]
        nrows = rng.randint(12, 47)
        matrix = _sparse_matrix(rng, nrows, ncols, rng.randint(3, 12))
        sides = _right_sides(rng, matrix, ncols)
        infeasible += _compare(matrix, ncols, sides)
        total += len(sides)
    # both outcomes are exercised
    assert 0 < infeasible < total


def test_rank_loss_matches_dense():
    rng = SeedStream("sparse-elimination", "rank-loss")
    for trial in range(24):
        ncols = (14, 27, 42)[trial % 3]
        matrix = _sparse_matrix(rng, rng.randint(12, 30), ncols, 12)
        for _ in range(3):
            # a duplicated row and a scaled copy of another
            matrix.append(list(matrix[rng.randint(0, len(matrix) - 1)]))
            c = _entry(rng)
            matrix.append([K.gq_mul(c, t) for t in matrix[rng.randint(0, len(matrix) - 1)]])
        for _ in range(2):
            # a zero column and a zero row
            j = rng.randint(0, ncols - 1)
            for row in matrix:
                row[j] = ZERO
            matrix.insert(rng.randint(0, len(matrix)), [ZERO] * ncols)
        # rows in a random order, so pivots are not taken in row order
        order = sorted(range(len(matrix)), key=lambda _: rng.randint(0, 10**6))
        matrix = [matrix[i] for i in order]
        elimination = DenseElimination(matrix, ncols)
        assert len(elimination.null_basis) >= 2
        _compare(matrix, ncols, _right_sides(rng, matrix, ncols))


def test_degenerate_shapes_match_dense():
    one, i = K.GQ_ONE, K.GQ_I
    cases = [
        ([], 3),
        ([[ZERO] * 4] * 3, 4),
        ([[one, ZERO], [ZERO, i]], 2),
        ([[one, one], [K.gq_neg(one), K.gq_neg(one)]], 2),
        ([[ZERO, i, one], [ZERO, one, K.gq_neg(i)]], 3),
    ]
    for matrix, ncols in cases:
        nrows = len(matrix)
        sides = [[ZERO] * nrows, [one] * nrows, [one] * nrows + [i]]
        _compare(matrix, ncols, sides)


# ---------------------------------------------------------------------------
# the seed-1 systems of the benchmark's workloads
# ---------------------------------------------------------------------------


class _Recording(Elimination):
    """An Elimination that records its matrix and every right side, dense;
    the matrix has one dense column per column of the system, in order."""

    __slots__ = ("log",)
    records = []

    def __init__(self, matrix, columns):
        super().__init__(matrix, columns)
        position = {c: j for j, c in enumerate(columns)}
        rows = [{position[c]: t for c, t in row.items()} for row in matrix]
        self.log = (dense_rows(rows, len(columns)), len(columns), [])
        _Recording.records.append(self.log)

    def solve(self, column):
        self.log[2].append(_dense(column, self.nrows))
        return super().solve(column)


@pytest.mark.parametrize(
    "fixture, stream, trials",
    [("f1.json", "random-suite", 10), ("f3.json", "random-suite", 4), ("f2.json", "cartan-suite", 6)],
)
def test_workload_seed1_systems_match_dense(fixtures_dir, monkeypatch, fixture, stream, trials):
    scenario = load_scenario(str(fixtures_dir / fixture))
    monkeypatch.setattr(solver, "Elimination", _Recording)
    monkeypatch.setattr(_Recording, "records", [])
    root = SeedStream(stream, 1)
    for t in range(trials):
        if stream == "random-suite":
            suites.build_instance(scenario, root.child("trial", t))
        else:
            suites.random_higgs_pair(scenario, root.child("trial", t))
    records = _Recording.records
    assert records and any(sides for *_, sides in records)
    infeasible = sum(_compare(matrix, ncols, sides) for matrix, ncols, sides in records)
    # the retries after an infeasible tangent draw are among them
    assert infeasible


@pytest.mark.parametrize(
    "fixture, stream, trials",
    [
        ("f1.json", "random-suite", 50),
        ("f3.json", "random-suite", 20),
        ("f2.json", "cartan-suite", 20),
    ],
)
def test_workload_seed1_echelons_match_dense_input_kernel(
    fixtures_dir, monkeypatch, fixture, stream, trials
):
    """Every system of the trials of one traced benchmark round (theorem-f1,
    theorem-f3, cartan-f2 at seed 1): the indexed kernel on the assembled
    sparse rows takes the steps of the dense-input oracle on the same rows
    written dense, and leaves the same reduced rows.  A build whose frame
    equals the last one's reuses its elimination, so cartan-f2's one
    bundle is eliminated once for its 20 builds, and again only when a
    tangent widens it."""
    scenario = load_scenario(str(fixtures_dir / fixture))
    kernel = K.zi_echelon
    systems = []
    built = []
    init = solver.TwistedSystem.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self.elimination)

    def checked(rows, npivot):
        # every column is searched: the solver carries no trailing column
        expected = dense_rows(rows, npivot)
        expected_steps = dense_zi_echelon(expected, npivot)
        steps = kernel(rows, npivot)
        assert steps == expected_steps
        assert rows == expected
        systems.append(len(steps))
        return steps

    monkeypatch.setattr(K, "zi_echelon", checked)
    monkeypatch.setattr(solver.TwistedSystem, "__init__", recorded)
    root = SeedStream(stream, 1)
    for t in range(trials):
        if stream == "random-suite":
            suites.build_instance(scenario, root.child("trial", t))
        else:
            suites.random_higgs_pair(scenario, root.child("trial", t))
    # 97, 28 and 20 systems built; 16 of f1's keep no column and share the
    # one empty elimination, and f2's 20 builds of one bundle share 2
    assert len(built) == {"f1.json": 97, "f3.json": 28, "f2.json": 20}[fixture]
    assert sum(e.ncols == 0 for e in built) == {"f1.json": 16, "f3.json": 0, "f2.json": 0}[fixture]
    assert len({id(e) for e in built}) == {"f1.json": 82, "f3.json": 28, "f2.json": 2}[fixture]
    # 139, 66 and 4 eliminations: one per build with a column (81, 28 and
    # 1), the others widenings for tangent right sides with deeper poles
    assert len(systems) == {"f1.json": 139, "f3.json": 66, "f2.json": 4}[fixture]
    assert any(systems)

"""The sparse Gauss-Jordan eliminator against the dense Bareiss one it replaced.

``DenseElimination`` below is the fraction-free Bareiss elimination over
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
  theorem-f3 and cartan-f2 build.
"""

from math import gcd

import pytest

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


class DenseElimination:
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


def _compare(matrix, ncols, rhs_list, kinds=None):
    """Null basis and every solve of both eliminators agree; returns the
    number of inconsistent right sides."""
    sparse, dense = Elimination(matrix, ncols), DenseElimination(matrix, ncols)
    assert sparse.null_basis == dense.null_basis
    infeasible = 0
    for rhs in rhs_list:
        x = sparse.solve(rhs)
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
        elimination = Elimination(matrix, ncols)
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
    """An Elimination that records its matrix and every right side."""

    __slots__ = ("log",)
    records = []

    def __init__(self, matrix, ncols):
        super().__init__(matrix, ncols)
        self.log = (matrix, ncols, [])
        _Recording.records.append(self.log)

    def solve(self, rhs):
        self.log[2].append(list(rhs))
        return super().solve(rhs)


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

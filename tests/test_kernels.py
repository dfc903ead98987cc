"""The arithmetic kernels against properties that need no second backend.

The gcd and the scalar and polynomial operations are checked against
independent oracles in ``test_field.py``; here the echelon kernel is
checked for reduced echelon shape, for its pivot columns against an
independent rank computation, and its steps for replay; and against the
dense-input kernel it replaced (``helpers.dense_zi_echelon``), which
finds the rows of a column by testing every row, for the same steps and
reduced rows on systems whose fill-in enters and cancels.
"""

from helpers import dense_zi_echelon, sparse_rows
from test_solver import _pivot_columns

from higgsres._kernels import pure
from higgsres.solver import SeedStream


def test_echelon_shape():
    rng = SeedStream("kernel-echelon")
    kinds = {"pivot out of row order": 0, "cleared above": 0, "trailing": 0}
    for trial in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
        npivot = rng.randint(1, ncols)  # trailing columns carried along
        rows = [[rng.gauss(6, 3)._t for _ in range(ncols)] for _ in range(nrows)]
        if trial >= 40:
            # half the entries zero: pivots out of row order, zero factors
            rows = [[t if rng.randint(0, 1) else pure.GQ_ZERO for t in row] for row in rows]
        original = [list(row) for row in rows]
        rows = sparse_rows(rows)
        steps = pure.zi_echelon(rows, npivot)
        pivots = [(r, c) for r, c, *_ in steps]
        # the pivot columns are the leftmost column basis of the searched columns
        assert [c for _, c in pivots] == _pivot_columns([row[:npivot] for row in original], npivot)
        assert len({r for r, _ in pivots}) == len(pivots)
        # reduced echelon: each pivot column is the unit vector of its pivot row
        for r, c in pivots:
            for i in range(nrows):
                assert rows[i].get(c) == (pure.GQ_ONE if i == r else None)
        # rows that serve no pivot are zero in every searched column
        pivot_rows = {r for r, _ in pivots}
        for i in range(nrows):
            if i not in pivot_rows:
                assert all(j >= npivot for j in rows[i])
        for k, (r, c, inv, targets) in enumerate(steps):
            assert all(i != r and not pure.gq_is_zero(f) for i, f in targets)
            kinds["pivot out of row order"] += k > 0 and r < steps[k - 1][0]
            kinds["cleared above"] += any(i in {s[0] for s in steps[:k]} for i, _ in targets)
        kinds["trailing"] += any(j >= npivot for row in rows for j in row)
        # replaying the steps on any original column, trailing ones
        # included, gives the column the elimination left
        for j in range(ncols):
            column = {i: row[j] for i, row in enumerate(original) if not pure.gq_is_zero(row[j])}
            pure.zi_replay(steps, column)
            assert column == {i: row[j] for i, row in enumerate(rows) if j in row}
        # the entries left are non-zero scalars in normal form
        assert all(t != pure.GQ_ZERO and pure.gq_norm(*t) == t for row in rows for t in row.values())
    assert all(kinds.values()), kinds


def _matches_oracle(matrix, npivot):
    """zi_echelon on the sparse rows of a dense matrix gives the oracle's
    steps and reduced rows; the steps are returned."""
    expected = [list(row) for row in matrix]
    expected_steps = dense_zi_echelon(expected, npivot)
    rows = sparse_rows(matrix)
    steps = pure.zi_echelon(rows, npivot)
    assert steps == expected_steps
    assert rows == expected
    return steps


def test_indexed_echelon_on_hand_cases():
    one, two, i = pure.GQ_ONE, (2, 0, 1), pure.GQ_I
    zero, minus = pure.GQ_ZERO, pure.gq_neg(pure.GQ_ONE)
    # row 1 loses column 1 when column 0 is cleared (fill-in cancels), so
    # column 1 has no unused row left
    steps = _matches_oracle([[one, two, zero], [one, two, i]], 3)
    assert [(r, c) for r, c, *_ in steps] == [(0, 0), (1, 2)]
    # row 1 gains column 1 when column 0 is cleared (fill-in enters) and
    # is its pivot; the last column is trailing
    steps = _matches_oracle([[one, i, zero, one], [two, zero, minus, zero]], 3)
    assert [(r, c) for r, c, *_ in steps] == [(0, 0), (1, 1)]
    # zero rows, a zero column and an empty matrix
    _matches_oracle([[zero, zero, zero], [zero, i, zero], [zero, zero, zero]], 3)
    assert _matches_oracle([], 2) == []


def _cancelling_case(rng):
    """A random matrix with small integer entries, its rows combinations of
    at most three base rows (so it loses rank and fill-in cancels), with a
    zero row and a zero column sometimes, and trailing columns."""
    nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
    npivot = rng.randint(1, ncols)
    small = (pure.GQ_ZERO, pure.GQ_ZERO, pure.GQ_ONE, (-1, 0, 1), (2, 0, 1), pure.GQ_I)
    base = [[rng.choice(small) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(nrows):
        row = [pure.GQ_ZERO] * ncols
        for b in base:
            c = rng.choice(small[1:5])
            row = [pure.gq_add(x, pure.gq_mul(c, y)) for x, y in zip(row, b)]
        rows.append(row)
    if rng.randint(0, 1):
        rows.insert(rng.randint(0, nrows), [pure.GQ_ZERO] * ncols)
    if rng.randint(0, 1):
        j = rng.randint(0, ncols - 1)
        for row in rows:
            row[j] = pure.GQ_ZERO
    return rows, npivot


def test_indexed_echelon_matches_dense_oracle(monkeypatch):
    """Seeded sparse matrices: the indexed kernel takes the oracle's steps
    and leaves its reduced rows.  The kernel's own subtractions are counted
    to show that fill-in cancels to zero (a row leaves the column index)."""
    cancelled = [0]
    sub = pure.gq_sub

    def counted(x, y):
        z = sub(x, y)
        cancelled[0] += not (z[0] or z[1])
        return z

    monkeypatch.setattr(pure, "gq_sub", counted)
    rng = SeedStream("kernel-echelon-oracle")
    kinds = {"rank loss": 0, "zero row": 0, "zero column": 0, "trailing": 0}
    for _ in range(150):
        rows, npivot = _cancelling_case(rng)
        steps = _matches_oracle(rows, npivot)
        ncols = len(rows[0])
        kinds["rank loss"] += len(steps) < min(len(rows), npivot)
        kinds["zero row"] += any(all(pure.gq_is_zero(t) for t in row) for row in rows)
        kinds["zero column"] += any(
            all(pure.gq_is_zero(row[j]) for row in rows) for j in range(ncols)
        )
        kinds["trailing"] += npivot < ncols
    assert all(kinds.values()), kinds
    assert cancelled[0]

"""The arithmetic kernels against properties that need no second backend.

The gcd and the scalar and polynomial operations are checked against
independent oracles in ``test_field.py``; here the echelon kernel is
checked for echelon shape, its steps for replay, and the exact
Gaussian-integer division for round trips.
"""

from higgsres._kernels import pure
from higgsres.solver import SeedStream


def test_echelon_shape():
    rng = SeedStream("kernel-echelon")
    swaps = 0
    for trial in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
        npivot = rng.randint(1, ncols)  # trailing columns carried along
        rows = [
            [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if trial >= 40:
            # half the entries zero: row swaps and zero multipliers
            rows = [[e if rng.randint(0, 1) else (0, 0) for e in row] for row in rows]
        original = [list(row) for row in rows]
        steps = pure.zi_echelon(rows, npivot)
        pivots = [(r, c) for r, c, *_ in steps]
        # pivots step down and right; below each pivot the column is zero
        assert [r for r, _ in pivots] == list(range(len(pivots)))
        assert [c for _, c in pivots] == sorted({c for _, c in pivots})
        for r, c in pivots:
            assert c < npivot
            assert rows[r][c] != (0, 0)
            for i in range(r + 1, nrows):
                assert rows[i][c] == (0, 0)
        # rows past the last pivot are zero in every pivot-searched column
        for row in rows[len(pivots):]:
            assert row[:npivot] == [(0, 0)] * npivot
        # replaying the steps on any original column gives the column the
        # elimination left: the swaps, pivots and multipliers are all kept
        for r, c, swap, pivot, multipliers in steps:
            assert r <= swap < nrows and pivot == rows[r][c]
            assert len(multipliers) == nrows - r - 1
            swaps += swap != r
        for j in range(ncols):
            column = [row[j] for row in original]
            pure.zi_replay(steps, column)
            assert column == [row[j] for row in rows]
    assert swaps


def test_pure_divexact_round_trip():
    rng = SeedStream("kernel-divexact")
    for _ in range(100):
        x = (rng.randint(-30, 30), rng.randint(-30, 30))
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        if y == (0, 0):
            continue
        prod = pure.zi_mul(x, y)
        assert pure.zi_divexact(prod, y) == x

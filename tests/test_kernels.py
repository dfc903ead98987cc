"""The arithmetic kernels against properties that need no second backend.

The gcd and the scalar and polynomial operations are checked against
independent oracles in ``test_field.py``; here the echelon kernel is
checked for reduced echelon shape, for its pivot columns against an
independent rank computation, and its steps for replay.
"""

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

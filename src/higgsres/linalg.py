"""Exact linear algebra over Q(i): the one eliminator of the package.

Systems are given as rows of GaussRat triples.  Each row is scaled to
Z[i] by the lcm of its denominators and the matrix alone is eliminated
fraction-free (Bareiss, ``_kernels.zi_echelon``) with a deterministic
pivot order; the kernel returns its steps.  One ``Elimination`` then
serves any number of right-hand sides: the steps are replayed on the
scaled right side (``_kernels.zi_replay``), whose entries past the rank
decide consistency, before the exact back-substitution over Q(i).
"""

from __future__ import annotations

from math import gcd

from . import _kernels as K
from .field import GaussRat


def _row_to_zi(row):
    """(lcm of the row's denominators, the row scaled by it as Z[i] pairs)."""
    lcm = 1
    for t in row:
        d = t[2]
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    return lcm, [(a * (lcm // d), b * (lcm // d)) for (a, b, d) in row]


def _value(pair) -> GaussRat:
    return GaussRat.from_triple(K.gq_norm(pair[0], pair[1], 1))


class Elimination:
    """One fraction-free elimination of a matrix A, kept for many right sides.

    The rows of A, scaled to Z[i], are eliminated alone, and the kernel's
    steps (row swaps, pivots and the multipliers below each pivot) are
    kept.  A right side is scaled the same way and the steps are replayed
    on it, as if it had been a column of the elimination: it is
    consistent exactly when its entries past the rank vanish, and then
    the rows of rank give the back-substitution.  ``len()`` is the row
    count of A.
    """

    __slots__ = ("nrows", "ncols", "null_basis", "_scales", "_steps", "_reduced")

    def __init__(self, matrix, ncols: int):
        self.nrows = len(matrix)
        self.ncols = ncols
        rows = []
        self._scales = []
        for row in matrix:
            scale, zi = _row_to_zi(row)
            rows.append(zi)
            self._scales.append(scale)
        self._steps = K.zi_echelon(rows, ncols)

        # each pivot row once, last pivot first: (row, pivot column, pivot
        # value, the nonzero (column, value) entries right of the pivot)
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

    def __len__(self) -> int:
        return self.nrows

    def solve(self, rhs):
        """The solution of A x = rhs with every free coordinate 0, or None.

        ``rhs`` holds GaussRat triples; entries past the rows of A stand
        for zero rows of A, so a nonzero one makes the system inconsistent.
        """
        m = self.nrows
        if any(t[0] or t[1] for t in rhs[m:]):
            return None
        # clear the denominators of the right side once: rhs = column / den,
        # with each entry also scaled like its row of A
        den = 1
        for t in rhs[:m]:
            if (t[0] or t[1]) and t[2] != 1:
                den = den * t[2] // gcd(den, t[2])
        column = [
            (t[0] * (den // t[2]) * s, t[1] * (den // t[2]) * s)
            for t, s in zip(rhs[:m], self._scales)
        ]
        K.zi_replay(self._steps, column)
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


def solve_system(elimination: Elimination, ncols: int, rhs_list=()):
    """Nullspace basis and particular solutions of A x = b over Q(i).

    ``elimination`` is the ``Elimination`` of A and ``ncols`` its column
    count; ``rhs_list`` a list of right-hand-side columns (triples, see
    ``Elimination.solve``).  Returns (null_basis, parts) where each basis
    vector is a list of GaussRat and parts[k] is the particular solution
    with free coordinates 0, or None when the k-th system is inconsistent.
    """
    return elimination.null_basis, [elimination.solve(b) for b in rhs_list]

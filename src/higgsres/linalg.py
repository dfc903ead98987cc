"""Exact linear algebra over Q(i): the one eliminator of the package.

Systems are given as rows of GaussRat triples.  Each row is scaled to
Z[i] by the lcm of its denominators and eliminated fraction-free
(Bareiss, ``_kernels.zi_echelon``) with a deterministic pivot order,
beside an identity block that records the row operations.  One
``Elimination`` then serves any number of right-hand sides: a cokernel
test decides consistency, and only the right side is reduced before the
exact back-substitution over Q(i).
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

    The rows of A, scaled to Z[i], are eliminated beside an identity
    block, so every echelon row also carries its Z[i] combination of the
    rows of A (the row scales folded in).  The rows of rank give the
    back-substitution; the others, whose A part vanished, are a basis of
    the cokernel: a right side is consistent exactly when each of them
    annihilates it.  ``len()`` is the row count of A.
    """

    __slots__ = ("nrows", "ncols", "null_basis", "_reduced", "_cokernel")

    def __init__(self, matrix, ncols: int):
        m = len(matrix)
        self.nrows = m
        self.ncols = ncols
        rows = []
        scales = []
        for r, row in enumerate(matrix):
            scale, zi = _row_to_zi(row)
            unit = [(0, 0)] * m
            unit[r] = (1, 0)
            rows.append(zi + unit)
            scales.append(scale)
        pivots = K.zi_echelon(rows, ncols)

        def transform(row):
            return [(a * s, b * s) for (a, b), s in zip(row[ncols:], scales)]

        # each pivot row once, last pivot first: (pivot column, pivot
        # value, the nonzero (column, value) entries right of the pivot,
        # the row's combination of the rows of A)
        self._reduced = []
        for r, c in reversed(pivots):
            row = rows[r]
            tail = [(j, _value(row[j])) for j in range(c + 1, ncols) if row[j] != (0, 0)]
            self._reduced.append((c, _value(row[c]), tail, transform(row)))
        self._cokernel = [transform(rows[r]) for r in range(len(pivots), m)]

        pivot_cols = {c for _, c in pivots}
        self.null_basis = []
        for f in range(ncols):
            if f in pivot_cols:
                continue
            vec = [GaussRat(0)] * ncols
            vec[f] = GaussRat(1)
            for c, pivot, tail, _ in self._reduced:
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
        # clear the denominators of the right side once: rhs = bz / den
        den = 1
        for t in rhs[:m]:
            if (t[0] or t[1]) and t[2] != 1:
                den = den * t[2] // gcd(den, t[2])
        bz = [
            (k, t[0] * (den // t[2]), t[1] * (den // t[2]))
            for k, t in enumerate(rhs[:m])
            if t[0] or t[1]
        ]

        def dot(combination):
            re = im = 0
            for k, x, y in bz:
                a, b = combination[k]
                if a or b:
                    re += a * x - b * y
                    im += a * y + b * x
            return re, im

        if any(dot(y) != (0, 0) for y in self._cokernel):
            return None
        vec = [GaussRat(0)] * self.ncols
        for c, pivot, tail, combination in self._reduced:
            re, im = dot(combination)
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

"""Exact linear algebra over Q(i): the one eliminator of the package.

Systems are given as dense rows of GaussRat triples.  The matrix alone is
brought to reduced row echelon form by sparse Gauss-Jordan elimination on
its non-zeros (``_kernels.zi_echelon``), with a deterministic pivot
order; the kernel returns its steps.  The null basis is read off the
reduced rows.  One ``Elimination`` then serves any number of right-hand
sides: the steps are replayed on the non-zeros of the right side
(``_kernels.zi_replay``), whose entries outside the pivot rows decide
consistency, and the solution is read off the pivot rows.

The pivot columns are the leftmost column basis of A, whichever row
serves as a pivot.  Given them, the null vector with a unit free
coordinate and the solution with every free coordinate 0 are unique, so
neither depends on the elimination order.
"""

from __future__ import annotations

from . import _kernels as K
from .field import GaussRat

_ZERO = GaussRat(0)
_ONE = GaussRat(1)


class Elimination:
    """One Gauss-Jordan elimination of a matrix A, kept for many right sides.

    The rows of A are eliminated alone, and the kernel's steps (per pivot:
    its row, column and inverse, and the rows cleared with their factors)
    are kept.  A right side is replayed through the steps as if it had
    been a column of the elimination: it is consistent exactly when it
    ends zero outside the pivot rows, and then the pivot rows give the
    solution.  ``len()`` is the row count of A.
    """

    __slots__ = ("nrows", "ncols", "null_basis", "_steps", "_pivot_rows")

    def __init__(self, matrix, ncols: int):
        self.nrows = len(matrix)
        self.ncols = ncols
        # the kernel replaces each row of this copy by its reduced row
        rows = list(matrix)
        self._steps = K.zi_echelon(rows, ncols)
        # pivot row -> pivot column
        self._pivot_rows = {r: c for r, c, *_ in self._steps}

        # the null vector of free column f has 1 at f and, at each pivot
        # column, minus the pivot row's entry in column f; a reduced pivot
        # row is zero in every other pivot column
        pivot_cols = set(self._pivot_rows.values())
        basis = {}
        for f in range(ncols):
            if f not in pivot_cols:
                basis[f] = [_ZERO] * ncols
                basis[f][f] = _ONE
        for r, c in self._pivot_rows.items():
            for f, t in rows[r].items():
                if f != c:
                    basis[f][c] = GaussRat.from_triple(K.gq_neg(t))
        self.null_basis = list(basis.values())

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
        column = {i: t for i, t in enumerate(rhs[:m]) if t[0] or t[1]}
        K.zi_replay(self._steps, column)
        pivot_rows = self._pivot_rows
        if any(i not in pivot_rows for i in column):
            return None
        vec = [_ZERO] * self.ncols
        for r, t in column.items():
            vec[pivot_rows[r]] = GaussRat.from_triple(t)
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

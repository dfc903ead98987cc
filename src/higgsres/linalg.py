"""Exact linear algebra over Q(i): the one eliminator of the package.

Systems are given sparse, each row as the dict ``{column: triple}`` of
its non-zero GaussRat triples, with the ascending list of the columns
of the unknowns: a system may use any subset of a wider column space,
and its vectors keep those column indices.  The matrix alone is brought to reduced
row echelon form by sparse Gauss-Jordan elimination on those non-zeros
(``_kernels.zi_echelon``), with a deterministic pivot order; the kernel
returns its steps.  The null basis is read off the reduced rows.  One
``Elimination`` then serves any number of right-hand sides, each given
sparse as the dict ``{row: triple}`` of its non-zeros: the steps are
replayed on it (``_kernels.zi_replay``), its entries outside the pivot
rows decide consistency, and the solution is read off the pivot rows.
Null vectors and solutions are sparse too, as ``{column: GaussRat}``
dicts of their non-zeros.

The pivot columns are the leftmost column basis of A, whichever row
serves as a pivot.  Given them, the null vector with a unit free
coordinate and the solution with every free coordinate 0 are unique, so
neither depends on the elimination order.
"""

from __future__ import annotations

from . import _kernels as K
from .field import GaussRat

_ONE = GaussRat(1)


class Elimination:
    """One Gauss-Jordan elimination of a matrix A, kept for many right sides.

    ``matrix`` is the list of the rows of A as ``{column: triple}`` dicts
    of their non-zeros, and is left as it is; ``columns`` lists the
    columns of the unknowns in ascending order, and the rows have their
    non-zeros there only.  A column that is not a pivot is free, and
    ``ncols`` is the number of columns.  The rows are eliminated
    alone, and the kernel's steps (per pivot: its row, column and inverse,
    and the rows cleared with their factors) are kept.  A right side is
    replayed through the steps as if it had been a column of the
    elimination: it is consistent exactly when it ends zero outside the
    pivot rows, and then the pivot rows give the solution.  ``len()`` is
    the row count of A.

    An elimination is never changed after construction: ``solve`` replays
    the steps on a copy of its column, and nothing writes to
    ``null_basis``.  So one elimination may serve several systems with
    the same matrix (``solver.TwistedSystem`` shares it between the
    builds of one bundle).
    """

    __slots__ = ("nrows", "ncols", "null_basis", "_steps", "_pivot_rows")

    def __init__(self, matrix, columns):
        self.nrows = len(matrix)
        self.ncols = len(columns)
        # the kernel reduces these copies of the rows in place
        rows = [dict(row) for row in matrix]
        self._steps = K.zi_echelon(rows, columns[-1] + 1 if columns else 0)
        # pivot row -> pivot column
        self._pivot_rows = {r: c for r, c, *_ in self._steps}

        # the null vector of free column f has 1 at f and, at each pivot
        # column, minus the pivot row's entry in column f; a reduced pivot
        # row is zero in every other pivot column.  The vectors are kept
        # in ascending free-column order.
        pivot_cols = set(self._pivot_rows.values())
        basis = {f: {f: _ONE} for f in columns if f not in pivot_cols}
        for r, c in self._pivot_rows.items():
            for f, t in rows[r].items():
                if f != c:
                    basis[f][c] = GaussRat.from_triple(K.gq_neg(t))
        self.null_basis = list(basis.values())

    def __len__(self) -> int:
        return self.nrows

    def solve(self, column):
        """The solution of A x = b with every free coordinate 0, as the dict
        ``{column: GaussRat}`` of its non-zeros, or None.

        ``column`` is the dict ``{row: triple}`` of the non-zeros of b and
        is left as it is.  A key at or past the row count stands for a
        zero row of A, so it makes the system inconsistent.
        """
        if any(i >= self.nrows for i in column):
            return None
        column = dict(column)
        K.zi_replay(self._steps, column)
        pivot_rows = self._pivot_rows
        if any(i not in pivot_rows for i in column):
            return None
        return {pivot_rows[r]: GaussRat.from_triple(t) for r, t in column.items()}


def solve_system(elimination: Elimination, ncols: int, rhs_list=()):
    """Nullspace basis and particular solutions of A x = b over Q(i).

    ``elimination`` is the ``Elimination`` of A and ``ncols`` the number
    of its columns; ``rhs_list`` a list of sparse right-hand-side columns (see
    ``Elimination.solve``).  Returns (null_basis, parts) where each basis
    vector is the dict ``{column: GaussRat}`` of its non-zeros, in
    ascending order of its free column, and parts[k] is the particular
    solution with free coordinates 0 in the same form, or None when the
    k-th system is inconsistent.
    """
    return elimination.null_basis, [elimination.solve(b) for b in rhs_list]

"""Exact linear algebra over Q(i): the one eliminator of the package.

Systems are given as rows of GaussRat triples.  Each row is scaled to
Z[i] by the lcm of its denominators and eliminated fraction-free
(Bareiss, ``_kernels.zi_echelon``) with a deterministic pivot order;
solutions are read off by exact back-substitution over Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import _kernels as K
from .field import GaussRat


@dataclass
class LinearSystem:
    """Rows of exact linear conditions over Q(i), with optional right sides.

    ``row_keys`` label the conditions (marked point, component, exponent);
    ``columns`` label the unknown candidate coefficients.
    """

    row_keys: list
    matrix: list
    columns: list
    rhs: list = field(default_factory=list)


def _rows_to_zi(matrix, rhs_list):
    """Scale each row [A | b...] by the lcm of denominators: Z[i] pairs."""
    out = []
    for idx, row in enumerate(matrix):
        full = list(row) + [b[idx] for b in rhs_list]
        lcm = 1
        for t in full:
            d = t[2]
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
        out.append([(a * (lcm // d), b * (lcm // d)) for (a, b, d) in full])
    return out


def solve_system(matrix, ncols: int, rhs_list=()):
    """Nullspace basis and particular solutions of A x = b over Q(i).

    ``matrix`` is a list of rows of GaussRat triples; ``rhs_list`` a list
    of right-hand-side columns (triples).  Returns (null_basis, parts)
    where each basis vector is a list of GaussRat and parts[k] is a
    particular solution or None when the k-th system is inconsistent.
    """
    rhs_list = list(rhs_list)
    if not matrix:
        null_basis = [
            [GaussRat(1 if j == k else 0) for j in range(ncols)] for k in range(ncols)
        ]
        return null_basis, [[GaussRat(0)] * ncols for _ in rhs_list]
    rows = _rows_to_zi(matrix, rhs_list)
    pivots = K.zi_echelon(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    def value(pair) -> GaussRat:
        return GaussRat.from_triple(K.gq_norm(pair[0], pair[1], 1))

    # each pivot row once, last pivot first: (row, pivot column, pivot
    # value, the nonzero (column, value) entries right of the pivot)
    reduced = []
    for r, c in reversed(pivots):
        row = rows[r]
        tail = [(j, value(row[j])) for j in range(c + 1, ncols) if row[j] != (0, 0)]
        reduced.append((r, c, value(row[c]), tail))

    null_basis = []
    for f in free_cols:
        vec = [GaussRat(0)] * ncols
        vec[f] = GaussRat(1)
        for _, c, pivot, tail in reduced:
            acc = GaussRat(0)
            for j, a in tail:
                if not vec[j].is_zero():
                    acc = acc + a * vec[j]
            vec[c] = -acc / pivot
        null_basis.append(vec)

    parts = []
    for bcol in range(ncols, ncols + len(rhs_list)):
        if any(rows[r][bcol] != (0, 0) for r in range(len(pivots), len(rows))):
            parts.append(None)
            continue
        vec = [GaussRat(0)] * ncols
        for r, c, pivot, tail in reduced:
            acc = value(rows[r][bcol])
            for j, a in tail:
                if not vec[j].is_zero():
                    acc = acc - a * vec[j]
            vec[c] = acc / pivot
        parts.append(vec)
    return null_basis, parts


def nullspace(system: LinearSystem):
    """Exact nullspace basis of the system's matrix (fraction-free)."""
    basis, _ = solve_system(system.matrix, len(system.columns))
    return basis

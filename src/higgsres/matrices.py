"""Small dense-matrix helpers over RatFunc entries.

Matrices here are tuples of tuples of RatFunc.  Sizes stay tiny (the rank
of the group plus the dimension of the symplectic space), so Laplace
expansion for determinants and cofactor adjugates are perfectly adequate;
``det`` and ``adjugate`` write out the small sizes in closed form.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

from .errors import ShapeError
from .field import GQ_ONE, RatFunc, dot

Matrix = tuple

_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)


def as_entry(value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    return RatFunc.const(value)


def mat_from(rows: Sequence[Sequence]) -> Matrix:
    out = tuple(tuple(e if type(e) is RatFunc else as_entry(e) for e in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ShapeError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if j == k else _ZERO for k in range(n)) for j in range(n)
    )


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ShapeError(f"matrix shapes differ: {shape(a)} vs {shape(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ShapeError(f"matrix shapes differ: {shape(a)} vs {shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = shape(a)
    k2, m = shape(b)
    if k != k2:
        raise ShapeError(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = tuple(zip(*b))
    return tuple(tuple(dot(zip(repeat(GQ_ONE), row, col)) for col in bt) for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else a


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(x for c, x in enumerate(row) if c != j)
        for r, row in enumerate(a)
        if r != i
    )


def det(a: Matrix) -> RatFunc:
    n, m = shape(a)
    if n != m:
        raise ShapeError("determinant of a non-square matrix")
    if n == 0:
        return _ONE
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    acc = _ZERO
    for j in range(n):
        if a[0][j].is_zero():
            continue
        term = a[0][j] * det(_minor(a, 0, j))
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def adjugate(a: Matrix) -> Matrix:
    """The transposed cofactor matrix, in closed form for n = 2 and n = 3,
    by minors for n >= 4."""
    n, m = shape(a)
    if n != m:
        raise ShapeError("adjugate of a non-square matrix")
    if n == 1:
        return (( _ONE, ),)
    if n == 2:
        return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))
    if n == 3:
        # cofactor (j, i), its sign included: rows j+1, j+2 and columns i+1, i+2, mod 3
        cyclic = ((1, 2), (2, 0), (0, 1))
        return tuple(tuple(a[p][s] * a[q][t] - a[p][t] * a[q][s] for p, q in cyclic) for s, t in cyclic)
    out = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det(_minor(a, i, j))
            out[j][i] = c if (i + j) % 2 == 0 else -c
    return tuple(tuple(row) for row in out)


def block_diag(*blocks: Matrix) -> Matrix:
    """The block-diagonal matrix of square blocks; a single block is itself."""
    if any(shape(b)[0] != shape(b)[1] for b in blocks):
        raise ShapeError("block_diag expects square blocks")
    if len(blocks) == 1:
        return blocks[0]
    total = sum(shape(b)[0] for b in blocks)
    out = [[_ZERO] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        n = shape(b)[0]
        for i in range(n):
            for j in range(n):
                out[offset + i][offset + j] = b[i][j]
        offset += n
    return tuple(tuple(row) for row in out)


"""sl_n and loop-group elements over the rational-function field.

The only algebra is sl_n with its standard basis: raising E_jk (j < k),
Cartan H_j = e_jj - e_(j+1)(j+1) and lowering F_jk (j > k).  Coordinates,
span membership and duals are read off the matrix in closed form.  A
matrix lies in the span exactly when its trace is 0.  The dual space is
identified with the algebra through the trace form of the defining
representation, which turns the coadjoint action into literal
conjugation:

    transition conventions (pinned once, globally):
        sections     s'   = T^-1 rho(g)^-1 s
        Higgs fields phi' = T^-2 g^-1 phi g

This is the unique pairing of conventions under which the moment map is
equivariant, mu(T^-1 rho(g)^-1 s) = T^-2 g^-1 mu(s) g, a fact enforced
by the test suite.

Loop-group elements are matrices of rational functions in the local disk
coordinate with determinant identically 1, each built with its inverse
(the adjugate); loop-algebra and coadjoint elements are traceless
matrices of rational functions.

Each span element keeps its sl_n coordinates: the ones its trace check
reads off, or the ones it was built from (``MatrixLieAlgebra.element_from``,
``coadjoint_from``).  Its matrix is formed from them on first read, so a
value that only takes part in sums, pairings, brackets and regularity
checks never has one.  Each basis element is one or two signed matrix
units e_rc (``MatrixLieAlgebra.units``), so the Lie-side operations are
sums over the non-zero coordinates only:

    [b_a, b_b]   = sum w b_c over the table entries (c, w) of the pair,
                   from [e_rc, e_pq] = d_cp e_rq - d_qr e_pc
                   (``MatrixLieAlgebra.brackets``, ``bracket_terms``)
    tr(b_a b_b)  = 1 for E_jk against F_kj, the Cartan matrix
                   (2 on, -1 beside the diagonal) on the H_j   (``pairing``)

The bracket table holds the structure constants sparsely, and each pair
(a, b) is filled on first use, so an algebra whose brackets are never
read builds none of it.  The pairings tr(M b_a) of a traceless M and its
coordinates determine each other in closed form
(``MatrixLieAlgebra.pairings``, ``coadjoint_from_pairings``), through
that same trace form and the inverse Cartan matrix.

The columns of the coadjoint representation (``Coadjoint.column``) are
the non-zero coordinates of g^-1 b_a g, summed on first use from outer
products of a column of g^-1 and a row of g and kept in the group
element's ``images`` under the basis index a.  The transport of
``moduli`` and the frames and floors of ``solver`` read them.

Loop-algebra elements drawn at random have one or two non-zero
coordinates, so these cost a few products where the dense matrix forms
cost n^3.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .errors import NotInAlgebra, ShapeError, ValidationError
from .field import GQ_ONE, GaussRat, RatFunc, dot
from .matrices import (
    Matrix,
    adjugate,
    as_entry,
    det,
    identity,
    mat_eq,
    mat_from,
    mat_mul,
    shape,
)

_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)
# the GaussRat of a sign, 1 or -1
_SIGNS = {1: GQ_ONE, -1: -GQ_ONE}


class MatrixLieAlgebra:
    """sl_n with its standard basis and the trace-form pairing.

    Build it with ``MatrixLieAlgebra.sl(n)``.  The basis is ordered
    raising E_jk (j < k), Cartan H_j, lowering F_jk (j > k), each family
    row by row.  For sl2 the order is (E, H, F) with E = E_12,
    H = diag(1, -1), F = E_21.
    """

    def __init__(self, n: int):
        self.name = f"sl{n}"
        self.n = n
        self._upper = [(j, k) for j in range(n) for k in range(j + 1, n)]
        self._lower = [(j, k) for j in range(n) for k in range(j)]

        def label(family, j, k):
            return family if n == 2 else f"{family}{j + 1}{k + 1}"

        self.labels = (
            [label("E", j, k) for j, k in self._upper]
            + ["H" if n == 2 else f"H{j + 1}" for j in range(n - 1)]
            + [label("F", j, k) for j, k in self._lower]
        )
        self.dim = len(self.labels)
        # the signed matrix units (row, col, sign) of each basis element
        self.units = tuple(
            [((j, k, 1),) for j, k in self._upper]
            + [((j, j, 1), (j + 1, j + 1, -1)) for j in range(n - 1)]
            + [((j, k, 1),) for j, k in self._lower]
        )
        e = len(self._upper)
        index = {jk: a for a, jk in enumerate(self._upper)}
        index.update((jk, e + n - 1 + a) for a, jk in enumerate(self._lower))
        # the coordinates a matrix unit adds to: its own off the diagonal,
        # H_j .. H_(n-2) (the partial sums of the diagonal) for e_jj
        self._slots = {jk: (a,) for jk, a in index.items()}
        self._slots.update(((j, j), tuple(range(e + j, e + n - 1))) for j in range(n))
        # the non-zero coordinates of [b_a, b_b] by pair (a, b), filled by ``brackets``
        self._brackets: dict[tuple[int, int], tuple] = {}
        # the index of the transposed unit of each E and F (None for H)
        self._transpose = (
            [index[(k, j)] for j, k in self._upper]
            + [None] * (n - 1)
            + [index[(k, j)] for j, k in self._lower]
        )
        # the Gram matrix of the trace form: gram[a] holds (b, tr(b_a b_b)) where it is non-zero
        self.gram = tuple(
            ((t, GQ_ONE),)
            if t is not None
            else tuple(
                (e + i, GaussRat(w))
                for i, w in ((a - e - 1, -1), (a - e, 2), (a - e + 1, -1))
                if 0 <= i < n - 1
            )
            for a, t in enumerate(self._transpose)
        )
        # the inverse Cartan matrix, (min(i, j) + 1)(n - 1 - max(i, j))/n, row by H index
        self._cartan_inverse = {
            e + j: tuple(
                (e + i, GaussRat(Fraction((min(i, j) + 1) * (n - 1 - max(i, j)), n)))
                for i in range(n - 1)
            )
            for j in range(n - 1)
        }
        self.basis: list[Matrix] = [self.combination(self._unit_coeffs(k)) for k in range(self.dim)]

    @classmethod
    def sl(cls, n: int) -> "MatrixLieAlgebra":
        return cls(n)

    def _unit_coeffs(self, k: int) -> list[RatFunc]:
        coeffs = [_ZERO] * self.dim
        coeffs[k] = _ONE
        return coeffs

    def brackets(self, a: int, b: int) -> tuple:
        """The non-zero coordinates (c, w) of [b_a, b_b], formed on first use
        for the pair and kept.

        On the signed units of b_a and b_b, [e_rc, e_pq] = d_cp e_rq -
        d_qr e_pc, and each unit adds to the coordinates it feeds.
        """
        out = self._brackets.get((a, b))
        if out is None:
            coords = {}
            for r, c, s in self.units[a]:
                for p, q, t in self.units[b]:
                    for k in self._slots[(r, q)] if c == p else ():
                        coords[k] = coords.get(k, 0) + s * t
                    for k in self._slots[(p, c)] if q == r else ():
                        coords[k] = coords.get(k, 0) - s * t
            out = self._brackets[(a, b)] = tuple((k, GaussRat(w)) for k, w in sorted(coords.items()) if w)
        return out

    # -- queries -----------------------------------------------------------

    def coordinates(self, mat: Matrix) -> list[RatFunc]:
        """The coordinates of a matrix known to be traceless.

        E_jk and F_jk read entry (j, k); H_j reads d_0 + ... + d_j, the
        partial sums of the diagonal (j < n - 1).
        """
        partial = [mat[0][0]]
        for j in range(1, self.n - 1):
            partial.append(partial[-1] + mat[j][j])
        return (
            [mat[j][k] for j, k in self._upper]
            + partial
            + [mat[j][k] for j, k in self._lower]
        )

    def expand_in_basis(self, mat: Matrix) -> list[RatFunc] | None:
        """The ``coordinates`` of mat, or None if its trace is not 0 (the
        last partial sum of the diagonal)."""
        n = self.n
        if shape(mat) != (n, n):
            raise ShapeError(f"expected a {n}x{n} matrix")
        coeffs = self.coordinates(mat)
        if not (coeffs[len(self._upper) + n - 2] + mat[n - 1][n - 1]).is_zero():
            return None
        return coeffs

    def combination(self, coeffs: Sequence) -> Matrix:
        """The matrix sum_k coeffs[k] basis[k]."""
        if len(coeffs) != self.dim:
            raise ShapeError(f"expected {self.dim} coordinates in {self.name}")
        return self._matrix([as_entry(c) for c in coeffs])

    def _matrix(self, coeffs: list) -> Matrix:
        """Off-diagonal coefficients are entries; the diagonal is
        d_j = c(H_j) - c(H_(j-1)), with c(H_-1) = c(H_(n-1)) = 0."""
        n = self.n
        rows = [[_ZERO] * n for _ in range(n)]
        offdiag, cartan = self._split(coeffs)
        for (j, k), c in offdiag:
            rows[j][k] = c
        cartan = [_ZERO, *cartan, _ZERO]
        for j in range(n):
            rows[j][j] = cartan[j + 1] - cartan[j]
        return tuple(tuple(row) for row in rows)

    def _split(self, vec: list):
        """((entry (j, k), value) for each E and F slot of vec, the H slots of vec)."""
        e = len(self._upper)
        f = e + self.n - 1
        return zip(self._upper + self._lower, vec[:e] + vec[f:]), vec[e:f]

    def pairings(self, coeffs: Sequence[RatFunc]) -> list[RatFunc]:
        """tr(M b_a) for each basis element, in label order, of the matrix
        M with these coordinates: the F_kj coordinate for E_jk (and the
        same for F_jk), and 2 c(H_j) - c(H_(j-1)) - c(H_(j+1)) for H_j."""
        out = [None if t is None else coeffs[t] for t in self._transpose]
        for a in self._cartan_inverse:
            out[a] = dot((w, coeffs[b], _ONE) for b, w in self.gram[a])
        return out

    def coadjoint_from_pairings(self, values: Sequence[RatFunc]) -> "CoadjointElement":
        """The coadjoint element M with tr(M b_a) = values[a], in label order.

        The inverse of ``pairings``: an E or F coordinate is the pairing
        with the transposed unit, and the H coordinates are the inverse
        Cartan matrix applied to the pairings with the H_j.
        """
        if len(values) != self.dim:
            raise ShapeError(f"expected {self.dim} pairings in {self.name}")
        coeffs = [None if t is None else values[t] for t in self._transpose]
        for a, row in self._cartan_inverse.items():
            coeffs[a] = dot((w, values[b], _ONE) for b, w in row)
        return CoadjointElement._trusted(self, coeffs)

    def element_from(self, coeffs: Sequence) -> "LoopAlgebraElement":
        """The loop-algebra element with these coordinates, which it keeps;
        its matrix is their ``combination``, in the span by construction."""
        return LoopAlgebraElement._from_coeffs(self, coeffs)

    def coadjoint_from(self, coeffs: Sequence) -> "CoadjointElement":
        """The coadjoint element whose matrix has these coordinates."""
        return CoadjointElement._from_coeffs(self, coeffs)

    def __repr__(self):
        return f"MatrixLieAlgebra({self.name!r}, n={self.n}, dim={self.dim})"


@functools.cache
def sl(n: int) -> MatrixLieAlgebra:
    """The sl_n shared by every representation of this n, built on first use."""
    return MatrixLieAlgebra.sl(n)


class LoopGroupElement:
    """An n x n matrix of rational functions with determinant 1, held
    with its inverse (``inv``, the adjugate, formed when it is built).

    The columns of rho(g)^-1 (``images``: kept by
    ``HamiltonianRep.column`` under a built-in representation's block
    sum, by ``Coadjoint.column`` under each basis index) are formed on
    first use and kept; products and inverses start with none of them.
    """

    __slots__ = ("mat", "inv", "n", "images")

    def __init__(self, mat, check: bool = True):
        self.mat = mat_from(mat)
        n, m = shape(self.mat)
        if n != m:
            raise ShapeError("group element must be square")
        self.n = n
        self.images = {}
        if check and det(self.mat) != _ONE:
            raise ValidationError("loop group element has determinant != 1")
        # det = 1, so the inverse is the adjugate
        self.inv = adjugate(self.mat)

    @classmethod
    def identity(cls, n: int) -> "LoopGroupElement":
        return cls(identity(n), check=False)

    @classmethod
    def _bare(cls, mat, inv, n: int) -> "LoopGroupElement":
        out = cls.__new__(cls)
        out.mat = mat
        out.inv = inv
        out.n = n
        out.images = {}
        return out

    def __mul__(self, other: "LoopGroupElement") -> "LoopGroupElement":
        if not isinstance(other, LoopGroupElement):
            return NotImplemented
        return LoopGroupElement(mat_mul(self.mat, other.mat), check=False)

    def inverse(self) -> "LoopGroupElement":
        """g^-1: the two matrices of g, swapped."""
        return LoopGroupElement._bare(self.inv, self.mat, self.n)

    def __eq__(self, other):
        if not isinstance(other, LoopGroupElement):
            return NotImplemented
        return mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"LoopGroupElement(n={self.n})"


class _SpanElement:
    """A traceless matrix, held by its coordinates in the algebra's basis.

    ``coeffs`` are kept from the trace check of ``__init__`` or from
    ``_trusted`` / ``_from_coeffs`` (read them, do not change them); the
    matrix is the one given to ``__init__``, or formed from them on first
    read of ``mat``.  Arithmetic and equality work on the coordinates.
    Arithmetic returns the left operand's class; equality holds only
    between elements of the same class.
    """

    __slots__ = ("algebra", "coeffs", "_mat")
    _outside = "matrix outside the span of {}"
    _label_suffix = ""

    def __init__(self, algebra: MatrixLieAlgebra, mat):
        self.algebra = algebra
        self._mat = mat_from(mat)
        self.coeffs = algebra.expand_in_basis(self._mat)
        if self.coeffs is None:
            raise NotInAlgebra(self._outside.format(algebra.name))

    @classmethod
    def _trusted(cls, algebra: MatrixLieAlgebra, coeffs: list):
        """The element with these coordinates (RatFunc, one per basis element; no check)."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.coeffs = coeffs
        out._mat = None
        return out

    @classmethod
    def _from_coeffs(cls, algebra: MatrixLieAlgebra, coeffs: Sequence):
        if len(coeffs) != algebra.dim:
            raise ShapeError(f"expected {algebra.dim} coordinates in {algebra.name}")
        return cls._trusted(algebra, [as_entry(c) for c in coeffs])

    @property
    def mat(self) -> Matrix:
        if self._mat is None:
            self._mat = self.algebra._matrix(self.coeffs)
        return self._mat

    def _new(self, coeffs):
        return self._trusted(self.algebra, coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other):
        _require_same_algebra(self, other)
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        _require_same_algebra(self, other)
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, scalar):
        scalar = as_entry(scalar)
        return self._new([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return same_algebra(self.algebra, other.algebra) and self.coeffs == other.coeffs

    def __repr__(self):
        terms = [
            f"({c.to_text('u')})*{lab}{self._label_suffix}"
            for c, lab in zip(self.coeffs, self.algebra.labels)
            if not c.is_zero()
        ]
        return f"{type(self).__name__}({' + '.join(terms) if terms else '0'})"


class LoopAlgebraElement(_SpanElement):
    """An algebra-valued loop: a matrix in the RatFunc-span of the basis."""

    __slots__ = ()


class CoadjointElement(_SpanElement):
    """A dual-space value phi: the traceless matrix M with <phi, x> = tr(M x),
    held by its coordinates."""

    __slots__ = ()
    _outside = "coadjoint matrix outside the span of {} (trace-form identification)"
    _label_suffix = "^"


def same_algebra(a: MatrixLieAlgebra, b: MatrixLieAlgebra) -> bool:
    """Distinct algebra objects of the same size are the same algebra:
    sl_n is the only Lie algebra."""
    return a.n == b.n


def _require_same_algebra(a, b):
    if not same_algebra(a.algebra, b.algebra):
        raise ShapeError("algebra elements of different sizes")


def bracket_terms(x: _SpanElement, y: _SpanElement) -> list[list]:
    """The ``field.dot`` terms (w, x_a, y_b) of each coordinate of [x, y]:
    one per pair of non-zero coordinates x_a, y_b and entry (c, w) of
    the bracket table (``MatrixLieAlgebra.brackets``).  x and y may be
    loop-algebra or coadjoint values; both are traceless matrices."""
    _require_same_algebra(x, y)
    algebra = x.algebra
    ys = [(b, yb) for b, yb in enumerate(y.coeffs) if not yb.is_zero()]
    terms = [[] for _ in range(algebra.dim)]
    for a, xa in enumerate(x.coeffs):
        if xa.is_zero():
            continue
        for b, yb in ys:
            for c, w in algebra.brackets(a, b):
                terms[c].append((w, xa, yb))
    return terms


def bracket(x: LoopAlgebraElement, y: LoopAlgebraElement) -> LoopAlgebraElement:
    """The commutator [x, y] = xy - yx, summed from coordinates
    (``bracket_terms``)."""
    return LoopAlgebraElement._trusted(x.algebra, [dot(t) for t in bracket_terms(x, y)])


class Coadjoint:
    """The coadjoint representation of sl_n, with the interface of
    ``hamiltonian.HamiltonianRep`` that ``moduli`` and ``solver`` read:
    rho(g)^-1 phi = g^-1 phi g (``column``), rho(xi) phi = [xi, phi]
    (``inf_action_terms``, the terms of ``bracket_terms``), and a Higgs
    field is a section of the coadjoint bundle twisted by K (weight 2).
    """

    weight = 2

    def __init__(self, algebra: MatrixLieAlgebra):
        self.algebra = algebra
        self.dim = algebra.dim

    def column(self, g: LoopGroupElement, k: int) -> tuple:
        """The non-zero coordinates (r, value) of g^-1 b_k g, formed on first
        use for each index k and kept in ``g.images`` under k.

        g^-1 e_rc g is the outer product of column r of g^-1 and row c of
        g, so each entry is one sum, over the one or two signed units e_rc
        of b_k, of products of non-zero entries only; entry (n-1, n-1),
        which no coordinate reads, gets none.  The coordinates are read off
        the entries (``MatrixLieAlgebra.coordinates``: H_j = H_(j-1) + d_j),
        so each entry's products are formed once.  The basis of sl_n is the
        same for every ``MatrixLieAlgebra`` of this n, so the one table
        serves them all.
        """
        algebra = self.algebra
        if g.n != algebra.n:
            raise ShapeError(f"conjugating sl{algebra.n} by an {g.n}x{g.n} element")
        column = g.images.get(k)
        if column is None:
            g_inv = g.inv
            last = (g.n - 1, g.n - 1)
            terms = {}
            for r, c, s in algebra.units[k]:
                left = [(p, row[r]) for p, row in enumerate(g_inv) if not row[r].is_zero()]
                sign = _SIGNS[s]
                for q, y in enumerate(g.mat[c]):
                    if not y.is_zero():
                        for p, x in left:
                            if (p, q) != last:
                                terms.setdefault((p, q), []).append((sign, x, y))
            entries = [[_ZERO] * g.n for _ in range(g.n)]
            for (p, q), t in terms.items():
                entries[p][q] = dot(t)
            coords = algebra.coordinates(entries)
            column = g.images[k] = tuple((a, v) for a, v in enumerate(coords) if not v.is_zero())
        return column

    inf_action_terms = staticmethod(bracket_terms)

    def value(self, coords: Sequence) -> CoadjointElement:
        return self.algebra.coadjoint_from(coords)


def pairing_terms(phi: CoadjointElement, xi: LoopAlgebraElement) -> list:
    """The ``field.dot`` terms (w, phi_b, xi_a) of <phi, xi>: one per
    non-zero coordinate xi_a and Gram entry (b, w) of the trace form
    (``MatrixLieAlgebra.gram``)."""
    _require_same_algebra(phi, xi)
    c = phi.coeffs
    gram = xi.algebra.gram
    return [(w, c[b], x) for a, x in enumerate(xi.coeffs) if not x.is_zero() for b, w in gram[a]]


def pairing(phi: CoadjointElement, xi: LoopAlgebraElement) -> RatFunc:
    """<phi, xi> = tr(phi.mat xi.mat) = sum_a,b phi_b xi_a tr(b_a b_b).

    Read off the coordinates of both, at the non-zero coordinates xi_a
    only (``pairing_terms``): no matrix is formed.
    """
    return dot(pairing_terms(phi, xi))


# -- loop-group builders -----------------------------------------------------


def elementary(n: int, j: int, k: int, c: RatFunc) -> LoopGroupElement:
    """The unipotent element I + c E_jk (j != k, 1-based indices)."""
    if j == k:
        raise ValueError("elementary matrix requires j != k")
    rows = [[_ONE if a == b else _ZERO for b in range(n)] for a in range(n)]
    rows[j - 1][k - 1] = c if isinstance(c, RatFunc) else RatFunc.const(c)
    return LoopGroupElement(rows, check=False)


def torus(n: int, exponents: Sequence[int]) -> LoopGroupElement:
    """diag(u^e1, ..., u^en) with integer exponents summing to zero."""
    if len(exponents) != n:
        raise ShapeError(f"expected {n} torus exponents")
    if sum(exponents) != 0:
        raise ValidationError("torus exponents must sum to zero (det = 1)")
    u = RatFunc.x()
    rows = [
        [(u ** exponents[a] if a == b else _ZERO) for b in range(n)] for a in range(n)
    ]
    return LoopGroupElement(rows, check=False)

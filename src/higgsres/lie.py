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
coordinate with determinant identically 1; loop-algebra and coadjoint
elements are traceless matrices of rational functions.

Each span element keeps its coordinates next to its matrix: the ones
its trace check reads off, or the ones it was built from
(``MatrixLieAlgebra.element_from``).  Each basis element is one or two
signed matrix units e_rc (``MatrixLieAlgebra.units``), so the Lie-side
operations are sums over the non-zero coordinates only:

    [e_rc, e_pq] = d_cp e_rq - d_qr e_pc     (``bracket``)
    [e_rc, M]    = row c of M put in row r,
                   minus column r of M put in column c   (``ad_terms``)
    tr(M e_rc)   = M[c][r]                   (``pairing``)

Loop-algebra elements drawn at random have one or two non-zero
coordinates, so these cost a few products where the dense matrix forms
cost n^3.  The structure constants are never needed for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .errors import NotInAlgebra, ShapeError, ValidationError
from .field import GQ_ONE, GaussRat, RatFunc, dot
from .matrices import (
    Matrix,
    adjugate,
    as_entry,
    det,
    identity,
    mat_add,
    mat_eq,
    mat_from,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    shape,
)

_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)
# the GaussRat of a matrix unit's sign, or of a product of two
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
        self.basis: list[Matrix] = [self.combination(self._unit_coeffs(k)) for k in range(self.dim)]

    @classmethod
    def sl(cls, n: int) -> "MatrixLieAlgebra":
        return cls(n)

    def _unit_coeffs(self, k: int) -> list[RatFunc]:
        coeffs = [_ZERO] * self.dim
        coeffs[k] = _ONE
        return coeffs

    @cached_property
    def structure(self) -> dict[tuple[int, int], list[GaussRat]]:
        """Structure constants: ``structure[(a, b)]`` expands [e_a, e_b].

        About ``dim^2 / 2`` brackets, so they are computed on first read
        only; ``bracket`` itself never reads them.
        """
        out: dict[tuple[int, int], list[GaussRat]] = {}
        basis = [self.element_from(self._unit_coeffs(k)) for k in range(self.dim)]
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                consts = [c.constant_value() for c in bracket(basis[a], basis[b]).coeffs]
                out[(a, b)] = consts
                out[(b, a)] = [-c for c in consts]
        return out

    # -- queries -----------------------------------------------------------

    def expand_in_basis(self, mat: Matrix) -> list[RatFunc] | None:
        """Coefficients of mat in the basis, or None if its trace is not 0.

        E_jk and F_jk read entry (j, k); H_j reads d_0 + ... + d_j, the
        partial sums of the diagonal, whose last one is the trace.
        """
        n = self.n
        if shape(mat) != (n, n):
            raise ShapeError(f"expected a {n}x{n} matrix")
        partial = [mat[0][0]]
        for j in range(1, n):
            partial.append(partial[-1] + mat[j][j])
        if not partial.pop().is_zero():
            return None
        return (
            [mat[j][k] for j, k in self._upper]
            + partial
            + [mat[j][k] for j, k in self._lower]
        )

    def combination(self, coeffs: Sequence) -> Matrix:
        """The matrix sum_k coeffs[k] basis[k].

        Off-diagonal coefficients are entries; the diagonal is
        d_j = c(H_j) - c(H_(j-1)), with c(H_-1) = c(H_(n-1)) = 0.
        """
        if len(coeffs) != self.dim:
            raise ShapeError(f"expected {self.dim} coordinates in {self.name}")
        n = self.n
        rows = [[_ZERO] * n for _ in range(n)]
        offdiag, cartan = self._split([as_entry(c) for c in coeffs])
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

    def element(self, mat) -> "LoopAlgebraElement":
        return LoopAlgebraElement(self, mat)

    def coadjoint(self, mat) -> "CoadjointElement":
        return CoadjointElement(self, mat)

    def element_from(self, coeffs: Sequence) -> "LoopAlgebraElement":
        """The loop-algebra element with these coordinates, which it keeps;
        its matrix is their ``combination``, in the span by construction."""
        return LoopAlgebraElement._from_coeffs(self, coeffs)

    def coadjoint_from(self, coeffs: Sequence) -> "CoadjointElement":
        """The coadjoint element whose matrix has these coordinates."""
        return CoadjointElement._from_coeffs(self, coeffs)

    def __repr__(self):
        return f"MatrixLieAlgebra({self.name!r}, n={self.n}, dim={self.dim})"


class LoopGroupElement:
    """An n x n matrix of rational functions with determinant 1.

    Its inverse and the conjugates g^-1 b_k g of the sl_n basis are
    formed on first use and kept; products and inverses start with
    neither.
    """

    __slots__ = ("mat", "n", "_inverse", "_conjugated")

    def __init__(self, mat, check: bool = True):
        self.mat = mat_from(mat)
        n, m = shape(self.mat)
        if n != m:
            raise ShapeError("group element must be square")
        self.n = n
        self._inverse = None
        self._conjugated = None
        if check and det(self.mat) != _ONE:
            raise ValidationError("loop group element has determinant != 1")

    @classmethod
    def identity(cls, n: int) -> "LoopGroupElement":
        return cls(identity(n), check=False)

    def __mul__(self, other: "LoopGroupElement") -> "LoopGroupElement":
        if not isinstance(other, LoopGroupElement):
            return NotImplemented
        out = LoopGroupElement.__new__(LoopGroupElement)
        out.mat = mat_mul(self.mat, other.mat)
        out.n = self.n
        out._inverse = None
        out._conjugated = None
        return out

    def inverse(self) -> "LoopGroupElement":
        """g^-1, computed once; its own inverse is this element."""
        inv = self._inverse
        if inv is None:
            # det = 1, so the inverse is the adjugate
            inv = LoopGroupElement.__new__(LoopGroupElement)
            inv.mat = adjugate(self.mat)
            inv.n = self.n
            inv._inverse = self
            inv._conjugated = None
            self._inverse = inv
        return inv

    def conjugated_basis(self, algebra: MatrixLieAlgebra) -> tuple:
        """g^-1 b_k g for each basis element b_k of sl_n, computed once.

        The basis of sl_n is the same for every ``MatrixLieAlgebra`` of
        this n, so the one tuple serves them all.
        """
        if algebra.n != self.n:
            raise ShapeError(f"conjugating sl{algebra.n} by an {self.n}x{self.n} element")
        conjugated = self._conjugated
        if conjugated is None:
            g_inv = self.inverse().mat
            conjugated = self._conjugated = tuple(
                mat_mul(mat_mul(g_inv, b), self.mat) for b in algebra.basis
            )
        return conjugated

    def __eq__(self, other):
        if not isinstance(other, LoopGroupElement):
            return NotImplemented
        return mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"LoopGroupElement(n={self.n})"


class _SpanElement:
    """A matrix in the RatFunc-span of an algebra's basis.

    ``coeffs`` are its coordinates in the basis: kept from the trace
    check of ``__init__`` or from ``_from_coeffs``, and read off the
    matrix on first use for the results of arithmetic.  Arithmetic
    returns the left operand's class; equality holds only between
    elements of the same class.
    """

    __slots__ = ("algebra", "mat", "_coeffs")
    _outside = "matrix outside the span of {}"
    _label_suffix = ""

    def __init__(self, algebra: MatrixLieAlgebra, mat):
        self.algebra = algebra
        self.mat = mat_from(mat)
        self._coeffs = algebra.expand_in_basis(self.mat)
        if self._coeffs is None:
            raise NotInAlgebra(self._outside.format(algebra.name))

    @classmethod
    def _trusted(cls, algebra: MatrixLieAlgebra, mat, coeffs=None):
        """An element of a matrix known to be in the span (no check)."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.mat = mat
        out._coeffs = coeffs
        return out

    @classmethod
    def _from_coeffs(cls, algebra: MatrixLieAlgebra, coeffs: Sequence):
        coeffs = [as_entry(c) for c in coeffs]
        return cls._trusted(algebra, algebra.combination(coeffs), coeffs)

    @property
    def coeffs(self) -> list[RatFunc]:
        """The coefficients of the matrix in the algebra's basis (the kept
        list: read it, do not change it)."""
        if self._coeffs is None:
            self._coeffs = self.algebra.expand_in_basis(self.mat)
        return self._coeffs

    def _new(self, mat):
        return self._trusted(self.algebra, mat)

    def is_zero(self) -> bool:
        return mat_is_zero(self.mat)

    def __add__(self, other):
        _require_same_algebra(self, other)
        return self._new(mat_add(self.mat, other.mat))

    def __sub__(self, other):
        _require_same_algebra(self, other)
        return self._new(mat_sub(self.mat, other.mat))

    def __mul__(self, scalar):
        return self._new(mat_scale(scalar, self.mat))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return same_algebra(self.algebra, other.algebra) and mat_eq(self.mat, other.mat)

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
    """A dual-space value phi, stored as the matrix M with <phi, x> = tr(M x)."""

    __slots__ = ()
    _outside = "coadjoint matrix outside the span of {} (trace-form identification)"
    _label_suffix = "^"


def same_algebra(a: MatrixLieAlgebra, b: MatrixLieAlgebra) -> bool:
    """Distinct algebra objects of the same name and size are the same algebra."""
    return a is b or (a.name == b.name and a.n == b.n)


def _require_same_algebra(a, b):
    if a.algebra.n != b.algebra.n:
        raise ShapeError("algebra elements of different sizes")
    if not same_algebra(a.algebra, b.algebra):
        raise ShapeError("elements of different algebras")


def _from_terms(cls, algebra: MatrixLieAlgebra, terms: dict):
    """The element of class cls whose matrix entry (r, c) is
    ``dot(terms[(r, c)])`` (zero where there is no key); the caller
    knows it is traceless."""
    n = algebra.n
    rows = [[_ZERO] * n for _ in range(n)]
    for (r, c), entry in terms.items():
        rows[r][c] = dot(entry)
    return cls._trusted(algebra, tuple(tuple(row) for row in rows))


def bracket(x: LoopAlgebraElement, y: LoopAlgebraElement) -> LoopAlgebraElement:
    """The commutator [x, y] = xy - yx, summed from coordinates.

    Every pair of non-zero coordinates x_a, y_b adds x_a y_b [b_a, b_b],
    and on matrix units [e_rc, e_pq] = d_cp e_rq - d_qr e_pc.
    """
    _require_same_algebra(x, y)
    units = x.algebra.units
    ys = [(units[b], yb) for b, yb in enumerate(y.coeffs) if not yb.is_zero()]
    terms = {}
    for a, xa in enumerate(x.coeffs):
        if xa.is_zero():
            continue
        for r, c, s in units[a]:
            for y_units, yb in ys:
                for p, q, t in y_units:
                    if c == p:
                        terms.setdefault((r, q), []).append((_SIGNS[s * t], xa, yb))
                    if q == r:
                        terms.setdefault((p, c), []).append((_SIGNS[-s * t], xa, yb))
    return _from_terms(LoopAlgebraElement, x.algebra, terms)


def ad_terms(xi: LoopAlgebraElement, m: Matrix, sign: int = 1) -> dict:
    """The entries of sign * [xi, M] as ``field.dot`` terms, keyed (row, col).

    Summed over the non-zero coordinates xi_a only: the unit e_rc of b_a
    puts row c of M into row r, and minus column r of M into column c.
    Entries with no key are zero.
    """
    n = xi.algebra.n
    if shape(m) != (n, n):
        raise ShapeError(f"bracket of sl{n} with a {shape(m)} matrix")
    units = xi.algebra.units
    terms = {}
    for a, x in enumerate(xi.coeffs):
        if x.is_zero():
            continue
        for r, c, s in units[a]:
            plus, minus = _SIGNS[s * sign], _SIGNS[-s * sign]
            for j, e in enumerate(m[c]):
                terms.setdefault((r, j), []).append((plus, x, e))
            for i, row in enumerate(m):
                terms.setdefault((i, c), []).append((minus, x, row[r]))
    return terms


def coadjoint_bracket(phi: CoadjointElement, xi: LoopAlgebraElement) -> CoadjointElement:
    """[phi, xi] = phi xi - xi phi, summed over the non-zero coordinates of xi."""
    _require_same_algebra(phi, xi)
    return _from_terms(CoadjointElement, phi.algebra, ad_terms(xi, phi.mat, -1))


def pairing(phi: CoadjointElement, xi: LoopAlgebraElement) -> RatFunc:
    """<phi, xi> = tr(phi.mat xi.mat) = sum_a dual_values(phi)[a] xi_a.

    Only the non-zero coordinates xi_a are read, through tr(M e_rc) =
    M[c][r] on the matrix units of b_a.
    """
    _require_same_algebra(phi, xi)
    m = phi.mat
    units = xi.algebra.units
    return dot(
        (_SIGNS[s], m[c][r], x)
        for a, x in enumerate(xi.coeffs)
        if not x.is_zero()
        for r, c, s in units[a]
    )


def dualize(algebra: MatrixLieAlgebra, values: Mapping[str, RatFunc]) -> CoadjointElement:
    """The traceless M with tr(M xi_a) = values[a] for each basis label.

    tr(M E_jk) = M[k][j], and the same for F_jk.  The diagonal follows
    from h_j = tr(M H_j) = d_j - d_(j+1) and trace 0:
    d_0 = sum_j (n-1-j) h_j / n.
    """
    n = algebra.n
    rows = [[_ZERO] * n for _ in range(n)]
    offdiag, h = algebra._split([as_entry(values.get(lab, _ZERO)) for lab in algebra.labels])
    for (j, k), v in offdiag:
        rows[k][j] = v
    d = dot((GaussRat(Fraction(n - 1 - j, n)), hj, _ONE) for j, hj in enumerate(h))
    for j in range(n):
        rows[j][j] = d
        if j < n - 1 and not h[j].is_zero():
            d = d - h[j]
    return CoadjointElement(algebra, tuple(tuple(row) for row in rows))


def dual_values(algebra: MatrixLieAlgebra, mat: Matrix) -> list[RatFunc]:
    """tr(mat xi_a) for each basis label, in label order: the inverse of dualize.

    tr(M E_jk) = M[k][j], the same for F_jk, and tr(M H_j) = M[j][j] -
    M[j+1][j+1].  dualize(algebra, values) is traceless, so it gives mat
    back from these values exactly when mat is traceless.
    """
    diagonal = [mat[j][j] for j in range(algebra.n)]
    return (
        [mat[k][j] for j, k in algebra._upper]
        + [a - b for a, b in zip(diagonal, diagonal[1:])]
        + [mat[k][j] for j, k in algebra._lower]
    )


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

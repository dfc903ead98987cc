"""Matrix Lie algebras and loop-group elements over the rational-function field.

The algebra is given by an explicit matrix basis; closure under the
commutator and linear independence are verified exactly at construction
by solving small linear systems over Q(i).  The dual space is identified
with the algebra through the trace form of the defining representation,
which turns the coadjoint action into literal conjugation:

    transition conventions (pinned once, globally):
        sections     s'   = T^-1 rho(g)^-1 s
        Higgs fields phi' = T^-2 g^-1 phi g

This is the unique pairing of conventions under which the moment map is
equivariant, mu(T^-1 rho(g)^-1 s) = T^-2 g^-1 mu(s) g, a fact enforced
by the test suite.

Loop-group elements are matrices of rational functions in the local disk
coordinate with determinant identically 1; loop-algebra and coadjoint
elements must lie in the RatFunc-span of the basis (checked by an exact
linear solve through a precomputed pivot inverse).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import _kernels as K
from .errors import (
    DegeneratePairing,
    NotInAlgebra,
    ShapeError,
    ValidationError,
)
from .field import GaussRat, RatFunc
from .linalg import _row_to_zi, solve_system
from .matrices import (
    Matrix,
    adjugate,
    commutator,
    det,
    identity,
    mat_add,
    mat_eq,
    mat_from,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_trace,
    shape,
    zeros,
)

_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)


class MatrixLieAlgebra:
    """A matrix Lie algebra with an explicit basis and trace-form pairing."""

    def __init__(self, name: str, n: int, basis: Sequence, labels: Sequence[str]):
        if len(basis) != len(labels):
            raise ValidationError("basis and labels differ in length")
        self.name = name
        self.n = n
        self.labels = list(labels)
        self.basis: list[Matrix] = [mat_from(b) for b in basis]
        for b in self.basis:
            if shape(b) != (n, n):
                raise ShapeError(f"basis matrix is not {n}x{n}")
        self.dim = len(self.basis)
        self._index = {lab: k for k, lab in enumerate(self.labels)}
        self._prepare_solver()
        self._check_closure()
        self._prepare_gram()

    # -- construction-time validation ------------------------------------

    def _prepare_solver(self):
        """Find dim independent coordinates and invert that square block."""
        flat = [
            [b[i][j].constant_value()._t for b in self.basis]
            for i in range(self.n)
            for j in range(self.n)
        ]
        # eliminate on the transpose to pick dim independent coordinates
        work = [_row_to_zi(col)[1] for col in zip(*flat)]
        pivot_cols = [c for _, c in K.zi_echelon(work, len(flat))]
        if len(pivot_cols) < self.dim:
            raise ValidationError(
                f"basis of {self.name} is linearly dependent "
                f"(rank {len(pivot_cols)} < {self.dim})"
            )
        self._pivot_coords = pivot_cols
        # those coordinates of the basis form an invertible dim x dim block
        self._solve_inv = _inverse([flat[r] for r in pivot_cols])

    def _check_closure(self):
        self.structure: dict[tuple[int, int], list[GaussRat]] = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                br = commutator(self.basis[a], self.basis[b])
                coeffs = self.expand_in_basis(br)
                if coeffs is None:
                    raise ValidationError(
                        f"[{self.labels[a]}, {self.labels[b]}] is outside the "
                        f"span of the {self.name} basis"
                    )
                consts = [c.constant_value() for c in coeffs]
                self.structure[(a, b)] = consts
                self.structure[(b, a)] = [-c for c in consts]

    def _prepare_gram(self):
        g = [
            [
                mat_trace(mat_mul(self.basis[a], self.basis[b])).constant_value()
                for b in range(self.dim)
            ]
            for a in range(self.dim)
        ]
        self.gram = g
        self.gram_inverse = _inverse([[x._t for x in row] for row in g])

    # -- queries -----------------------------------------------------------

    def label_index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"{self.name} has no basis element {label!r}")
        return self._index[label]

    def expand_in_basis(self, mat: Matrix) -> list[RatFunc] | None:
        """Coefficients of mat in the basis, or None if outside the span."""
        if shape(mat) != (self.n, self.n):
            raise ShapeError(f"expected a {self.n}x{self.n} matrix")
        vec = [mat[i][j] for i in range(self.n) for j in range(self.n)]
        coeffs = []
        for k in range(self.dim):
            acc = _ZERO
            for t, r in enumerate(self._pivot_coords):
                c = self._solve_inv[k][t]
                if not c.is_zero() and not vec[r].is_zero():
                    acc = acc + vec[r] * c
            coeffs.append(acc)
        # verify: the candidate expansion must reproduce every coordinate
        return coeffs if mat_eq(self.combination(coeffs), mat) else None

    def combination(self, coeffs: Sequence[RatFunc]) -> Matrix:
        """The matrix sum_k coeffs[k] basis[k]."""
        mat = zeros(self.n, self.n)
        for c, b in zip(coeffs, self.basis):
            if not c.is_zero():
                mat = _mat_axpy(mat, c, b)
        return mat

    def element(self, mat) -> "LoopAlgebraElement":
        return LoopAlgebraElement(self, mat_from(mat))

    def basis_element(self, label: str) -> "LoopAlgebraElement":
        return LoopAlgebraElement(self, self.basis[self.label_index(label)])

    def coadjoint(self, mat) -> "CoadjointElement":
        return CoadjointElement(self, mat_from(mat))

    def zero_element(self) -> "LoopAlgebraElement":
        return LoopAlgebraElement(self, zeros(self.n, self.n))

    def __repr__(self):
        return f"MatrixLieAlgebra({self.name!r}, n={self.n}, dim={self.dim})"

    # -- standard families ---------------------------------------------------

    @classmethod
    def sl(cls, n: int) -> "MatrixLieAlgebra":
        """sl_n with basis: raising E_jk (j<k), Cartan H_j, lowering F_jk (j>k).

        For sl2 the order is (E, H, F) with E = E_12, H = diag(1, -1),
        F = E_21.
        """
        basis = []
        labels = []

        def unit(j, k):
            return [[1 if (r, c) == (j, k) else 0 for c in range(n)] for r in range(n)]

        for j in range(n):
            for k in range(j + 1, n):
                basis.append(unit(j, k))
                labels.append("E" if n == 2 else f"E{j + 1}{k + 1}")
        for j in range(n - 1):
            h = [[0] * n for _ in range(n)]
            h[j][j] = 1
            h[j + 1][j + 1] = -1
            basis.append(h)
            labels.append("H" if n == 2 else f"H{j + 1}")
        for j in range(n):
            for k in range(j):
                basis.append(unit(j, k))
                labels.append("F" if n == 2 else f"F{j + 1}{k + 1}")
        return cls(f"sl{n}", n, basis, labels)


def _inverse(matrix: list) -> list[list[GaussRat]] | None:
    """Inverse of a square matrix of GaussRat triples; None if singular."""
    n = len(matrix)
    units = [[K.GQ_ONE if j == k else K.GQ_ZERO for j in range(n)] for k in range(n)]
    null, columns = solve_system(matrix, n, units)
    return None if null else [list(row) for row in zip(*columns)]


def _mat_axpy(acc: Matrix, c: RatFunc, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + c * y if not y.is_zero() else x for x, y in zip(ra, rb))
        for ra, rb in zip(acc, b)
    )


class LoopGroupElement:
    """An n x n matrix of rational functions with determinant 1."""

    __slots__ = ("mat", "n", "_inverse")

    def __init__(self, mat, check: bool = True):
        self.mat = mat_from(mat)
        n, m = shape(self.mat)
        if n != m:
            raise ShapeError("group element must be square")
        self.n = n
        self._inverse = None
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
            self._inverse = inv
        return inv

    def __eq__(self, other):
        if not isinstance(other, LoopGroupElement):
            return NotImplemented
        return mat_eq(self.mat, other.mat)

    def __repr__(self):
        return f"LoopGroupElement(n={self.n})"


class _SpanElement:
    """A matrix in the RatFunc-span of an algebra's basis, with its coefficients.

    Arithmetic returns the left operand's class; equality holds only
    between elements of the same class.
    """

    __slots__ = ("algebra", "mat", "coeffs")
    _outside = "matrix outside the span of {}"
    _label_suffix = ""

    def __init__(self, algebra: MatrixLieAlgebra, mat):
        self.algebra = algebra
        self.mat = mat_from(mat)
        coeffs = algebra.expand_in_basis(self.mat)
        if coeffs is None:
            raise NotInAlgebra(self._outside.format(algebra.name))
        self.coeffs = coeffs

    def _new(self, mat, coeffs):
        out = type(self).__new__(type(self))
        out.algebra = self.algebra
        out.mat = mat
        out.coeffs = coeffs
        return out

    def is_zero(self) -> bool:
        return mat_is_zero(self.mat)

    def __add__(self, other):
        _require_same_algebra(self, other)
        return self._new(
            mat_add(self.mat, other.mat), [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        _require_same_algebra(self, other)
        return self._new(
            mat_sub(self.mat, other.mat), [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, scalar):
        mat = mat_scale(scalar, self.mat)
        s = scalar if isinstance(scalar, RatFunc) else RatFunc.const(scalar)
        return self._new(mat, [s * c for c in self.coeffs])

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


def bracket(x: LoopAlgebraElement, y: LoopAlgebraElement) -> LoopAlgebraElement:
    """The commutator [x, y] = xy - yx."""
    _require_same_algebra(x, y)
    if shape(x.mat) != shape(y.mat):
        raise ShapeError("bracket of differently sized matrices")
    return LoopAlgebraElement(x.algebra, commutator(x.mat, y.mat))


def pairing(phi: CoadjointElement, xi: LoopAlgebraElement) -> RatFunc:
    """<phi, xi> = tr(phi.mat xi.mat)."""
    if shape(phi.mat) != shape(xi.mat):
        raise ShapeError("pairing of differently sized matrices")
    return mat_trace(mat_mul(phi.mat, xi.mat))


def coadjoint_transition(g: LoopGroupElement, phi: CoadjointElement) -> CoadjointElement:
    """g^-1 phi g (the pinned transition convention for dual values)."""
    if g.n != phi.algebra.n:
        raise ShapeError("group element and coadjoint value sizes differ")
    ginv = g.inverse()
    return CoadjointElement(phi.algebra, mat_mul(mat_mul(ginv.mat, phi.mat), g.mat))


def dualize(algebra: MatrixLieAlgebra, values: Mapping[str, RatFunc]) -> CoadjointElement:
    """The unique span element M with tr(M xi_a) = values[a] for each basis label.

    Solves through the inverse Gram matrix of the trace form; raises
    DegeneratePairing if that form is singular (impossible for sl_n, but
    guards misuse on user-provided algebras).
    """
    if algebra.gram_inverse is None:
        raise DegeneratePairing(f"trace form of {algebra.name} is degenerate")
    vec = []
    for lab in algebra.labels:
        v = values.get(lab, _ZERO)
        vec.append(v if isinstance(v, RatFunc) else RatFunc.const(v))
    coeffs = []
    for k in range(algebra.dim):
        coeff = _ZERO
        for b in range(algebra.dim):
            gk = algebra.gram_inverse[k][b]
            if not gk.is_zero() and not vec[b].is_zero():
                coeff = coeff + vec[b] * gk
        coeffs.append(coeff)
    return CoadjointElement(algebra, algebra.combination(coeffs))


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

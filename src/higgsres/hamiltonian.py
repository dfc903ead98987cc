"""Linear symplectic spaces with Hamiltonian actions and their moment maps.

A representation stores the algebra action on basis elements only and is
extended RatFunc-linearly.  It is a linear symplectic representation:
every entry of omega and of each rho(xi_a) is a constant (ValidationError
otherwise), and only a bundle's transitions vary with z, so every form
entry below is a GaussRat.  The moment map is fixed to the standard
quadratic normalization

    <mu(x), xi> = 1/2 * omega(rho(xi) x, x),

the unique moment map of a linear symplectic action vanishing at 0; its
differential is <dmu_x(v), xi> = omega(rho(xi) x, v).  Equivariance with
respect to the pinned transition conventions, the moment condition, and
degree-2 homogeneity are all verified by the test suite rather than
assumed.

omega, each rho(xi_a) and Q_a = rho(xi_a)^T omega are kept as their
non-zero entries (i, j, c): omega(u, v) = sum c u_i v_j over omega, and
<dmu_x(v), xi_a> = sum c x_i v_j over Q_a.  <mu(x), xi_a> = 1/2 x^T Q_a x
is summed over Q_a folded once onto the pairs i <= j (``_folded``): a
quadratic form sees only the symmetric part of its matrix, so the fold
is exact also for an explicit rho outside sp(omega), where Q_a is not.
Each family of forms (omega; the Q_a; their folds) is indexed by row at
construction (``_by_row``), so a sum visits only the entries of the
non-zero u_i, keeps those with a non-zero v_j, and takes one ``dot`` per
form with a term left (``_form_values``).
``dmoment_values`` and ``moment_values`` return these pairings in label
order; ``dmoment`` and ``moment`` turn them into the coordinates of
coadjoint values in closed form (``coadjoint_from_pairings``), with no
matrix and no trace check.
rho(xi) x is sum r xi_a x_j over the entries (i, j, r) of rho(xi_a) for
the non-zero coordinates xi_a; ``inf_action_terms`` hands out those
terms, for a caller that needs only part of the sum (the solver reads
their polar coefficients).

``moduli`` and ``solver`` read a representation's ``dim``, twist
``weight`` (1: K^(1/2)), ``column``, ``inf_action_terms`` and ``value``,
which ``lie.Coadjoint`` offers for Higgs fields too.

Built-in representations are block sums of the defining representation
C^N of sl_N and its dual, one N x N diagonal block each
(``HamiltonianRep.blocks``): rho(xi) is xi on a plain block and -xi^T
on a dual one, rho(g)^-1 is g^-1 and g^T, and omega is read off the
blocks too (``_block_omega``).

    sl2-standard        C^2; blocks (False,)
    sl2-standard-xK     K copies of the standard sl2 plane;
                        blocks (False,) * K
    slN-cotangent       C^N + its dual, rho(xi) = diag(xi, -xi^T);
                        blocks (False, True)

The scaling action used for the weight-2 hypothesis is scalar scaling,
under which omega (being quadratic) has weight 2 identically and the
commuting condition is trivial; nothing about it is stored as data.
"""

from __future__ import annotations

import re
from typing import Sequence

from .errors import NotInAlgebra, ShapeError, ValidationError
from .field import GQ_ZERO, GaussRat, RatFunc, dot
from .lie import CoadjointElement, LoopAlgebraElement, LoopGroupElement, MatrixLieAlgebra, same_algebra, sl
from .matrices import (
    Matrix,
    block_diag,
    det,
    mat_add,
    mat_eq,
    mat_from,
    mat_is_zero,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_transpose,
    shape,
)

_ZERO = RatFunc.const(0)
_HALF = GaussRat.from_triple((1, 0, 2))


def _sparse(m: Matrix, name: str) -> tuple:
    """The non-zero entries (i, j, c) of the matrix ``name``, each c its
    constant GaussRat; ValidationError if an entry varies with z."""
    for i, row in enumerate(m):
        for j, c in enumerate(row):
            if not c.is_constant():
                raise ValidationError(f"{name} entry ({i}, {j}) varies with z")
    return tuple((i, j, c.constant_value()) for i, row in enumerate(m) for j, c in enumerate(row) if c)


def _by_row(forms: list, dim: int) -> tuple:
    """The entries (a, j, c) of a family of sparse forms, a the index of
    the form and (i, j, c) its entry, grouped by row i < dim."""
    rows = [[] for _ in range(dim)]
    for a, entries in enumerate(forms):
        for i, j, c in entries:
            rows[i].append((a, j, c))
    return tuple(map(tuple, rows))


def _form_values(rows: tuple, count: int, u: tuple, v: tuple) -> list[RatFunc]:
    """sum c u_i v_j over the entries (i, j, c) of each of the ``count``
    forms of a family indexed by row (``_by_row``), over the non-zero u_i
    and v_j only: one ``dot`` per form with a non-zero term."""
    terms = [[] for _ in range(count)]
    for x, row in zip(u, rows):
        if x._n:
            for a, j, c in row:
                y = v[j]
                if y._n:
                    terms[a].append((c, x, y))
    return [dot(t) if t else _ZERO for t in terms]


def _folded(entries: tuple) -> tuple:
    """The entries (i, j, c), i <= j, of the quadratic form 1/2 x^T Q x:
    1/2 Q_ii and 1/2 (Q_ij + Q_ji), non-zero ones only."""
    halves = {}
    for i, j, c in entries:
        key = (min(i, j), max(i, j))
        halves[key] = halves.get(key, GQ_ZERO) + c * _HALF
    return tuple((i, j, c) for (i, j), c in sorted(halves.items()) if c)


class XVector:
    """A vector of the symplectic space with RatFunc coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        self.coords = tuple(
            c if isinstance(c, RatFunc) else RatFunc.const(c) for c in coords
        )

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, k):
        return self.coords[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "XVector") -> "XVector":
        if len(self) != len(other):
            raise ShapeError("vector lengths differ")
        return XVector([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "XVector") -> "XVector":
        if len(self) != len(other):
            raise ShapeError("vector lengths differ")
        return XVector([a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, scalar) -> "XVector":
        return XVector([c * scalar for c in self.coords])

    __rmul__ = __mul__

    def __neg__(self) -> "XVector":
        return XVector([-c for c in self.coords])

    def __eq__(self, other):
        if not isinstance(other, XVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"XVector([{', '.join(c.to_text('z') for c in self.coords)}])"


class SymplecticSpace:
    """An even-dimensional space with an invertible antisymmetric form."""

    def __init__(self, omega):
        self.omega: Matrix = mat_from(omega)
        n, m = shape(self.omega)
        if n != m or n % 2 or n == 0:
            raise ValidationError("omega must be square of even, non-zero size")
        self.dim = n
        if not mat_eq(mat_transpose(self.omega), mat_neg(self.omega)):
            raise ValidationError("omega is not antisymmetric")
        if det(self.omega).is_zero():
            raise ValidationError("omega is singular")
        self._rows = _by_row([_sparse(self.omega, "omega")], n)

    def check(self, *vectors: XVector):
        """Raise ShapeError unless every vector has the space's dimension."""
        if any(len(v) != self.dim for v in vectors):
            raise ShapeError("vector length does not match the space dimension")

    def pair(self, u: XVector, v: XVector) -> RatFunc:
        """omega(u, v) with RatFunc coordinates."""
        self.check(u, v)
        return _form_values(self._rows, 1, u.coords, v.coords)[0]

    def __repr__(self):
        return f"SymplecticSpace(dim={self.dim})"


class HamiltonianRep:
    """An algebra action on a symplectic space, stored on basis elements.

    A built-in representation is given by ``blocks``, one dual flag per
    n x n diagonal block: rho(xi) and the columns of rho(g)^-1, which
    section data needs, are both read from it, a block being xi and
    g^-1, or -xi^T and g^T when dual.  ``blocks`` is None for an
    explicit ``rho`` (a label -> matrix mapping), which supports all
    pointwise operations but cannot transport sections, because a
    group-level action cannot be derived from algebra-level matrices
    alone.
    """

    weight = 1
    value = XVector

    def __init__(
        self,
        algebra: MatrixLieAlgebra,
        space: SymplecticSpace,
        rho: dict | None = None,
        blocks: tuple | None = None,
        name: str | None = None,
    ):
        self.algebra = algebra
        self.space = space
        self.dim = space.dim
        self.blocks = blocks
        if blocks is not None:
            rho = {
                lab: block_diag(*(mat_neg(mat_transpose(xi)) if dual else xi for dual in blocks))
                for lab, xi in zip(algebra.labels, algebra.basis)
            }
        self.rho = {lab: mat_from(m) for lab, m in rho.items()}
        self.name = name or f"{algebra.name}-explicit"
        missing = [lab for lab in algebra.labels if lab not in self.rho]
        if missing:
            raise ValidationError(f"rho lacks basis elements: {missing}")
        for lab, m in self.rho.items():
            if shape(m) != (space.dim, space.dim):
                raise ShapeError(f"rho({lab}) is not {space.dim}x{space.dim}")
        # per label, in label order: the entries of rho(xi_a); the entries
        # of Q_a = rho(xi_a)^T omega and of its fold, by row (``_by_row``)
        self._rho = [_sparse(self.rho[lab], f"rho({lab})") for lab in algebra.labels]
        forms = [_sparse(mat_mul(mat_transpose(self.rho[lab]), space.omega), f"Q({lab})") for lab in algebra.labels]
        self._forms = _by_row(forms, self.dim)
        self._quadratic = _by_row([_folded(q) for q in forms], self.dim)

    # -- group action ------------------------------------------------------

    def column(self, g: LoopGroupElement, k: int) -> tuple:
        """The non-zero entries (r, value) of column k of rho(g)^-1: a
        column of g^-1 on a plain block, a row of g on a dual one, where
        rho(g)^-1 = g^T.  All columns are formed once per element and
        kept in ``g.images`` under ``blocks``."""
        if self.blocks is None:
            raise ValidationError(
                f"representation {self.name!r} has no structural group action; "
                "sections require a built-in representation kind"
            )
        columns = g.images.get(self.blocks)
        if columns is None:
            n = self.algebra.n
            if g.n != n:
                raise ShapeError(f"acting on sl{n} blocks with an {g.n}x{g.n} element")
            # the rows of rho(g)^-T, whose blocks are g^-T and g
            g_inv_t = mat_transpose(g.inv)
            columns = g.images[self.blocks] = tuple(
                tuple((b * n + r, x) for r, x in enumerate((g.mat if dual else g_inv_t)[j]) if not x.is_zero())
                for b, dual in enumerate(self.blocks)
                for j in range(n)
            )
        return columns[k]

    # -- operations ----------------------------------------------------------

    def inf_action_terms(self, xi: LoopAlgebraElement, x: XVector) -> list[list]:
        """The ``field.dot`` terms (r, xi_a, x_j) of each coordinate of
        rho(xi) x: one per non-zero coordinate xi_a and entry (i, j, r)
        of rho(xi_a)."""
        if not same_algebra(xi.algebra, self.algebra):
            raise NotInAlgebra("element of a different algebra")
        self.space.check(x)
        xs = x.coords
        terms = [[] for _ in range(self.space.dim)]
        for c, entries in zip(xi.coeffs, self._rho):
            if c.is_zero():
                continue
            for i, j, r in entries:
                terms[i].append((r, c, xs[j]))
        return terms

    def dmoment_values(self, x: XVector, v: XVector) -> list[RatFunc]:
        """<dmu_x(v), xi_a> = x^T Q_a v for each basis label, in label order."""
        self.space.check(x, v)
        return _form_values(self._forms, self.algebra.dim, x.coords, v.coords)

    def moment_values(self, x: XVector) -> list[RatFunc]:
        """<mu(x), xi_a> = 1/2 x^T Q_a x for each basis label, in label
        order, one sum over the folded form of Q_a (pairs i <= j)."""
        self.space.check(x)
        return _form_values(self._quadratic, self.algebra.dim, x.coords, x.coords)

    def moment(self, x: XVector) -> CoadjointElement:
        """mu(x), the coadjoint value with the pairings ``moment_values(x)``."""
        return self.algebra.coadjoint_from_pairings(self.moment_values(x))

    def dmoment(self, x: XVector, v: XVector) -> CoadjointElement:
        """dmu_x(v), the coadjoint value with the pairings ``dmoment_values(x, v)``."""
        return self.algebra.coadjoint_from_pairings(self.dmoment_values(x, v))

    def __repr__(self):
        return f"HamiltonianRep({self.name!r}, dim={self.space.dim})"


def rep_validate(rep: HamiltonianRep) -> list[str]:
    """The violated Hamiltonian hypotheses, reported, not raised; empty
    when every one holds."""
    violations = []
    alg = rep.algebra
    omega = rep.space.omega
    for lab in alg.labels:
        m = rep.rho[lab]
        cond = mat_add(mat_mul(mat_transpose(m), omega), mat_mul(omega, m))
        if not mat_is_zero(cond):
            violations.append(f"rho({lab}) is not in sp(omega)")
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            want = mat_sub(
                mat_mul(rep.rho[alg.labels[a]], rep.rho[alg.labels[b]]),
                mat_mul(rep.rho[alg.labels[b]], rep.rho[alg.labels[a]]),
            )
            got = [[_ZERO] * rep.space.dim for _ in range(rep.space.dim)]
            for k, c in alg.brackets(a, b):
                mk = rep.rho[alg.labels[k]]
                for i in range(rep.space.dim):
                    for j in range(rep.space.dim):
                        if not mk[i][j].is_zero():
                            got[i][j] = got[i][j] + c * mk[i][j]
            if not mat_eq(tuple(tuple(r) for r in got), want):
                violations.append(
                    f"rho([{alg.labels[a]}, {alg.labels[b]}]) != "
                    f"[rho({alg.labels[a]}), rho({alg.labels[b]})]"
                )
    return violations


_BUILTIN_STANDARD = re.compile(r"^sl(\d+)-standard(?:-x(\d+))?$")
_BUILTIN_COTANGENT = re.compile(r"^sl(\d+)-cotangent$")


def _block_omega(n: int, blocks: tuple) -> list:
    """omega of a block sum of n x n blocks: a dual block pairs with the
    plain block before it ([[0, I], [-I, 0]] on the two), and a lone
    plain block, n = 2, is an sl2 plane ([[0, 1], [-1, 0]])."""
    pairs = []
    for b, dual in enumerate(blocks):
        if dual:
            pairs += [((b - 1) * n + k, b * n + k) for k in range(n)]
        elif True not in blocks[b + 1 : b + 2]:
            pairs.append((b * n, b * n + 1))
    size = n * len(blocks)
    rows = [[0] * size for _ in range(size)]
    for p, q in pairs:
        rows[p][q], rows[q][p] = 1, -1
    return rows


def builtin_rep(name: str) -> HamiltonianRep:
    """Construct a named built-in representation.

    Supported: "sl2-standard", "sl2-standard-xK" (K >= 1 copies), and
    "slN-cotangent" for N >= 2.
    """
    m = _BUILTIN_STANDARD.match(name)
    if m:
        n, copies = int(m.group(1)), int(m.group(2) or 1)
        if n != 2:
            raise ValidationError(
                f"{name!r}: the defining representation of sl{n} is symplectic "
                "only for n = 2; use the cotangent representation instead"
            )
        blocks = (False,) * copies
    else:
        m = _BUILTIN_COTANGENT.match(name)
        if not m:
            raise ValidationError(f"unknown representation {name!r}")
        n = int(m.group(1))
        if n < 2:
            raise ValidationError(f"{name!r}: rank must be at least 2")
        blocks = (False, True)
    return HamiltonianRep(sl(n), SymplecticSpace(_block_omega(n, blocks)), blocks=blocks, name=name)

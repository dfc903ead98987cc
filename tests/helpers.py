"""Test-only builders: constant gauge transport of section data, the
dense image rho(g) and the formed action rho(xi) x of a built-in
representation, the matrix-vector product, stand-in representations
that hand ``TwistedSystem`` a frame given entry by entry, seeded
sampling, a ``RatFunc``'s coefficients as ``GaussRat`` (``numerator``,
``denominator``), named Lie-algebra elements, monomial candidate vectors and the
coadjoint transition; the dense oracles of the coordinate forms in
``lie``: the matrix commutator, the trace-form pairing and the pairings
with the basis read off a matrix; the entry form of the bracket
(``ad_terms``), the coadjoint bracket and the dual of a set of pairings,
which the library no longer needs; the dense jet recomputation of Omega
that ``moduli.cartan_check`` replaced; the always-hashing reference of
``SeedStream.randint``; the Higgs-field system with one row per matrix
entry, the oracle of the coordinate rows; and the dense forms of the
solver's sparse systems, with the dense-input echelon kernel as the
oracle of the indexed one.  Also the forms a theorem trial no longer
takes: Omega by its formed integrand, the adjugate by cofactors and
sampling summed as values, with the value views of a solver space
(``basis_values``, ``particular_value``), which the solver no longer
hands out; the dense structure constants; the coordinate terms of a
matrix given by its entries' terms; and the matrix and vector builders only tests
read (``zeros``, ``zero_vector``, ``unit_vector``).  Also the
transport and the cocycle words as they were before the transport folded
the chart pull and the twist into ``p_dot`` terms and the words were
multiplied on coefficients: each T_i^-w pull_i(x_k) formed as a germ
and summed by ``dot`` (``transport_terms``, ``germ_derive_prime``,
``germ_derive_prime_dot``), and each generator applied with ``RatFunc``
products (``product_random_cocycle``)."""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from typing import Mapping

from higgsres import _kernels as K
from higgsres.errors import ShapeError
from higgsres.field import GQ_ONE, GQ_ZERO, GaussRat, Jet2, RatFunc, dot, polar_dot
from higgsres.hamiltonian import XVector
from higgsres.lie import (
    CoadjointElement,
    LoopAlgebraElement,
    LoopGroupElement,
    MatrixLieAlgebra,
    _require_same_algebra,
    _SIGNS,
    bracket,
    pairing,
)
from higgsres.linalg import Elimination
from higgsres.matrices import Matrix, _minor, as_entry, block_diag, det, identity, mat_mul, mat_transpose, shape
from higgsres.moduli import HiggsPoint, HiggsTangent, YPoint, YTangent, make_y_point, make_y_tangent
from higgsres.solver import (
    AffineSpace,
    CandidateSpace,
    CocycleRecipe,
    SeedStream,
    TwistedSystem,
    candidate_functions,
    sample_affine,
    sample_vector,
)


def mat_vec(a: Matrix, v) -> tuple:
    """The product of a matrix and a vector of RatFunc, one ``dot`` per row."""
    n, k = shape(a)
    if k != len(v):
        raise ShapeError(f"cannot apply {shape(a)} to a vector of length {len(v)}")
    return tuple(dot(zip(repeat(GQ_ONE), row, v)) for row in a)


def rho_group(rep, g: LoopGroupElement) -> Matrix:
    """rho(g) of a built-in representation, dense: one block g, or g^-T
    on a dual block, per entry of ``rep.blocks``."""
    return block_diag(*(mat_transpose(g.inverse().mat) if dual else g.mat for dual in rep.blocks))


def inf_action(rep, xi: LoopAlgebraElement, x):
    """rho(xi) x as a value, one ``dot`` per coordinate of the terms
    ``rep.inf_action_terms`` hands out."""
    return rep.value([dot(t) for t in rep.inf_action_terms(xi, x)])


def sparse_column(entries) -> tuple:
    """The non-zero entries (row, entry) of a column given entry by entry:
    the form of a frame column that ``assemble`` reads."""
    return tuple((r, e) for r, e in enumerate(entries) if not e.is_zero())


class FrameDisk:
    """Disk i as a group element of ``FrameRep``; its ``inverse()`` is the
    same disk flagged ``inverted``."""

    def __init__(self, i: int, inverted: bool = False):
        self.i = i
        self.inverted = inverted

    def inverse(self) -> "FrameDisk":
        return FrameDisk(self.i, not self.inverted)


class FrameRep:
    """A stand-in representation that hands ``TwistedSystem`` a frame
    given entry by entry, ``frame[i][k]`` for disk i and basis element k.
    Build the system over its disks, ``TwistedSystem(candidates, rep,
    rep.disks)``: ``column(disk, k)`` is ``frame[i][k]``'s non-zero
    entries.  Its values are lists unless ``value`` says otherwise.

    ``inverse[i]``, when given, is the dense matrix rho(g_i) whose inverse
    the frame of disk i is, and the inverted disk's columns, which the
    solver's floors read, are its columns; without it each is one entry
    of an order below that of every candidate, so the solver keeps every
    column."""

    # below ord f_t for every candidate of any bounds used here
    NO_FLOOR = RatFunc.monomial(GQ_ONE, -1000)

    def __init__(self, frame, weight: int, value=list, inverse=None):
        self.frame = frame
        self.weight = weight
        self.value = value
        self.inverse = inverse
        self.dim = len(frame[0])
        self.disks = [FrameDisk(i) for i in range(len(frame))]

    def column(self, disk: FrameDisk, k: int) -> tuple:
        if not disk.inverted:
            return sparse_column(self.frame[disk.i][k])
        if self.inverse is None:
            return ((k, self.NO_FLOOR),)
        return sparse_column(row[k] for row in self.inverse[disk.i])


def gauge_transform_y_point(p: YPoint, h: LoopGroupElement) -> YPoint:
    """Conjugate all data by a constant group element (g_i -> h g_i h^-1)."""
    hinv = h.inverse()
    g_new = [h * gi * hinv for gi in p.g]
    s_new = XVector(mat_vec(rho_group(p.rep, h), p.s_circ.coords))
    return make_y_point(p.curve, p.rep, g_new, s_new)


def gauge_transform_y_tangent(t: YTangent, p_new: YPoint, h: LoopGroupElement) -> YTangent:
    hinv = h.inverse()
    g_dot_new = [
        LoopAlgebraElement(
            gd.algebra, mat_mul(mat_mul(h.mat, gd.mat), hinv.mat)
        )
        for gd in t.g_dot
    ]
    s_dot_new = XVector(mat_vec(rho_group(t.base.rep, h), t.s_circ_dot.coords))
    return make_y_tangent(p_new, g_dot_new, s_dot_new)


def sample(space, seed, max_num: int = 2, max_den: int = 2):
    """Deterministic pseudo-random element of a solution space.

    ``space`` is a ``TwistedSystem``, an ``AffineSpace`` or a list of
    basis values (summed as values, ``value_sample_vector``); ``seed`` an
    integer or a SeedStream.  The same seed always yields the same element.
    """
    rng = seed if isinstance(seed, SeedStream) else SeedStream("sample", seed)
    if isinstance(space, AffineSpace):
        return sample_affine(space, rng, max_num, max_den)
    if isinstance(space, list):
        return value_sample_vector(space, rng, max_num, max_den)
    return sample_vector(space, rng, max_num, max_den)


def numerator(f: RatFunc) -> tuple:
    """The numerator's coefficients as GaussRat, low to high."""
    return tuple(GaussRat.from_triple(t) for t in f._n)


def denominator(f: RatFunc) -> tuple:
    """The monic denominator's coefficients as GaussRat, low to high."""
    return tuple(GaussRat.from_triple(t) for t in f._d)


def label_index(algebra: MatrixLieAlgebra, label: str) -> int:
    if label not in algebra.labels:
        raise KeyError(f"{algebra.name} has no basis element {label!r}")
    return algebra.labels.index(label)


def basis_element(algebra: MatrixLieAlgebra, label: str) -> LoopAlgebraElement:
    return LoopAlgebraElement(algebra, algebra.basis[label_index(algebra, label)])


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple(tuple(RatFunc.const(0) for _ in range(ncols)) for _ in range(nrows))


def zero_vector(dim: int) -> XVector:
    return XVector([RatFunc.const(0)] * dim)


def unit_vector(dim: int, k: int) -> XVector:
    """The k-th standard basis vector of a symplectic space of dimension dim."""
    return XVector([RatFunc.const(1 if j == k else 0) for j in range(dim)])


def zero_element(algebra: MatrixLieAlgebra) -> LoopAlgebraElement:
    return LoopAlgebraElement(algebra, zeros(algebra.n, algebra.n))


def monomial_vectors(space: CandidateSpace, dim: int) -> list:
    """The monomial XVector basis (unit slot times scalar candidate),
    in the column order used by the linear systems."""
    out = []
    for slot in range(dim):
        for f in space.functions:
            coords = [RatFunc.const(0)] * dim
            coords[slot] = f
            out.append(XVector(coords))
    return out


def coadjoint_transition(g: LoopGroupElement, phi: CoadjointElement) -> CoadjointElement:
    """g^-1 phi g (the pinned transition convention for dual values)."""
    if g.n != phi.algebra.n:
        raise ShapeError("group element and coadjoint value sizes differ")
    ginv = g.inverse()
    return CoadjointElement(phi.algebra, mat_mul(mat_mul(ginv.mat, phi.mat), g.mat))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba, each entry one sum of products with the ba terms negated."""
    n, m = shape(a)
    if m != shape(b)[0]:
        raise ShapeError(f"cannot multiply {shape(a)} by {shape(b)}")
    if shape(b) != (n, m) or n != m:
        raise ShapeError(f"commutator of {shape(a)} and {shape(b)}: not square of one size")
    acols, bcols = tuple(zip(*a)), tuple(zip(*b))
    neg = -GQ_ONE
    return tuple(
        tuple(
            dot(chain(zip(repeat(GQ_ONE), ra, bc), zip(repeat(neg), rb, ac)))
            for ac, bc in zip(acols, bcols)
        )
        for ra, rb in zip(a, b)
    )


def trace_pairing(phi: CoadjointElement, xi: LoopAlgebraElement) -> RatFunc:
    """tr(phi.mat xi.mat), summed as phi[i][k] xi[k][i] over every entry."""
    if shape(phi.mat) != shape(xi.mat):
        raise ShapeError("pairing of differently sized matrices")
    pairs = zip(phi.mat, zip(*xi.mat))
    return dot((GQ_ONE, x, y) for row, col in pairs for x, y in zip(row, col))


def dual_values(algebra: MatrixLieAlgebra, mat: Matrix) -> list[RatFunc]:
    """tr(mat xi_a) for each basis label, in label order, read off any
    n x n matrix.

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


def ad_terms(xi: LoopAlgebraElement, m: Matrix, sign: int = 1) -> dict:
    """The entries of sign * [xi, M] as ``field.dot`` terms, keyed (row, col).

    Summed over the non-zero coordinates xi_a only: the unit e_rc of b_a
    puts row c of M into row r, and minus column r of M into column c.
    Entries with no key are zero.  The entry form of the bracket that
    ``lie.bracket_terms`` reads from the bracket table.
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


def coordinate_terms(algebra: MatrixLieAlgebra, terms: Mapping) -> list[list]:
    """The ``field.dot`` terms of each coordinate of the traceless
    matrix whose entry (r, c) is ``dot(terms[(r, c)])`` (zero where
    there is no key): an E or F coordinate has its entry's terms, H_j
    the terms of the diagonal entries 0..j together."""
    out = [[] for _ in range(algebra.dim)]
    for unit, entry in terms.items():
        for k in algebra._slots[unit]:
            out[k].extend(entry)
    return out


def structure(algebra: MatrixLieAlgebra) -> dict[tuple[int, int], list[GaussRat]]:
    """The structure constants, dense: ``structure(algebra)[(a, b)]``
    expands [b_a, b_b] (a != b), read off the bracket table
    (``MatrixLieAlgebra.brackets``), which it fills for every pair."""
    out = {}
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            if a != b:
                out[(a, b)] = consts = [GQ_ZERO] * algebra.dim
                for c, w in algebra.brackets(a, b):
                    consts[c] = w
    return out


def coadjoint_bracket(phi: CoadjointElement, xi: LoopAlgebraElement) -> CoadjointElement:
    """[phi, xi] = phi xi - xi phi, summed over the non-zero coordinates of
    xi from the entries of phi (``ad_terms``) into coordinates."""
    _require_same_algebra(phi, xi)
    terms = coordinate_terms(phi.algebra, ad_terms(xi, phi.mat, -1))
    return CoadjointElement._trusted(phi.algebra, [dot(t) for t in terms])


def dualize(algebra: MatrixLieAlgebra, values: Mapping[str, RatFunc]) -> CoadjointElement:
    """The traceless M with tr(M xi_a) = values[a] for each basis label
    (missing labels pair to 0): ``coadjoint_from_pairings``."""
    return algebra.coadjoint_from_pairings(
        [as_entry(values.get(lab, RatFunc.const(0))) for lab in algebra.labels]
    )


def _jet_trace_mul(a_rows, b_rows) -> Jet2:
    """tr(A B) of two n x n Jet2 matrices, over all n^2 products."""
    n = len(a_rows)
    acc = None
    for i in range(n):
        for k in range(n):
            term = a_rows[i][k] * b_rows[k][i]
            acc = term if acc is None else acc + term
    return acc


def dense_cartan_terms(p: HiggsPoint, t1: HiggsTangent, t2: HiggsTangent) -> tuple:
    """(term1, term2, term3, omega) of ``moduli.cartan_check`` from dense
    matrices: term1 and term2 as jet traces of n x n ``Jet2`` matrices
    (phi' lifted along e1 or e2 against the fixed gdot), term3 and the
    Omega integrand by the dense commutator and trace pairing."""
    term1 = term2 = term3 = omega = GQ_ZERO
    for i in range(p.curve.n_points):
        phi, g1, g2 = p.phi_prime[i], t1.g_dot[i], t2.g_dot[i]
        dot1, dot2 = t1.phi_prime_dot[i], t2.phi_prime_dot[i]
        n = p.algebra.n
        psi1 = [[Jet2.lift1(phi.mat[r][c], dot1.mat[r][c]) for c in range(n)] for r in range(n)]
        fixed2 = [[Jet2(g2.mat[r][c]) for c in range(n)] for r in range(n)]
        term1 = term1 + _jet_trace_mul(psi1, fixed2).d1.laurent_coefficient(-1)
        psi2 = [[Jet2.lift2(phi.mat[r][c], dot2.mat[r][c]) for c in range(n)] for r in range(n)]
        fixed1 = [[Jet2(g1.mat[r][c]) for c in range(n)] for r in range(n)]
        term2 = term2 + _jet_trace_mul(psi2, fixed1).d2.laurent_coefficient(-1)
        br = LoopAlgebraElement(p.algebra, commutator(g1.mat, g2.mat))
        tautological = trace_pairing(phi, br)
        integrand = trace_pairing(dot1, g2) - trace_pairing(dot2, g1) - tautological
        term3 = term3 + tautological.laurent_coefficient(-1)
        omega = omega + integrand.laurent_coefficient(-1)
    return term1, term2, term3, omega


def omega_by_integrand(p: HiggsPoint, t1: HiggsTangent, t2: HiggsTangent) -> tuple:
    """(term3, Omega(t1, t2)) of ``moduli.cartan_check`` by the integrand
    formula that forms each pairing and the per-disk integrand as
    rational functions and reads their u^-1 coefficients."""
    term3 = omega = GQ_ZERO
    for i in range(p.curve.n_points):
        g1, g2 = t1.g_dot[i], t2.g_dot[i]
        tautological = pairing(p.phi_prime[i], bracket(g1, g2))
        integrand = pairing(t1.phi_prime_dot[i], g2) - pairing(t2.phi_prime_dot[i], g1) - tautological
        term3 = term3 + tautological.laurent_coefficient(-1)
        omega = omega + integrand.laurent_coefficient(-1)
    return term3, omega


def cofactor_adjugate(a: Matrix) -> Matrix:
    """The adjugate of a square matrix of size >= 2 by the cofactor
    expansion: entry (j, i) is (-1)^(i+j) det of the minor without row i
    and column j."""
    n = len(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det(_minor(a, i, j))
            out[j][i] = c if (i + j) % 2 == 0 else -c
    return tuple(tuple(row) for row in out)


def basis_values(system: TwistedSystem) -> list:
    """The values of a system's null vectors, one ``_combine`` each: the
    ``basis`` view the solver used to keep."""
    return [system._combine(v) for v in system.null_vectors]


def particular_value(space: AffineSpace):
    """The value of a tangent space's particular solution."""
    return space.system._combine(space.coefficients)


def value_sample_vector(basis: list, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """``solver.sample_vector`` on a list of basis values, summed as values
    (c_0 b_0 + c_1 b_1 + ...), with the same draws."""
    coeffs = [rng.gauss(max_num, max_den) for _ in basis]
    if all(c.is_zero() for c in coeffs):
        coeffs[rng.randint(0, len(coeffs) - 1)] = GQ_ONE
    acc = None
    for c, b in zip(coeffs, basis):
        acc = c * b if acc is None else acc + c * b
    return acc


def value_sample_affine(particular, basis: list, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """``solver.sample_affine`` summed as values: the particular value plus
    c b for each basis value b whose drawn c is not 0."""
    out = particular
    for b in basis:
        c = rng.gauss(max_num, max_den)
        if not c.is_zero():
            out = out + c * b
    return out


def hashed_randint(path: tuple, counter: int, lo: int, hi: int) -> int:
    """Draw number ``counter`` of ``SeedStream(*path).randint(lo, hi)``,
    hashed whole every time, one-value ranges included: lo plus the
    SHA-256 of repr((path, counter)) modulo the size of the range."""
    digest = hashlib.sha256(repr((path, counter)).encode()).digest()
    return lo + int.from_bytes(digest, "big") % (hi - lo + 1)


# ---------------------------------------------------------------------------
# the Higgs-field system with one row per matrix entry
# ---------------------------------------------------------------------------


def entry_higgs_frame(algebra: MatrixLieAlgebra, g) -> list:
    """g_i^-1 b_k g_i by the dense oracle, flattened row-major, for every
    basis element b_k: the Higgs frame with n^2 entry rows per disk and
    exponent in place of the n^2 - 1 coordinates of ``lie.Coadjoint.column``."""
    return [
        [
            tuple(e for row in coadjoint_transition(g_i, CoadjointElement(algebra, b)).mat for e in row)
            for b in algebra.basis
        ]
        for g_i in g
    ]


def entry_higgs_system(curve, algebra: MatrixLieAlgebra, g, bounds) -> TwistedSystem:
    """``solver.build_higgs_field_space`` on the entry frame."""
    candidates = candidate_functions(curve, bounds)
    rep = FrameRep(entry_higgs_frame(algebra, g), 2, algebra.coadjoint_from)
    return TwistedSystem(candidates, rep, rep.disks)


def entry_higgs_rhs(point: HiggsPoint, g_dot) -> list[dict]:
    """The polar coefficients of [gdot_i, phi'_i] per disk and entry,
    row-major as in ``entry_higgs_frame``: the right sides of
    ``entry_higgs_system``."""
    n = point.algebra.n
    return [
        {r * n + c: polar_dot(terms) for (r, c), terms in ad_terms(g_dot[i], phi.mat).items()}
        for i, phi in enumerate(point.phi_prime)
    ]


# ---------------------------------------------------------------------------
# dense systems in the solver's sparse contract
# ---------------------------------------------------------------------------


def sparse_rows(matrix) -> list:
    """The rows of a dense matrix of triples as dicts ``{column: triple}``
    of their non-zeros: the rows ``assemble`` gives and ``zi_echelon``
    and ``Elimination`` take."""
    return [{j: t for j, t in enumerate(row) if t[0] or t[1]} for row in matrix]


def dense_rows(rows, ncols: int) -> list:
    """Sparse rows back as dense rows of ``ncols`` triples."""
    out = []
    for row in rows:
        dense = [K.GQ_ZERO] * ncols
        for j, t in row.items():
            dense[j] = t
        out.append(dense)
    return out


def sparse_vector(vec) -> dict:
    """A dense vector of GaussRat as the dict ``{column: GaussRat}`` of its
    non-zeros: the null vectors and solutions of ``Elimination``."""
    return {j: x for j, x in enumerate(vec) if not x.is_zero()}


def dense_vector(vec, ncols: int):
    """A ``{column: GaussRat}`` vector as a list of ``ncols`` GaussRat; None
    (an inconsistent solve) stays None."""
    if vec is None:
        return None
    out = [GQ_ZERO] * ncols
    for j, x in vec.items():
        out[j] = x
    return out


class DenseElimination:
    """An ``Elimination`` with dense rows in and dense vectors out, for the
    checks written against dense matrices: ``null_basis`` and ``solve``
    give lists of GaussRat with one entry per column.  Built from a
    dense matrix."""

    def __init__(self, matrix, ncols: int):
        self.elimination = Elimination(sparse_rows(matrix), range(ncols))

    @property
    def null_basis(self) -> list:
        ncols = self.elimination.ncols
        return [dense_vector(v, ncols) for v in self.elimination.null_basis]

    def solve(self, column):
        return dense_vector(self.elimination.solve(column), self.elimination.ncols)


def dense_zi_echelon(rows, npivot):
    """``zi_echelon`` as it was on dense rows: the oracle of the indexed
    kernel.  Each dense row is replaced by the dict of the non-zeros of its
    reduced row, and the rows of each column are found by testing every
    row; the steps are returned as the kernel returns them."""
    m = len(rows)
    sparse = sparse_rows(rows)
    used = [False] * m
    steps = []
    for col in range(npivot):
        hits = [i for i in range(m) if col in sparse[i]]
        piv = next((i for i in hits if not used[i]), -1)
        if piv < 0:
            continue
        used[piv] = True
        pr = sparse[piv]
        inv = K.gq_inv(pr[col])
        if inv != K.GQ_ONE:
            for j, t in pr.items():
                pr[j] = K.gq_mul(inv, t)
        pr[col] = K.GQ_ONE
        targets = []
        for i in hits:
            if i == piv:
                continue
            ri = sparse[i]
            f = ri.pop(col)
            targets.append((i, f))
            for j, t in pr.items():
                if j == col:
                    continue
                e = ri.get(j)
                x = K.gq_neg(K.gq_mul(f, t)) if e is None else K.gq_sub(e, K.gq_mul(f, t))
                if x[0] or x[1]:
                    ri[j] = x
                else:
                    del ri[j]
        steps.append((piv, col, inv, targets))
    rows[:] = sparse
    return steps


def transport_terms(curve, rep, g, i: int, x) -> list[list]:
    """The ``field.dot`` terms of each coordinate of T_i^-w rho(g_i)^-1 x,
    w = ``rep.weight``, x given by its coordinates in the global
    coordinate z: the germ T_i^-w pull_i(x_k) times each non-zero entry
    of column k of rho(g_i)^-1 (``rep.column``), read for the non-zero
    x_k only."""
    chart = curve.chart(i)
    twist = curve.twists(rep.weight)[i]
    terms = [[] for _ in range(rep.dim)]
    for k, c in enumerate(x):
        if c.is_zero():
            continue
        y = twist * chart.pull(c)
        for r, v in rep.column(g[i], k):
            terms[r].append((GQ_ONE, y, v))
    return terms


def germ_derive_prime(curve, rep, g, x) -> list:
    """x'_i = T_i^-w rho(g_i)^-1 x at every marked point, one ``dot`` of
    the germ terms ``transport_terms`` per coordinate."""
    return [rep.value([dot(t) for t in transport_terms(curve, rep, g, i, x)]) for i in range(curve.n_points)]


def germ_derive_prime_dot(curve, rep, g, x_dot, actions) -> list:
    """xdot'_i = T_i^-w rho(g_i)^-1 xdot - rho(gdot_i) x'_i at every marked
    point, ``actions[i]`` the ``field.dot`` terms of each coordinate of
    rho(gdot_i) x'_i: the germ terms of the transport and the action's,
    negated, in one ``dot`` per coordinate."""
    out = []
    for i in range(curve.n_points):
        terms = transport_terms(curve, rep, g, i, x_dot)
        for own, action in zip(terms, actions[i]):
            own.extend((-c, a, b) for c, a, b in action)
        out.append(rep.value([dot(t) for t in terms]))
    return out


def product_random_cocycle(n: int, recipe: CocycleRecipe, rng: SeedStream) -> LoopGroupElement:
    """``solver.random_cocycle`` with the same draws, each generator applied
    to the word's entries with ``RatFunc`` products: diag(u^e) multiplies
    column k by u^e_k, I + c E_jk adds c u^m col_j to col_k."""

    def scale_columns(exponents):
        powers = [RatFunc.monomial(GQ_ONE, e) for e in exponents]
        for row in rows:
            row[:] = [x * p if e else x for x, p, e in zip(row, powers, exponents)]

    rows = [list(row) for row in identity(n)]
    has_torus = False
    for _ in range(recipe.length):
        kind = rng.choice(["torus", "elementary", "elementary"])
        if kind == "torus":
            has_torus = True
            exps = [rng.randint(-recipe.torus_amplitude, recipe.torus_amplitude) for _ in range(n - 1)]
            exps.append(-sum(exps))
            scale_columns(exps)
        else:
            j = rng.randint(1, n)
            k = rng.randint(1, n - 1)
            if k >= j:
                k += 1
            m = rng.randint(-recipe.max_exponent, recipe.max_exponent)
            c = RatFunc.monomial(rng.nonzero_gauss(recipe.max_num, recipe.max_den), m)
            for row in rows:
                row[k - 1] = row[k - 1] + c * row[j - 1]
    if not has_torus:
        scale_columns([1] + [0] * (n - 2) + [-1])
    return LoopGroupElement(rows, check=False)

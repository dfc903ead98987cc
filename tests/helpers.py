"""Test-only builders: constant gauge transport of section data, seeded
sampling, named Lie-algebra elements, monomial candidate vectors and the
coadjoint transition; the dense oracles of the coordinate forms in
``lie``: the matrix commutator, the trace-form pairing and the pairings
with the basis read off a matrix; and the always-hashing reference of
``SeedStream.randint``."""

from __future__ import annotations

import hashlib
from itertools import chain, repeat

from higgsres.errors import ShapeError
from higgsres.field import GQ_ONE, RatFunc, dot
from higgsres.hamiltonian import XVector
from higgsres.lie import CoadjointElement, LoopAlgebraElement, LoopGroupElement, MatrixLieAlgebra
from higgsres.matrices import Matrix, mat_mul, mat_vec, shape, zeros
from higgsres.moduli import YPoint, YTangent, make_y_point, make_y_tangent
from higgsres.solver import AffineSpace, CandidateSpace, SeedStream, sample_affine, sample_vector


def gauge_transform_y_point(p: YPoint, h: LoopGroupElement) -> YPoint:
    """Conjugate all data by a constant group element (g_i -> h g_i h^-1)."""
    hinv = h.inverse()
    g_new = [h * gi * hinv for gi in p.g]
    rho_h = p.rep.act_group(h)
    s_new = XVector(mat_vec(rho_h, p.s_circ.coords))
    return make_y_point(p.curve, p.rep, g_new, s_new)


def gauge_transform_y_tangent(t: YTangent, p_new: YPoint, h: LoopGroupElement) -> YTangent:
    hinv = h.inverse()
    g_dot_new = [
        LoopAlgebraElement(
            gd.algebra, mat_mul(mat_mul(h.mat, gd.mat), hinv.mat)
        )
        for gd in t.g_dot
    ]
    rho_h = t.base.rep.act_group(h)
    s_dot_new = XVector(mat_vec(rho_h, t.s_circ_dot.coords))
    return make_y_tangent(p_new, g_dot_new, s_dot_new)


def sample(space, seed, max_num: int = 2, max_den: int = 2):
    """Deterministic pseudo-random element of a solution space.

    ``space`` is a linear space (anything with a ``basis``, or a bare
    basis list) or an AffineSpace; ``seed`` an integer or a SeedStream.
    The same seed always yields the same element.
    """
    rng = seed if isinstance(seed, SeedStream) else SeedStream("sample", seed)
    if isinstance(space, AffineSpace):
        return sample_affine(space, rng, max_num, max_den)
    return sample_vector(space, rng, max_num, max_den)


def label_index(algebra: MatrixLieAlgebra, label: str) -> int:
    if label not in algebra.labels:
        raise KeyError(f"{algebra.name} has no basis element {label!r}")
    return algebra.labels.index(label)


def basis_element(algebra: MatrixLieAlgebra, label: str) -> LoopAlgebraElement:
    return LoopAlgebraElement(algebra, algebra.basis[label_index(algebra, label)])


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


def hashed_randint(path: tuple, counter: int, lo: int, hi: int) -> int:
    """Draw number ``counter`` of ``SeedStream(*path).randint(lo, hi)``,
    hashed whole every time, one-value ranges included: lo plus the
    SHA-256 of repr((path, counter)) modulo the size of the range."""
    digest = hashlib.sha256(repr((path, counter)).encode()).digest()
    return lo + int.from_bytes(digest, "big") % (hi - lo + 1)

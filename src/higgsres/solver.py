"""Exact construction of section/tangent spaces, and seeded sampling.

Sections and Higgs fields are both global sections of a bundle given by
local transition matrices M_i(u): T_i^-1 rho(g_i)^-1 on the section side,
T_i^-2 Ad(g_i^-1) on the Higgs side (the coadjoint bundle twisted by K).
One solver handles both.  Regularity of the transported disk data is a
finite set of linear conditions on the coefficients of a global
candidate: every negative-exponent Laurent coefficient of the
transported candidate must vanish.  Candidates are spanned by monomials

    z^t / prod_j (z - a_j)^P        (finite marked points a_j),

with t bounded by deg(denominator) plus the allowed pole order at a
marked infinity.  Truncation depths are always computed from the pole
orders of the inputs, never guessed.

Assembly reads the system off one Laurent expansion per frame entry:
with h = pull_i(1/D) * entry, the candidate z^t contributes (u + a)^t h
at a finite point a, whose polar coefficients are binomial combinations
of the window of h from ord_0 h to u^-1, and u^-t h at infinity, a
shifted window of h up to u^(size-2).

Factor once, then solve many: a ``TwistedSystem`` assembles the
conditions of one bundle and eliminates them once, exactly over Q(i)
(``linalg.Elimination``: sparse Gauss-Jordan on the non-zeros,
deterministic pivot order, the steps kept).  That gives the sections.
The point built from a section or Higgs-field space keeps the system,
and every tangent solve at that point (a right-hand side ``b`` made of
the polar parts of the g_dot action) goes through
``linalg.solve_system`` against the stored elimination: ``b`` is
infeasible when one of its polar coefficients lies in no row of the
system or when, after the elimination steps are replayed on its
non-zeros, an entry outside the pivot rows is nonzero; otherwise the
solution is read off the pivot rows.

Randomness is supplied by a splittable counter-based stream (SHA-256 of
the path), so identical seeds reproduce identical instances on any
platform, and per-trial substreams are independent of evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels as K
from .curve import MarkedCurve
from .errors import EmptySpace, Infeasible
from .field import GaussRat, Poly, RatFunc, laurent_expand
from .hamiltonian import XVector
from .lie import (
    CoadjointElement,
    LoopAlgebraElement,
    LoopGroupElement,
    MatrixLieAlgebra,
)
from .linalg import Elimination, solve_system
from .matrices import commutator, identity
from .moduli import HiggsPoint, YPoint, higgs_transport, section_transition

# ---------------------------------------------------------------------------
# deterministic splittable randomness
# ---------------------------------------------------------------------------


class SeedStream:
    """Counter-based deterministic random stream, splittable by path.

    Values are derived from SHA-256 of (path, counter), so child streams
    are independent of the order in which they are consumed.
    """

    def __init__(self, *path):
        self._path = path
        self._counter = 0

    def child(self, *label) -> "SeedStream":
        return SeedStream(*self._path, *label)

    def _next(self) -> int:
        key = repr((self._path, self._counter)).encode()
        self._counter += 1
        return int.from_bytes(hashlib.sha256(key).digest(), "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi] (modulo bias is irrelevant here)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self._next() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self, max_num: int = 3, max_den: int = 2) -> Fraction:
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def gauss(self, max_num: int = 3, max_den: int = 2, imaginary: bool = True) -> GaussRat:
        re = self.fraction(max_num, max_den)
        im = self.fraction(max_num, max_den) if imaginary and self.randint(0, 2) == 0 else 0
        return GaussRat(re, im)

    def nonzero_gauss(self, max_num: int = 3, max_den: int = 2) -> GaussRat:
        while True:
            g = self.gauss(max_num, max_den)
            if not g.is_zero():
                return g


# ---------------------------------------------------------------------------
# candidate spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverBounds:
    """Degree bound at a marked infinity and pole bound at finite marked points."""

    degree: int = 8
    pole_order: int = 6


@dataclass
class CandidateSpace:
    """Monomial scalar candidates for functions regular away from marked points."""

    functions: list
    bounds: SolverBounds

    @property
    def size(self) -> int:
        return len(self.functions)

    def monomial_vectors(self, dim: int) -> list:
        """The monomial XVector basis (unit slot times scalar candidate),
        in the column order used by the linear systems."""
        out = []
        for slot in range(dim):
            for f in self.functions:
                coords = [RatFunc.const(0)] * dim
                coords[slot] = f
                out.append(XVector(coords))
        return out


def candidate_functions(curve: MarkedCurve, bounds: SolverBounds) -> CandidateSpace:
    """The monomial basis z^t / prod (z - a_j)^pole_order."""
    den = Poly([1])
    for p in curve.marked_points:
        if p.is_infinity:
            continue
        factor = Poly([-p.value, 1]) ** bounds.pole_order
        den = den * factor
    t_max = den.degree()
    if any(p.is_infinity for p in curve.marked_points):
        t_max += bounds.degree
    x = Poly.x()
    functions = []
    mono = Poly([1])
    for _ in range(t_max + 1):
        functions.append(RatFunc(mono, den))
        mono = mono * x
    return CandidateSpace(functions, bounds)


# ---------------------------------------------------------------------------
# sections of twisted bundles
# ---------------------------------------------------------------------------


def _window(h: RatFunc, top: int):
    """(ord_0 h, the coefficient triples of h for exponents ord_0 h .. top),
    or None when h has no coefficient that low (h = 0 included)."""
    v = h.valuation()
    if v is None or v > top:
        return None
    series = laurent_expand(h, top - v + 1)
    return v, [series.coefficient(e)._t for e in range(v, top + 1)]


def _shift_powers(a: GaussRat, size: int) -> list:
    """[(j, C(t,j) a^(t-j)) for the nonzero terms] of (u + a)^t, t < size."""
    a = a._t
    powers = []
    poly = [K.GQ_ONE]
    for _ in range(size):
        powers.append([(j, c) for j, c in enumerate(poly) if not K.gq_is_zero(c)])
        # poly <- poly * (u + a)
        shifted = [K.GQ_ZERO] + poly
        poly = [K.gq_add(K.gq_mul(a, c), lower) for c, lower in zip(poly + [K.GQ_ZERO], shifted)]
    return powers


def _finite_columns(lo: int, window: list, powers: list):
    """(t, e, coefficient) of the polar part of (u + a)^t h, h = sum window[m] u^(lo+m).

    The window runs to u^-1, so it holds every coefficient of h that
    reaches a negative exponent: the coefficient at lo + m is
    sum_j C(t,j) a^(t-j) window[m - j].
    """
    for t, terms in enumerate(powers):
        for m in range(len(window)):
            acc = K.GQ_ZERO
            for j, c in terms:
                if j > m:
                    break
                x = window[m - j]
                if not K.gq_is_zero(x):
                    acc = K.gq_add(acc, K.gq_mul(c, x))
            if not K.gq_is_zero(acc):
                yield t, lo + m, acc


def _infinite_columns(lo: int, window: list, size: int):
    """(t, e, coefficient) of the polar part of u^-t h, h = sum window[s] u^(lo+s).

    The window runs to u^(size-2), the highest exponent that the largest
    shift t = size - 1 brings below 0.
    """
    for t in range(size):
        for s in range(t - lo):
            x = window[s]
            if not K.gq_is_zero(x):
                yield t, lo + s - t, x


class TwistedSystem:
    """The regularity conditions of one twisted bundle, assembled and factored once.

    ``frame[i][k]`` is the tuple of local coordinates of basis element k
    transported to disk i (the k-th column of the transition M_i(u)).  A
    candidate sum_{k,t} c_kt f_t e_k is a global section when every
    transported germ is regular at u = 0: one linear condition per polar
    coefficient, keyed (disk, coordinate, exponent): ``matrix`` has one
    row per key of ``row_keys``.  ``basis`` holds the sections, each as
    its dim scalar functions.  ``particular`` solves for a candidate with
    prescribed polar parts against the stored elimination, reducing only
    the right-hand side.  Column k * size + t belongs to the candidate
    f_t e_k; since f_t = z^t f_0, each frame entry is expanded once and
    every t is read off that expansion.
    """

    __slots__ = (
        "candidates", "dim", "frame", "row_keys", "matrix", "_row_index", "elimination", "basis"
    )

    def __init__(self, curve: MarkedCurve, candidates: CandidateSpace, dim: int, frame):
        self.candidates = candidates
        self.dim = dim
        self.frame = frame
        size = candidates.size
        ncols = dim * size
        # functions[0] = 1/D: h = pull_i(1/D) * entry, read off per point
        rows = {}
        for i, disk in enumerate(frame):
            point = curve.marked_points[i]
            base = curve.chart(i).pull(candidates.functions[0])
            top = size - 2 if point.is_infinity else -1
            powers = None if point.is_infinity else _shift_powers(point.value, size)
            for k, entries in enumerate(disk):
                for row, entry in enumerate(entries):
                    if entry.is_zero():
                        continue
                    window = _window(base * entry, top)
                    if window is None:
                        continue
                    if powers is None:
                        columns = _infinite_columns(*window, size)
                    else:
                        columns = _finite_columns(*window, powers)
                    for t, e, triple in columns:
                        key = (i, row, e)
                        if key not in rows:
                            rows[key] = [K.GQ_ZERO] * ncols
                        rows[key][k * size + t] = triple
        self.row_keys = sorted(rows)
        self.matrix = [rows[key] for key in self.row_keys]
        self._row_index = {key: r for r, key in enumerate(self.row_keys)}
        self.elimination = Elimination(self.matrix, ncols)
        null_basis, _ = solve_system(self.elimination, ncols)
        self.basis = [self._combine(v) for v in null_basis]

    @property
    def bounds(self) -> SolverBounds:
        return self.candidates.bounds

    @property
    def counts(self) -> dict:
        """The rows, columns, rank and non-zero entries of the system's matrix."""
        e = self.elimination
        return {
            "rows": e.nrows,
            "cols": e.ncols,
            "rank": e.ncols - len(self.basis),
            "nonzeros": sum(1 for row in self.matrix for t in row if t[0] or t[1]),
        }

    def _combine(self, vec) -> list:
        functions = self.candidates.functions
        out = []
        for k in range(self.dim):
            acc = RatFunc.const(0)
            for t, f in enumerate(functions):
                c = vec[k * len(functions) + t]
                if not c.is_zero():
                    acc = acc + f * c
            out.append(acc)
        return out

    def particular(self, rhs):
        """The candidate whose transport has the polar part of rhs[i] in disk i.

        ``rhs[i]`` holds germs in the frame's coordinates.  Returns the
        solution with free coefficients 0 as its dim scalar functions, or
        None when there is none: some polar coefficient of rhs lies in no
        row of the system, or rhs is not in the column space of A.
        """
        b = [K.GQ_ZERO] * len(self.row_keys)
        for i, germs in enumerate(rhs):
            for row, germ in enumerate(germs):
                window = _window(germ, -1)
                if window is None:
                    continue
                lo, coefficients = window
                for e, triple in enumerate(coefficients, lo):
                    if K.gq_is_zero(triple):
                        continue
                    r = self._row_index.get((i, row, e))
                    if r is None:
                        # past the rows of A: a zero row of A
                        b.append(triple)
                    else:
                        b[r] = triple
        _, parts = solve_system(self.elimination, self.elimination.ncols, [b])
        return None if parts[0] is None else self._combine(parts[0])


def _section_frame(curve, rep, g):
    """The columns of T_i^-1 rho(g_i)^-1 at every marked point."""
    frame = []
    for i in range(curve.n_points):
        t_inv, rg_inv = section_transition(curve, rep, g, i)
        frame.append([tuple(t_inv * row[k] for row in rg_inv) for k in range(rep.space.dim)])
    return frame


def _higgs_frame(curve, algebra, g):
    """T_i^-2 g_i^-1 b_k g_i, flattened row-major, for every basis element b_k."""
    frame = []
    for i in range(curve.n_points):
        transport = higgs_transport(curve, g, i)
        frame.append([tuple(e for row in transport(b) for e in row) for b in algebra.basis])
    return frame


def _section_system(curve, rep, g, bounds) -> TwistedSystem:
    return TwistedSystem(
        curve, candidate_functions(curve, bounds), rep.space.dim, _section_frame(curve, rep, g)
    )


def _higgs_system(curve, algebra, g, bounds) -> TwistedSystem:
    return TwistedSystem(
        curve, candidate_functions(curve, bounds), algebra.dim, _higgs_frame(curve, algebra, g)
    )


class SectionSpace:
    """Basis of the global sections (or Higgs fields) of one bundle, and its system."""

    def __init__(self, system: TwistedSystem, basis: list):
        self.system = system
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


class AffineSpace:
    """particular + span(basis): the solution set of an inhomogeneous system."""

    def __init__(self, particular, basis):
        self.particular = particular
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_section_space(curve, rep, g, bounds: SolverBounds | None = None) -> SectionSpace:
    """Solve the regularity conditions; every basis vector gives a valid point."""
    system = _section_system(curve, rep, g, bounds or SolverBounds())
    return SectionSpace(system, [XVector(s) for s in system.basis])


def build_tangent_space(
    point: YPoint, g_dot, bounds: SolverBounds | None = None
) -> AffineSpace:
    """Solutions sdot for which the deformation disk data stays regular.

    The homogeneous part coincides with the section space of the bundle;
    the inhomogeneity comes from the infinitesimal action of g_dot on the
    disk sections.  Raises Infeasible when the action introduces poles
    that no candidate within the bounds can cancel.  The point's section
    system is reused, and built and kept on a point that has none for
    these bounds.
    """
    bounds = bounds or SolverBounds()
    curve, rep = point.curve, point.rep
    system = point.system
    if system is None or system.bounds != bounds:
        system = point.system = _section_system(curve, rep, point.g, bounds)
    # sdot'_i = T_i^-1 rho(g_i)^-1 sdot - rho(gdot_i) s'_i
    rhs = [rep.inf_action(g_dot[i], point.s_prime[i]).coords for i in range(curve.n_points)]
    particular = system.particular(rhs)
    if particular is None:
        raise Infeasible(
            "no tangent section cancels the poles of the g_dot action "
            f"within bounds {bounds}; enlarge degree/pole_order"
        )
    return AffineSpace(XVector(particular), [XVector(s) for s in system.basis])


def build_higgs_field_space(curve, algebra, g, bounds: SolverBounds | None = None) -> SectionSpace:
    """Basis of global Higgs fields compatible with the bundle's cocycle."""
    system = _higgs_system(curve, algebra, g, bounds or SolverBounds())
    return SectionSpace(
        system, [CoadjointElement(algebra, algebra.combination(s)) for s in system.basis]
    )


def build_higgs_tangent_space(
    point: HiggsPoint, g_dot, bounds: SolverBounds | None = None
) -> AffineSpace:
    """Solutions phidot for which the Higgs tangent disk data stays regular.

    The point's Higgs-field system is reused, and built and kept on a
    point that has none for these bounds.
    """
    bounds = bounds or SolverBounds()
    curve, algebra = point.curve, point.algebra
    system = point.system
    if system is None or system.bounds != bounds:
        system = point.system = _higgs_system(curve, algebra, point.g, bounds)
    # phidot'_i = T_i^-2 g_i^-1 phidot g_i - [gdot_i, phi'_i]
    rhs = [
        tuple(e for row in commutator(g_dot[i].mat, point.phi_prime[i].mat) for e in row)
        for i in range(curve.n_points)
    ]
    particular = system.particular(rhs)
    if particular is None:
        raise Infeasible(
            "no global Higgs deformation cancels the bracket poles within "
            f"bounds {bounds}"
        )
    return AffineSpace(
        CoadjointElement(algebra, algebra.combination(particular)),
        [CoadjointElement(algebra, algebra.combination(s)) for s in system.basis],
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_vector(space, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """A deterministic pseudo-random combination of the basis (nonzero if possible)."""
    basis = space.basis if hasattr(space, "basis") else space
    if not basis:
        raise EmptySpace("cannot sample from an empty space")
    coeffs = [rng.gauss(max_num, max_den) for _ in basis]
    if all(c.is_zero() for c in coeffs):
        coeffs[rng.randint(0, len(coeffs) - 1)] = GaussRat(1)
    acc = None
    for c, b in zip(coeffs, basis):
        term = c * b
        acc = term if acc is None else acc + term
    return acc


def sample_affine(space: AffineSpace, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """particular + random combination of the homogeneous basis."""
    out = space.particular
    if space.basis:
        for b in space.basis:
            c = rng.gauss(max_num, max_den)
            if not c.is_zero():
                out = out + c * b
    return out


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


# ---------------------------------------------------------------------------
# random cocycles and loop-algebra elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleRecipe:
    """Word-length/exponent knobs for random determinant-1 cocycles."""

    length: int = 3
    max_exponent: int = 1
    torus_amplitude: int = 1
    max_num: int = 2
    max_den: int = 1


@dataclass(frozen=True)
class GdotRecipe:
    """Shape of random loop-algebra elements for tangent directions."""

    terms: int = 2
    pole_order: int = 2
    degree: int = 1
    max_num: int = 2
    max_den: int = 1


def random_cocycle(n: int, recipe: CocycleRecipe, rng: SeedStream) -> LoopGroupElement:
    """A short word in elementary and torus generators (det = 1 by construction).

    Each generator right-multiplies the word as a column operation:
    diag(u^e) scales column k by u^e_k, I + c E_jk adds c col_j to col_k.
    """
    u = RatFunc.x()
    rows = [list(row) for row in identity(n)]
    has_torus = False
    for step in range(recipe.length):
        kind = rng.choice(["torus", "elementary", "elementary"])
        if kind == "torus":
            has_torus = True
            exps = [rng.randint(-recipe.torus_amplitude, recipe.torus_amplitude) for _ in range(n - 1)]
            exps.append(-sum(exps))
            _scale_columns(rows, exps)
        else:
            j = rng.randint(1, n)
            k = rng.randint(1, n - 1)
            if k >= j:
                k += 1
            m = rng.randint(-recipe.max_exponent, recipe.max_exponent)
            c = rng.nonzero_gauss(recipe.max_num, recipe.max_den) * u ** m
            for row in rows:
                row[k - 1] = row[k - 1] + c * row[j - 1]
    if not has_torus:
        # guarantee a nontrivial twist so section spaces are interesting
        _scale_columns(rows, [1] + [0] * (n - 2) + [-1])
    return LoopGroupElement(rows, check=False)


def _scale_columns(rows: list, exponents: Sequence[int]):
    """Right-multiply rows by diag(u^e_1, ..., u^e_n), in place."""
    powers = [RatFunc.x() ** e for e in exponents]
    for row in rows:
        row[:] = [x * p if e else x for x, p, e in zip(row, powers, exponents)]


def random_loop_algebra(
    algebra: MatrixLieAlgebra, recipe: GdotRecipe, rng: SeedStream
) -> LoopAlgebraElement:
    """A random span combination with monomial RatFunc coefficients."""
    u = RatFunc.x()
    coeffs = [RatFunc.const(0)] * algebra.dim
    for _ in range(recipe.terms):
        k = rng.randint(0, algebra.dim - 1)
        m = rng.randint(-recipe.pole_order, recipe.degree)
        c = rng.nonzero_gauss(recipe.max_num, recipe.max_den)
        coeffs[k] = coeffs[k] + c * u ** m
    return algebra.element(algebra.combination(coeffs))

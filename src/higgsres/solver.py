"""Exact construction of section/tangent spaces, and seeded sampling.

Sections and Higgs fields are both global sections of a bundle given by
local transition matrices M_i(u) = T_i^-w rho(g_i)^-1: w = 1 and the
symplectic representation on the section side, w = 2 and the coadjoint
one (``lie.Coadjoint``) on the Higgs side.  One solver handles both,
through the representation.  Regularity of the transported disk data is a
finite set of linear conditions on the coefficients of a global
candidate: every negative-exponent Laurent coefficient of the
transported candidate must vanish.  Candidates are spanned by monomials

    z^t / prod_j (z - a_j)^P        (finite marked points a_j),

with t bounded by deg(denominator) plus the allowed pole order at a
marked infinity.  Truncation depths are always computed from the pole
orders of the inputs, never guessed.

Assembly reads the system off one Laurent expansion per frame entry.
The frames are untwisted, the columns of rho(g_i)^-1 (``column``, formed
once per group element; on the Higgs side the sl_n coordinates of
g_i^-1 b_k g_i, an invertible constant image of its entries, so a system
has n^2 - 1 rows per disk and exponent), and the twist T_i^-w is folded
into the disk base
B = pull_i(1/D) * T_i^-w of the candidate space.  With h = B * entry,
the candidate z^t contributes (u + a)^t h at a finite point a, whose polar coefficients are binomial
combinations of the window of h from ord_0 h to u^-1, and u^-t h at
infinity, a shifted window of h up to u^(size-2).  Most entries are
monomials c*u^m, whose columns are c times those of u^m * B: the
candidate space keeps them in a table per (point, weight, exponent),
so such an entry costs one scale per column and no expansion.

Factor once, then solve many: a ``TwistedSystem`` is the section space
of one bundle.  It assembles the conditions (``assemble``), each row
the dict of its non-zeros, and eliminates them once, exactly over Q(i)
(``linalg.Elimination``: sparse Gauss-Jordan on the non-zeros, a
deterministic pivot order, the steps kept).  Only the candidate columns
a section can use are assembled: a global section x with regular disk
data has ord_i x_k >= w*ord T_i + the least order in row k of rho(g_i),
read off the columns ``rep.column`` of g_i^-1, because rho(g_i^-1)^-1 =
rho(g_i) (``_row_orders``).  At a marked infinity and a marked 0 the
candidates have pairwise distinct orders, so each coordinate k keeps
one range of exponents t.
Every solution lies in those columns, so the null vectors and the
solutions with free coordinates 0 are those of the system of all
candidates; a tangent whose right side has deeper poles widens the
ranges first.  A bundle with no column left is neither assembled nor
eliminated.  The candidate space keeps
the last system factored at each twist weight, so a build whose frame
equals the last one's, entry by entry, reuses its rows and elimination:
a scenario's fixed bundle is assembled and eliminated once per curve,
bounds and weight, and again only when a tangent widens it, however
often its space is built.  Only candidate
coefficients leave the solver: the sections are sparse null vectors, a
tangent space is the system and a particular solution's coefficients,
and the one place that forms a value of the bundle's side is
``TwistedSystem._combine``, once per sampled vector (``sample_vector``,
``sample_affine``); a zero-dimensional space samples to the zero value
and draws nothing.  The point built
from a section or Higgs-field space keeps the system, and every tangent
solve at that point goes through ``linalg.solve_system`` against the
stored elimination.  Its right-hand side is the sparse column
``{row: triple}`` of the polar coefficients of the g_dot action
rho(gdot_i) x'_i (``polar_rhs``): rho(gdot_i) s'_i or [gdot_i, phi'_i].
Only those coefficients are formed: ``field.polar_dot`` reads them off
coefficient windows of the factors, summed over the non-zero coordinates
of gdot_i (``inf_action_terms``), per coordinate of the frame; the whole germ
is formed once, for an accepted tangent, by ``moduli``.  A solve is
infeasible when a polar coefficient lies in no row of the system or
when, after the elimination steps are replayed on the column, an entry
outside the pivot rows is nonzero; otherwise the solution is read off
the pivot rows.

Randomness is supplied by a splittable counter-based stream (SHA-256 of
the path), so identical seeds reproduce identical instances on any
platform, and per-trial substreams are independent of evaluation order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from . import _kernels as K
from .curve import MarkedCurve
from .errors import Infeasible
from .field import GQ_ONE, GaussRat, RatFunc, dot, polar_dot
from .lie import Coadjoint, LoopAlgebraElement, LoopGroupElement, MatrixLieAlgebra
from .linalg import Elimination, solve_system
from .moduli import HiggsPoint, YPoint

_ZERO = RatFunc.const(0)
_ONE = RatFunc.const(1)

# ---------------------------------------------------------------------------
# deterministic splittable randomness
# ---------------------------------------------------------------------------


class SeedStream:
    """Counter-based deterministic random stream, splittable by path.

    Values are derived from SHA-256 of repr((path, counter)), so child
    streams are independent of the order in which they are consumed.  The
    hash of the prefix "(" + repr(path) + ", " is taken once, and each
    draw hashes only the counter and ")" into a copy of it.
    """

    def __init__(self, *path):
        self._path = path
        self._counter = 0
        self._prefix = hashlib.sha256(f"({path!r}, ".encode())

    def child(self, *label) -> "SeedStream":
        return SeedStream(*self._path, *label)

    def _next(self) -> int:
        h = self._prefix.copy()
        h.update(f"{self._counter!r})".encode())
        self._counter += 1
        return int.from_bytes(h.digest(), "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi] (modulo bias is irrelevant here).

        A one-value range advances the counter without hashing: its draw
        would be discarded, and the draws after it stay the same.
        """
        if hi < lo:
            raise ValueError("empty range")
        if hi == lo:
            self._counter += 1
            return lo
        return lo + self._next() % (hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.randint(0, len(seq) - 1)]

    def gauss(self, max_num: int = 3, max_den: int = 2) -> GaussRat:
        """(a/d) + (b/e)*i, drawn in the order a, d, [imaginary?, b, e]."""
        a, d = self.randint(-max_num, max_num), self.randint(1, max_den)
        b, e = 0, 1
        if self.randint(0, 2) == 0:
            b, e = self.randint(-max_num, max_num), self.randint(1, max_den)
        return GaussRat.from_triple(K.gq_norm(a * e, b * d, d * e))

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
    """Monomial scalar candidates for functions regular away from marked points.

    ``disks[i]`` is what assembly reads at marked point i: the twisted
    bases ``{w: pull_i(1/D) * T_i^-w}`` for the twist weights w = 1
    (sections) and w = 2 (Higgs fields), and the shift powers of
    ``_shift_powers`` (None at infinity).  ``orders`` names the disks
    where the candidates have pairwise distinct orders, as (i, s, c,
    ord_i T_i) with ord_i f_t = s*t + c: a marked infinity (s = -1,
    c = deg D) and a marked 0 (s = 1, c = -P); at any other finite
    marked point every f_t has order -P.  ``tables`` holds, under the
    key (i, w, m), the polar columns of u^m times the twisted base and
    where each exponent t starts among them, built on first use by
    ``monomial_columns``; it grows only with the exponents m that occur.
    ``factored`` holds, per weight w, the last system factored at that
    weight (``TwistedSystem``): its frame, floors, depths, column
    ranges, row index and elimination.  It is one entry per weight, replaced on
    every system whose frame differs and on every widening, and is
    matched by value, never by id.
    """

    functions: tuple
    bounds: SolverBounds
    disks: tuple
    orders: tuple
    tables: dict = field(default_factory=dict)
    factored: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.functions)

    def monomial_columns(self, i: int, weight: int, m: int) -> tuple:
        """(columns, starts): the polar columns (t, e, coefficient) of
        u^m * pull_i(1/D) * T_i^-weight in ascending t, and starts[t] the
        index of the first column of exponent t or above."""
        key = (i, weight, m)
        table = self.tables.get(key)
        if table is None:
            bases, powers = self.disks[i]
            h = bases[weight] * RatFunc.monomial(GQ_ONE, m)
            columns = tuple(_polar_columns(h, powers, 0, self.size - 1))
            starts = [0] * (self.size + 1)
            for t, _, _ in columns:
                starts[t + 1] += 1
            for t in range(self.size):
                starts[t + 1] += starts[t]
            table = self.tables[key] = (columns, starts)
        return table


def candidate_functions(curve: MarkedCurve, bounds: SolverBounds) -> CandidateSpace:
    """The monomial basis z^t / prod (z - a_j)^pole_order, built once per
    curve and bounds and kept in ``curve.candidate_spaces``."""
    space = curve.candidate_spaces.get(bounds)
    if space is not None:
        return space
    den = [K.GQ_ONE]
    for p in curve.marked_points:
        if not p.is_infinity:
            for _ in range(bounds.pole_order):
                den = K.p_mul(den, [K.gq_neg(p.value._t), K.GQ_ONE])
    t_max = len(den) - 1
    if any(p.is_infinity for p in curve.marked_points):
        t_max += bounds.degree
    functions = [RatFunc([K.GQ_ZERO] * t + [K.GQ_ONE], den) for t in range(t_max + 1)]
    disks = []
    orders = []
    for i, p in enumerate(curve.marked_points):
        base = curve.chart(i).pull(functions[0])
        bases = {w: base * curve.twists(w)[i] for w in (1, 2)}
        disks.append((bases, None if p.is_infinity else _shift_powers(p.value, len(functions))))
        if p.is_infinity:
            orders.append((i, -1, len(den) - 1, curve.transition(i).valuation()))
        elif p.value.is_zero():
            orders.append((i, 1, -bounds.pole_order, curve.transition(i).valuation()))
    space = curve.candidate_spaces[bounds] = CandidateSpace(
        tuple(functions), bounds, tuple(disks), tuple(orders)
    )
    return space


# ---------------------------------------------------------------------------
# sections of twisted bundles
# ---------------------------------------------------------------------------


def _window(h: RatFunc, top: int):
    """(ord_0 h, the coefficient triples of h for exponents ord_0 h .. top),
    or None when h has no coefficient that low (h = 0 included)."""
    v = h.valuation()
    if v is None or v > top:
        return None
    return v, h.coefficients(v, top)


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


def _finite_columns(v: int, window: list, powers: list, lo: int, hi: int):
    """(t, e, coefficient) of the polar part of (u + a)^t h for lo <= t <= hi,
    h = sum window[m] u^(v+m).

    The window runs to u^-1, so it holds every coefficient of h that
    reaches a negative exponent: the coefficient at v + m is
    sum_j C(t,j) a^(t-j) window[m - j].
    """
    for t in range(lo, hi + 1):
        terms = powers[t]
        for m in range(len(window)):
            acc = K.GQ_ZERO
            for j, c in terms:
                if j > m:
                    break
                x = window[m - j]
                if not K.gq_is_zero(x):
                    acc = K.gq_add(acc, K.gq_mul(c, x))
            if not K.gq_is_zero(acc):
                yield t, v + m, acc


def _infinite_columns(v: int, window: list, lo: int, hi: int):
    """(t, e, coefficient) of the polar part of u^-t h for lo <= t <= hi,
    h = sum window[s] u^(v+s).

    The window runs to u^(hi-1), the highest exponent that the largest
    shift t = hi brings below 0.
    """
    for t in range(lo, hi + 1):
        for s in range(t - v):
            x = window[s]
            if not K.gq_is_zero(x):
                yield t, v + s - t, x


def _polar_columns(h: RatFunc, powers, lo: int, hi: int):
    """(t, e, coefficient) of the polar part of candidate t's column
    z^t * D * h at the disk, lo <= t <= hi: (u + a)^t h at a finite point
    (``powers``), u^-t h at infinity (``powers`` None)."""
    window = _window(h, hi - 1 if powers is None else -1)
    if window is None:
        return ()
    if powers is None:
        return _infinite_columns(*window, lo, hi)
    return _finite_columns(*window, powers, lo, hi)


def assemble(candidates: CandidateSpace, frame, weight: int, ranges):
    """(row keys, sparse rows, non-zero count) of the regularity conditions.

    ``frame[i][k]`` holds the non-zero untwisted local coordinates
    (row, entry) of basis element k transported to disk i, column k of
    rho(g_i)^-1 (``column``); the bundle's twist is T_i^-weight, folded
    into the disk's base.  A candidate
    sum_{k,t} c_kt f_t e_k is a global section when every transported
    germ is regular at u = 0: one linear condition per polar
    coefficient, keyed (disk, coordinate, exponent), the keys sorted.
    Column k * size + t belongs to the candidate f_t e_k, and only the
    exponents ``ranges[k] = (lo, hi)`` of coordinate k are assembled
    (none when lo > hi).  Each row is
    the dict ``{column: triple}`` of its non-zeros, and the non-zero
    count is the sum of their sizes.  A monomial entry c*u^m reads its
    columns from the space's table for (disk, weight, m), scaled by c;
    any other entry is multiplied by the twisted base and expanded once,
    and every t is read off that expansion (f_t = z^t f_0).
    """
    size = candidates.size
    rows = {}
    nonzeros = 0
    for i, (disk, (bases, powers)) in enumerate(zip(frame, candidates.disks)):
        base = bases[weight]
        for k, entries in enumerate(disk):
            lo, hi = ranges[k]
            if lo > hi:
                continue
            offset = k * size
            for row, entry in entries:
                monomial = entry.as_monomial()
                if monomial is None:
                    c, columns = K.GQ_ONE, tuple(_polar_columns(base * entry, powers, lo, hi))
                else:
                    c, m = monomial
                    table, starts = candidates.monomial_columns(i, weight, m)
                    columns = table[starts[lo]:starts[hi + 1]]
                unit = c == K.GQ_ONE
                for t, e, triple in columns:
                    key = (i, row, e)
                    cells = rows.get(key)
                    if cells is None:
                        cells = rows[key] = {}
                    cells[offset + t] = triple if unit else K.gq_mul(c, triple)
                nonzeros += len(columns)
    keys = sorted(rows)
    return keys, [rows[key] for key in keys], nonzeros


# the elimination of a system with no column: no row, no null vector
_NO_COLUMNS = Elimination([], ())


def _row_orders(rep, g) -> list[int]:
    """The least order at u = 0 of the entries of each row of rho(g), read
    off the columns of rho(g^-1)^-1 = rho(g) (``rep.column`` of g^-1)."""
    g_inv = g.inverse()
    orders = [[] for _ in range(rep.dim)]
    for k in range(rep.dim):
        for r, x in rep.column(g_inv, k):
            orders[r].append(x.valuation())
    return list(map(min, orders))


class TwistedSystem:
    """The global sections of one twisted bundle: its regularity conditions
    (``assemble``) on the candidates a section can use, eliminated once,
    and the null vectors they leave.

    ``assemble`` reads the frame, the columns ``rep.column`` of
    rho(g_i)^-1, and ``rep.weight``.  ``rep.value`` turns ``rep.dim``
    scalar functions into a section value (an ``XVector`` or a coadjoint
    element); ``_combine`` is its only caller, and sampling its only
    user.  ``null_vectors`` holds the sections as sparse candidate
    coefficients and ``dim`` is their number; no value of them is kept.
    ``particular`` solves for the coefficients of a candidate with
    prescribed polar parts against the stored elimination.

    Certified columns.  A section x with regular disk data has
    pull_i(x_k) = T_i^w sum_j rho(g_i)[k][j] x'_j, so ord_i x_k is at
    least w*ord T_i + the least order in row k of rho(g_i)
    (``_row_orders``): coordinate k's floor at disk i, kept in
    ``floors`` for each disk of ``candidates.orders``.  There the
    candidates have pairwise distinct orders, so a combination has the
    least order of its terms, and coordinate k can use only the
    exponents t whose f_t reaches the floor: one range ``ranges[k] =
    (lo, hi)`` over all such disks.  Only those columns are assembled and
    eliminated, keeping their indices k * size + t.  Every solution lies
    in them; given the columns it may use, a column is free exactly when
    it is free in the system of all candidates, so the null vectors, the
    dimension and the solution with free coordinates 0 are those of that
    system.  A tangent's right side b_i with polar exponents down to -d
    lowers the floors of disk i by d (the solution x has
    pull_i(x) = T_i^w rho(g_i) (regular + b_i)); ``lowered`` holds the
    depth by which each disk's floors are lowered so far, and
    ``particular`` deepens it, factoring the widened system once and
    keeping it.  ``counts`` describe the system of all candidates,
    assembled on first read and not eliminated.

    A system whose frame equals, entry by entry (exact ``RatFunc``
    equality), the frame of the last system of the same weight on the
    same candidate space (``CandidateSpace.factored``) shares that
    system's floors, depths, ranges, row index and elimination, and
    skips ``assemble`` and the elimination; any other system factors its
    own and replaces the entry, as a widening does.  The frame's length
    per disk carries ``rep.dim``.  Sharing is safe because none of them
    is changed after construction: a solve replays the steps on a copy
    of its column, a widening replaces them whole, and nothing writes to
    the row index or to ``null_vectors`` (the elimination's
    ``null_basis``).
    """

    __slots__ = (
        "candidates", "rep", "frame", "floors", "lowered", "ranges", "_row_index", "elimination",
        "null_vectors", "_counts",
    )

    def __init__(self, candidates: CandidateSpace, rep, g):
        self.candidates = candidates
        self.rep = rep
        self._counts = None
        frame = [[rep.column(g_i, k) for k in range(rep.dim)] for g_i in g]
        last = candidates.factored.get(rep.weight)
        if last is not None and last[0] == frame:
            self.frame, self.floors, self.lowered, self.ranges, self._row_index, self.elimination = last
        else:
            self.frame = frame
            self.floors = [
                [rep.weight * tau + v for v in _row_orders(rep, g[i])]
                for i, _, _, tau in candidates.orders
            ]
            self.ranges = None
            self._factor((0,) * len(candidates.orders))
        self.null_vectors, _ = solve_system(self.elimination, self.elimination.ncols)

    def _factor(self, lowered: tuple):
        """Assemble and eliminate the columns coordinate k may use with the
        floors lowered by ``lowered`` (none of either when no column is
        left, and neither again when the columns stay the same), and keep
        them as the candidate space's last system of this weight.

        Coordinate k keeps the exponents t whose f_t reaches its lowered
        floor at each disk (i, s, c, _) of ``candidates.orders``, where
        ord_i f_t = s*t + c: t >= floor - c at a marked 0 (s = 1), and
        t <= c - floor at infinity (s = -1)."""
        candidates = self.candidates
        size = candidates.size
        ranges = []
        for k in range(self.rep.dim):
            lo, hi = 0, size - 1
            for (_, s, c, _), floor, d in zip(candidates.orders, self.floors, lowered):
                b = floor[k] - d
                if s > 0:
                    if b - c > lo:
                        lo = b - c
                elif c - b < hi:
                    hi = c - b
            ranges.append((lo, hi))
        if ranges != self.ranges:
            columns = [k * size + t for k, (lo, hi) in enumerate(ranges) for t in range(lo, hi + 1)]
            if columns:
                keys, matrix, _ = assemble(candidates, self.frame, self.rep.weight, ranges)
                self._row_index = {key: r for r, key in enumerate(keys)}
                self.elimination = Elimination(matrix, columns)
            else:
                self._row_index, self.elimination = {}, _NO_COLUMNS
            self.ranges = ranges
        self.lowered = lowered
        candidates.factored[self.rep.weight] = (
            self.frame, self.floors, lowered, ranges, self._row_index, self.elimination
        )

    @property
    def dim(self) -> int:
        return len(self.null_vectors)

    @property
    def bounds(self) -> SolverBounds:
        return self.candidates.bounds

    @property
    def counts(self) -> dict:
        """The rows, columns, rank and non-zero entries of the matrix of all
        candidates, assembled on first read and not eliminated; its rank
        is its column count less ``dim``."""
        if self._counts is None:
            size = self.candidates.size
            keys, _, nonzeros = assemble(
                self.candidates, self.frame, self.rep.weight, [(0, size - 1)] * self.rep.dim
            )
            cols = self.rep.dim * size
            self._counts = {"rows": len(keys), "cols": cols, "rank": cols - self.dim, "nonzeros": nonzeros}
        return self._counts

    def _combine(self, vec):
        """The value of the candidate sum_{k,t} c_kt f_t e_k; ``vec`` is the
        dict ``{k * size + t: c_kt}`` of its non-zero coefficients, and
        each coordinate sums its terms in ascending t."""
        functions = self.candidates.functions
        terms = [[] for _ in range(self.rep.dim)]
        for column in sorted(vec):
            k, t = divmod(column, len(functions))
            terms[k].append((vec[column], functions[t], _ONE))
        return self.rep.value([dot(coordinate) for coordinate in terms])

    def particular(self, rhs):
        """The candidate whose transport has the polar part rhs[i] in disk i.

        ``rhs[i]`` maps a coordinate of the frame (a row) to the polar
        coefficients ``{e: triple}``, e < 0, prescribed there; zero
        triples are skipped.  At each disk of ``candidates.orders`` the
        least exponent -d lowers the floors by d, and the system is
        widened first when that is deeper than ``lowered``.  Returns the
        solution with free coefficients 0 as its coefficients
        ``{k * size + t: GaussRat}``, or None when there is none: some
        polar coefficient of rhs lies in no row of the system, or rhs is
        not in the column space of A.
        """
        lowered = list(self.lowered)
        for j, (i, _, _, _) in enumerate(self.candidates.orders):
            for coefficients in rhs[i].values():
                for e, triple in coefficients.items():
                    # triple[0] or triple[1]: the triple is not zero
                    if -e > lowered[j] and (triple[0] or triple[1]):
                        lowered[j] = -e
        lowered = tuple(lowered)
        if lowered != self.lowered:
            self._factor(lowered)
        nrows = self.elimination.nrows
        column = {}
        for i, disk in enumerate(rhs):
            for row, coefficients in disk.items():
                for e, triple in coefficients.items():
                    if not K.gq_is_zero(triple):
                        # a key past the rows of A stands for a zero row of A
                        column[self._row_index.get((i, row, e), nrows)] = triple
        _, parts = solve_system(self.elimination, self.elimination.ncols, [column])
        return parts[0]


class AffineSpace:
    """particular + span(null vectors): the solution set of an
    inhomogeneous system, held as the ``system`` and the particular
    solution's ``coefficients``; ``sample_affine`` forms its values."""

    def __init__(self, system: TwistedSystem, coefficients: dict):
        self.system = system
        self.coefficients = coefficients


def _tangent_space(point, build, side, disk, g_dot, bounds, failure) -> AffineSpace:
    """particular + span(null vectors) for the polar data of the g_dot
    action on the point's ``disk`` values (``polar_rhs``).

    The point's space is reused, and ``build(curve, side, g, bounds)``
    builds and keeps one on a point that has none for these bounds.
    Raises Infeasible when no candidate within the bounds cancels the poles.
    """
    bounds = bounds or SolverBounds()
    system = point.system
    if system is None or system.bounds != bounds:
        system = point.system = build(point.curve, side, point.g, bounds)
    coefficients = system.particular(polar_rhs(point.rep, g_dot, disk))
    if coefficients is None:
        raise Infeasible(f"{failure} within bounds {bounds}; enlarge degree/pole_order")
    return AffineSpace(system, coefficients)


def polar_rhs(rep, g_dot, disk) -> list[dict]:
    """The polar coefficients of rho(gdot_i) x'_i per disk and coordinate,
    one ``polar_dot`` over the terms of ``rep.inf_action_terms`` each:
    xdot'_i = T_i^-w rho(g_i)^-1 xdot - rho(gdot_i) x'_i is regular
    exactly when the transported xdot has these polar coefficients."""
    return [
        {r: polar_dot(terms) for r, terms in enumerate(rep.inf_action_terms(g_dot[i], x)) if terms}
        for i, x in enumerate(disk)
    ]


def build_section_space(curve, rep, g, bounds: SolverBounds | None = None) -> TwistedSystem:
    """Solve the regularity conditions; every basis vector gives a valid point."""
    return TwistedSystem(candidate_functions(curve, bounds or SolverBounds()), rep, g)


def build_tangent_space(
    point: YPoint, g_dot, bounds: SolverBounds | None = None
) -> AffineSpace:
    """Solutions sdot for which the deformation disk data stays regular.

    The homogeneous part coincides with the section space of the bundle;
    the inhomogeneity comes from the infinitesimal action of g_dot on the
    disk sections.
    """
    failure = "no tangent section cancels the poles of the g_dot action"
    return _tangent_space(point, build_section_space, point.rep, point.s_prime, g_dot, bounds, failure)


def build_higgs_field_space(curve, algebra, g, bounds: SolverBounds | None = None) -> TwistedSystem:
    """Basis of global Higgs fields compatible with the bundle's cocycle."""
    return TwistedSystem(candidate_functions(curve, bounds or SolverBounds()), Coadjoint(algebra), g)


def build_higgs_tangent_space(
    point: HiggsPoint, g_dot, bounds: SolverBounds | None = None
) -> AffineSpace:
    """Solutions phidot for which the Higgs tangent disk data stays regular."""
    failure = "no global Higgs deformation cancels the bracket poles"
    return _tangent_space(point, build_higgs_field_space, point.algebra, point.phi_prime, g_dot, bounds, failure)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _combined(system: TwistedSystem, acc: dict, draws):
    """The value of the candidate acc + sum c v over the draws (c, v) of
    a scalar and a null vector, summed as coefficient triples and formed
    once (``TwistedSystem._combine``)."""
    for c, vector in draws:
        for column, x in vector.items():
            t = K.gq_mul(c._t, x._t)
            acc[column] = K.gq_add(acc[column], t) if column in acc else t
    return system._combine({k: GaussRat.from_triple(t) for k, t in acc.items() if not K.gq_is_zero(t)})


def sample_vector(system: TwistedSystem, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """A deterministic pseudo-random combination of the system's null
    vectors, nonzero when the system has any, formed as one value; a
    zero-dimensional system gives the zero value of its side and draws
    nothing."""
    vectors = system.null_vectors
    if not vectors:
        return system._combine({})
    coeffs = [rng.gauss(max_num, max_den) for _ in vectors]
    if all(c.is_zero() for c in coeffs):
        coeffs[rng.randint(0, len(coeffs) - 1)] = GQ_ONE
    return _combined(system, {}, zip(coeffs, vectors))


def sample_affine(space: AffineSpace, rng: SeedStream, max_num: int = 2, max_den: int = 2):
    """particular + random combination of the null vectors, formed as
    one value."""
    draws = [(rng.gauss(max_num, max_den), v) for v in space.system.null_vectors]
    particular = {k: c._t for k, c in space.coefficients.items()}
    return _combined(space.system, particular, [(c, v) for c, v in draws if not c.is_zero()])


# ---------------------------------------------------------------------------
# random cocycles and loop-algebra elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CocycleRecipe:
    """Word-length/exponent knobs for random determinant-1 cocycles.

    The bounds of the non-zero draws are at least their ``minimum``.
    """

    length: int = 3
    max_exponent: int = 1
    torus_amplitude: int = 1
    max_num: int = field(default=2, metadata={"minimum": 1})
    max_den: int = field(default=1, metadata={"minimum": 1})


@dataclass(frozen=True)
class GdotRecipe:
    """Shape of random loop-algebra elements for tangent directions.

    The bounds of the non-zero draws are at least their ``minimum``.
    """

    terms: int = 2
    pole_order: int = 2
    degree: int = 1
    max_num: int = field(default=2, metadata={"minimum": 1})
    max_den: int = field(default=1, metadata={"minimum": 1})


def random_cocycle(n: int, recipe: CocycleRecipe, rng: SeedStream) -> LoopGroupElement:
    """A short word in elementary and torus generators (det = 1 by construction).

    Each generator right-multiplies the word as a column operation:
    diag(u^e) scales column k by u^e_k, I + c E_jk adds c col_j to col_k.
    The entries are kept as their non-zero coefficients {exponent: triple}
    while the word is multiplied out, and each becomes a germ once
    (``RatFunc.laurent``).
    """
    rows = [[{0: K.GQ_ONE} if j == k else {} for k in range(n)] for j in range(n)]
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
            c = rng.nonzero_gauss(recipe.max_num, recipe.max_den)._t
            for row in rows:
                target = row[k - 1]
                for e, t in row[j - 1].items():
                    t = K.gq_mul(c, t)
                    if e + m in target:
                        t = K.gq_add(target[e + m], t)
                    if K.gq_is_zero(t):
                        del target[e + m]
                    else:
                        target[e + m] = t
    if not has_torus:
        # guarantee a nontrivial twist so section spaces are interesting
        _scale_columns(rows, [1] + [0] * (n - 2) + [-1])
    return LoopGroupElement([[RatFunc.laurent(x) for x in row] for row in rows], check=False)


def _scale_columns(rows: list, exponents: Sequence[int]):
    """Right-multiply rows by diag(u^e_1, ..., u^e_n), in place: each
    entry's exponents shift by its column's e."""
    for row in rows:
        row[:] = [{d + e: t for d, t in x.items()} if e else x for x, e in zip(row, exponents)]


def random_loop_algebra(
    algebra: MatrixLieAlgebra, recipe: GdotRecipe, rng: SeedStream
) -> LoopAlgebraElement:
    """A random span combination with monomial RatFunc coefficients,
    built from its coordinates (``MatrixLieAlgebra.element_from``)."""
    coeffs = [_ZERO] * algebra.dim
    for _ in range(recipe.terms):
        k = rng.randint(0, algebra.dim - 1)
        m = rng.randint(-recipe.pole_order, recipe.degree)
        c = rng.nonzero_gauss(recipe.max_num, recipe.max_den)
        coeffs[k] = coeffs[k] + RatFunc.monomial(c, m)
    return algebra.element_from(coeffs)

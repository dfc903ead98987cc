"""Section and Higgs data in transition-cocycle coordinates, and the forms.

A point of the section stack is a tuple (g_i, s, s'_i): the bundle's
transition matrices at the marked points, a global vector of functions
regular away from the marked points, and the derived disk data

    s'_i = T_i^-1 rho(g_i)^-1 s          (must be regular at u_i = 0).

Tangent data deforms this to first order:

    sdot'_i = T_i^-1 rho(g_i)^-1 sdot - rho(gdot_i) s'_i,

the first-order expansion of the point formula under g -> g exp(t gdot).
Higgs data is the same rule for the coadjoint representation
(``lie.Coadjoint``), whose bundle is twisted by K, so w = 2:

    phi'_i    = T_i^-2 g_i^-1 phi g_i,
    phidot'_i = T_i^-2 g_i^-1 phidot g_i - [gdot_i, phi'_i].

One transport serves both sides (``derive_prime``, ``derive_prime_dot``,
both through ``_transport``, and ``disk_actions``), written against the
interface that ``hamiltonian.HamiltonianRep`` and ``lie.Coadjoint`` share.

On Higgs data two residue pairings are defined per marked point and
summed: the tautological 1-form

    lambda(t) = sum_i Res_{u=0} <phi'_i, gdot_i> du

and its exterior derivative

    Omega(t1, t2) = sum_i Res_{u=0} ( <phidot'_{i,1}, gdot_{i,2}>
                                    - <phidot'_{i,2}, gdot_{i,1}>
                                    - <phi'_i, [gdot_{i,1}, gdot_{i,2}]> ) du.

The pullback of Omega through the moment map vanishes identically on
valid section data; ``identity_check`` exposes the per-point rational
identity that forces this, and ``cartan_check`` re-derives Omega from
lambda with two-parameter jets.

Disk objects are rational germs; regularity at u = 0 is an exact
valuation check, and all the equalities below are syntactic equalities
of reduced rational functions.

Each disk value is formed once, when the object it belongs to is built.
A YPoint keeps s'_i, the solver's section system of its bundle, and
mu(s'_i) as its pairings with the basis; a YTangent keeps sdot'_i and
rho(gdot_i) s'_i; a HiggsPoint phi'_i and a HiggsTangent phidot'_i.
The pushforward and ``identity_check`` read these values
instead of recomputing them, and the pushforward compares each direct
moment image with the transported one through their pairings with the
basis, which determine a traceless matrix.  The tangent solves read
only the polar coefficients of rho(gdot_i) s'_i and [gdot_i, phi'_i]
(``solver``); the whole germs are formed here, once per accepted
tangent.

Both sides of the coadjoint data work in sl_n coordinates.  Each gdot_i
keeps the few non-zero coordinates it was drawn with, and the bracket
[gdot_1, gdot_2] and every pairing <phi, gdot> are sums over those
coordinates (``lie.bracket``, ``lie.pairing_terms``).  A transported
value is built from its coordinates,

    x'_i = T_i^-w sum_k pull_i(x_k) rho(g_i)^-1 e_k,

summed over the non-zero coordinates x_k only, each column read off g_i
(``rep.column``, kept in ``g_i.images``): on the Higgs side the
conjugates g_i^-1 b_k g_i.  phidot'_i adds the terms of
-[gdot_i, phi'_i] to the same sums, read from the bracket table over the
non-zero coordinates of both (``lie.bracket_terms``), and sdot'_i adds
-rho(gdot_i) s'_i, formed once per tangent.  Each coordinate is one sum
(``_transport``): at a marked 0 or infinity whose twist T_i^-w is a
monomial c*u^m, every disk of the shipped fixtures, one
``field.kernel_dot`` whose terms take the chart pull, the twist, the
column entry and the negated action terms straight from the factors'
numerators, so no germ is formed before the sum.  Every weight is a
scalar, because a representation's entries are constants.  So no matrix is
formed, no dense product runs and no transported value is checked for
trace 0 again.
``cartan_check``'s jets pair coordinates too, over the non-zero
coordinates of the fixed gdot_i, and Omega and its jet recomputation
share one bracket per disk.  Omega and lambda read each residue off the
pairings' factors (``field.residue_dot``), forming no integrand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels as K
from .curve import MarkedCurve
from .errors import (
    EquivarianceBroken,
    HiggsresError,
    IrregularSection,
    RegularityViolation,
    ShapeError,
)
from .field import GQ_ONE, GQ_ZERO, GaussRat, Jet2, RatFunc, dot, kernel_dot, residue_dot
from .hamiltonian import HamiltonianRep, XVector
from .lie import (
    Coadjoint,
    CoadjointElement,
    LoopAlgebraElement,
    LoopGroupElement,
    MatrixLieAlgebra,
    bracket,
    pairing_terms,
    same_algebra,
)

_ONE = RatFunc.const(1)


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------


class YPoint:
    """A section-stack point (g_i, s, s'_i) with derived, validated disk data.

    ``system`` is the section space of the bundle g (``solver.TwistedSystem``),
    kept for the tangent solves at this point (None until one is built).
    ``mu_prime[i]`` is mu(s'_i) as its pairings <mu(s'_i), xi_a> in label
    order (``HamiltonianRep.moment_values``), formed when the point is
    built and shared by the pushforward and the identity check.
    """

    __slots__ = ("curve", "rep", "g", "s_circ", "s_prime", "system", "mu_prime")

    def __init__(self, curve, rep, g, s_circ, s_prime, system=None):
        self.curve: MarkedCurve = curve
        self.rep: HamiltonianRep = rep
        self.g: list[LoopGroupElement] = g
        self.s_circ: XVector = s_circ
        self.s_prime: list[XVector] = s_prime
        self.system = system
        self.mu_prime: list[list[RatFunc]] = [rep.moment_values(s) for s in s_prime]

    def __eq__(self, other):
        if not isinstance(other, YPoint):
            return NotImplemented
        return (
            self.rep.name == other.rep.name
            and all(a == b for a, b in zip(self.g, other.g))
            and self.s_circ == other.s_circ
        )

    def __repr__(self):
        return f"YPoint(n={self.curve.n_points}, rep={self.rep.name!r})"


class YTangent:
    """A first-order deformation (gdot_i, sdot, sdot'_i) of a YPoint.

    ``actions[i]`` is rho(gdot_i) s'_i, the disk term of sdot'_i that
    comes from moving the bundle, formed once by the tangent's builder.
    """

    __slots__ = ("base", "g_dot", "s_circ_dot", "s_prime_dot", "actions")

    def __init__(self, base, g_dot, s_circ_dot, s_prime_dot, actions):
        self.base: YPoint = base
        self.g_dot: list[LoopAlgebraElement] = g_dot
        self.s_circ_dot: XVector = s_circ_dot
        self.s_prime_dot: list[XVector] = s_prime_dot
        self.actions: list[XVector] = actions

    def __repr__(self):
        return f"YTangent(base={self.base!r})"


class HiggsPoint:
    """A cotangent-stack point (g_i, phi, phi'_i) with derived disk data.

    ``rep`` is the coadjoint representation of ``algebra``.  ``system`` is
    the Higgs-field space of the bundle g (a ``solver.TwistedSystem``),
    kept for the tangent solves at this point (None until one is built).
    """

    __slots__ = ("curve", "algebra", "rep", "g", "phi_circ", "phi_prime", "system")

    def __init__(self, curve, algebra, g, phi_circ, phi_prime, system=None):
        self.curve: MarkedCurve = curve
        self.algebra: MatrixLieAlgebra = algebra
        self.rep = Coadjoint(algebra)
        self.g: list[LoopGroupElement] = g
        self.phi_circ: CoadjointElement = phi_circ
        self.phi_prime: list[CoadjointElement] = phi_prime
        self.system = system

    def __eq__(self, other):
        if not isinstance(other, HiggsPoint):
            return NotImplemented
        return (
            same_algebra(self.algebra, other.algebra)
            and all(a == b for a, b in zip(self.g, other.g))
            and self.phi_circ == other.phi_circ
        )

    def __repr__(self):
        return f"HiggsPoint(n={self.curve.n_points}, algebra={self.algebra.name!r})"


class HiggsTangent:
    """A first-order deformation (gdot_i, phidot, phidot'_i) of a HiggsPoint."""

    __slots__ = ("base", "g_dot", "phi_circ_dot", "phi_prime_dot")

    def __init__(self, base, g_dot, phi_circ_dot, phi_prime_dot):
        self.base: HiggsPoint = base
        self.g_dot: list[LoopAlgebraElement] = g_dot
        self.phi_circ_dot: CoadjointElement = phi_circ_dot
        self.phi_prime_dot: list[CoadjointElement] = phi_prime_dot

    def __repr__(self):
        return f"HiggsTangent(base={self.base!r})"


# ---------------------------------------------------------------------------
# disk transport (the solver's frames read the same columns)
# ---------------------------------------------------------------------------


def _transport(curve: MarkedCurve, rep, g, i: int, x, action=()) -> list:
    """The coordinates of T_i^-w rho(g_i)^-1 x, w = ``rep.weight``, less
    the sums of the ``field.dot`` terms ``action[r]`` of each coordinate
    r, x given by its coordinates in the global coordinate z.

    Each coordinate is one sum: T_i^-w pull_i(x_k) times each non-zero
    entry of column k of rho(g_i)^-1 (``rep.column``), for the non-zero
    x_k only, and the action's terms negated.  Where the twist is a
    monomial c*u^m (``MarkedCurve.laurent_twists``) and the factors are
    Laurent, it is one ``kernel_dot`` over their
    numerators: the chart pull (none at 0, a reversed numerator at
    infinity) and the twist fold into each term's scalar and pole order.
    Anywhere else the germs T_i^-w pull_i(x_k) are formed and summed by
    ``field.dot``; both give the same canonical value.
    """
    terms = _laurent_terms(curve.laurent_twists(rep.weight)[i], rep, g[i], x, action)
    if terms is not None:
        return [kernel_dot(t) for t in terms]
    chart = curve.chart(i)
    twist = curve.twists(rep.weight)[i]
    terms = [[(-c, a, b) for c, a, b in own] for own in action] or [[] for _ in range(rep.dim)]
    for k, c in enumerate(x):
        if c.is_zero():
            continue
        y = twist * chart.pull(c)
        for r, v in rep.column(g[i], k):
            terms[r].append((GQ_ONE, y, v))
    return [dot(t) for t in terms]


def _laurent_terms(twist, rep, g, x, action) -> list | None:
    """The ``kernel_dot`` terms of each coordinate of ``_transport`` at a
    disk whose ``laurent_twists`` entry is ``twist``, (c, m, at_infinity),
    or None when that is None or a non-zero factor is not Laurent."""
    if twist is None:
        return None
    scale, m, at_infinity = twist
    terms = [[] for _ in range(rep.dim)]
    for own, sums in zip(terms, action):
        for c, a, b in sums:
            if a._n and b._n:
                if a._k < 0 or b._k < 0:
                    return None
                own.append((K.gq_neg(c._t), a._n, b._n, a._k + b._k))
    for k, c in enumerate(x):
        n, e = c._n, c._k
        if not n:
            continue
        if e < 0:
            return None
        if at_infinity:
            # n(1/u) u^e = rev(n) / u^(deg n - e)
            n, e = K.p_norm(n[::-1]), len(n) - 1 - e
        for r, v in rep.column(g, k):
            if v._k < 0:
                return None
            terms[r].append((scale, n, v._n, e - m + v._k))
    return terms


def derive_prime(curve, rep, g, x) -> list:
    """x'_i = T_i^-w rho(g_i)^-1 x at every marked point, x given by its
    coordinates (no regularity check)."""
    return [rep.value(_transport(curve, rep, g, i, x)) for i in range(curve.n_points)]


def disk_actions(rep, g_dot, disk) -> list:
    """rho(gdot_i) x'_i at every marked point, one value each."""
    return [rep.value([dot(t) for t in rep.inf_action_terms(g_dot[i], x)]) for i, x in enumerate(disk)]


def derive_prime_dot(curve, rep, g, x_dot, actions) -> list:
    """xdot'_i = T_i^-w rho(g_i)^-1 xdot - rho(gdot_i) x'_i at every marked
    point, xdot given by its coordinates and ``actions[i]`` by the
    ``field.dot`` terms of each coordinate of rho(gdot_i) x'_i.  Each
    coordinate is one sum (``_transport``): the transport's terms and the
    action's, negated."""
    return [rep.value(_transport(curve, rep, g, i, x_dot, actions[i])) for i in range(curve.n_points)]


def _sdot_prime(base: YPoint, actions, s_circ_dot) -> list[XVector]:
    """sdot'_i, each coordinate of the formed ``actions`` rho(gdot_i) s'_i
    one term of its sum."""
    terms = [[[(GQ_ONE, c, _ONE)] for c in action.coords] for action in actions]
    return derive_prime_dot(base.curve, base.rep, base.g, s_circ_dot.coords, terms)


# ---------------------------------------------------------------------------
# validating constructors
# ---------------------------------------------------------------------------


def _pole_order(entries) -> int:
    """Largest pole order among the entries at u = 0 (0 when all are regular)."""
    worst = 0
    for e in entries:
        v = e.valuation()
        if v is not None and v < 0:
            worst = max(worst, -v)
    return worst


def _off_point_pole(curve: MarkedCurve, entries) -> bool:
    return not all(curve.is_regular_on_complement(e) for e in entries)


def _check_global(curve, g, kind, entries, what, mismatch=None) -> None:
    """The checks on global data, in order: one ``kind`` per marked point,
    the caller's size ``mismatch`` message (None when sizes agree), and
    ``what`` (given by its entries) regular away from the marked points."""
    if len(g) != curve.n_points:
        raise ShapeError(
            f"expected one {kind} per marked point "
            f"({curve.n_points}), got {len(g)}"
        )
    if mismatch:
        raise ShapeError(mismatch)
    if _off_point_pole(curve, entries):
        raise RegularityViolation(f"{what} has a pole away from the marked points")


def _check_disks(disk_entries, what) -> None:
    """Every disk value (given by its entries, or by its sl_n coordinates,
    an invertible constant-coefficient image of a traceless matrix's
    entries with the same largest pole order) is regular at u = 0."""
    for i, entries in enumerate(disk_entries):
        order = _pole_order(entries)
        if order:
            raise IrregularSection(i, order, what=what)


def make_y_point(curve, rep, g, s_circ, system=None) -> YPoint:
    """Derive s'_i, verify every invariant, and return the validated point.

    Assumes the curve and representation have already been validated.
    ``system``, when given, is the section space the solver built for g.
    """
    mismatch = (
        "section length does not match the space dimension"
        if len(s_circ) != rep.space.dim
        else None
    )
    _check_global(curve, g, "transition matrix", s_circ.coords, "s", mismatch)
    s_prime = derive_prime(curve, rep, g, s_circ.coords)
    _check_disks([s.coords for s in s_prime], "s'")
    return YPoint(curve, rep, g, s_circ, s_prime, system)


def make_y_tangent(base: YPoint, g_dot, s_circ_dot) -> YTangent:
    """Derive sdot'_i, verify regularity, and return the validated tangent."""
    mismatch = (
        "tangent section length does not match the space dimension"
        if len(s_circ_dot) != base.rep.space.dim
        else None
    )
    _check_global(base.curve, g_dot, "algebra element", s_circ_dot.coords, "sdot", mismatch)
    actions = disk_actions(base.rep, g_dot, base.s_prime)
    s_prime_dot = _sdot_prime(base, actions, s_circ_dot)
    _check_disks([s.coords for s in s_prime_dot], "sdot'")
    return YTangent(base, g_dot, s_circ_dot, s_prime_dot, actions)


def validate_y_tangent(t: YTangent) -> list[HiggsresError]:
    """All invariant violations of a (possibly corrupted) YTangent."""
    errors: list[HiggsresError] = []
    if _off_point_pole(t.base.curve, t.s_circ_dot.coords):
        errors.append(RegularityViolation("sdot has a pole away from the marked points"))
    expected = _sdot_prime(t.base, t.actions, t.s_circ_dot)
    for i, want in enumerate(expected):
        if any(a != b for a, b in zip(t.s_prime_dot[i].coords, want.coords)):
            errors.append(
                RegularityViolation(
                    f"sdot'_{i} does not satisfy the deformation equation"
                )
            )
        order = _pole_order(t.s_prime_dot[i].coords)
        if order:
            errors.append(IrregularSection(i, order, what="sdot'"))
    return errors


def unchecked_y_tangent(base, g_dot, s_circ_dot, s_prime_dot) -> YTangent:
    """Build a tangent without validation (negative-control suites only),
    with the actions rho(gdot_i) s'_i of ``base`` and ``g_dot``."""
    actions = disk_actions(base.rep, g_dot, base.s_prime)
    return YTangent(base, g_dot, s_circ_dot, s_prime_dot, actions)


def _check_size(algebra, value, what) -> None:
    """A coadjoint value of another sl_n than the point's is a ShapeError."""
    if value.algebra.n != algebra.n:
        raise ShapeError(
            f"{what} is a coadjoint value of {value.algebra.name}, not of {algebra.name}"
        )


def make_higgs_point(curve, algebra, g, phi_circ, system=None) -> HiggsPoint:
    """Derive phi'_i, verify regularity, and return the validated point.

    Global data and disk values are checked through their coordinates.
    ``system``, when given, is the Higgs-field space the solver built for g.
    """
    _check_global(curve, g, "transition matrix", phi_circ.coeffs, "phi")
    _check_size(algebra, phi_circ, "phi")
    phi_prime = derive_prime(curve, Coadjoint(algebra), g, phi_circ.coeffs)
    _check_disks([p.coeffs for p in phi_prime], "phi'")
    return HiggsPoint(curve, algebra, g, phi_circ, phi_prime, system)


def ambient_higgs_tangent(
    base: HiggsPoint, g_dot, phi_circ_dot, phi_prime_dot
) -> HiggsTangent:
    """A tangent of the ambient product space, not of the cotangent stack.

    The residue pairings are defined on arbitrary triples (gdot, phidot,
    phidot') with regular disk data; the deformation equation that carves
    out cotangent-stack tangents is *not* imposed here.  This matters on
    the sphere: at a point with phi'_0 = -1/2 E, no stack tangent with
    gdot_0 = u^-1 F exists at all (a global automorphism of the bundle
    obstructs the lift), yet the tautological pairing of that data is
    perfectly well defined on the ambient space and equals -1/2.
    """
    curve = base.curve
    mismatch = (
        "one disk value per marked point is required"
        if len(phi_prime_dot) != curve.n_points
        else None
    )
    _check_global(curve, g_dot, "algebra element", phi_circ_dot.coeffs, "phidot", mismatch)
    _check_disks([p.coeffs for p in phi_prime_dot], "phidot'")
    return HiggsTangent(base, list(g_dot), phi_circ_dot, list(phi_prime_dot))


def make_higgs_tangent(base: HiggsPoint, g_dot, phi_circ_dot) -> HiggsTangent:
    """Derive phidot'_i, verify regularity, and return the validated tangent."""
    _check_global(base.curve, g_dot, "algebra element", phi_circ_dot.coeffs, "phidot")
    _check_size(base.algebra, phi_circ_dot, "phidot")
    actions = [base.rep.inf_action_terms(xi, phi) for xi, phi in zip(g_dot, base.phi_prime)]
    phi_prime_dot = derive_prime_dot(base.curve, base.rep, base.g, phi_circ_dot.coeffs, actions)
    _check_disks([p.coeffs for p in phi_prime_dot], "phidot'")
    return HiggsTangent(base, g_dot, phi_circ_dot, phi_prime_dot)


# ---------------------------------------------------------------------------
# the moment-map pushforward
# ---------------------------------------------------------------------------


def higgs_from_y(p: YPoint) -> HiggsPoint:
    """The image (g_i, mu(s), mu(s'_i)) of a section-stack point.

    The disk data mu(s'_i) must coincide with the coadjoint transition of
    mu(s); both are computed and compared, so a convention bug inside the
    library would surface here as EquivarianceBroken.  They are compared
    as pairings with the basis, which determine a traceless matrix:
    ``p.mu_prime[i]`` against the pairings read off the transported
    value's coordinates (``MatrixLieAlgebra.pairings``).
    """
    algebra = p.rep.algebra
    phi_circ = p.rep.moment(p.s_circ)
    point = make_higgs_point(p.curve, algebra, p.g, phi_circ)
    for i, direct in enumerate(p.mu_prime):
        if direct != algebra.pairings(point.phi_prime[i].coeffs):
            raise EquivarianceBroken(
                f"mu(s'_{i}) differs from the transition of mu(s)"
            )
    return point


def pushforward_tangent(t: YTangent) -> HiggsTangent:
    """The image (gdot_i, dmu(sdot), dmu(sdot'_i)) of a section tangent."""
    return _pushforward_tangent_at(t, higgs_from_y(t.base))


def _pushforward_tangent_at(t: YTangent, h: HiggsPoint) -> HiggsTangent:
    rep = t.base.rep
    phi_circ_dot = rep.dmoment(t.base.s_circ, t.s_circ_dot)
    tangent = make_higgs_tangent(h, t.g_dot, phi_circ_dot)
    for i in range(t.base.curve.n_points):
        direct = rep.dmoment_values(t.base.s_prime[i], t.s_prime_dot[i])
        if direct != rep.algebra.pairings(tangent.phi_prime_dot[i].coeffs):
            raise EquivarianceBroken(
                f"dmu(sdot'_{i}) differs from the derived Higgs tangent"
            )
    return tangent


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------


def _check_based(p, t) -> None:
    """Raise ShapeError unless the tangent t (Y or Higgs side) is based at p."""
    if t.base is not p and t.base != p:
        raise ShapeError("tangent is not based at the given point")


def liouville_lambda(p: HiggsPoint, t: HiggsTangent) -> GaussRat:
    """sum_i Res_{u=0} <phi'_i, gdot_i> du, read off the factors (``residue_dot``)."""
    _check_based(p, t)
    total = GQ_ZERO
    for i in range(p.curve.n_points):
        total = total + residue_dot(pairing_terms(p.phi_prime[i], t.g_dot[i]))
    return total


def _omega_disk(p: HiggsPoint, t1: HiggsTangent, t2: HiggsTangent, i: int):
    """(the residue at marked point i of Omega(t1, t2)'s integrand, that of
    its third term <phi'_i, [gdot_1, gdot_2]>), read off the pairings'
    factors (``field.residue_dot``); only the bracket is formed."""
    tautological = residue_dot(pairing_terms(p.phi_prime[i], bracket(t1.g_dot[i], t2.g_dot[i])))
    first = residue_dot(pairing_terms(t1.phi_prime_dot[i], t2.g_dot[i]))
    second = residue_dot(pairing_terms(t2.phi_prime_dot[i], t1.g_dot[i]))
    return first - second - tautological, tautological


def symplectic_omega(p: HiggsPoint, t1: HiggsTangent, t2: HiggsTangent) -> GaussRat:
    """The canonical pairing of two Higgs tangents (see module docstring)."""
    _check_based(p, t1)
    _check_based(p, t2)
    total = GQ_ZERO
    for i in range(p.curve.n_points):
        total = total + _omega_disk(p, t1, t2, i)[0]
    return total


def pullback_omega(p: YPoint, t1: YTangent, t2: YTangent) -> GaussRat:
    """Omega evaluated on the moment-map images of two section tangents.

    Exactly zero on every valid input; the value is computed, never assumed.
    """
    _check_based(p, t1)
    _check_based(p, t2)
    h = higgs_from_y(p)
    h1 = _pushforward_tangent_at(t1, h)
    h2 = _pushforward_tangent_at(t2, h)
    return symplectic_omega(h, h1, h2)


# ---------------------------------------------------------------------------
# proof-mechanics checkers
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    """Per-point residuals of the section-side identity plus bookkeeping.

    For each marked point the residual is

        [ omega(sdot'_1, sdot'_2) - omega(sdot_1, sdot_2) a_i(u) ]
      - [ -omega(sdot'_1, rho(gdot_2) s') + omega(sdot'_2, rho(gdot_1) s')
          - <mu(s'), [gdot_1, gdot_2]> ]

    as an exact rational function of the local coordinate; it must vanish
    identically.  The two bookkeeping entries witness the global argument:
    the residues of omega(sdot_1, sdot_2) alpha over the marked points sum
    to zero, and each disk term omega(sdot'_1, sdot'_2) du is regular, so
    the pullback of Omega collapses to zero.
    """

    residuals: list = field(default_factory=list)
    alpha_residues: list = field(default_factory=list)
    disk_regular: list = field(default_factory=list)
    disk_residues: list = field(default_factory=list)

    @property
    def alpha_residue_sum(self) -> GaussRat:
        total = GQ_ZERO
        for r in self.alpha_residues:
            total = total + r
        return total

    @property
    def disk_ok(self) -> bool:
        """Every disk term is regular and has zero residue."""
        return all(self.disk_regular) and all(r.is_zero() for r in self.disk_residues)

    @property
    def ok(self) -> bool:
        return (
            all(r.is_zero() for r in self.residuals)
            and self.alpha_residue_sum.is_zero()
            and self.disk_ok
        )


def identity_check(p: YPoint, t1: YTangent, t2: YTangent) -> IdentityReport:
    """Exact residuals of the per-point identity behind the vanishing proof.

    t1 and t2 must be tangents at p; rho(gdot_i) s'_i is read off their
    ``actions`` and mu(s'_i) off ``p.mu_prime``, paired with the bracket
    through its coordinates.
    """
    _check_based(p, t1)
    _check_based(p, t2)
    rep = p.rep
    curve = p.curve
    report = IdentityReport()
    omega_circ = rep.space.pair(t1.s_circ_dot, t2.s_circ_dot)
    for i, mu_prime in enumerate(p.mu_prime):
        a_i = curve.alpha_local(i)
        chart = curve.chart(i)
        disk = rep.space.pair(t1.s_prime_dot[i], t2.s_prime_dot[i])
        alpha_form = chart.pull(omega_circ) * a_i
        lhs = disk - alpha_form
        bracket_coeffs = bracket(t1.g_dot[i], t2.g_dot[i]).coeffs
        rhs = (
            -rep.space.pair(t1.s_prime_dot[i], t2.actions[i])
            + rep.space.pair(t2.s_prime_dot[i], t1.actions[i])
            - dot((GQ_ONE, m, c) for m, c in zip(mu_prime, bracket_coeffs))
        )
        report.residuals.append(lhs - rhs)

        v = disk.valuation()
        report.disk_regular.append(v is None or v >= 0)
        report.disk_residues.append(disk.laurent_coefficient(-1))
        report.alpha_residues.append(alpha_form.laurent_coefficient(-1))
    return report


@dataclass
class CartanReport:
    """The three exterior-derivative terms of Omega, recomputed with jets.

    term1 is the jet derivative along t1 of the residue pairing against the
    (constantly extended) gdot of t2; term2 the symmetric one; term3 the
    tautological form on the bracket direction.  The alternating sum
    term1 - term2 - term3 must equal omega_value, ``symplectic_omega``.
    """

    term1: GaussRat = GQ_ZERO
    term2: GaussRat = GQ_ZERO
    term3: GaussRat = GQ_ZERO
    omega_value: GaussRat = GQ_ZERO

    @property
    def cartan_sum(self) -> GaussRat:
        return self.term1 - self.term2 - self.term3

    @property
    def ok(self) -> bool:
        return self.cartan_sum == self.omega_value


_JET_ZERO = Jet2(RatFunc.const(0))


def _jet_pairing(lift, phi, phi_dot, xi) -> Jet2:
    """<phi + e phi_dot, xi> as a jet, where ``lift`` (``Jet2.lift1`` or
    ``lift2``) names the direction e.  As in ``lie.pairing``, it sums
    w * lift(phi_b, phi_dot_b) * xi_a over the non-zero coordinates xi_a
    and the Gram entries (b, w) of ``gram[a]``; an entry where phi_b and
    phi_dot_b are both zero adds nothing and is skipped."""
    p, q = phi.coeffs, phi_dot.coeffs
    gram = xi.algebra.gram
    acc = _JET_ZERO
    for a, x in enumerate(xi.coeffs):
        if x.is_zero():
            continue
        fixed = Jet2(x)
        for b, w in gram[a]:
            if not (p[b].is_zero() and q[b].is_zero()):
                acc = acc + w * lift(p[b], q[b]) * fixed
    return acc


def cartan_check(p: HiggsPoint, t1: HiggsTangent, t2: HiggsTangent) -> CartanReport:
    """Recompute Omega(t1, t2) as a jet-differentiated exterior derivative.

    On each disk term1 and term2 are the e1 and e2 residues of coordinate
    jet pairings (``_jet_pairing``); term3 and omega_value are the
    residues of ``_omega_disk``, which share one bracket [gdot_1, gdot_2]
    and form no integrand.  No matrix is formed.
    """
    _check_based(p, t1)
    _check_based(p, t2)
    report = CartanReport()
    for i in range(p.curve.n_points):
        phi = p.phi_prime[i]
        jet1 = _jet_pairing(Jet2.lift1, phi, t1.phi_prime_dot[i], t2.g_dot[i])
        jet2 = _jet_pairing(Jet2.lift2, phi, t2.phi_prime_dot[i], t1.g_dot[i])
        omega, tautological = _omega_disk(p, t1, t2, i)
        report.term1 = report.term1 + jet1.d1.laurent_coefficient(-1)
        report.term2 = report.term2 + jet2.d2.laurent_coefficient(-1)
        report.term3 = report.term3 + tautological
        report.omega_value = report.omega_value + omega
    return report

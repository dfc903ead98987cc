"""The marked projective line with a trivializing 1-form and square-root twists.

A MarkedCurve fixes the distinct marked points, the 1-form alpha used to
trivialize the canonical bundle over the complement, and per-point
transition functions T_i for the chosen square root.  Two exact
invariants tie the data together:

  * alpha has neither zeros nor poles away from the marked points;
  * at each marked point, the localized coefficient of alpha equals
    T_i(u)^-2 as a reduced rational function.

The square root itself is never materialized as a bundle; its transition
data is all any computation downstream consumes.  The sign of each T_i
is genuinely extra data (both branches satisfy the square relation), so
it is part of the curve description rather than derived.
"""

from __future__ import annotations

from . import _kernels as K
from .errors import ValidationError
from .field import RatFunc
from .residues import INFINITY, LocalChart, OneForm, P1Point, localize


def _strip_marked_factors(poly: list, points) -> list:
    """The kernel polynomial poly with every factor (z - a), a a finite
    marked point, divided out."""
    for p in points:
        if p.is_infinity:
            continue
        z_minus_a = [K.gq_neg(p.value._t), K.GQ_ONE]
        while len(poly) > 1:
            q, r = K.p_divmod(poly, z_minus_a)
            if r:
                break
            poly = q
    return poly


class MarkedCurve:
    """P^1 with marked points, the trivializing form alpha, and twists T_i.

    The coefficients a_i(u) are formed when the curve is built.  The
    twists T_i^-w (also as monomials, ``laurent_twists``) are computed on
    first read and kept; ``candidate_spaces`` holds the solver's
    candidate space for each ``SolverBounds`` value, built on first use.
    A curve is not mutated after construction, so none of them goes
    stale.
    """

    def __init__(self, marked_points, alpha, transitions):
        self.marked_points: list[P1Point] = list(marked_points)
        if not self.marked_points:
            raise ValidationError("at least one marked point is required")
        points = self.marked_points
        if any(p == q for k, p in enumerate(points) for q in points[:k]):
            raise ValidationError("marked points must be distinct")
        self.alpha: OneForm = alpha if isinstance(alpha, OneForm) else OneForm(alpha)
        if isinstance(transitions, dict):
            self.transitions = [transitions[p] for p in self.marked_points]
        else:
            self.transitions = list(transitions)
        if len(self.transitions) != len(self.marked_points):
            raise ValidationError("one transition T_i per marked point is required")
        self.transitions = [
            t if isinstance(t, RatFunc) else RatFunc(t) for t in self.transitions
        ]
        self.candidate_spaces: dict = {}
        self._twists: dict = {}
        self._laurent_twists: dict = {}
        self._zero_marked = any(not p.is_infinity and p.value.is_zero() for p in points)
        self._alpha_locals: list[RatFunc] = [localize(self.alpha, p) for p in points]

    @property
    def n_points(self) -> int:
        return len(self.marked_points)

    def chart(self, i: int) -> LocalChart:
        return LocalChart(self.marked_points[i])

    def transition(self, i: int) -> RatFunc:
        return self.transitions[i]

    def twists(self, weight: int) -> list:
        """T_i^-weight at every marked point (the twist by K^(weight/2)), formed once."""
        out = self._twists.get(weight)
        if out is None:
            out = self._twists[weight] = [t ** -weight for t in self.transitions]
        return out

    def laurent_twists(self, weight: int) -> list:
        """(c, m, at_infinity) at each marked 0 or infinity whose twist
        T_i^-weight is a monomial c*u^m (c a scalar triple), None at every
        other point; formed once.  There the chart pull and the twist of a
        Laurent germ are a reversal (at infinity) and a shift of its
        numerator (``moduli._transport``)."""
        out = self._laurent_twists.get(weight)
        if out is None:
            out = self._laurent_twists[weight] = [
                None if mono is None or not (p.is_infinity or p.value.is_zero()) else (*mono, p.is_infinity)
                for p, mono in zip(self.marked_points, (t.as_monomial() for t in self.twists(weight)))
            ]
        return out

    def alpha_local(self, i: int) -> RatFunc:
        """The coefficient a_i(u) with alpha = a_i(u) du at marked point i."""
        return self._alpha_locals[i]

    def is_regular_on_complement(self, f: RatFunc) -> bool:
        """True iff f has no poles on P^1 minus the marked points.

        A denominator z^k (``f._k``) has no finite pole but 0, so it
        needs no stripping when k = 0 or 0 is marked.
        """
        if f.is_zero():
            return True
        k = f._k
        finite_ok = k == 0 or (k > 0 and self._zero_marked)
        if not finite_ok and len(_strip_marked_factors(f._d, self.marked_points)) > 1:
            return False
        if INFINITY not in self.marked_points:
            v = LocalChart(INFINITY).pull(f).valuation()
            if v is not None and v < 0:
                return False
        return True

    def __repr__(self):
        pts = ", ".join(str(p) for p in self.marked_points)
        return f"MarkedCurve([{pts}])"


def curve_validate(curve: MarkedCurve) -> list[str]:
    """Exact verification of both curve invariants: the violations,
    reported, not raised; empty when both hold."""
    coeff = curve.alpha.coeff
    if coeff.is_zero():
        return ["alpha is identically zero"]
    violations = []

    # zeros and poles of alpha away from the marked set
    for poly, what in ((coeff._n, "zero"), (coeff._d, "pole")):
        degree = len(_strip_marked_factors(poly, curve.marked_points)) - 1
        if degree >= 1:
            violations.append(
                f"alpha has a {what} away from the marked points "
                f"(unaccounted factor of degree {degree})"
            )
    if INFINITY not in curve.marked_points:
        v = localize(curve.alpha, INFINITY).valuation()
        if v is None or v != 0:
            kind = "pole" if (v is not None and v < 0) else "zero"
            violations.append(f"alpha has a {kind} at the unmarked point inf")

    # T_i^-2 must match the localized coefficient exactly
    for i, p in enumerate(curve.marked_points):
        t = curve.transition(i)
        if t.is_zero():
            violations.append(f"transition T at {p} is zero")
            continue
        if curve.alpha_local(i) != t.inverse() * t.inverse():
            violations.append(
                f"localized alpha at {p} differs from T^-2"
            )
    return violations

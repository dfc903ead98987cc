"""Rational 1-forms on the projective line and exact residues.

A global form is coeff(z) dz.  Localizing at a point rewrites it as
h(u) du in the local coordinate u, with u = z - a at a finite point a
and u = 1/z at infinity (where dz = -u^-2 du picks up the Jacobian).
The residue is the coefficient of u^-1 in h, read by
``RatFunc.laurent_coefficient`` (a slice of the numerator when h is a
Laurent polynomial n/u^k, else one power series division up to u^-1):
a single code path covers every point, including infinity.

The global statement driving all the symplectic identities downstream
is that the residues of a rational 1-form sum to zero over its poles.
``residue_sum`` computes that sum honestly: it locates every pole by
splitting the denominator into linear factors over Q(i) and raises
``UnsupportedDenominator`` when the denominator does not split (the
scenario generators only ever emit split denominators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import UnsupportedDenominator
from .field import GQ_ZERO, GaussRat, RatFunc, parse_gauss
from .roots import gaussian_rational_roots


class P1Point:
    """A point of the projective line: Finite(a) with a in Q(i), or Infinity."""

    __slots__ = ("_value",)

    def __init__(self, value: Optional[GaussRat]):
        self._value = value

    @classmethod
    def finite(cls, a) -> "P1Point":
        return cls(GaussRat(a) if not isinstance(a, GaussRat) else a)

    @classmethod
    def infinity(cls) -> "P1Point":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def value(self) -> GaussRat:
        if self._value is None:
            raise ValueError("the point at infinity has no finite coordinate")
        return self._value

    def __eq__(self, other):
        if not isinstance(other, P1Point):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def __str__(self):
        return "inf" if self._value is None else str(self._value)

    def __repr__(self):
        return f"P1Point({self})"

    @classmethod
    def parse(cls, text: str) -> "P1Point":
        text = text.strip()
        if text in ("inf", "oo", "infinity"):
            return cls.infinity()
        return cls.finite(parse_gauss(text))


INFINITY = P1Point.infinity()


@dataclass(frozen=True)
class LocalChart:
    """The substitution u = z - a (finite a) or u = 1/z (infinity).

    ``pull`` rewrites a function of z as a function of u; ``jacobian``
    is dz/du as a RatFunc in u.
    """

    point: P1Point

    def pull(self, f: RatFunc) -> RatFunc:
        if self.point.is_infinity:
            return f.invert_variable()
        a = self.point.value
        if a.is_zero():
            return f
        return f.shift(a)

    def jacobian(self) -> RatFunc:
        if self.point.is_infinity:
            # z = 1/u, dz = -u^-2 du
            return -RatFunc(1, [0, 0, 1])
        return RatFunc.const(1)


class OneForm:
    """A rational 1-form coeff(z) dz on the projective line."""

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        self.coeff = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.coeff + other.coeff)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.coeff - other.coeff)

    def __mul__(self, scalar) -> "OneForm":
        return OneForm(self.coeff * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OneForm":
        return OneForm(-self.coeff)

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self):
        return hash(self.coeff)

    def __repr__(self):
        return f"OneForm({self.coeff.to_text('z')!r} dz)"


def localize(form: OneForm, p: P1Point) -> RatFunc:
    """h(u) with form = h(u) du in the local coordinate at p."""
    chart = LocalChart(p)
    pulled = chart.pull(form.coeff)
    if p.is_infinity:
        return pulled * chart.jacobian()
    return pulled


def residue(form: OneForm, p: P1Point) -> GaussRat:
    """The coefficient of u^-1 du of the localized form; exact."""
    return localize(form, p).laurent_coefficient(-1)


def order_at(form: OneForm, p: P1Point) -> Optional[int]:
    """Vanishing order of the localized coefficient (None for the zero form)."""
    return localize(form, p).valuation()


def form_poles(form: OneForm) -> list[P1Point]:
    """All poles of the form over Q(i), including infinity.

    Raises UnsupportedDenominator when the (reduced) denominator has an
    irreducible factor of degree > 1 over Q(i): such a form has poles
    outside Q(i) and its residues cannot be located by this library.
    """
    poles: list[P1Point] = []
    coeff = form.coeff
    if coeff.is_zero():
        return poles
    den = coeff.den
    if len(den) > 1:
        roots, cofactor = gaussian_rational_roots(den)
        if len(cofactor) > 1:
            raise UnsupportedDenominator(
                "denominator does not split into linear factors over Q(i): "
                f"left irreducible cofactor of degree {len(cofactor) - 1}"
            )
        for r, _mult in roots:
            poles.append(P1Point.finite(r))
    v_inf = order_at(form, INFINITY)
    if v_inf is not None and v_inf < 0:
        poles.append(INFINITY)
    return poles


def residue_sum(form: OneForm) -> GaussRat:
    """Sum of residues over every pole of the form (always zero).

    The zero value is computed, not assumed: each pole's residue is
    read off the localized coefficient at u^-1 and the exact sum is
    returned, so a nonzero result would expose an arithmetic bug.
    """
    total = GQ_ZERO
    for p in form_poles(form):
        total = total + residue(form, p)
    return total

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
``residue_sum`` computes that sum honestly and for every form over Q(i),
whether or not its denominator splits: the finite part comes from
Hermite reduction and a trace over Q(i)[z]/(f), with no root located,
and the residue at infinity from one division of the numerator by the
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import _kernels as K
from .field import GQ_ZERO, GaussRat, RatFunc, parse_gauss


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

    ``pull`` rewrites a function of z as a function of u.
    """

    point: P1Point

    def pull(self, f: RatFunc) -> RatFunc:
        if self.point.is_infinity:
            return f.invert_variable()
        a = self.point.value
        if a.is_zero():
            return f
        return f.shift(a)


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
    pulled = LocalChart(p).pull(form.coeff)
    if p.is_infinity:
        # z = 1/u, dz = -u^-2 du
        return pulled * -RatFunc(1, [0, 0, 1])
    return pulled


def residue(form: OneForm, p: P1Point) -> GaussRat:
    """The coefficient of u^-1 du of the localized form; exact."""
    return localize(form, p).laurent_coefficient(-1)


# ---------------------------------------------------------------------------
# the residue theorem, without roots
# ---------------------------------------------------------------------------


def _derivative(p: list) -> list:
    """The kernel polynomial p'."""
    return [K.gq_mul((k, 0, 1), p[k]) for k in range(1, len(p))]


def _inverse_mod(a: list, m: list) -> list:
    """s with s*a = 1 mod m and deg s < deg m, for a coprime to m (extended Euclid)."""
    r0, r1, s0, s1 = m, K.p_divmod(a, m)[1], [], [K.GQ_ONE]
    while len(r1) > 1:
        q, r = K.p_divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, K.p_sub(s0, K.p_mul(q, s1))
    return K.p_scale(K.gq_inv(r1[0]), s1)


def _square_free(p: list) -> list:
    """Yun's split of a monic p into monic [p_1, p_2, ...], p = prod p_k^k."""
    dp = _derivative(p)
    g = K.p_gcd(p, dp)
    s, y = K.p_divmod(p, g)[0], K.p_divmod(dp, g)[0]
    factors = []
    z = K.p_sub(y, _derivative(s))
    while z:
        factors.append(K.p_gcd(s, z))
        s, y = K.p_divmod(s, factors[-1])[0], K.p_divmod(z, factors[-1])[0]
        z = K.p_sub(y, _derivative(s))
    return factors + [s]


def hermite_reduce(f: RatFunc) -> tuple:
    """(terms, h) with f = g' + h, g the sum of the terms and h's
    denominator square-free.

    Hermite reduction, quadratic version (Bronstein, *Symbolic
    Integration I*, 2.2): each square-free factor v of multiplicity
    i > 1 is lowered one power at a time by a Bezout step modulo v.
    """
    terms, a, d = [], f._n, f._d
    for i, v in enumerate(_square_free(d)[1:], 2):
        if len(v) < 2:
            continue
        powers = [[K.GQ_ONE]]
        for _ in range(i):
            powers.append(K.p_mul(powers[-1], v))
        u = K.p_divmod(d, powers[i])[0]
        uv1 = K.p_mul(u, _derivative(v))
        s = _inverse_mod(uv1, v)
        for j in range(i - 1, 0, -1):
            # b u v' + c v = -a/j with deg b < deg v, so that
            # a/(u v^(j+1)) = (b/v^j)' + (-j c - u b')/(u v^j)
            rhs = K.p_scale((-1, 0, j), a)
            b = K.p_divmod(K.p_mul(s, rhs), v)[1]
            c = K.p_divmod(K.p_sub(rhs, K.p_mul(b, uv1)), v)[0]
            terms.append(RatFunc(b, powers[j]))
            a = K.p_sub(K.p_scale((-j, 0, 1), c), K.p_mul(u, _derivative(b)))
        d = K.p_mul(u, v)
    return terms, RatFunc(a, d)


def _trace(g: list, f: list) -> tuple:
    """The trace of g over Q(i)[z]/(f), f monic and deg g < deg f.

    It is sum_k g_k p_k, where p_k, the k-th power sum of f's roots,
    follows from Newton's identities: p_k = -(k c_(n-k) + sum_(j<k) c_(n-j) p_(k-j)).
    """
    n = len(f) - 1
    sums = [(n, 0, 1)]
    for k in range(1, len(g)):
        acc = K.gq_mul((k, 0, 1), f[n - k])
        for j in range(1, k):
            acc = K.gq_add(acc, K.gq_mul(f[n - j], sums[k - j]))
        sums.append(K.gq_neg(acc))
    total = K.GQ_ZERO
    for gk, pk in zip(g, sums):
        total = K.gq_add(total, K.gq_mul(gk, pk))
    return total


def finite_residue_sum(form: OneForm) -> GaussRat:
    """The sum of the residues at every finite pole, with no root located.

    Hermite reduction leaves a/f with f square-free (a derivative and a
    polynomial have no residues), and the residue of a/f at a root r of
    f is a(r)/f'(r): the sum over the roots is the trace of a/f' mod f.
    No expansion at infinity is read, so the residue theorem is tested,
    not assumed.
    """
    h = hermite_reduce(form.coeff)[1]
    f = h._d
    if len(f) < 2:
        return GQ_ZERO
    g = K.p_divmod(K.p_mul(h._n, _inverse_mod(_derivative(f), f)), f)[1]
    return GaussRat.from_triple(_trace(g, f))


def residue_sum(form: OneForm) -> GaussRat:
    """Sum of the residues over every pole of the form, infinity included.

    The zero value is computed, not assumed: the finite part is exact
    algebra on the numerator and denominator, and the residue at infinity
    is -r_(d-1), where N = Q D + R for the form N/D dz with D monic of
    degree d (Q dz has no residue at infinity and R/D = r_(d-1)/z +
    O(z^-2)), so a nonzero result would expose an arithmetic bug.
    """
    f = form.coeff
    d = len(f._d) - 1
    r = K.p_divmod(f._n, f._d)[1]
    at_infinity = GaussRat.from_triple(K.gq_neg(r[d - 1])) if 0 < len(r) == d else GQ_ZERO
    return finite_residue_sum(form) + at_infinity

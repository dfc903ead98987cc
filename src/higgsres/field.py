"""Exact arithmetic foundation: Q(i) and rational functions over it.

Everything downstream (residues, Lie brackets, moment maps, the symplectic
pairings) is expressed in terms of three value types defined here:

  GaussRat      a + b*i with a, b arbitrary-precision rationals
  RatFunc       reduced num/den pair with monic denominator; a
                polynomial is one with denominator 1
  Jet2          v + e1*d1 + e2*d2 + e1*e2*d12 with e1^2 = e2^2 = 0

Numerators and denominators are dense kernel coefficient lists, low to
high with no trailing zeros (see ``_kernels``).

The canonical forms make equality syntactic: two rational functions are
equal iff their reduced representations coincide, so every identity check
in the library reduces to "normalized difference is zero".  No floating
point is used anywhere.

Values are immutable after construction and all operations are pure.

Laurent polynomials n/u^k (constants and polynomials are k = 0) are
closed under the ring operations, and every chart germ at 0 or infinity
is one.  Each ``RatFunc`` stores that k (or -1) when it is built, so no
operation scans a denominator to find it.  Arithmetic on two of them
skips the general normalisation (a gcd, a product of denominators, a
monic rescale): a product is n1*n2 over u^(k1+k2), a sum pads the
numerator with the smaller k by |k1 - k2| zeros, and both then strip
the min(ord_0 n, k) low zeros that u^k shares with n.  ``dot`` sums
many products at once: it adds each into one numerator over the largest
power of u and reduces once, and a single product with a one-coefficient
factor is a scale of the other factor.  ``kernel_dot`` is that sum on
numerators given directly, so a caller can fold a monomial factor c*u^m
into a term's scalar and pole order without forming the product as a
germ.  ``polar_dot`` reads only the coefficients of such a sum below
u^0, off windows of the factors.
Division and inversion by a monomial c*u^m, the chart pull at infinity
and reading Laurent coefficients (a slice of n) take the same short
cut.  The canonical form is unique, so both paths give identical values.

The textual encoding of Gaussian rationals ("p/q", "p/q+r/s*i") and the
small expression grammar used for rational functions in scenario files
are implemented at the bottom of the module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from . import _kernels as K
from .errors import NotInvertible, ParseError, ZeroDenominator

ScalarLike = Union["GaussRat", Fraction, int]


def _triple_from(value) -> tuple:
    if isinstance(value, GaussRat):
        return value._t
    if isinstance(value, int):
        return (value, 0, 1) if value else K.GQ_ZERO
    if isinstance(value, Fraction):
        return K.gq_norm(value.numerator, 0, value.denominator)
    raise TypeError(f"cannot build a Gaussian rational from {value!r}")


def _power(x, n: int, one):
    """x^n by square-and-multiply, with x^-n = (x^-1)^n; ``one`` is x^0."""
    if n < 0:
        x, n = x.inverse(), -n
    acc = one
    while n:
        if n & 1:
            acc = acc * x
        x = x * x
        n >>= 1
    return acc


class GaussRat:
    """An element a + b*i of Q(i), stored as (a_num, b_num, common_den)."""

    __slots__ = ("_t",)

    def __init__(self, re: ScalarLike = 0, im: Union[Fraction, int] = 0):
        if isinstance(re, GaussRat) and im == 0:
            self._t = re._t
            return
        re = Fraction(re) if not isinstance(re, Fraction) else re
        im = Fraction(im) if not isinstance(im, Fraction) else im
        d = re.denominator * im.denominator
        self._t = K.gq_norm(
            re.numerator * im.denominator, im.numerator * re.denominator, d
        )

    @classmethod
    def from_triple(cls, t: tuple) -> "GaussRat":
        self = object.__new__(cls)
        self._t = t
        return self

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    def is_zero(self) -> bool:
        return K.gq_is_zero(self._t)

    def inverse(self) -> "GaussRat":
        if self.is_zero():
            raise NotInvertible("inverse of zero")
        return GaussRat.from_triple(K.gq_inv(self._t))

    def _coerce(self, other):
        if isinstance(other, GaussRat):
            return other._t
        if isinstance(other, (int, Fraction)):
            return _triple_from(other)
        return None

    def __add__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_add(self._t, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_sub(self._t, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_sub(t, self._t))

    def __mul__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_mul(self._t, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_div(self._t, t))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return GaussRat.from_triple(K.gq_div(t, self._t))

    def __neg__(self):
        return GaussRat.from_triple(K.gq_neg(self._t))

    def __pow__(self, n: int):
        return _power(self, n, GQ_ONE)

    def __eq__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __hash__(self):
        if self._t[1] == 0:
            return hash(self.re)
        return hash(self._t)

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return format_gauss(self)

    def __repr__(self):
        return f"GaussRat({format_gauss(self)!r})"


GQ_ZERO = GaussRat.from_triple(K.GQ_ZERO)
GQ_ONE = GaussRat.from_triple(K.GQ_ONE)
GQ_I = GaussRat.from_triple(K.GQ_I)

# the scalar operands RatFunc multiplies and divides by without a p_mul
_SCALARS = (int, Fraction, GaussRat)


class RatFunc:
    """A reduced rational function num/den with monic denominator.

    The representation is canonical, so ``==`` is exact function equality.
    The variable is positional: values do not remember a variable name,
    and call sites must not mix germs written in different coordinates.
    ``num`` and ``den`` are each a scalar or a coefficient sequence, low
    to high: ``RatFunc([c0, c1])`` is the polynomial c0 + c1*x.

    When both operands have a denominator u^k (a Laurent polynomial), the
    operators build the reduced result directly from the numerators (see
    ``_laurent``), and a product with a constant scales the other
    operand's numerator.  Every other sum, product or quotient goes
    through ``__init__``, which divides both by their monic gcd (one
    Euclidean loop, ``p_gcd``), whatever its form, and makes the
    denominator monic.  ``_k`` is that k, or -1 when the denominator is
    not a power of u; it is set with ``_n`` and ``_d`` and never changes.
    """

    __slots__ = ("_n", "_d", "_k")

    def __init__(self, num, den=1):
        n, d = _kernel_coeffs(num), _kernel_coeffs(den)
        if not d:
            raise ZeroDenominator("rational function with zero denominator")
        if not n:
            self._n, self._d, self._k = [], [K.GQ_ONE], 0
            return
        g = K.p_gcd(n, d)
        if len(g) > 1:
            n = K.p_divmod(n, g)[0]
            d = K.p_divmod(d, g)[0]
        d, lead = K.p_monic(d)
        if lead != K.GQ_ONE:
            n = K.p_scale(K.gq_inv(lead), n)
        self._n, self._d, self._k = n, d, _u_power(d)

    @classmethod
    def _raw(cls, n: list, d: list) -> "RatFunc":
        self = object.__new__(cls)
        self._n, self._d, self._k = n, d, _u_power(d) if len(d) > 1 else 0
        return self

    @classmethod
    def const(cls, c: ScalarLike) -> "RatFunc":
        t = _triple_from(GaussRat(c))
        return cls._raw([] if K.gq_is_zero(t) else [t], [K.GQ_ONE])

    @classmethod
    def x(cls) -> "RatFunc":
        return cls._raw([K.GQ_ZERO, K.GQ_ONE], [K.GQ_ONE])

    @classmethod
    def monomial(cls, c: "GaussRat", m: int) -> "RatFunc":
        """c * x^m for a non-zero c and any integer m."""
        return cls.laurent({m: c._t})

    @classmethod
    def laurent(cls, coeffs: dict) -> "RatFunc":
        """sum c*x^e over {e: c}, each c a non-zero scalar triple and e any
        integer: the numerator runs from x^min(lo, 0) to the top exponent,
        over x^-lo when the lowest exponent lo is negative."""
        if not coeffs:
            return _ZERO
        lo = min(min(coeffs), 0)
        n = [coeffs.get(e, K.GQ_ZERO) for e in range(lo, max(coeffs) + 1)]
        return cls._raw(n, [K.GQ_ZERO] * -lo + [K.GQ_ONE])

    def is_zero(self) -> bool:
        return not self._n

    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return GQ_ZERO if not self._n else GaussRat.from_triple(self._n[0])

    def _coerce(self, other):
        if type(other) is RatFunc:
            return other
        if isinstance(other, _SCALARS):
            return RatFunc.const(other)
        return None

    def __add__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return o
        k1, k2 = self._k, o._k
        if k1 >= 0 and k2 >= 0:
            n1, n2, k = _pad(self._n, k1, o._n, k2)
            return _laurent(K.p_add(n1, n2), k)
        if self._d == o._d:
            return RatFunc(K.p_add(self._n, o._n), self._d)
        n = K.p_add(K.p_mul(self._n, o._d), K.p_mul(o._n, self._d))
        return RatFunc(n, K.p_mul(self._d, o._d))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return -o
        k1, k2 = self._k, o._k
        if k1 >= 0 and k2 >= 0:
            n1, n2, k = _pad(self._n, k1, o._n, k2)
            return _laurent(K.p_sub(n1, n2), k)
        if self._d == o._d:
            return RatFunc(K.p_sub(self._n, o._n), self._d)
        n = K.p_sub(K.p_mul(self._n, o._d), K.p_mul(o._n, self._d))
        return RatFunc(n, K.p_mul(self._d, o._d))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is RatFunc:
            o = other
        elif isinstance(other, _SCALARS):
            return self._scaled(_triple_from(other))
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if not self._n:
            return self
        if not o._n:
            return o
        k1, k2 = self._k, o._k
        if k1 >= 0 and k2 >= 0:
            return _laurent(K.p_mul(self._n, o._n), k1 + k2)
        # a constant factor scales the reduced other operand
        if k2 == 0 and len(o._n) == 1:
            return self._scaled(o._n[0])
        if k1 == 0 and len(self._n) == 1:
            return o._scaled(self._n[0])
        return RatFunc(K.p_mul(self._n, o._n), K.p_mul(self._d, o._d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is RatFunc:
            o = other
        elif isinstance(other, _SCALARS):
            t = _triple_from(other)
            if K.gq_is_zero(t):
                raise ZeroDivisionError("division by zero rational function")
            return self._scaled(K.gq_inv(t))
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if o._k >= 0 and _u_power(o._n) >= 0:
            return self * o.inverse()
        return RatFunc(K.p_mul(self._n, o._d), K.p_mul(self._d, o._n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def _scaled(self, t: tuple) -> "RatFunc":
        """self times the scalar t: c*n/d is reduced when n/d is and c != 0."""
        if not self._n:
            return self
        if K.gq_is_zero(t):
            return _ZERO
        return RatFunc._raw(K.p_scale(t, self._n), list(self._d))

    def __neg__(self):
        return RatFunc._raw(K.p_neg(self._n), list(self._d))

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise NotInvertible("inverse of the zero rational function")
        m, k = _u_power(self._n), self._k
        if m >= 0 and k >= 0:
            # c*u^m / u^k with min(m, k) = 0 inverts to c^-1*u^k / u^m
            return RatFunc._raw(
                [K.GQ_ZERO] * k + [K.gq_inv(self._n[m])], [K.GQ_ZERO] * m + [K.GQ_ONE]
            )
        return RatFunc(self._d, self._n)

    def __pow__(self, n: int):
        return _power(self, n, RatFunc.const(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        # a constant equals its GaussRat value and any equal int or
        # Fraction, so it hashes as that value, which hashes as they do
        if self.is_constant():
            return hash(self.constant_value())
        return hash((tuple(self._n), tuple(self._d)))

    def __bool__(self):
        return bool(self._n)

    def as_monomial(self) -> tuple | None:
        """(c, m) with self = c*x^m, c a non-zero scalar triple, or None
        when self is not such a monomial (the zero function included)."""
        if not self._n or self._k < 0:
            return None
        j = _u_power(self._n)
        if j < 0:
            return None
        return self._n[j], j - self._k

    def valuation(self) -> int | None:
        """ord at 0 (negative for a pole); None for the zero function.

        A Laurent germ n/u^k with k > 0 is canonical only with n(0) != 0,
        so its order is -k at once.
        """
        if not self._n:
            return None
        if self._k > 0:
            return -self._k
        vn = next(k for k, t in enumerate(self._n) if not K.gq_is_zero(t))
        if self._k == 0:
            return vn
        vd = next(k for k, t in enumerate(self._d) if not K.gq_is_zero(t))
        return vn - vd

    def shift(self, t: ScalarLike) -> "RatFunc":
        """Substitute x -> x + t (the chart move for a finite point t)."""
        tt = _triple_from(GaussRat(t))
        return RatFunc._raw(K.p_shift(self._n, tt), K.p_shift(self._d, tt))

    def invert_variable(self) -> "RatFunc":
        """Substitute x -> 1/x (the chart move for the point at infinity)."""
        if not self._n:
            return self
        dn, dd = len(self._n) - 1, len(self._d) - 1
        k = self._k
        if k >= 0:
            # n(1/u) * u^k = rev(n) * u^(k - deg n), and rev(n)(0) = lead(n) != 0
            rev = K.p_norm(self._n[::-1])
            if k >= dn:
                return RatFunc._raw([K.GQ_ZERO] * (k - dn) + rev, [K.GQ_ONE])
            return RatFunc._raw(rev, [K.GQ_ZERO] * (dn - k) + [K.GQ_ONE])
        # n(1/u) / d(1/u) = u^(dd - dn) * rev(n) / rev(d)
        num, den = K.p_norm(self._n[::-1]), K.p_norm(self._d[::-1])
        shift = [K.GQ_ZERO] * abs(dd - dn)
        if dd >= dn:
            return RatFunc(shift + num, den)
        return RatFunc(num, shift + den)

    def laurent_coefficient(self, k: int) -> GaussRat:
        """The coefficient of x^k in the expansion at 0; exact."""
        return GaussRat.from_triple(self.coefficients(k, k)[0])

    def coefficients(self, lo: int, top: int) -> list:
        """The coefficients of x^lo .. x^top in the expansion at 0, as
        scalar triples; exact.

        On n/u^k the coefficient of x^e is n[e + k], so the window is a
        slice of the numerator, padded with zeros where it runs past
        either end.  Any other n/d is u^(vn - vd) * (n/u^vn) / (d/u^vd),
        with vn and vd the low orders of n and d; the window is read off
        one power series division of the two unit-led tails, from the
        order at 0 up to x^top, with zeros below that order.
        """
        k = self._k
        n = self._n
        if k >= 0:
            a, b = lo + k, top + k + 1
            if 0 <= a and b <= len(n):
                return n[a:b]
            zero = K.GQ_ZERO
            return [n[j] if 0 <= j < len(n) else zero for j in range(a, b)]
        d = self._d
        vn = next(j for j, t in enumerate(n) if not K.gq_is_zero(t))
        vd = next(j for j, t in enumerate(d) if not K.gq_is_zero(t))
        v = vn - vd
        if v > top:
            return [K.GQ_ZERO] * (top - lo + 1)
        series = K.p_series_div(n[vn:], d[vd:], top - v + 1)
        if lo < v:
            return [K.GQ_ZERO] * (v - lo) + series
        return series[lo - v:]

    def __str__(self):
        return self.to_text("z")

    def to_text(self, var: str) -> str:
        ntxt = _poly_text(self._n, var)
        if self._d == [K.GQ_ONE]:
            return ntxt
        dtxt = _poly_text(self._d, var)
        if len(self._n) > 1 or ("+" in ntxt[1:]) or ("-" in ntxt[1:]):
            ntxt = f"({ntxt})"
        if len(self._d) > 1:
            dtxt = f"({dtxt})"
        return f"{ntxt}/{dtxt}"

    def __repr__(self):
        return f"RatFunc({self.to_text('z')!r})"


def _kernel_coeffs(value) -> list:
    """The kernel coefficient list of a polynomial given as a scalar or as
    a sequence, low to high, of scalars or kernel triples."""
    if isinstance(value, _SCALARS):
        t = _triple_from(value)
        return [] if K.gq_is_zero(t) else [t]
    if isinstance(value, (list, tuple)):
        return K.p_norm([t if type(t) is tuple else _triple_from(t) for t in value])
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def _poly_text(coeffs: list, var: str) -> str:
    """The kernel polynomial coeffs as text in var, highest power first."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        t = coeffs[k]
        if K.gq_is_zero(t):
            continue
        txt = format_gauss(GaussRat.from_triple(t))
        needs_parens = ("+" in txt[1:]) or ("-" in txt[1:])
        if k == 0:
            mono = ""
        elif k == 1:
            mono = var
        else:
            mono = f"{var}^{k}"
        if mono:
            if txt == "1":
                term = mono
            elif txt == "-1":
                term = f"-{mono}"
            elif needs_parens:
                term = f"({txt})*{mono}"
            else:
                term = f"{txt}*{mono}"
        else:
            term = txt
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _u_power(d: list) -> int:
    """k when the polynomial d is a monomial c*u^k, else -1.

    On a monic denominator this tells a Laurent polynomial n/u^k.
    """
    k = len(d) - 1
    for j in range(k):
        if d[j][0] or d[j][1]:
            return -1
    return k


def _pad(n1: list, k1: int, n2: list, k2: int) -> tuple:
    """n1/u^k1 and n2/u^k2 as numerators over the larger power of u."""
    if k1 < k2:
        return [K.GQ_ZERO] * (k2 - k1) + n1, n2, k2
    if k2 < k1:
        return n1, [K.GQ_ZERO] * (k1 - k2) + n2, k1
    return n1, n2, k1


def _laurent(n: list, k: int) -> RatFunc:
    """The canonical form of n/u^k: drop the low zeros u^k shares with n."""
    if not n:
        return _ZERO
    if k:
        j = 0
        while j < k and not (n[j][0] or n[j][1]):
            j += 1
        n, k = n[j:], k - j
    return RatFunc._raw(n, [K.GQ_ZERO] * k + [K.GQ_ONE])


_ZERO = RatFunc._raw([], [K.GQ_ONE])


def dot(terms) -> RatFunc:
    """The sum of c*x*y over the terms (c, x, y): x and y are RatFunc, c
    is a GaussRat.

    When every non-zero term has Laurent factors, the sum is
    ``kernel_dot`` over their numerators; any other sum is summed with
    the operators, where a constant factor scales the other one.  Both
    give the value the operators would.  A sum with no non-zero term is
    the shared zero.
    """
    items = []
    laurent = True
    for c, x, y in terms:
        if x._n and y._n:
            items.append((c, x, y))
            laurent = laurent and x._k >= 0 and y._k >= 0
    if not items:
        return _ZERO
    if laurent:
        return kernel_dot([(c._t, x._n, y._n, x._k + y._k) for c, x, y in items])
    acc = _ZERO
    for c, x, y in items:
        acc = acc + x * y * c
    return acc


def kernel_dot(terms: list) -> RatFunc:
    """The sum of c*p*q/u^k over the ``p_dot`` terms (c, p, q, k): c a
    scalar triple, p and q non-zero numerators and k any integer, so a
    factor may be given as a numerator with its pole order and a monomial
    scale folded into c and k.  The products are added into one numerator
    over the largest power of u and reduced once; a single product with a
    one-coefficient factor is a scale of the other (``p_scale``), and no
    terms is the shared zero."""
    if len(terms) == 1:
        c, p, q, k = terms[0]
        if len(q) == 1:
            p, q = q, p
        if len(p) == 1:
            n = K.p_scale(K.gq_mul(c, p[0]), q)
            if k >= 0 or not n:
                return _laurent(n, k)
            return RatFunc._raw([K.GQ_ZERO] * -k + n, [K.GQ_ONE])
    return _laurent(*K.p_dot(terms)) if terms else _ZERO


def polar_dot(terms) -> dict:
    """The coefficients {e: triple} at exponents e < 0 of dot(terms), read
    without forming the sum, each c a GaussRat; an exponent may map to
    zero.

    The coefficient of u^e in x*y is sum x_p y_q over p + q = e, with p at
    least ord_0 x and q at least ord_0 y.  So for e < 0 it needs only x's
    window from ord_0 x to -1 - ord_0 y and y's window from ord_0 y to
    -1 - ord_0 x, whatever the valuations and whether or not x and y are
    Laurent.
    """
    acc = {}
    for c, x, y in terms:
        if not (x._n and y._n):
            continue
        vx, vy = x.valuation(), y.valuation()
        size = -(vx + vy)
        if size <= 0:
            continue
        xs = x.coefficients(vx, -1 - vy)
        ys = y.coefficients(vy, -1 - vx)
        scale = c._t
        for i, a in enumerate(xs):
            if K.gq_is_zero(a):
                continue
            if scale != K.GQ_ONE:
                a = K.gq_mul(scale, a)
            for j in range(size - i):
                b = ys[j]
                if not K.gq_is_zero(b):
                    e = j + i - size
                    p = K.gq_mul(a, b)
                    acc[e] = K.gq_add(acc[e], p) if e in acc else p
    return acc


def residue_dot(terms) -> GaussRat:
    """The coefficient of u^-1 in dot(terms), read off the factors without
    forming the sum: for Laurent factors x = n_x/u^kx, y = n_y/u^ky it is
    c * sum_a n_x[a] n_y[kx + ky - 1 - a]; any other term reads it off
    ``polar_dot``'s windows."""
    acc = K.GQ_ZERO
    for c, x, y in terms:
        nx, ny = x._n, y._n
        if not (nx and ny):
            continue
        if x._k < 0 or y._k < 0:
            acc = K.gq_add(acc, polar_dot(((c, x, y),)).get(-1, K.GQ_ZERO))
            continue
        top = x._k + y._k - 1
        for a in range(max(0, top - len(ny) + 1), min(len(nx), top + 1)):
            acc = K.gq_add(acc, K.gq_mul(c._t, K.gq_mul(nx[a], ny[top - a])))
    return GaussRat.from_triple(acc)


# the operands a Jet2 treats as jets with zero e1, e2 and e1*e2 components
_JET_SCALARS = (int, Fraction, GaussRat, RatFunc)


class Jet2:
    """First-order jet in two parameters: v + e1*d1 + e2*d2 + e1*e2*d12.

    Components may be any shared commutative ring type supporting the
    Python arithmetic operators (GaussRat or RatFunc here).  e1 and e2
    square to zero, so products truncate by the Leibniz rule; a product
    with a scalar operand (int, Fraction, GaussRat or RatFunc) scales the
    four components.
    """

    __slots__ = ("v", "d1", "d2", "d12")

    def __init__(self, v, d1=0, d2=0, d12=0):
        self.v = v
        if type(d1) is int or type(d2) is int or type(d12) is int:
            # only the int default is replaced: a RatFunc tested != 0 coerces the 0
            zero = _ZERO if type(v) is RatFunc else v - v
            d1 = zero if type(d1) is int and not d1 else d1
            d2 = zero if type(d2) is int and not d2 else d2
            d12 = zero if type(d12) is int and not d12 else d12
        self.d1, self.d2, self.d12 = d1, d2, d12

    @classmethod
    def lift1(cls, value, direction) -> "Jet2":
        """value + e1*direction."""
        return cls(value, d1=direction)

    @classmethod
    def lift2(cls, value, direction) -> "Jet2":
        """value + e2*direction."""
        return cls(value, d2=direction)

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, _JET_SCALARS):
            return Jet2(self.v - self.v + other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2, self.d12 + o.d12)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2, self.d12 - o.d12)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.v * other.v,
                self.v * other.d1 + self.d1 * other.v,
                self.v * other.d2 + self.d2 * other.v,
                self.v * other.d12 + self.d12 * other.v + self.d1 * other.d2 + self.d2 * other.d1,
            )
        if isinstance(other, _JET_SCALARS):
            return Jet2(self.v * other, self.d1 * other, self.d2 * other, self.d12 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2, -self.d12)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.v == o.v and self.d1 == o.d1 and self.d2 == o.d2 and self.d12 == o.d12
        )

    def __repr__(self):
        return f"Jet2({self.v!r}, {self.d1!r}, {self.d2!r}, {self.d12!r})"


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------


def format_gauss(g: GaussRat) -> str:
    """Canonical text: "p/q", "r/s*i", or "p/q+r/s*i" (also with '-')."""
    re, im = g.re, g.im
    if im == 0:
        return str(re)
    if im == 1:
        itxt = "i"
    elif im == -1:
        itxt = "-i"
    else:
        itxt = f"{im}*i"
    if re == 0:
        return itxt
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{itxt.lstrip('-')}"


class _ExprParser:
    """Recursive-descent parser for rational expressions over Q(i).

    Grammar:  expr   = term (("+"|"-") term)*
              term   = factor (("*"|"/") factor)*
              factor = ("+"|"-") factor | atom ("^" ("-")? digits)?
              atom   = digits ("/" digits)? | "i" | VAR | "(" expr ")"

    The single allowed variable name is fixed by the caller; pass None to
    accept constants only (the Gaussian-rational text encoding).  Nesting
    deeper than the interpreter's recursion limit allows is a ParseError.
    """

    def __init__(self, text: str, var: str | None):
        self.text = text
        self.var = var
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, location=f"column {self.pos + 1}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> RatFunc:
        try:
            value = self.expr()
        except RecursionError:
            # the descent is as deep as the nesting: a ParseError at the
            # column where the stack ran out, not a traceback
            raise self.error("expression nested too deeply") from None
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> RatFunc:
        value = self.factor()
        while True:
            if self.take("*"):
                value = value * self.factor()
            elif self.take("/"):
                den = self.factor()
                if den.is_zero():
                    raise self.error("division by zero")
                value = value / den
            else:
                return value

    def factor(self) -> RatFunc:
        if self.take("-"):
            return -self.factor()
        if self.take("+"):
            return self.factor()
        value = self.atom()
        if self.take("^"):
            neg = self.take("-")
            n = self.integer()
            if neg and value.is_zero():
                raise self.error("division by zero")
            return value ** (-n if neg else n)
        return value

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def atom(self) -> RatFunc:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return value
        if ch.isdigit():
            n = self.integer()
            return RatFunc.const(n)
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "i":
                return RatFunc.const(GQ_I)
            if self.var is not None and name == self.var:
                return RatFunc.x()
            self.pos = start
            raise self.error(
                f"unknown symbol {name!r}"
                + (f" (variable is {self.var!r})" if self.var else " (constants only)")
            )
        if ch == "":
            raise self.error("unexpected end of expression")
        raise self.error(f"unexpected {ch!r}")


def parse_ratfunc(text: str, var: str = "z") -> RatFunc:
    """Parse a rational expression in the given variable."""
    return _ExprParser(text, var).parse()


def parse_gauss(text: str) -> GaussRat:
    """Parse the Gaussian-rational text encoding ("p/q", "p/q+r/s*i", ...)."""
    value = _ExprParser(text, None).parse()
    return value.constant_value()

"""Exact arithmetic foundation: Q(i), polynomials, rational functions.

Everything downstream (residues, Lie brackets, moment maps, the symplectic
pairings) is expressed in terms of four value types defined here:

  GaussRat      a + b*i with a, b arbitrary-precision rationals
  Poly          dense polynomial over GaussRat, no trailing zeros
  RatFunc       reduced num/den pair with monic denominator
  LaurentSeries truncated expansion at 0 of a rational germ
  Jet2          v + e1*d1 + e2*d2 + e1*e2*d12 with e1^2 = e2^2 = 0

The canonical forms make equality syntactic: two rational functions are
equal iff their reduced representations coincide, so every identity check
in the library reduces to "normalized difference is zero".  No floating
point is used anywhere.

Values are immutable after construction and all operations are pure.

Laurent polynomials n/u^k (constants and polynomials are k = 0) are
closed under the ring operations, and every chart germ at 0 or infinity
is one.  ``RatFunc`` arithmetic on two of them skips the general
normalisation (a gcd, a product of denominators, a monic rescale): a
product is n1*n2 over u^(k1+k2), a sum pads the numerator with the
smaller k by |k1 - k2| zeros, and both then strip the min(ord_0 n, k)
low zeros that u^k shares with n.  Division and inversion by a monomial
c*u^m, the chart pull at infinity and reading one Laurent coefficient
take the same short cut.  The canonical form is unique, so both paths
give identical values.

The textual encoding of Gaussian rationals ("p/q", "p/q+r/s*i") and the
small expression grammar used for rational functions in scenario files
are implemented at the bottom of the module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

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

    def norm(self) -> Fraction:
        """The field norm a^2 + b^2 (a non-negative rational)."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

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
        if n < 0:
            return self.inverse() ** (-n)
        acc = GQ_ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

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


class Poly:
    """Dense polynomial over Q(i); coefficient list carries no trailing zeros."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        self._c = K.p_norm([_triple_from(GaussRat(c)) for c in coeffs])

    @classmethod
    def _raw(cls, kcoeffs: list) -> "Poly":
        self = object.__new__(cls)
        self._c = kcoeffs
        return self

    @classmethod
    def const(cls, c: ScalarLike) -> "Poly":
        return cls([c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple:
        return tuple(GaussRat.from_triple(t) for t in self._c)

    def coeff(self, k: int) -> GaussRat:
        if 0 <= k < len(self._c):
            return GaussRat.from_triple(self._c[k])
        return GQ_ZERO

    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def leading(self) -> GaussRat:
        if not self._c:
            return GQ_ZERO
        return GaussRat.from_triple(self._c[-1])

    def valuation(self) -> int | None:
        """Order of vanishing at 0; None for the zero polynomial."""
        for k, t in enumerate(self._c):
            if not K.gq_is_zero(t):
                return k
        return None

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other._c
        if isinstance(other, (int, Fraction, GaussRat)):
            t = _triple_from(GaussRat(other))
            return [] if K.gq_is_zero(t) else [t]
        return None

    def __add__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Poly._raw(K.p_add(self._c, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Poly._raw(K.p_sub(self._c, c))

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return Poly._raw(K.p_sub(c, self._c))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._raw(K.p_mul(self._c, other._c))
        if isinstance(other, (int, Fraction, GaussRat)):
            return Poly._raw(K.p_scale(_triple_from(GaussRat(other)), self._c))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Poly._raw(K.p_neg(self._c))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = Poly._raw([K.GQ_ONE])
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __divmod__(self, other: "Poly"):
        q, r = K.p_divmod(self._c, other._c)
        return Poly._raw(q), Poly._raw(r)

    def __floordiv__(self, other: "Poly"):
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly"):
        return divmod(self, other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        return Poly._raw(K.p_gcd(self._c, other._c))

    def monic(self) -> tuple["Poly", GaussRat]:
        m, lead = K.p_monic(self._c)
        return Poly._raw(m), GaussRat.from_triple(lead)

    def eval(self, c: ScalarLike) -> GaussRat:
        return GaussRat.from_triple(K.p_eval(self._c, _triple_from(GaussRat(c))))

    def shift(self, t: ScalarLike) -> "Poly":
        """Coefficients of p(x + t)."""
        return Poly._raw(K.p_shift(self._c, _triple_from(GaussRat(t))))

    def reversed(self, degree: int | None = None) -> "Poly":
        """x^degree * p(1/x); degree defaults to deg p."""
        d = self.degree() if degree is None else degree
        if d < self.degree():
            raise ValueError("reversal degree below polynomial degree")
        out = [K.GQ_ZERO] * (d + 1)
        for k, t in enumerate(self._c):
            out[d - k] = t
        return Poly._raw(K.p_norm(out))

    def derivative(self) -> "Poly":
        out = []
        for k in range(1, len(self._c)):
            out.append(K.gq_mul((k, 0, 1), self._c[k]))
        return Poly._raw(K.p_norm(out))

    def __eq__(self, other):
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return self._c == c

    def __hash__(self):
        return hash(tuple(self._c))

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        return self.to_text("z")

    def to_text(self, var: str) -> str:
        if not self._c:
            return "0"
        parts = []
        for k in range(len(self._c) - 1, -1, -1):
            t = self._c[k]
            if K.gq_is_zero(t):
                continue
            g = GaussRat.from_triple(t)
            txt = format_gauss(g)
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

    def __repr__(self):
        return f"Poly({self.to_text('z')!r})"


class RatFunc:
    """A reduced rational function num/den with monic denominator.

    The representation is canonical, so ``==`` is exact function equality.
    The variable is positional: values do not remember a variable name,
    and call sites must not mix germs written in different coordinates.

    When both operands have a denominator u^k (a Laurent polynomial), the
    operators build the reduced result directly from the numerators (see
    ``_laurent``); every other operand goes through ``__init__``, which
    divides by the gcd and makes the denominator monic.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=1):
        num = num if isinstance(num, Poly) else _as_poly(num)
        den = den if isinstance(den, Poly) else _as_poly(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        n, d = num._c, den._c
        if not n:
            self._n, self._d = [], [K.GQ_ONE]
            return
        g = K.p_gcd(n, d)
        j = len(g) - 1
        if j and _u_power(g) == j:
            # g = u^j: drop the low j coefficients, all zero
            n, d = n[j:], d[j:]
        elif j:
            n = K.p_divmod(n, g)[0]
            d = K.p_divmod(d, g)[0]
        d, lead = K.p_monic(d)
        if lead != K.GQ_ONE:
            n = K.p_scale(K.gq_inv(lead), n)
        self._n, self._d = n, d

    @classmethod
    def _raw(cls, n: list, d: list) -> "RatFunc":
        self = object.__new__(cls)
        self._n, self._d = n, d
        return self

    @classmethod
    def const(cls, c: ScalarLike) -> "RatFunc":
        t = _triple_from(GaussRat(c))
        return cls._raw([] if K.gq_is_zero(t) else [t], [K.GQ_ONE])

    @classmethod
    def x(cls) -> "RatFunc":
        return cls._raw([K.GQ_ZERO, K.GQ_ONE], [K.GQ_ONE])

    @property
    def num(self) -> Poly:
        return Poly._raw(list(self._n))

    @property
    def den(self) -> Poly:
        return Poly._raw(list(self._d))

    def is_zero(self) -> bool:
        return not self._n

    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return GQ_ZERO if not self._n else GaussRat.from_triple(self._n[0])

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return RatFunc.const(other)
        if isinstance(other, Poly):
            return RatFunc._raw(list(other._c), [K.GQ_ONE])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return o
        k1 = _u_power(self._d)
        if k1 >= 0:
            k2 = _u_power(o._d)
            if k2 >= 0:
                n1, n2, k = _pad(self._n, k1, o._n, k2)
                return _laurent(K.p_add(n1, n2), k)
        if self._d == o._d:
            return RatFunc(Poly._raw(K.p_add(self._n, o._n)), Poly._raw(self._d))
        n = K.p_add(K.p_mul(self._n, o._d), K.p_mul(o._n, self._d))
        return RatFunc(Poly._raw(n), Poly._raw(K.p_mul(self._d, o._d)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            return self
        if not self._n:
            return -o
        k1 = _u_power(self._d)
        if k1 >= 0:
            k2 = _u_power(o._d)
            if k2 >= 0:
                n1, n2, k = _pad(self._n, k1, o._n, k2)
                return _laurent(K.p_sub(n1, n2), k)
        if self._d == o._d:
            return RatFunc(Poly._raw(K.p_sub(self._n, o._n)), Poly._raw(self._d))
        n = K.p_sub(K.p_mul(self._n, o._d), K.p_mul(o._n, self._d))
        return RatFunc(Poly._raw(n), Poly._raw(K.p_mul(self._d, o._d)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(_triple_from(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._n:
            return self
        if not o._n:
            return o
        k1 = _u_power(self._d)
        if k1 >= 0:
            k2 = _u_power(o._d)
            if k2 >= 0:
                return _laurent(K.p_mul(self._n, o._n), k1 + k2)
        return RatFunc(
            Poly._raw(K.p_mul(self._n, o._n)), Poly._raw(K.p_mul(self._d, o._d))
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            t = _triple_from(other)
            if K.gq_is_zero(t):
                raise ZeroDivisionError("division by zero rational function")
            return self._scaled(K.gq_inv(t))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if _u_power(o._n) >= 0 and _u_power(o._d) >= 0:
            return self * o.inverse()
        return RatFunc(
            Poly._raw(K.p_mul(self._n, o._d)), Poly._raw(K.p_mul(self._d, o._n))
        )

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
            return RatFunc._raw([], [K.GQ_ONE])
        return RatFunc._raw(K.p_scale(t, self._n), list(self._d))

    def __neg__(self):
        return RatFunc._raw(K.p_neg(self._n), list(self._d))

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise NotInvertible("inverse of the zero rational function")
        m, k = _u_power(self._n), _u_power(self._d)
        if m >= 0 and k >= 0:
            # c*u^m / u^k with min(m, k) = 0 inverts to c^-1*u^k / u^m
            return RatFunc._raw(
                [K.GQ_ZERO] * k + [K.gq_inv(self._n[m])], [K.GQ_ZERO] * m + [K.GQ_ONE]
            )
        return RatFunc(Poly._raw(list(self._d)), Poly._raw(list(self._n)))

    def __pow__(self, n: int):
        m, k = _u_power(self._n), _u_power(self._d)
        if m >= 0 and k >= 0:
            # (c*u^m / u^k)^n = c^n*u^(mn) / u^(kn), with min(m, k) = 0
            c = (GaussRat.from_triple(self._n[m]) ** n)._t
            if n < 0:
                m, k, n = k, m, -n
            return RatFunc._raw([K.GQ_ZERO] * (m * n) + [c], [K.GQ_ZERO] * (k * n) + [K.GQ_ONE])
        if n < 0:
            return self.inverse() ** (-n)
        acc = RatFunc.const(1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((tuple(self._n), tuple(self._d)))

    def __bool__(self):
        return bool(self._n)

    def valuation(self) -> int | None:
        """ord at 0 (negative for a pole); None for the zero function."""
        if not self._n:
            return None
        vn = next(k for k, t in enumerate(self._n) if not K.gq_is_zero(t))
        vd = next(k for k, t in enumerate(self._d) if not K.gq_is_zero(t))
        return vn - vd

    def eval(self, a: ScalarLike) -> GaussRat:
        ta = _triple_from(GaussRat(a))
        dv = K.p_eval(self._d, ta)
        if K.gq_is_zero(dv):
            raise ZeroDivisionError("evaluation at a pole")
        return GaussRat.from_triple(K.gq_div(K.p_eval(self._n, ta), dv))

    def shift(self, t: ScalarLike) -> "RatFunc":
        """Substitute x -> x + t (the chart move for a finite point t)."""
        tt = _triple_from(GaussRat(t))
        return RatFunc._raw(K.p_shift(self._n, tt), K.p_shift(self._d, tt))

    def invert_variable(self) -> "RatFunc":
        """Substitute x -> 1/x (the chart move for the point at infinity)."""
        if not self._n:
            return RatFunc._raw([], [K.GQ_ONE])
        dn, dd = len(self._n) - 1, len(self._d) - 1
        k = _u_power(self._d)
        if k >= 0:
            # n(1/u) * u^k = rev(n) * u^(k - deg n), and rev(n)(0) = lead(n) != 0
            rev = K.p_norm(self._n[::-1])
            if k >= dn:
                return RatFunc._raw([K.GQ_ZERO] * (k - dn) + rev, [K.GQ_ONE])
            return RatFunc._raw(rev, [K.GQ_ZERO] * (dn - k) + [K.GQ_ONE])
        num = Poly._raw(list(self._n)).reversed()
        den = Poly._raw(list(self._d)).reversed()
        mono = [K.GQ_ZERO] * abs(dd - dn) + [K.GQ_ONE]
        if dd >= dn:
            num = Poly._raw(K.p_mul(num._c, mono))
        else:
            den = Poly._raw(K.p_mul(den._c, mono))
        return RatFunc(num, den)

    def derivative(self) -> "RatFunc":
        n, d = Poly._raw(list(self._n)), Poly._raw(list(self._d))
        return RatFunc(n.derivative() * d - n * d.derivative(), d * d)

    def laurent_coefficient(self, k: int) -> GaussRat:
        """The coefficient of x^k in the expansion at 0; exact."""
        m = _u_power(self._d)
        if m >= 0:
            # n/u^m: the coefficient of x^k is n[k + m]
            j = k + m
            return GaussRat.from_triple(self._n[j]) if 0 <= j < len(self._n) else GQ_ZERO
        v = self.valuation()
        if v is None or k < v:
            return GQ_ZERO
        series = laurent_expand(self, k - v + 1)
        return series.coefficient(k)

    def __str__(self):
        return self.to_text("z")

    def to_text(self, var: str) -> str:
        num = Poly._raw(list(self._n))
        if self._d == [K.GQ_ONE]:
            return num.to_text(var)
        ntxt = num.to_text(var)
        dtxt = Poly._raw(list(self._d)).to_text(var)
        if len(num._c) > 1 or ("+" in ntxt[1:]) or ("-" in ntxt[1:]):
            ntxt = f"({ntxt})"
        if len(self._d) > 1:
            dtxt = f"({dtxt})"
        return f"{ntxt}/{dtxt}"

    def __repr__(self):
        return f"RatFunc({self.to_text('z')!r})"


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
        return RatFunc._raw([], [K.GQ_ONE])
    if k:
        j = 0
        while j < k and not (n[j][0] or n[j][1]):
            j += 1
        n, k = n[j:], k - j
    return RatFunc._raw(n, [K.GQ_ZERO] * k + [K.GQ_ONE])


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction, GaussRat)):
        return Poly([value])
    if isinstance(value, (list, tuple)):
        return Poly(value)
    raise TypeError(f"cannot interpret {value!r} as a polynomial")


def rat_normalize(num, den) -> RatFunc:
    """Canonical form of num/den: reduced, monic denominator.

    Raises ZeroDenominator when den is identically zero.  Equal fractions
    always produce identical representations.
    """
    return RatFunc(num, den)


class LaurentSeries:
    """Truncated Laurent expansion: coefficients for exponents
    start_exponent .. truncation_order inclusive.

    The leading stored coefficient is nonzero unless the expanded germ is
    zero to the stated order, in which case the coefficient list is empty.
    """

    __slots__ = ("start_exponent", "coeffs", "truncation_order")

    def __init__(self, start_exponent: int, coeffs: Sequence[GaussRat], truncation_order: int):
        coeffs = list(coeffs)
        while coeffs and coeffs[0].is_zero():
            coeffs.pop(0)
            start_exponent += 1
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            start_exponent = 0
        self.start_exponent = start_exponent
        self.coeffs = tuple(coeffs)
        self.truncation_order = truncation_order

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> GaussRat:
        if k > self.truncation_order:
            raise ValueError(f"exponent {k} beyond truncation order {self.truncation_order}")
        idx = k - self.start_exponent
        if not self.coeffs or idx < 0 or idx >= len(self.coeffs):
            return GQ_ZERO
        return self.coeffs[idx]

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.start_exponent == other.start_exponent
            and self.coeffs == other.coeffs
            and self.truncation_order == other.truncation_order
        )

    def __hash__(self):
        return hash((self.start_exponent, self.coeffs, self.truncation_order))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        trunc = min(self.truncation_order, other.truncation_order)
        if self.is_zero() and other.is_zero():
            return LaurentSeries(0, (), trunc)
        starts = [s.start_exponent for s in (self, other) if not s.is_zero()]
        start = min(starts)
        out = []
        for k in range(start, trunc + 1):
            a = self.coefficient(k) if k <= self.truncation_order else GQ_ZERO
            b = other.coefficient(k) if k <= other.truncation_order else GQ_ZERO
            out.append(a + b)
        return LaurentSeries(start, out, trunc)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.is_zero() or other.is_zero():
            # truncation of a product with an (apparent) zero is unbounded;
            # keep the min of the partners' windows as a safe statement
            return LaurentSeries(0, (), min(self.truncation_order, other.truncation_order))
        start = self.start_exponent + other.start_exponent
        trunc = min(
            self.truncation_order + other.start_exponent,
            other.truncation_order + self.start_exponent,
        )
        n = trunc - start + 1
        out = [GQ_ZERO] * n
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                if j + k < n:
                    out[j + k] = out[j + k] + a * b
        return LaurentSeries(start, out, trunc)

    def __str__(self):
        return self.to_text("u")

    def to_text(self, var: str) -> str:
        if not self.coeffs:
            return f"O({var}^{self.truncation_order + 1})"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            k = self.start_exponent + j
            txt = format_gauss(c)
            if k == 0:
                parts.append(txt)
            else:
                mono = var if k == 1 else f"{var}^{k}"
                if txt == "1":
                    parts.append(mono)
                elif txt == "-1":
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{txt}*{mono}")
        body = parts[0]
        for term in parts[1:]:
            body += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return f"{body} + O({var}^{self.truncation_order + 1})"

    def __repr__(self):
        return f"LaurentSeries({self.to_text('u')!r})"


def laurent_expand(f: RatFunc, n_terms: int) -> LaurentSeries:
    """Exact expansion of f at 0 with n_terms coefficients.

    The first exponent is ord_0(num) - ord_0(den); for the zero function
    the coefficient list is empty.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if f.is_zero():
        return LaurentSeries(0, (), n_terms - 1)
    vn = next(k for k, t in enumerate(f._n) if not K.gq_is_zero(t))
    vd = next(k for k, t in enumerate(f._d) if not K.gq_is_zero(t))
    start = vn - vd
    num = f._n[vn:]
    den = f._d[vd:]
    coeffs = K.p_series_div(num, den, n_terms)
    return LaurentSeries(
        start, [GaussRat.from_triple(t) for t in coeffs], start + n_terms - 1
    )


class Jet2:
    """First-order jet in two parameters: v + e1*d1 + e2*d2 + e1*e2*d12.

    Components may be any shared commutative ring type supporting the
    Python arithmetic operators (GaussRat or RatFunc here).  e1 and e2
    square to zero, so products truncate by the Leibniz rule; inversion
    exists iff the value component is invertible.
    """

    __slots__ = ("v", "d1", "d2", "d12")

    def __init__(self, v, d1=0, d2=0, d12=0):
        # only the int default is replaced: a RatFunc tested != 0 coerces the 0
        zero = v - v
        self.v = v
        self.d1 = zero if type(d1) is int and not d1 else d1
        self.d2 = zero if type(d2) is int and not d2 else d2
        self.d12 = zero if type(d12) is int and not d12 else d12

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
        if isinstance(other, (int, Fraction, GaussRat, RatFunc)):
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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(
            self.v * o.v,
            self.v * o.d1 + self.d1 * o.v,
            self.v * o.d2 + self.d2 * o.v,
            self.v * o.d12 + self.d12 * o.v + self.d1 * o.d2 + self.d2 * o.d1,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2, -self.d12)

    def inverse(self) -> "Jet2":
        if hasattr(self.v, "inverse"):
            iv = self.v.inverse()  # GaussRat/RatFunc raise NotInvertible on zero
        else:
            if self.v == 0:
                raise NotInvertible("jet value component is zero")
            iv = Fraction(1) / self.v
        iv2 = iv * iv
        return Jet2(
            iv,
            -(self.d1 * iv2),
            -(self.d2 * iv2),
            -(self.d12 * iv2) + (self.d1 * self.d2 + self.d2 * self.d1) * (iv2 * iv),
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = Jet2(self.v - self.v + 1)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

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
    accept constants only (the Gaussian-rational text encoding).
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
        value = self.expr()
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

"""Exact field arithmetic: Q(i), polynomials, rational functions, jets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsres import (
    GaussRat,
    Jet2,
    NotInvertible,
    ParseError,
    Poly,
    RatFunc,
    ZeroDenominator,
    format_gauss,
    laurent_expand,
    parse_gauss,
    parse_ratfunc,
    rat_normalize,
)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gauss = st.builds(GaussRat, small_fractions, small_fractions)
nonzero_gauss = gauss.filter(lambda g: not g.is_zero())


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(gauss, gauss, gauss)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GaussRat(0)


@settings(max_examples=200, deadline=None)
@given(nonzero_gauss)
def test_field_inverse(a):
    assert a * a.inverse() == GaussRat(1)
    assert (GaussRat(1) / a) * a == GaussRat(1)


@settings(max_examples=200, deadline=None)
@given(gauss)
def test_gauss_text_round_trip(a):
    assert parse_gauss(format_gauss(a)) == a


def test_gauss_text_forms():
    assert format_gauss(GaussRat(Fraction(3, 4))) == "3/4"
    assert format_gauss(GaussRat(0, 1)) == "i"
    assert format_gauss(GaussRat(0, -1)) == "-i"
    assert format_gauss(GaussRat(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert parse_gauss("2/3+1/5*i") == GaussRat(Fraction(2, 3), Fraction(1, 5))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_gauss("3//4")
    assert "column" in err.value.location


# ---------------------------------------------------------------------------
# rational normalization; oracle: schoolbook gcd over complex Fractions
# ---------------------------------------------------------------------------


def _cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _naive_gcd(p, q):
    """Monic gcd of coefficient lists of (re, im) Fraction pairs."""

    def degree(f):
        return len(f) - 1

    def is_zero(f):
        return not f

    def trim(f):
        while f and f[-1] == (Fraction(0), Fraction(0)):
            f.pop()
        return f

    def mod(a, b):
        a = list(a)
        while degree(a) >= degree(b) and a:
            f = _cdiv(a[-1], b[-1])
            shift = degree(a) - degree(b)
            for k, c in enumerate(b):
                prod = _cmul(f, c)
                a[shift + k] = (a[shift + k][0] - prod[0], a[shift + k][1] - prod[1])
            trim(a)
        return a

    a, b = list(p), list(q)
    while not is_zero(b):
        a, b = b, mod(a, b)
    if a:
        lead = a[-1]
        a = [_cdiv(c, lead) for c in a]
    return a


def _naive_quotient(a, b):
    """a / b by schoolbook long division; b must divide a."""
    a = list(a)
    quot = [(Fraction(0), Fraction(0))] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        f = _cdiv(a[shift + len(b) - 1], b[-1])
        quot[shift] = f
        for k, c in enumerate(b):
            prod = _cmul(f, c)
            a[shift + k] = (a[shift + k][0] - prod[0], a[shift + k][1] - prod[1])
    assert all(c == (0, 0) for c in a)
    return quot


def _to_pairs(poly: Poly):
    return [(c.re, c.im) for c in poly.coeffs]


def test_rat_normalize_cancels_common_factor():
    z = Poly.x()
    assert rat_normalize(z * z - 1, z - 1) == RatFunc(z + 1)


def test_rat_normalize_zero():
    z = Poly.x()
    f = rat_normalize(Poly([]), z ** 3)
    assert f.is_zero() and f.den == Poly([1])


def test_rat_normalize_monic_denominator():
    # oracle: gcd(2z+2, 4) = 1 by an independent schoolbook routine,
    # so the reduced form is (2z+2)/4 scaled to a monic denominator
    z = Poly.x()
    num, den = 2 * z + 2, Poly([4])
    assert _naive_gcd(_to_pairs(num), _to_pairs(den)) == [(Fraction(1), Fraction(0))]
    f = rat_normalize(num, den)
    assert f.den == Poly([1])
    assert f.num == Poly([Fraction(1, 2), Fraction(1, 2)])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=5),
    st.lists(gauss, min_size=1, max_size=5),
    nonzero_gauss,
    st.integers(0, 4),
    st.integers(0, 3),
)
def test_gcd_matches_naive(ca, cb, c, k, shift):
    a, b = Poly(ca), Poly(cb)
    if not (a.is_zero() or b.is_zero()):
        assert _to_pairs(a.gcd(b)) == _naive_gcd(_to_pairs(a), _to_pairs(b))
    # a monomial c*z^k against a general, a z^shift-divisible and a zero
    # partner, in both argument orders
    mono = Poly([0] * k + [c])
    for other in (a, Poly([0] * shift + ca), Poly([])):
        for x, y in ((mono, other), (other, mono)):
            assert _to_pairs(x.gcd(y)) == _naive_gcd(_to_pairs(x), _to_pairs(y))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_monomial_gcd_reduction_matches_naive(cn, cd, j, k):
    # n*z^j / d*z^k: the gcd is z^min(j, k) times gcd(n, d), so both the
    # dropped-coefficient path and Euclid's are exercised
    if Poly(cn).is_zero() or Poly(cd).is_zero():
        return
    num, den = _to_pairs(Poly([0] * j + cn)), _to_pairs(Poly([0] * k + cd))
    g = _naive_gcd(num, den)
    num, den = _naive_quotient(num, g), _naive_quotient(den, g)
    lead = den[-1]
    f = RatFunc(Poly([0] * j + cn), Poly([0] * k + cd))
    assert _to_pairs(f.num) == [_cdiv(c, lead) for c in num]
    assert _to_pairs(f.den) == [_cdiv(c, lead) for c in den]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=3),
)
def test_normalize_idempotent_and_representation_unique(na, da, ma):
    den = Poly(da)
    mul = Poly(ma)
    if den.is_zero() or mul.is_zero():
        return
    f = rat_normalize(Poly(na), den)
    # same fraction through a different representative
    g = rat_normalize(Poly(na) * mul, den * mul)
    assert f == g
    assert rat_normalize(f.num, f.den) == f


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly([1]), Poly([]))


# ---------------------------------------------------------------------------
# Laurent expansion; oracle: term-by-term long division
# ---------------------------------------------------------------------------


def _naive_series(num, den, n):
    """Long division of Fraction lists (rational coefficients only)."""
    out = []
    num = list(num) + [Fraction(0)] * n
    for k in range(n):
        c = num[k] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            if k + j < len(num):
                num[k + j] -= c * d
    return out


def test_laurent_simple_pole_expansion():
    u = Poly.x()
    f = RatFunc(1, u * (1 - u))
    series = laurent_expand(f, 3)
    # oracle: 1/(u(1-u)) = u^-1 * 1/(1-u); long-divide 1 by (1-u)
    want = _naive_series([Fraction(1)], [Fraction(1), Fraction(-1)], 3)
    assert series.start_exponent == -1
    assert series.truncation_order == 1
    assert [c.re for c in series.coeffs] == want
    assert [c.im for c in series.coeffs] == [0, 0, 0]


def test_laurent_trivial_cases():
    u = Poly.x()
    one_over_u = laurent_expand(RatFunc(1, u), 2)
    assert one_over_u.start_exponent == -1
    assert one_over_u.coefficient(-1) == GaussRat(1)
    assert one_over_u.coefficient(0) == GaussRat(0)
    poly_series = laurent_expand(RatFunc(u + u * u), 5)
    assert poly_series.start_exponent == 1
    assert poly_series.coefficient(1) == GaussRat(1)
    assert poly_series.coefficient(2) == GaussRat(1)
    zero = laurent_expand(RatFunc(0), 4)
    assert zero.is_zero() and zero.coeffs == ()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
)
def test_laurent_multiplicative(na, da, nb, db):
    fa_den, fb_den = Poly(da), Poly(db)
    if fa_den.is_zero() or fb_den.is_zero():
        return
    fa = RatFunc(Poly(na), fa_den)
    fb = RatFunc(Poly(nb), fb_den)
    n_terms = 5
    sa = laurent_expand(fa, n_terms)
    sb = laurent_expand(fb, n_terms)
    prod = sa * sb
    direct = laurent_expand(fa * fb, n_terms)
    if fa.is_zero() or fb.is_zero():
        assert direct.is_zero()
        return
    # compare on the window both sides certify
    for k in range(direct.start_exponent, prod.truncation_order + 1):
        assert direct.coefficient(k) == prod.coefficient(k)


# ---------------------------------------------------------------------------
# arithmetic on Laurent polynomials n/u^k; oracle: the general formula
# num/den of the result, reduced by schoolbook gcd and long division
# ---------------------------------------------------------------------------

_ZERO_PAIR = (Fraction(0), Fraction(0))


def _trim(a):
    a = list(a)
    while a and a[-1] == _ZERO_PAIR:
        a.pop()
    return a


def _pmul(a, b):
    if not a or not b:
        return []
    out = [_ZERO_PAIR] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            p = _cmul(x, y)
            out[j + k] = (out[j + k][0] + p[0], out[j + k][1] + p[1])
    return _trim(out)


def _pcombine(a, b, sign):
    n = max(len(a), len(b))
    a, b = a + [_ZERO_PAIR] * (n - len(a)), b + [_ZERO_PAIR] * (n - len(b))
    return _trim([(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(a, b)])


def _naive_reduce(num, den):
    """(num, den) of num/den reduced, with a monic denominator."""
    num, den = _trim(num), _trim(den)
    if not num:
        return [], [(Fraction(1), Fraction(0))]
    g = _naive_gcd(num, den)
    num, den = _naive_quotient(num, g), _naive_quotient(den, g)
    lead = den[-1]
    return [_cdiv(c, lead) for c in num], [_cdiv(c, lead) for c in den]


def _pairs(f: RatFunc):
    return _to_pairs(f.num), _to_pairs(f.den)


def _gauss_list(rng, size):
    return [GaussRat(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(size)]


def _operand(rng) -> RatFunc:
    """Zero, a monomial c*u^m/u^k, a Laurent polynomial n/u^k (k = 0..4,
    with low zeros in n when k = 0) or a function with a denominator that
    is not a power of u."""
    kind = rng.randrange(8)
    if kind == 0:
        return RatFunc.const(0)
    if kind == 1:
        den = Poly(_gauss_list(rng, rng.randint(1, 3)) + [1]) + Poly.x() ** rng.randint(0, 2)
        den = den if den.valuation() == 0 else den + 1
        return RatFunc(Poly(_gauss_list(rng, rng.randint(1, 4))), den)
    k = rng.randint(0, 4)
    if kind == 2:
        coeffs = [0] * rng.randint(0, 3) + [GaussRat(rng.randint(1, 3), rng.randint(-2, 2))]
    elif k == 0:
        coeffs = [0] * rng.randint(0, 2) + _gauss_list(rng, rng.randint(1, 4))
    else:
        coeffs = _gauss_list(rng, rng.randint(1, 5))
    return RatFunc(Poly(coeffs), Poly([0] * k + [1]))


def _naive_power(f, p):
    n, d = _pairs(f)
    if p < 0:
        n, d, p = d, n, -p
    acc_n, acc_d = [(Fraction(1), Fraction(0))], [(Fraction(1), Fraction(0))]
    for _ in range(p):
        acc_n, acc_d = _pmul(acc_n, n), _pmul(acc_d, d)
    return _naive_reduce(acc_n, acc_d)


def _naive_invert_variable(f):
    # f(1/x) = x^deg(d) rev(n) / (x^deg(n) rev(d)), with full-degree reversals
    n, d = _pairs(f)
    if not n:
        return _pairs(f)
    shift = [_ZERO_PAIR] * (len(d) - 1)
    return _naive_reduce(shift + n[::-1], [_ZERO_PAIR] * (len(n) - 1) + d[::-1])


def test_laurent_path_matches_general_formula():
    rng = random.Random(20261018)
    kinds = {"laurent": 0, "general": 0, "zero": 0}
    for _ in range(150):
        f, g = _operand(rng), _operand(rng)
        for h in (f, g):
            if h.is_zero():
                kinds["zero"] += 1
            elif all(c == _ZERO_PAIR for c in _to_pairs(h.den)[:-1]):
                kinds["laurent"] += 1
            else:
                kinds["general"] += 1
        (n1, d1), (n2, d2) = _pairs(f), _pairs(g)
        assert _pairs(f * g) == _naive_reduce(_pmul(n1, n2), _pmul(d1, d2))
        cross = _pmul(n1, d2), _pmul(n2, d1)
        assert _pairs(f + g) == _naive_reduce(_pcombine(*cross, 1), _pmul(d1, d2))
        assert _pairs(f - g) == _naive_reduce(_pcombine(*cross, -1), _pmul(d1, d2))
        assert _pairs(f.invert_variable()) == _naive_invert_variable(f)
        for p in (rng.randint(-3, -1), 0, rng.randint(1, 3)):
            if p >= 0 or not f.is_zero():
                assert _pairs(f**p) == _naive_power(f, p)
        if not g.is_zero():
            assert _pairs(f / g) == _naive_reduce(_pmul(n1, d2), _pmul(d1, n2))
            assert _pairs(g.inverse()) == _naive_reduce(d2, n2)
        for k in range(-6, 4):
            v = f.valuation()
            if v is None or k < v:
                assert f.laurent_coefficient(k) == GaussRat(0)
            else:
                assert f.laurent_coefficient(k) == laurent_expand(f, k - v + 1).coefficient(k)
    assert min(kinds.values()) >= 25, kinds


def _square_and_multiply(f, n):
    """``RatFunc.__pow__`` as it was before its monomial short cut."""
    if n < 0:
        return _square_and_multiply(f.inverse(), -n)
    acc = RatFunc.const(1)
    base = f
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


def test_monomial_power_matches_square_and_multiply():
    u = Poly.x()
    bases = [
        RatFunc(u),
        RatFunc(Poly([0, 0, 0, GaussRat(2, -1)])),  # c*u^3
        RatFunc(Poly([GaussRat(Fraction(-1, 3))])),  # a constant
        RatFunc(1, u**2),  # u^-2
        RatFunc(GaussRat(3, 1), u**4),  # c*u^-4
        RatFunc(u + 1, u**2),  # Laurent, not a monomial
        RatFunc(u - 2, u + GaussRat(0, 1)),  # no power of u below
    ]
    for f in bases:
        for n in range(-6, 7):
            assert f**n == _square_and_multiply(f, n)
    assert RatFunc.const(0) ** 0 == RatFunc.const(1)
    with pytest.raises(NotInvertible):
        RatFunc.const(0) ** -1


def test_scalar_operand_matches_const_product():
    """``f * c``, ``c * f`` and ``f / c`` for a scalar c equal the products
    with ``RatFunc.const(c)``, on Laurent and non-Laurent operands."""
    rng = random.Random(20261018)
    scalars = [0, 1, -1, 3, Fraction(-2, 3), GaussRat(0), GaussRat(1), GaussRat(0, -1)]
    kinds = {"laurent": 0, "general": 0, "zero": 0}
    for _ in range(80):
        f = _operand(rng)
        if f.is_zero():
            kinds["zero"] += 1
        elif all(c == _ZERO_PAIR for c in _to_pairs(f.den)[:-1]):
            kinds["laurent"] += 1
        else:
            kinds["general"] += 1
        extra = GaussRat(Fraction(rng.randint(-7, 7), rng.randint(1, 7)), rng.randint(-3, 3))
        for c in scalars + [extra]:
            const = RatFunc.const(c)
            assert f * c == f * const
            assert c * f == const * f
            if const.is_zero():
                with pytest.raises(ZeroDivisionError):
                    f / c
            else:
                assert f / c == f / const
    assert min(kinds.values()) >= 5, kinds


# ---------------------------------------------------------------------------
# two-parameter jets; oracle: bivariate partial derivatives
# ---------------------------------------------------------------------------


def test_jet_leibniz_rule():
    one = GaussRat(1)
    a, b = GaussRat(Fraction(2, 3)), GaussRat(5, 1)
    prod = Jet2(a, d1=one) * Jet2(b, d2=one)
    assert prod.v == a * b
    assert prod.d1 == b
    assert prod.d2 == a
    assert prod.d12 == one


def test_jet_geometric_inverse():
    one = GaussRat(1)
    inv = Jet2(one, d1=one).inverse()
    assert inv.v == one and inv.d1 == -one and inv.d2 == GaussRat(0)


def test_jet_nilpotence():
    eps1 = Jet2(GaussRat(0), d1=GaussRat(1))
    sq = eps1 * eps1
    assert sq.v == GaussRat(0) and sq.d1 == GaussRat(0) and sq.d12 == GaussRat(0)


def test_jet_inverse_of_nilpotent_raises():
    with pytest.raises(NotInvertible):
        Jet2(GaussRat(0), d1=GaussRat(1)).inverse()


class _BiPoly:
    """Tiny bivariate polynomial oracle: {(i, j): GaussRat} in (x, y)."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, GaussRat(0)) + v
        return _BiPoly(out)

    def __mul__(self, other):
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, GaussRat(0)) + v1 * v2
        return _BiPoly(out)

    def dx(self):
        return _BiPoly({(i - 1, j): v * i for (i, j), v in self.terms.items() if i})

    def dy(self):
        return _BiPoly({(i, j - 1): v * j for (i, j), v in self.terms.items() if j})

    def eval(self, x, y):
        total = GaussRat(0)
        for (i, j), v in self.terms.items():
            total = total + v * x ** i * y ** j
        return total


@settings(max_examples=60, deadline=None)
@given(gauss, gauss, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), gauss), min_size=1, max_size=5))
def test_jet_matches_partial_derivatives(x0, y0, terms):
    poly = _BiPoly({})
    for i, j, c in terms:
        poly = poly + _BiPoly({(i, j): c})
    jx = Jet2(x0, d1=GaussRat(1))
    jy = Jet2(y0, d2=GaussRat(1))
    jet = Jet2(GaussRat(0))
    for (i, j), c in poly.terms.items():
        jet = jet + Jet2(c) * jx ** i * jy ** j
    assert jet.v == poly.eval(x0, y0)
    assert jet.d1 == poly.dx().eval(x0, y0)
    assert jet.d2 == poly.dy().eval(x0, y0)
    assert jet.d12 == poly.dx().dy().eval(x0, y0)


def test_ratfunc_parser_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_ratfunc("z + w", "z")
    f = parse_ratfunc("(z^2-1)/(z-1)", "z")
    assert f == RatFunc(Poly([1, 1]))

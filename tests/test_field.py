"""Exact field arithmetic: Q(i), polynomials, rational functions, jets."""

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

"""Exact field arithmetic: Q(i), polynomials, rational functions, jets."""

import random
from fractions import Fraction

import pytest
from helpers import denominator, numerator
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsres import (
    GaussRat,
    Jet2,
    NotInvertible,
    ParseError,
    RatFunc,
    ZeroDenominator,
    format_gauss,
    parse_gauss,
    parse_ratfunc,
)
from higgsres import _kernels as K

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


@pytest.mark.parametrize("text, column", [("0^-1", 5), ("(z-z)^-2", 9), ("1 + 3*(0)^-1", 13)])
def test_negative_power_of_zero_is_division_by_zero(text, column):
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_ratfunc(text)
    assert err.value.location == f"column {column}"
    assert parse_ratfunc("(z-z)^2").is_zero() and parse_ratfunc("0^0") == 1


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


def _to_pairs(coeffs):
    """(re, im) Fraction pairs of a sequence of GaussRat."""
    return [(c.re, c.im) for c in coeffs]


def _kernel(coeffs):
    """The kernel coefficient list of a sequence of scalars or kernel triples."""
    return K.p_norm([c if type(c) is tuple else GaussRat(c)._t for c in coeffs])


def _kernel_pairs(p):
    """(re, im) Fraction pairs of a kernel coefficient list."""
    return [(Fraction(a, d), Fraction(b, d)) for a, b, d in p]


def test_ratfunc_cancels_common_factor():
    z = RatFunc.x()
    i = GaussRat(0, 1)
    half = Fraction(1, 2)
    k_i, k_two = i._t, (2, 0, 1)
    # num and den given as scalars, as int / Fraction / GaussRat
    # sequences and as kernel lists (directly, and from the general path
    # of the operators), against the pinned canonical form and text
    cases = [
        (RatFunc(3), (3,), (1,), "3"),
        (RatFunc(i, 2), (half * i,), (1,), "1/2*i"),
        (RatFunc(half, Fraction(-3)), (Fraction(-1, 6),), (1,), "-1/6"),
        (RatFunc([-1, 0, 1], [-1, 1]), (1, 1), (1,), "z + 1"),
        (RatFunc([half, 0, -half], [GaussRat(2), 2]), (Fraction(1, 4), Fraction(-1, 4)), (1,), "-1/4*z + 1/4"),
        (RatFunc([0, 0, 1], [0, 2, 2]), (0, half), (1, 1), "(1/2*z)/(z + 1)"),
        (RatFunc([k_i, K.GQ_ZERO, k_two], [K.GQ_ZERO, k_two]), (half * i, 0, 1), (0, 1), "(z^2 + 1/2*i)/(z)"),
        (RatFunc(K.p_mul([k_i, K.GQ_ZERO, K.GQ_ONE], [K.GQ_ONE, k_two]), [K.GQ_ONE, k_two]), (i, 0, 1), (1,), "z^2 + i"),
        ((z * z - 1) / (z - 1), (1, 1), (1,), "z + 1"),
        (
            (z * z + i) / ((z - i) ** 2 * (z + 2)),
            (i, 0, 1),
            (-2, -1 - 4 * i, 2 - 2 * i, 1),
            "(z^2 + i)/(z^3 + (2-2*i)*z^2 + (-1-4*i)*z - 2)",
        ),
    ]
    for f, num, den, text in cases:
        assert (numerator(f), denominator(f)) == (num, den), text
        assert str(f) == text
        assert RatFunc(numerator(f), denominator(f)) == f


def test_ratfunc_zero_numerator():
    f = RatFunc([], [0, 0, 0, 1])
    assert f.is_zero() and denominator(f) == (1,)


@pytest.mark.parametrize(
    "value",
    [0, 1, -3, Fraction(1, 2), GaussRat(Fraction(1, 2), Fraction(1, 3))],
    ids=["0", "1", "-3", "1/2", "1/2+i/3"],
)
def test_constant_ratfunc_hashes_as_its_value(value):
    """A constant RatFunc equals its value as a GaussRat, and as an int or
    Fraction when it is real, so it hashes like them and a set dedupes."""
    f, g = RatFunc.const(value), GaussRat(value)
    equal = [g, value, RatFunc(value), RatFunc([value, 0], [1])]
    for other in equal:
        assert f == other and other == f
        assert hash(f) == hash(other)
    assert len({f, *equal}) == 1
    assert len({value, f}) == 1 and len({f, value}) == 1
    # a non-constant function with the same numerator hashes apart
    assert len({f, RatFunc(value, [0, 1])}) == (1 if value == 0 else 2)


def test_ratfunc_monic_denominator():
    # oracle: the gcd by an independent schoolbook routine, then both
    # quotients scaled to a monic denominator
    assert _naive_gcd(_kernel_pairs(_kernel([2, 2])), _kernel_pairs(_kernel([4]))) == [
        (Fraction(1), Fraction(0))
    ]
    f = RatFunc([2, 2], [4])
    assert denominator(f) == (1,)
    assert numerator(f) == (Fraction(1, 2), Fraction(1, 2))
    cases = [
        ([Fraction(1, 3), GaussRat(0, 2)], [GaussRat(0, 3), Fraction(3, 2), GaussRat(1, 1)]),
        ([GaussRat(0, -1), 0, GaussRat(0, 1)], [-2, 2]),
        ([K.GQ_ONE, K.GQ_ONE], [(3, 0, 1), K.GQ_ZERO, (0, 2, 1)]),
    ]
    for num, den in cases:
        f = RatFunc(num, den)
        assert denominator(f)[-1] == 1
        assert _pairs(f) == _naive_reduce(_kernel_pairs(_kernel(num)), _kernel_pairs(_kernel(den)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=5),
    st.lists(gauss, min_size=1, max_size=5),
    nonzero_gauss,
    st.integers(0, 4),
    st.integers(0, 3),
)
def test_gcd_matches_naive(ca, cb, c, k, shift):
    a, b = _kernel(ca), _kernel(cb)
    if a and b:
        assert _kernel_pairs(K.p_gcd(a, b)) == _naive_gcd(_kernel_pairs(a), _kernel_pairs(b))
    # a monomial c*z^k against a general, a z^shift-divisible and a zero
    # partner, in both argument orders
    mono = _kernel([0] * k + [c])
    for other in (a, _kernel([0] * shift + ca), []):
        for x, y in ((mono, other), (other, mono)):
            assert _kernel_pairs(K.p_gcd(x, y)) == _naive_gcd(_kernel_pairs(x), _kernel_pairs(y))


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
    if not _kernel(cn) or not _kernel(cd):
        return
    num, den = _kernel_pairs(_kernel([0] * j + cn)), _kernel_pairs(_kernel([0] * k + cd))
    g = _naive_gcd(num, den)
    num, den = _naive_quotient(num, g), _naive_quotient(den, g)
    lead = den[-1]
    f = RatFunc([0] * j + cn, [0] * k + cd)
    assert _to_pairs(numerator(f)) == [_cdiv(c, lead) for c in num]
    assert _to_pairs(denominator(f)) == [_cdiv(c, lead) for c in den]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=3),
)
def test_normalize_idempotent_and_representation_unique(na, da, ma):
    den = _kernel(da)
    mul = _kernel(ma)
    if not den or not mul:
        return
    f = RatFunc(na, da)
    # same fraction through a different representative, as kernel lists
    g = RatFunc(K.p_mul(_kernel(na), mul), K.p_mul(den, mul))
    assert f == g
    assert RatFunc(numerator(f), denominator(f)) == f


def test_zero_denominator_raises():
    with pytest.raises(ZeroDenominator):
        RatFunc([1], [])
    with pytest.raises(ZeroDenominator):
        RatFunc(1, 0)
    with pytest.raises(ZeroDenominator):
        RatFunc([GaussRat(0, 1)], [0, Fraction(0)])


# ---------------------------------------------------------------------------
# Laurent expansion; oracle: term-by-term long division
# ---------------------------------------------------------------------------


def _naive_series(num, den, n):
    """Long division of coefficient lists (Fraction or GaussRat), den[0] != 0."""
    out = []
    num = list(num) + [0] * n
    for k in range(n):
        c = num[k] / den[0]
        out.append(c)
        for j, d in enumerate(den):
            if k + j < len(num):
                num[k + j] -= c * d
    return out


def _naive_window(f, lo, top):
    """The coefficients of u^lo .. u^top of f at 0, as GaussRat: strip the
    low zeros of num and den, then long-divide the remaining tails."""
    zero = GaussRat(0)
    n, d = numerator(f), denominator(f)
    if not n:
        return [zero] * (top - lo + 1)
    vn = next(j for j, c in enumerate(n) if not c.is_zero())
    vd = next(j for j, c in enumerate(d) if not c.is_zero())
    v = vn - vd
    series = _naive_series(n[vn:], d[vd:], max(top - v + 1, 0))
    return [series[e - v] if e >= v else zero for e in range(lo, top + 1)]


def _window(f, lo, top):
    return [GaussRat.from_triple(t) for t in f.coefficients(lo, top)]


def test_laurent_simple_pole_expansion():
    u = RatFunc.x()
    f = 1 / (u * (1 - u))
    # oracle: 1/(u(1-u)) = u^-1 * 1/(1-u); long-divide 1 by (1-u)
    want = _naive_series([Fraction(1)], [Fraction(1), Fraction(-1)], 3)
    assert f.valuation() == -1
    assert _window(f, -1, 1) == want
    assert [c.im for c in _window(f, -1, 1)] == [0, 0, 0]


def test_laurent_trivial_cases():
    u = RatFunc.x()
    one_over_u = 1 / u
    assert one_over_u.valuation() == -1
    assert _window(one_over_u, -2, 0) == [0, 1, 0]
    poly = u + u * u
    assert poly.valuation() == 1
    assert _window(poly, 0, 3) == [0, 1, 1, 0]
    zero = RatFunc(0)
    assert zero.valuation() is None
    assert _window(zero, -1, 2) == [0] * 4


def test_laurent_valuation_reads_the_denominator():
    """A Laurent germ n/u^k with k > 0, however it was built (operators
    with cancellation, a quotient reduced by its gcd, the chart moves, an
    inverse, a monomial), is canonical only with n(0) != 0: its valuation
    is -k, the first non-zero coefficient of its expansion."""
    u = RatFunc.x()
    i = GaussRat(0, 1)
    germs = [
        u ** -3,
        (u ** -2 + u) * 3,
        (u ** -2 + u ** -1) - u ** -2,
        RatFunc([0, 0, 1, i], [0, 0, 0, 0, 0, 1]),
        RatFunc([1, 2, 0, 5]).invert_variable(),
        (u ** 2 * (2 + i)).inverse(),
        RatFunc.monomial(2 + i, -4),
        (u ** -1 - i) * (u ** -2 + 1),
    ]
    for f in germs:
        assert f._k > 0
        window = _naive_window(f, -8, 0)
        first = next(e for e, c in zip(range(-8, 1), window) if not c.is_zero())
        assert f.valuation() == first == -f._k


def test_non_laurent_window_edges():
    """The series-division window of n/d with d not a power of u: starting
    below the order v at 0, lying wholly below it, one coefficient, and a
    denominator with low order vd > 0."""
    u = RatFunc.x()
    i = GaussRat(0, 1)
    germs = [
        (1 / (u - 1), 0),
        (u ** 3 / (u - 1), 3),
        ((u + 2) / ((u - i) * u * u), -2),  # vd = 2
        ((u * u + i) / (u * (u * u + 1) * (u - 2)), -1),  # vd = 1
    ]
    for f, v in germs:
        assert f._k < 0 and f.valuation() == v
        for lo, top in ((v - 3, v + 2), (v - 3, v - 1), (v, v), (v - 1, v - 1), (v + 2, v + 2)):
            assert _window(f, lo, top) == _naive_window(f, lo, top), (f, lo, top)
    # 1/(u - i) = i/(1 + i u) = i + u - i u^2 + ..., so
    # (u + 2)/((u - i) u^2) = 2i u^-2 + (2 + i) u^-1 + (1 - 2i) + ...
    f = germs[2][0]
    assert _window(f, -3, 0) == [0, 2 * i, 2 + i, 1 - 2 * i]
    assert f.laurent_coefficient(-1) == 2 + i
    assert f.coefficients(1, 0) == []


@settings(max_examples=60, deadline=None)
@given(
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
    st.lists(gauss, min_size=1, max_size=4),
)
def test_laurent_multiplicative(na, da, nb, db):
    """The window of fa*fb is the Cauchy product of the windows of fa and fb."""
    if not _kernel(da) or not _kernel(db):
        return
    fa = RatFunc(na, da)
    fb = RatFunc(nb, db)
    if fa.is_zero() or fb.is_zero():
        assert (fa * fb).is_zero()
        return
    n_terms = 5
    va, vb = fa.valuation(), fb.valuation()
    wa = _window(fa, va, va + n_terms - 1)
    wb = _window(fb, vb, vb + n_terms - 1)
    assert not wa[0].is_zero() and not wb[0].is_zero()
    cauchy = [sum((wa[j] * wb[m - j] for j in range(m + 1)), GaussRat(0)) for m in range(n_terms)]
    assert (fa * fb).valuation() == va + vb
    assert _window(fa * fb, va + vb, va + vb + n_terms - 1) == cauchy


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
    return _to_pairs(numerator(f)), _to_pairs(denominator(f))


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
        den = RatFunc(_gauss_list(rng, rng.randint(1, 3)) + [1]) + RatFunc.x() ** rng.randint(0, 2)
        den = den if den.valuation() == 0 else den + 1
        return RatFunc(_gauss_list(rng, rng.randint(1, 4))) / den
    k = rng.randint(0, 4)
    if kind == 2:
        coeffs = [0] * rng.randint(0, 3) + [GaussRat(rng.randint(1, 3), rng.randint(-2, 2))]
    elif k == 0:
        coeffs = [0] * rng.randint(0, 2) + _gauss_list(rng, rng.randint(1, 4))
    else:
        coeffs = _gauss_list(rng, rng.randint(1, 5))
    return RatFunc(coeffs, [0] * k + [1])


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
            elif all(c == _ZERO_PAIR for c in _to_pairs(denominator(h))[:-1]):
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
                assert f.laurent_coefficient(k) == _naive_window(f, k, k)[0]
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
    bases = [
        RatFunc([0, 1]),
        RatFunc([0, 0, 0, GaussRat(2, -1)]),  # c*u^3
        RatFunc([GaussRat(Fraction(-1, 3))]),  # a constant
        RatFunc(1, [0, 0, 1]),  # u^-2
        RatFunc(GaussRat(3, 1), [0, 0, 0, 0, 1]),  # c*u^-4
        RatFunc([1, 1], [0, 0, 1]),  # Laurent, not a monomial
        RatFunc([-2, 1], [GaussRat(0, 1), 1]),  # no power of u below
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
        elif all(c == _ZERO_PAIR for c in _to_pairs(denominator(f))[:-1]):
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


def test_jet_nilpotence():
    eps1 = Jet2(GaussRat(0), d1=GaussRat(1))
    sq = eps1 * eps1
    assert sq.v == GaussRat(0) and sq.d1 == GaussRat(0) and sq.d12 == GaussRat(0)


def _jet_scalar(kind: str, rng):
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "Fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if kind == "GaussRat":
        return GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
    return _operand(rng)


def _components(jet) -> tuple:
    return jet.v, jet.d1, jet.d2, jet.d12


@pytest.mark.parametrize("kind", ["int", "Fraction", "GaussRat", "RatFunc"])
def test_jet_scalar_product_matches_coerced_leibniz(kind):
    """A scalar operand scales the four components; the oracle coerces it
    to the jet (c, 0, 0, 0) and runs the Leibniz product."""
    rng = random.Random(f"jet-scalar-{kind}")
    for trial in range(40):
        if trial % 4 == 3 and kind != "RatFunc":
            jet = Jet2(*(GaussRat(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(4)))
        else:
            jet = Jet2(*(_operand(rng) for _ in range(4)))
        c = _jet_scalar(kind, rng)
        coerced = Jet2(jet.v - jet.v + c)
        assert _components(jet * c) == _components(jet * coerced)
        assert _components(c * jet) == _components(coerced * jet)


def test_jet_zero_components_of_a_ratfunc_value():
    """The int defaults of a RatFunc jet are the zero that v - v gave."""
    rng = random.Random("jet-zero")
    for _ in range(20):
        v, d = _operand(rng), _operand(rng)
        zero = v - v
        assert _components(Jet2(v)) == (v, zero, zero, zero)
        assert _components(Jet2.lift1(v, d)) == (v, d, zero, zero)
        assert _components(Jet2.lift2(v, d)) == (v, zero, d, zero)
        assert Jet2(v).d1.is_zero() and denominator(Jet2(v).d1) == (GaussRat(1),)


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
        term = Jet2(c)
        for _ in range(i):
            term = term * jx
        for _ in range(j):
            term = term * jy
        jet = jet + term
    assert jet.v == poly.eval(x0, y0)
    assert jet.d1 == poly.dx().eval(x0, y0)
    assert jet.d2 == poly.dy().eval(x0, y0)
    assert jet.d12 == poly.dx().dy().eval(x0, y0)


def test_ratfunc_parser_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_ratfunc("z + w", "z")
    f = parse_ratfunc("(z^2-1)/(z-1)", "z")
    assert f == RatFunc([1, 1])

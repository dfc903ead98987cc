"""Laurent expansions, residues and residue sums against a sympy oracle.

Each seeded random form is ``P(z) / (c * prod (z - r)^m) dz`` with
distinct Gaussian-rational roots ``r``, so its denominator splits over
Q(i) and every residue can be read at its root.  The numerator degree
reaches past the denominator degree, so many forms also have a pole at
infinity.  A second set of forms ``N / D dz`` has a square-free ``D``
that does not split over Q(i) and ``deg N = deg D - 1``; there only the
finite residue sum is compared.  higgsres and sympy build each form from
the same raw data, each with its own arithmetic.  The oracle shares no
code with ``higgsres``:

- a Laurent expansion at 0 strips the valuations and multiplies by the
  inverse of the denominator modulo ``u^n`` (sympy's extended Euclid over
  QQ_I);
- the residue at a finite root of multiplicity ``m`` is the derivative
  formula ``D^(m-1)[(z - r)^m f](r) / (m-1)!``;
- the residue at infinity is ``-b / lead(Q)``, where ``P = A*Q + B`` and
  ``b`` is the coefficient of ``z^(deg Q - 1)`` in ``B``;
- the finite residue sum of ``N / D`` with ``D`` square-free is
  ``RootSum(D, r -> N(r) / D'(r))``, which sympy evaluates from the
  coefficients of ``D`` without locating its roots either.
"""

import random
from fractions import Fraction

import sympy

from higgsres import (
    INFINITY,
    GaussRat,
    OneForm,
    P1Point,
    RatFunc,
    localize,
    residue,
    residue_sum,
)
from higgsres.residues import finite_residue_sum

z = sympy.symbols("z")
TERMS = 4
ROOTS = [
    GaussRat(0),
    GaussRat(1),
    GaussRat(-2),
    GaussRat(0, 1),
    GaussRat(Fraction(-1, 2), 1),
    GaussRat(Fraction(1, 3), Fraction(-2, 3)),
]


def _random_gauss(rng, nonzero=False):
    while True:
        g = GaussRat(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        if not (nonzero and g.is_zero()):
            return g


def _sym(g: GaussRat):
    return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(
        g.im.numerator, g.im.denominator
    )


def _random_form(rng):
    """(form, sympy numerator, sympy denominator, {root: multiplicity})."""
    roots = {r: rng.randint(1, 3) for r in rng.sample(ROOTS, rng.randint(1, 3))}
    lead = _random_gauss(rng, nonzero=True)
    deg_den = sum(roots.values())
    num = [_random_gauss(rng) for _ in range(rng.randint(1, deg_den + 3))]
    num[-1] = _random_gauss(rng, nonzero=True)
    den = RatFunc(lead)
    den_sym = _qq_i(_sym(lead))
    for r, m in roots.items():
        den = den * RatFunc([-r, 1]) ** m
        den_sym *= _qq_i(z - _sym(r)) ** m
    num_sym = _qq_i(sum(_sym(c) * z**k for k, c in enumerate(num)))
    return OneForm(RatFunc(num) / den), num_sym, den_sym, roots


def _qq_i(expr):
    return sympy.Poly(expr, z, domain="QQ_I")


def _order(p):
    return min(k for (k,) in p.monoms())


def oracle_laurent(num, den, shift, n):
    """(valuation, first n coefficients) of z^shift * num/den at z = 0."""
    vn, vd = _order(num), _order(den)
    num = num.exquo(_qq_i(z**vn))
    den = den.exquo(_qq_i(z**vd))
    modulus = _qq_i(z**n)
    series = (num * sympy.invert(den, modulus)).rem(modulus)
    return shift + vn - vd, [series.nth(k) for k in range(n)]


def oracle_laurent_at(num, den, point, n):
    """The expansion of num/den dz in the chart at point (u = z - a or 1/z)."""
    if point.is_infinity:
        # -f(1/u) / u^2 = -u^(deg den - deg num - 2) rev(num) / rev(den)
        rev_num = -sympy.Poly(num.all_coeffs()[::-1], z, domain="QQ_I")
        rev_den = sympy.Poly(den.all_coeffs()[::-1], z, domain="QQ_I")
        return oracle_laurent(rev_num, rev_den, den.degree() - num.degree() - 2, n)
    a = _sym(point.value)
    return oracle_laurent(num.shift(a), den.shift(a), 0, n)


def oracle_residue_finite(num, den, r, m):
    """D^(m-1)[num/rest](r) / (m-1)!, with rest = den / (z - r)^m."""
    a, b = num, den.exquo(_qq_i(z - r) ** m)
    for _ in range(m - 1):
        a, b = a.diff(z) * b - a * b.diff(z), b * b
    return sympy.expand_complex(a.eval(r) / b.eval(r) / sympy.factorial(m - 1))


def oracle_residue_infinity(num, den):
    """-b / lead(den), b the z^(deg den - 1) coefficient of num mod den."""
    if den.degree() < 1:
        return 0
    return sympy.expand_complex(-num.rem(den).nth(den.degree() - 1) / den.LC())


def _forms(count):
    rng = random.Random("residue-oracle")
    return [_random_form(rng) for _ in range(count)]


FORMS = _forms(40)


def test_laurent_window_matches_sympy():
    """valuation() and the coefficients() window, from one below the order
    at 0, of every localized form; most germs at finite non-zero points are
    not Laurent polynomials and take the series-division path."""
    non_laurent = 0
    for form, num, den, roots in FORMS:
        points = [P1Point.finite(r) for r in roots]
        points += [P1Point.finite(GaussRat(3, -1)), INFINITY]
        for point in points:
            h = localize(form, point)
            start, coeffs = oracle_laurent_at(num, den, point, TERMS)
            assert h.valuation() == start
            window = h.coefficients(start - 1, start + TERMS - 1)
            got = [_sym(GaussRat.from_triple(t)) for t in window]
            assert got[0] == 0
            assert [sympy.expand_complex(g - w) for g, w in zip(got[1:], coeffs)] == [0] * TERMS
            non_laurent += h._k < 0
    assert non_laurent > len(FORMS)


def test_residue_matches_sympy():
    at_infinity = 0
    for form, num, den, roots in FORMS:
        for r, m in roots.items():
            want = oracle_residue_finite(num, den, _sym(r), m)
            assert _sym(residue(form, P1Point.finite(r))) - want == 0
        want = oracle_residue_infinity(num, den)
        assert _sym(residue(form, INFINITY)) - want == 0
        at_infinity += want != 0
    assert at_infinity > 0  # the seeded forms do exercise poles at infinity


def test_residue_sum_matches_sympy():
    for form, num, den, roots in FORMS:
        want = oracle_residue_infinity(num, den)
        want += sum(oracle_residue_finite(num, den, _sym(r), m) for r, m in roots.items())
        assert sympy.expand_complex(want) == 0
        assert _sym(residue_sum(form)) == 0


def _irreducible_factor(rng, deg):
    """A monic sympy factor of degree deg that is irreducible over Q(i)."""
    while True:
        p = _qq_i(z**deg + sum(_sym(_random_gauss(rng)) * z**k for k in range(deg)))
        if [m for _, m in p.factor_list()[1]] == [1]:
            return p


def _non_split_form(rng):
    """(form, sympy numerator, sympy denominator): D is a monic irreducible
    factor of degree 2-3 over Q(i), times a second one of degree 2 half
    of the time (sympy's RootSum takes seconds at degree 6), and
    deg N = deg D - 1."""
    den_sym = _irreducible_factor(rng, rng.randint(2, 3))
    if rng.random() < 0.5:
        second = _irreducible_factor(rng, 2)
        if second != den_sym:
            den_sym *= second
    num = [_random_gauss(rng) for _ in range(den_sym.degree() - 1)] + [_random_gauss(rng, nonzero=True)]
    num_sym = _qq_i(sum(_sym(c) * z**k for k, c in enumerate(num)))
    den = RatFunc([GaussRat(c) for c in _gauss_coeffs(den_sym)])
    return OneForm(RatFunc(num) / den), num_sym, den_sym


def _gauss_coeffs(p):
    """The coefficients of a sympy QQ_I polynomial as GaussRat, low to high."""
    out = []
    for c in reversed(p.all_coeffs()):
        re, im = sympy.re(c), sympy.im(c)
        out.append(GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
    return out


def test_finite_residue_sum_of_non_split_forms_matches_root_sum():
    rng = random.Random("residue-oracle-non-split")
    r = sympy.symbols("r")
    for _ in range(6):
        form, num, den = _non_split_form(rng)
        assert den.gcd(den.diff(z)).degree() == 0
        numer, deriv = num.as_expr().subs(z, r), den.diff(z).as_expr().subs(z, r)
        want = sympy.expand_complex(sympy.RootSum(den.as_expr(), sympy.Lambda(r, numer / deriv)).doit())
        got = finite_residue_sum(form)
        assert not got.is_zero()
        assert sympy.expand_complex(_sym(got) - want) == 0
        assert residue_sum(form).is_zero()

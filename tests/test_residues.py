"""Localization, residues, and the global residue theorem."""

from fractions import Fraction

from helpers import denominator, numerator

from higgsres import (
    GaussRat,
    INFINITY,
    OneForm,
    P1Point,
    RatFunc,
    localize,
    residue,
    residue_sum,
)
from higgsres.residues import LocalChart, finite_residue_sum, hermite_reduce
from higgsres.solver import SeedStream

Z = RatFunc.x()


def test_localize_chart_rules():
    dz = OneForm(RatFunc.const(1))
    assert localize(dz, INFINITY) == RatFunc(-1, [0, 0, 1])
    assert localize(OneForm(1 / Z), P1Point.finite(0)) == 1 / Z
    assert localize(OneForm(1 / (Z - 1)), P1Point.finite(1)) == 1 / Z


def test_residue_base_cases():
    dz_over_z = OneForm(1 / Z)
    assert residue(dz_over_z, P1Point.finite(0)) == GaussRat(1)
    assert residue(dz_over_z, INFINITY) == GaussRat(-1)
    assert residue(OneForm(Z), INFINITY) == GaussRat(0)


def test_residue_sum_base_cases():
    assert residue_sum(OneForm(1 / (Z * (Z - 1)))).is_zero()
    assert residue_sum(OneForm(1 / (Z * Z))).is_zero()
    # N/D dz with N = Q D + R, D monic of degree d: a polynomial (d = 0),
    # an R with no z^(d-1) term, and two whose r_(d-1) is the finite sum
    i = GaussRat(0, 1)
    for form, finite in (
        (OneForm(3 * Z * Z + Z + i), 0),
        (OneForm((Z * Z * Z * Z + 1) / (Z * Z * Z - 2)), 0),
        (OneForm(1 / (Z - i)), 1),
        (OneForm((Z + 2) / (Z * Z + 1)), 1),
    ):
        assert finite_residue_sum(form) == GaussRat(finite)
        assert residue_sum(form).is_zero()


def _random_split_form(rng: SeedStream, n_poles: int):
    """A 1-form built from known linear poles: sum of c/(z-r)^k dz.

    Returns (form, {(pole, k): c}) so tests have an independent record of
    every residue: the residue at r is the k=1 coefficient, by definition
    of the partial-fraction data.
    """
    terms = {}
    poles = []
    while len(poles) < n_poles:
        r = rng.gauss(3, 2)
        if all(r != p for p in poles):
            poles.append(r)
    coeff = RatFunc.const(0)
    for r in poles:
        depth = rng.randint(1, 2)
        for k in range(1, depth + 1):
            c = rng.gauss(3, 2)
            if c.is_zero():
                continue
            terms[(r, k)] = c
            coeff = coeff + RatFunc(c) / RatFunc([-r, 1]) ** k
    return OneForm(coeff), terms


def test_residue_matches_partial_fraction_data():
    for trial in range(25):
        rng = SeedStream("residue-oracle", trial)
        form, terms = _random_split_form(rng, rng.randint(1, 3))
        for (r, k), c in terms.items():
            want = c if k == 1 else None
            if want is not None:
                got = residue(form, P1Point.finite(r))
                # other orders at the same pole contribute nothing to
                # the u^-1 coefficient, so the k=1 datum is the residue
                expected = terms.get((r, 1), GaussRat(0))
                assert got == expected


def test_residue_sum_on_random_split_forms():
    for trial in range(40):
        rng = SeedStream("residue-sum", trial)
        form, _ = _random_split_form(rng, rng.randint(1, 4))
        assert residue_sum(form).is_zero()


def test_residue_additive():
    for trial in range(15):
        rng = SeedStream("residue-add", trial)
        f, _ = _random_split_form(rng, 2)
        g, _ = _random_split_form(rng.child("second"), 2)
        p = P1Point.finite(rng.gauss(2, 1))
        assert residue(f + g, p) == residue(f, p) + residue(g, p)


def _derivative(coeffs):
    """The coefficients of the derivative of a polynomial."""
    return [k * c for k, c in enumerate(coeffs)][1:]


def _derivative_of(f: RatFunc) -> RatFunc:
    """f' by the quotient rule."""
    n, d = RatFunc(numerator(f)), RatFunc(denominator(f))
    return (RatFunc(_derivative(numerator(f))) * d - n * RatFunc(_derivative(denominator(f)))) / (d * d)


def test_residue_of_exact_forms_vanishes():
    # d(h) = h' dz has zero residue everywhere, for rational h
    for trial in range(15):
        rng = SeedStream("exact-form", trial)
        num = [rng.gauss(2, 2) for _ in range(rng.randint(1, 3))]
        r1, r2 = rng.gauss(2, 1), rng.gauss(2, 1)
        den = numerator(RatFunc([-r1, 1]) * RatFunc([-r2, 1]))
        form = OneForm(_derivative_of(RatFunc(num) / RatFunc(den)))
        for p in (P1Point.finite(r1), P1Point.finite(r2), INFINITY):
            assert residue(form, p).is_zero()
        if not form.coeff.is_zero():
            assert residue_sum(form).is_zero()


def test_localize_is_linear():
    rng = SeedStream("localize-linear")
    f, _ = _random_split_form(rng, 2)
    g, _ = _random_split_form(rng.child("g"), 2)
    c = GaussRat(Fraction(3, 2), Fraction(-1, 2))
    for p in (P1Point.finite(0), P1Point.finite(1), INFINITY):
        assert localize(f + g, p) == localize(f, p) + localize(g, p)
        assert localize(c * f, p) == localize(f, p) * c


def test_residue_sum_of_non_split_denominator():
    # z^2 + z + 1 has no roots in Q(i); its residues r/(2r + 1) at the
    # two roots sum to 1, and z/(z^2 + z + 1) ~ 1/z at infinity
    form = OneForm(Z / (Z * Z + Z + 1))
    assert residue(form, INFINITY) == GaussRat(-1)
    assert finite_residue_sum(form) == GaussRat(1)
    assert residue_sum(form).is_zero()


def test_local_coordinate_descriptors():
    chart = LocalChart(P1Point.finite(GaussRat(3)))
    assert chart.pull(Z) == Z + 3
    chart_inf = LocalChart(INFINITY)
    assert chart_inf.pull(Z) == 1 / Z
    chart0 = LocalChart(P1Point.finite(0))
    assert chart0.pull(Z) == Z


# ---------------------------------------------------------------------------
# the root-free residue sum
# ---------------------------------------------------------------------------


def _seeded_form(rng: SeedStream):
    """N/D over Z[i]: D has 1-3 factors, each of degree 1-3 and power 1-3,
    and deg N runs from deg D - 3 to deg D + 2, so that most forms have a
    pole at infinity and many have a polynomial part.  32 of the 40
    denominators do not split over Q(i)."""
    den = RatFunc.const(1)
    for _ in range(rng.randint(1, 3)):
        factor = [rng.gauss(3, 1) for _ in range(rng.randint(1, 3))] + [rng.nonzero_gauss(3, 1)]
        den = den * RatFunc(factor) ** rng.randint(1, 3)
    num = [rng.gauss(3, 1) for _ in range(max(0, len(numerator(den)) + rng.randint(-4, 1)))]
    return OneForm(RatFunc(num + [rng.nonzero_gauss(3, 1)]) / den)


SEEDED_FORMS = [_seeded_form(SeedStream("root-free-sum", trial)) for trial in range(40)]


def test_finite_residue_sum_cancels_infinity_on_seeded_forms():
    at_infinity = 0
    for form in SEEDED_FORMS:
        inf = residue(form, INFINITY)
        assert finite_residue_sum(form) == -inf
        assert residue_sum(form).is_zero()
        at_infinity += not inf.is_zero()
    assert at_infinity > 20


def test_hermite_reduction_differentiates_back():
    """f = g' + h on all 40 seeded forms; 36 have a repeated factor to reduce."""
    reduced = 0
    for form in SEEDED_FORMS:
        f = form.coeff
        terms, h = hermite_reduce(f)
        assert _derivative_of(sum(terms, RatFunc.const(0))) + h == f
        # h's denominator is square-free: prime to its derivative
        d = denominator(h)
        assert denominator(RatFunc(_derivative(d)) / RatFunc(d)) == d
        reduced += bool(terms)
    assert reduced == 36

"""Localization, residues, and the global residue theorem."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsres import (
    GaussRat,
    INFINITY,
    OneForm,
    P1Point,
    RatFunc,
    UnsupportedDenominator,
    localize,
    residue,
    residue_sum,
)
from higgsres.residues import LocalChart
from higgsres.roots import gaussian_rational_roots
from higgsres.solver import SeedStream

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gauss = st.builds(GaussRat, small_fractions, small_fractions)

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


def test_residue_of_exact_forms_vanishes():
    # d(h) = h' dz has zero residue everywhere, for rational h
    for trial in range(15):
        rng = SeedStream("exact-form", trial)
        num = [rng.gauss(2, 2) for _ in range(rng.randint(1, 3))]
        r1, r2 = rng.gauss(2, 1), rng.gauss(2, 1)
        den = (RatFunc([-r1, 1]) * RatFunc([-r2, 1])).num
        # h = num/den, and h' by the quotient rule
        n, d = RatFunc(num), RatFunc(den)
        form = OneForm((RatFunc(_derivative(num)) * d - n * RatFunc(_derivative(den))) / (d * d))
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


def test_unsupported_denominator():
    # z^2 + z + 1 has no roots in Q(i)
    with pytest.raises(UnsupportedDenominator):
        residue_sum(OneForm(1 / (Z * Z + Z + 1)))


def test_local_coordinate_descriptors():
    chart = LocalChart(P1Point.finite(GaussRat(3)))
    assert chart.pull(Z) == Z + 3
    chart_inf = LocalChart(INFINITY)
    assert chart_inf.pull(Z) == 1 / Z
    chart0 = LocalChart(P1Point.finite(0))
    assert chart0.pull(Z) == Z


# ---------------------------------------------------------------------------
# root extraction
# ---------------------------------------------------------------------------


def test_roots_recovered_with_multiplicity():
    i = GaussRat(0, 1)
    half = GaussRat(Fraction(1, 2))
    p = ((Z - 2) ** 3 * (Z - i) * (Z + half) * GaussRat(2, 1)).num
    roots, cofactor = gaussian_rational_roots(p)
    assert len(cofactor) == 1
    assert dict((str(r), m) for r, m in roots) == {"2": 3, "i": 1, "-1/2": 1}


def test_roots_zero_root_and_cofactor():
    p = (Z ** 2 * (Z * Z + Z + 1)).num
    roots, cofactor = gaussian_rational_roots(p)
    assert (GaussRat(0), 2) in roots
    assert len(cofactor) == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(gauss, min_size=1, max_size=4))
def test_roots_of_random_split_products(rts):
    p = RatFunc(1)
    for r in rts:
        p = p * RatFunc([-r, 1])
    roots, cofactor = gaussian_rational_roots(p.num)
    assert len(cofactor) == 1
    total = sum(m for _, m in roots)
    assert total == len(rts)
    for r, m in roots:
        assert sum(1 for x in rts if x == r) == m

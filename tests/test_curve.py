"""Marked-curve invariants and the square-root transition relation."""

from fractions import Fraction

import pytest
from helpers import denominator, numerator

from higgsres import (
    GaussRat,
    INFINITY,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    ValidationError,
    curve_validate,
    localize,
    residue,
)
from higgsres.curve import _strip_marked_factors
from higgsres.residues import LocalChart
from higgsres.solver import SeedStream

U = RatFunc.x()
Z = RatFunc.x()


def test_one_point_curve_valid(curve_one_point):
    assert curve_validate(curve_one_point) == []
    # alpha = -dz localizes to +u^-2 du at infinity, matching T = u
    assert curve_one_point.alpha_local(0) == RatFunc(1, [0, 0, 1])


def test_imaginary_branch_is_valid():
    # alpha = dz with T = i*u: (i*u)^-2 = -u^-2 over Q(i)
    curve = MarkedCurve(
        [INFINITY], OneForm(RatFunc.const(1)), [RatFunc(GaussRat(0, 1)) * U]
    )
    assert curve_validate(curve) == []


def test_both_transition_branches_valid(curve_one_point):
    flipped = MarkedCurve([INFINITY], OneForm(RatFunc.const(-1)), [-U])
    assert curve_validate(flipped) == []


def test_vanishing_alpha_rejected():
    curve = MarkedCurve([INFINITY], OneForm(Z), [U])
    violations = curve_validate(curve)
    assert violations
    assert any("zero" in v for v in violations)


def test_wrong_transition_rejected(curve_one_point):
    curve = MarkedCurve([INFINITY], OneForm(RatFunc.const(-1)), [U * U])
    assert any("T^-2" in v for v in curve_validate(curve))


def test_unmarked_infinity_needs_order_zero():
    # marked {0} only: alpha = dz/z^2 has order 0 at the unmarked infinity
    good = MarkedCurve([P1Point.finite(0)], OneForm(1 / (Z * Z)), [U])
    assert curve_validate(good) == []
    # alpha = dz/z leaves a simple pole at the unmarked infinity
    bad = MarkedCurve([P1Point.finite(0)], OneForm(1 / Z), [U])
    assert any("inf" in v for v in curve_validate(bad))


def test_two_point_curve_valid(curve_two_points):
    assert curve_validate(curve_two_points) == []
    assert curve_two_points.alpha_local(0) == RatFunc(1, [0, 0, 1])
    assert curve_two_points.alpha_local(1) == RatFunc.const(-1)


def test_local_coordinate_descriptor():
    chart = LocalChart(P1Point.finite(3))
    assert chart.pull(Z) == Z + 3
    assert LocalChart(INFINITY).pull(Z) == 1 / Z
    assert LocalChart(P1Point.finite(0)).pull(Z) == Z


def test_residue_theorem_for_twisted_forms(curve_two_points):
    """h alpha with h regular away from the marked points has residue sum 0
    over the marked points alone."""
    rng = SeedStream("curve-forms")
    for trial in range(10):
        sub = rng.child(trial)
        # h = Laurent polynomial: poles only at 0 and infinity
        h = RatFunc.const(0)
        for k in range(-2, 3):
            c = sub.gauss(2, 2)
            h = h + RatFunc(c) * Z**k
        form = OneForm(h * curve_two_points.alpha.coeff)
        if form.coeff.is_zero():
            continue
        total = GaussRat(0)
        for p in curve_two_points.marked_points:
            total = total + residue(form, p)
        assert total.is_zero()


def test_transition_consistency_survives_renormalization(curve_one_point):
    # the same transition written with a removable factor
    t = curve_one_point.transition(0)
    assert (numerator(t), denominator(t)) == ((0, 1), (1,))
    messy = RatFunc([0, 2, 1], [2, 1])  # u as (2u + u^2)/(2 + u)
    curve = MarkedCurve([INFINITY], curve_one_point.alpha, [messy])
    assert curve_validate(curve) == []


def test_distinct_marked_points_required():
    with pytest.raises(ValidationError):
        MarkedCurve([INFINITY, INFINITY], OneForm(RatFunc.const(-1)), [U, U])


def test_marked_points_compared_by_value_not_hash():
    # hash(-1) == hash(-2) in CPython, so a hash set would call them equal
    points = [P1Point.finite(-1), P1Point.finite(-2), INFINITY]
    curve = MarkedCurve(points, OneForm(RatFunc.const(-1)), [U, U, U])
    assert curve.marked_points == points
    with pytest.raises(ValidationError, match="distinct"):
        MarkedCurve(points + [P1Point.finite(GaussRat(-2))], OneForm(RatFunc.const(-1)), [U] * 4)


def test_chart_constants_equal_fresh_computations(curve_one_point, curve_two_points):
    half = P1Point.finite(Fraction(-1, 2))
    # alpha = dz/(z + 1/2)^2 is 1/u^2 at -1/2 and has order 0 at infinity
    curve_half = MarkedCurve([half], OneForm(1 / (Z + Fraction(1, 2)) ** 2), [U])
    assert curve_validate(curve_half) == []
    for curve in (curve_one_point, curve_two_points, curve_half):
        for i, p in enumerate(curve.marked_points):
            t = curve.transition(i)
            assert curve.twists(1)[i] == t.inverse()
            assert curve.twists(2)[i] == (t * t).inverse()
            assert curve.twists(0)[i] == RatFunc.const(1)
            assert curve.alpha_local(i) == localize(curve.alpha, p)
        # computed on first read per weight, then kept
        assert curve.twists(1) is curve.twists(1)
        assert curve.twists(2) is curve.twists(2)
        assert curve.alpha_local(0) is curve.alpha_local(0)


def _regular_by_strip(curve, f):
    """is_regular_on_complement's former body: strip the marked factors of every denominator."""
    if f.is_zero():
        return True
    if len(_strip_marked_factors(f._d, curve.marked_points)) > 1:
        return False
    if INFINITY not in curve.marked_points:
        v = LocalChart(INFINITY).pull(f).valuation()
        if v is not None and v < 0:
            return False
    return True


def test_regular_on_complement_matches_the_strip_path():
    def marked(*points):
        pts = [INFINITY if p == "inf" else P1Point.finite(p) for p in points]
        return MarkedCurve(pts, OneForm(RatFunc.const(-1)), [U] * len(pts))

    curves = [marked("inf"), marked(0, "inf"), marked(1, "inf"), marked(Fraction(-1, 2))]
    # z - a for a = 0, 1, -1/2, 2
    factors = {0: Z, 1: Z - 1, Fraction(-1, 2): Z + Fraction(1, 2), 2: Z - 2}
    rng = SeedStream("regular-on-complement")
    seen = set()
    for c, curve in enumerate(curves):
        marked_factors = [factors[p.value] for p in curve.marked_points if not p.is_infinity]
        for trial in range(40):
            sub = rng.child(c, trial)
            num = RatFunc([sub.nonzero_gauss(2, 2) for _ in range(sub.randint(1, 4))])
            # z^k times nothing, powers of every factor, or powers of the marked ones
            chosen = [[], list(factors.values()), marked_factors][sub.randint(0, 2)]
            den = Z ** sub.randint(0, 3)
            for factor in chosen:
                den = den * factor ** sub.randint(0, 2)
            f = num / den
            got = curve.is_regular_on_complement(f)
            assert got == _regular_by_strip(curve, f)
            seen.add((f._k >= 0, got))
    # Laurent and not, regular and not, all occur
    assert seen == {(True, True), (True, False), (False, True), (False, False)}

"""Section/Higgs cocycle data, the residue pairings, and the vanishing."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from helpers import basis_element, gauge_transform_y_point, gauge_transform_y_tangent, zero_element, zero_vector

from higgsres import (
    CoadjointElement,
    GaussRat,
    IrregularSection,
    LoopGroupElement,
    MatrixLieAlgebra,
    RatFunc,
    RegularityViolation,
    ShapeError,
    XVector,
    ambient_higgs_tangent,
    builtin_rep,
    cartan_check,
    elementary,
    higgs_from_y,
    identity_check,
    liouville_lambda,
    load_scenario,
    make_higgs_point,
    make_higgs_tangent,
    make_y_point,
    make_y_tangent,
    pullback_omega,
    pushforward_tangent,
    symplectic_omega,
)
from higgsres.moduli import IdentityReport, unchecked_y_tangent, validate_y_tangent
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    SolverBounds,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    random_cocycle,
    random_loop_algebra,
    sample_affine,
    sample_vector,
)
from higgsres.suites import build_instance

U = RatFunc.x()
HALF = GaussRat(Fraction(1, 2))


@pytest.fixture(scope="module")
def rep():
    return builtin_rep("sl2-standard")


@pytest.fixture(scope="module")
def base_point(curve_one_point, rep, twisted_bundle):
    return make_y_point(
        curve_one_point, rep, twisted_bundle, XVector([1, 0])
    )


def test_twisted_point_accepts_constant_section(base_point):
    # oracle: substitute z = 1/u by hand:
    # s' = u^-1 diag(u, u^-1) (1, 0) = (1, 0)
    assert base_point.s_prime[0] == XVector([1, 0])


def test_trivial_cocycle_rejects_constant_section(curve_one_point, rep):
    # s' = u^-1 (1, 0): the pole reflects the absence of global sections
    with pytest.raises(IrregularSection) as err:
        make_y_point(
            curve_one_point, rep, [LoopGroupElement.identity(2)], XVector([1, 0])
        )
    assert err.value.order == 1


def test_zero_section_always_valid(curve_one_point, rep, twisted_bundle):
    p = make_y_point(curve_one_point, rep, twisted_bundle, zero_vector(2))
    assert all(s.is_zero() for s in p.s_prime)


def test_tangent_examples(base_point, rep):
    sl2 = rep.algebra
    t1 = make_y_tangent(base_point, [basis_element(sl2, "F")], zero_vector(2))
    # sdot' = -rho(F)(1,0) = -(0,1)
    assert t1.s_prime_dot[0] == XVector([0, -1])
    t2 = make_y_tangent(base_point, [zero_element(sl2)], XVector([1, 0]))
    assert t2.s_prime_dot[0] == XVector([1, 0])
    t3 = make_y_tangent(base_point, [zero_element(sl2)], zero_vector(2))
    assert t3.s_prime_dot[0].is_zero()


def test_higgs_image_of_base_point(base_point, rep):
    sl2 = rep.algebra
    h = higgs_from_y(base_point)
    minus_half_e = GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0])
    assert h.phi_circ == minus_half_e
    assert h.phi_prime[0] == minus_half_e


def test_higgs_image_degenerate_cases(curve_one_point, rep, twisted_bundle):
    zero_point = make_y_point(curve_one_point, rep, twisted_bundle, zero_vector(2))
    assert higgs_from_y(zero_point).phi_circ.is_zero()
    scaled = make_y_point(curve_one_point, rep, twisted_bundle, XVector([3, 0]))
    sl2 = rep.algebra
    assert higgs_from_y(scaled).phi_circ == GaussRat(Fraction(-9, 2)) * CoadjointElement(sl2, sl2.basis[0])


def test_pushforward_tangent_values(base_point, rep):
    sl2 = rep.algebra
    t = make_y_tangent(base_point, [basis_element(sl2, "F")], zero_vector(2))
    ht = pushforward_tangent(t)
    assert ht.phi_circ_dot.is_zero()
    # dmu_(1,0)(0,-1) pairs as omega(rho(xi)(1,0), (0,-1)) on the basis
    assert ht.phi_prime_dot[0] == rep.dmoment(XVector([1, 0]), XVector([0, -1]))
    zero_t = make_y_tangent(base_point, [zero_element(sl2)], zero_vector(2))
    assert pushforward_tangent(zero_t).phi_prime_dot[0].is_zero()


def test_pushforward_with_regular_gdot_is_pure_transition(base_point, rep):
    # with gdot = 0 the derived disk deformation is exactly the coadjoint
    # transition of the global deformation
    sl2 = rep.algebra
    t = make_y_tangent(base_point, [zero_element(sl2)], XVector([1, 0]))
    ht = pushforward_tangent(t)
    from higgsres.lie import Coadjoint
    from higgsres.moduli import derive_prime

    want = derive_prime(
        base_point.curve, Coadjoint(sl2), base_point.g, ht.phi_circ_dot.coeffs
    )
    assert ht.phi_prime_dot[0] == want[0]


# ---------------------------------------------------------------------------
# the forms on Higgs data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zero_higgs_point(curve_one_point, rep, twisted_bundle):
    sl2 = rep.algebra
    return make_higgs_point(
        curve_one_point, sl2, twisted_bundle, CoadjointElement(sl2, [[0, 0], [0, 0]])
    )


def test_omega_reference_value(zero_higgs_point, rep):
    """The pinned pairing value: gdot = u^-1 F against phidot-circ = E."""
    sl2 = rep.algebra
    t1 = make_higgs_tangent(
        zero_higgs_point,
        [U.inverse() * basis_element(sl2, "F")],
        CoadjointElement(sl2, [[0, 0], [0, 0]]),
    )
    t2 = make_higgs_tangent(
        zero_higgs_point, [zero_element(sl2)], CoadjointElement(sl2, sl2.basis[0])
    )
    # oracle: phidot'_2 = u^-2 g^-1 E g = E; integrand
    # -tr(E u^-1 F) du has residue -tr(EF) = -1
    assert t2.phi_prime_dot[0] == CoadjointElement(sl2, sl2.basis[0])
    value = symplectic_omega(zero_higgs_point, t1, t2)
    assert value == GaussRat(-1)
    assert symplectic_omega(zero_higgs_point, t1, t1).is_zero()
    assert symplectic_omega(zero_higgs_point, t2, t2).is_zero()


def test_omega_antisymmetry_and_bilinearity(zero_higgs_point, rep):
    sl2 = rep.algebra
    rng = SeedStream("omega-bilinear")
    bounds = SolverBounds(degree=4, pole_order=4)
    tangents = []
    for j in range(3):
        sub = rng.child(j)
        g_dot = [random_loop_algebra(sl2, GdotRecipe(), sub.child("g"))]
        space = build_higgs_tangent_space(zero_higgs_point, g_dot, bounds)
        phi_dot = sample_affine(space, sub.child("phi"))
        tangents.append(make_higgs_tangent(zero_higgs_point, g_dot, phi_dot))
    t1, t2, t3 = tangents
    c = GaussRat(Fraction(5, 3), Fraction(-1, 2))
    assert symplectic_omega(zero_higgs_point, t1, t2) == -symplectic_omega(
        zero_higgs_point, t2, t1
    )
    # linear combination in the first slot, built componentwise
    combo = make_higgs_tangent(
        zero_higgs_point,
        [c * t1.g_dot[0] + t3.g_dot[0]],
        c * t1.phi_circ_dot + t3.phi_circ_dot,
    )
    lhs = symplectic_omega(zero_higgs_point, combo, t2)
    rhs = c * symplectic_omega(zero_higgs_point, t1, t2) + symplectic_omega(
        zero_higgs_point, t3, t2
    )
    assert lhs == rhs


def test_lambda_reference_value(curve_one_point, rep, twisted_bundle):
    """The pinned tautological value -1/2 on ambient tangent data.

    No cotangent-stack tangent carries this data on the sphere (lifting
    is obstructed by bundle automorphisms), but the pairing is defined on
    ambient triples and evaluates through the same residue path.
    """
    sl2 = rep.algebra
    phi = GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0])
    point = make_higgs_point(curve_one_point, sl2, twisted_bundle, phi)
    assert point.phi_prime[0] == phi
    zero = CoadjointElement(sl2, [[0, 0], [0, 0]])
    t = ambient_higgs_tangent(
        point, [U.inverse() * basis_element(sl2, "F")], zero, [zero]
    )
    # oracle: integrand is -1/2 tr(E F) u^-1 du with tr(EF) = 1
    value = liouville_lambda(point, t)
    assert value == GaussRat(Fraction(-1, 2))


def test_lambda_linearity(zero_higgs_point, rep):
    sl2 = rep.algebra
    rng = SeedStream("lambda-linear")
    bounds = SolverBounds(degree=4, pole_order=4)

    def random_tangent(sub):
        g_dot = [random_loop_algebra(sl2, GdotRecipe(), sub.child("g"))]
        space = build_higgs_tangent_space(zero_higgs_point, g_dot, bounds)
        return make_higgs_tangent(
            zero_higgs_point, g_dot, sample_affine(space, sub.child("phi"))
        )

    t1 = random_tangent(rng.child(1))
    t2 = random_tangent(rng.child(2))
    c = GaussRat(2, 3)
    combo = make_higgs_tangent(
        zero_higgs_point,
        [c * t1.g_dot[0] + t2.g_dot[0]],
        c * t1.phi_circ_dot + t2.phi_circ_dot,
    )
    assert liouville_lambda(zero_higgs_point, combo) == c * liouville_lambda(
        zero_higgs_point, t1
    ) + liouville_lambda(zero_higgs_point, t2)


def test_regular_data_gives_zero_residues(zero_higgs_point, rep):
    sl2 = rep.algebra
    t = make_higgs_tangent(
        zero_higgs_point, [basis_element(sl2, "H")], CoadjointElement(sl2, sl2.basis[0])
    )
    assert liouville_lambda(zero_higgs_point, t).is_zero()
    t2 = make_higgs_tangent(
        zero_higgs_point, [basis_element(sl2, "E")], CoadjointElement(sl2, [[0, 0], [0, 0]])
    )
    assert symplectic_omega(zero_higgs_point, t, t2).is_zero()


# ---------------------------------------------------------------------------
# the vanishing, the identity, the exterior-derivative consistency
# ---------------------------------------------------------------------------


def test_pullback_vanishes_on_reference_tangents(base_point, rep):
    sl2 = rep.algebra
    t1 = make_y_tangent(base_point, [basis_element(sl2, "F")], zero_vector(2))
    t2 = make_y_tangent(base_point, [zero_element(sl2)], XVector([1, 0]))
    assert pullback_omega(base_point, t1, t2).is_zero()
    assert pullback_omega(base_point, t1, t1).is_zero()


def _feasible_tangent(point, rng, bounds=SolverBounds(degree=4, pole_order=4)):
    """A random valid tangent, resampling g_dot until the solve succeeds."""
    for attempt in range(8):
        sub = rng.child(attempt)
        recipe = GdotRecipe(pole_order=2) if attempt < 7 else GdotRecipe(pole_order=0)
        g_dot = [
            random_loop_algebra(point.rep.algebra, recipe, sub.child("g", i))
            for i in range(point.curve.n_points)
        ]
        try:
            space = build_tangent_space(point, g_dot, bounds)
        except Exception:
            continue
        return make_y_tangent(point, g_dot, sample_affine(space, sub.child("s")))
    raise AssertionError("no feasible tangent found")


def test_identity_residuals_vanish(base_point, rep):
    rng = SeedStream("identity-tangents")
    t1 = _feasible_tangent(base_point, rng.child(1))
    t2 = _feasible_tangent(base_point, rng.child(2))
    report = identity_check(base_point, t1, t2)
    assert report.ok
    assert all(r.is_zero() for r in report.residuals)
    assert report.alpha_residue_sum.is_zero()
    assert report.disk_ok


def test_identity_report_disk_ok_needs_regular_disks_with_zero_residues():
    zero, one = GaussRat(0), GaussRat(1)
    residuals, alpha = [RatFunc.const(0)] * 2, [zero, zero]
    for regular, residues, want in [
        ([True, True], [zero, zero], True),
        ([True, False], [zero, zero], False),
        ([True, True], [zero, one], False),
        ([], [], True),
    ]:
        report = IdentityReport(residuals, alpha, regular, residues)
        assert report.disk_ok is want
        assert report.ok is want


def test_identity_detects_corruption(base_point, rep):
    rng = SeedStream("identity-corrupt")
    sl2 = rep.algebra
    t1 = _feasible_tangent(base_point, rng.child(1))
    # fixed second direction: sdot'_2 + rho(gdot_2)s' = (1, 0), so a (0, 1)
    # perturbation of sdot'_1 pairs to omega((0,1),(1,0)) = -1 != 0
    t2 = make_y_tangent(base_point, [zero_element(sl2)], XVector([1, 0]))
    bad = unchecked_y_tangent(
        base_point,
        t1.g_dot,
        t1.s_circ_dot,
        [t1.s_prime_dot[0] + XVector([0, 1])],
    )
    assert validate_y_tangent(bad)
    report = identity_check(base_point, bad, t2)
    assert not report.ok


def test_validate_y_tangent_reports_each_violation(base_point):
    """A pole of sdot away from the marked points, and a pole of sdot' at
    u = 0, are each reported; the corrupt suite perturbs sdot' by u^0 or
    u^1 only, so it reaches neither."""
    t = _feasible_tangent(base_point, SeedStream("validate-violations"))
    assert validate_y_tangent(t) == []
    pole = XVector([c + 1 / (RatFunc.x() - 1) for c in t.s_circ_dot.coords])
    errors = validate_y_tangent(unchecked_y_tangent(base_point, t.g_dot, pole, t.s_prime_dot))
    assert isinstance(errors[0], RegularityViolation)
    assert str(errors[0]) == "sdot has a pole away from the marked points"
    polar = [t.s_prime_dot[0] + XVector([U ** -1, 0])]
    errors = validate_y_tangent(unchecked_y_tangent(base_point, t.g_dot, t.s_circ_dot, polar))
    assert [type(e) for e in errors] == [RegularityViolation, IrregularSection]
    assert str(errors[0]) == "sdot'_0 does not satisfy the deformation equation"
    assert (errors[1].point_index, errors[1].order, errors[1].what) == (0, 1, "sdot'")


def test_unchecked_tangent_forms_the_validated_actions(fixtures_dir):
    scenario = load_scenario(str(fixtures_dir / "f3.json"))
    one = RatFunc.const(1)
    nonzero = 0
    for trial in range(2):
        inst = build_instance(scenario, SeedStream("unchecked-actions").child(trial))
        for t in inst.tangents:
            # the corruption leaves base and g_dot, so the actions, as they are
            bad = [XVector([c + one for c in v.coords]) for v in t.s_prime_dot]
            for s_prime_dot in (t.s_prime_dot, bad):
                raw = unchecked_y_tangent(t.base, t.g_dot, t.s_circ_dot, s_prime_dot)
                assert raw.actions == t.actions
            nonzero += sum(not a.is_zero() for a in t.actions)
    assert nonzero >= 4


def test_section_checks_reject_tangents_of_another_point(fixtures_dir):
    scenario = load_scenario(str(fixtures_dir / "f3.json"))
    rng = SeedStream("foreign-tangents")
    a, b = build_instance(scenario, rng.child(0)), build_instance(scenario, rng.child(1))
    assert identity_check(a.point, *a.tangents).ok
    for tangents in (b.tangents, (a.tangents[0], b.tangents[1])):
        with pytest.raises(ShapeError, match="not based"):
            identity_check(a.point, *tangents)
        with pytest.raises(ShapeError, match="not based"):
            pullback_omega(a.point, *tangents)


def test_cartan_reference_terms(zero_higgs_point, rep):
    sl2 = rep.algebra
    t1 = make_higgs_tangent(
        zero_higgs_point,
        [U.inverse() * basis_element(sl2, "F")],
        CoadjointElement(sl2, [[0, 0], [0, 0]]),
    )
    t2 = make_higgs_tangent(
        zero_higgs_point, [zero_element(sl2)], CoadjointElement(sl2, sl2.basis[0])
    )
    res = cartan_check(zero_higgs_point, t1, t2)
    # jet-path oracle: only the second slot differentiates to a residue:
    # d/de2 Res<phi' + e2 E, u^-1 F> = Res(u^-1 tr(EF)) = 1
    assert (res.term1, res.term2, res.term3) == (GaussRat(0), GaussRat(1), GaussRat(0))
    assert res.omega_value == GaussRat(-1)
    assert res.ok
    same = cartan_check(zero_higgs_point, t1, t1)
    assert same.ok and same.omega_value.is_zero()


def test_cartan_on_random_tangents(zero_higgs_point, rep):
    sl2 = rep.algebra
    rng = SeedStream("cartan-random")
    bounds = SolverBounds(degree=4, pole_order=4)
    for trial in range(6):
        sub = rng.child(trial)
        tangents = []
        for j in (1, 2):
            g_dot = [random_loop_algebra(sl2, GdotRecipe(), sub.child(j, "g"))]
            space = build_higgs_tangent_space(zero_higgs_point, g_dot, bounds)
            tangents.append(
                make_higgs_tangent(
                    zero_higgs_point, g_dot, sample_affine(space, sub.child(j, "phi"))
                )
            )
        assert cartan_check(zero_higgs_point, *tangents).ok


def test_constant_gauge_invariance(curve_one_point, rep):
    rng = SeedStream("gauge")
    bounds = SolverBounds(degree=4, pole_order=4)
    h = elementary(2, 1, 2, RatFunc.const(GaussRat(2, 1))) * elementary(
        2, 2, 1, RatFunc.const(GaussRat(Fraction(-1, 3)))
    )
    for trial in range(4):
        sub = rng.child(trial)
        g = [random_cocycle(2, CocycleRecipe(), sub.child("g"))]
        space = build_section_space(curve_one_point, rep, g, bounds)
        if not space.dim:
            continue
        p = make_y_point(curve_one_point, rep, g, sample_vector(space, sub.child("s")))
        tangents = []
        for j in (1, 2):
            g_dot = [random_loop_algebra(rep.algebra, GdotRecipe(pole_order=1), sub.child(j))]
            try:
                t_space = build_tangent_space(p, g_dot, bounds)
            except Exception:
                g_dot = [zero_element(rep.algebra)]
                t_space = build_tangent_space(p, g_dot, bounds)
            tangents.append(
                make_y_tangent(p, g_dot, sample_affine(t_space, sub.child(j, "s")))
            )
        p2 = gauge_transform_y_point(p, h)
        t1b = gauge_transform_y_tangent(tangents[0], p2, h)
        t2b = gauge_transform_y_tangent(tangents[1], p2, h)
        assert pullback_omega(p, tangents[0], tangents[1]) == pullback_omega(
            p2, t1b, t2b
        )
        hp, hp2 = higgs_from_y(p), higgs_from_y(p2)
        ht1, ht2 = pushforward_tangent(tangents[0]), pushforward_tangent(tangents[1])
        hb1, hb2 = pushforward_tangent(t1b), pushforward_tangent(t2b)
        assert liouville_lambda(hp, ht1) == liouville_lambda(hp2, hb1)
        assert symplectic_omega(hp, ht1, ht2) == symplectic_omega(hp2, hb1, hb2)


# ---------------------------------------------------------------------------
# the error contract of the validating constructors
# ---------------------------------------------------------------------------

OFF = RatFunc(1, [-1, 1])  # 1/(z - 1): a pole away from the marked point


@pytest.fixture(scope="module")
def ctx(curve_one_point, rep, twisted_bundle, base_point, zero_higgs_point):
    sl2, sl3 = rep.algebra, MatrixLieAlgebra.sl(3)
    return SimpleNamespace(
        curve=curve_one_point,
        rep=rep,
        sl2=sl2,
        g=twisted_bundle,
        y=base_point,
        h=zero_higgs_point,
        zero=[zero_element(sl2)],
        phi0=CoadjointElement(sl2, [[0, 0], [0, 0]]),
        h_mat=CoadjointElement(sl2, [[1, 0], [0, -1]]),
        h_off=CoadjointElement(sl2, [[OFF, 0], [0, -OFF]]),
        sl3_zero=CoadjointElement(sl3, [[0] * 3] * 3),
        sl3_off=CoadjointElement(sl3, [[OFF, 0, 0], [0, -OFF, 0], [0, 0, 0]]),
    )


_G_COUNT = "expected one transition matrix per marked point (1), got 2"
_GDOT_COUNT = "expected one algebra element per marked point (1), got 0"
_SIZE = "{} is a coadjoint value of sl3, not of sl2"

# (id, call, exception, message, IrregularSection.what); faults are checked
# in the order: one g per point, sizes, poles off the marked points, disk poles
CONSTRUCTOR_CASES = [
    ("y_point-g", lambda c: make_y_point(c.curve, c.rep, c.g * 2, XVector([1, 0])),
     ShapeError, _G_COUNT, None),
    ("y_point-length", lambda c: make_y_point(c.curve, c.rep, c.g, XVector([1, 0, 0])),
     ShapeError, "section length does not match the space dimension", None),
    ("y_point-off", lambda c: make_y_point(c.curve, c.rep, c.g, XVector([OFF, 0])),
     RegularityViolation, "s has a pole away from the marked points", None),
    ("y_point-disk", lambda c: make_y_point(c.curve, c.rep, c.g, XVector([0, 1])),
     IrregularSection, "s' has a pole of order 2 at marked point #0", "s'"),
    ("y_point-all", lambda c: make_y_point(c.curve, c.rep, c.g * 2, XVector([OFF, 1, 0])),
     ShapeError, _G_COUNT, None),
    ("y_point-all-but-g", lambda c: make_y_point(c.curve, c.rep, c.g, XVector([OFF, 1, 0])),
     ShapeError, "section length does not match the space dimension", None),
    ("y_point-off-and-disk", lambda c: make_y_point(c.curve, c.rep, c.g, XVector([OFF, 1])),
     RegularityViolation, "s has a pole away from the marked points", None),
    ("y_tangent-g_dot", lambda c: make_y_tangent(c.y, [], XVector([0, 0])),
     ShapeError, _GDOT_COUNT, None),
    ("y_tangent-length", lambda c: make_y_tangent(c.y, c.zero, XVector([0, 0, 0])),
     ShapeError, "tangent section length does not match the space dimension", None),
    ("y_tangent-off", lambda c: make_y_tangent(c.y, c.zero, XVector([OFF, 0])),
     RegularityViolation, "sdot has a pole away from the marked points", None),
    ("y_tangent-disk", lambda c: make_y_tangent(c.y, c.zero, XVector([0, 1])),
     IrregularSection, "sdot' has a pole of order 2 at marked point #0", "sdot'"),
    ("y_tangent-all", lambda c: make_y_tangent(c.y, [], XVector([OFF, 1, 0])),
     ShapeError, _GDOT_COUNT, None),
    ("y_tangent-all-but-g_dot", lambda c: make_y_tangent(c.y, c.zero, XVector([OFF, 1, 0])),
     ShapeError, "tangent section length does not match the space dimension", None),
    ("y_tangent-off-and-disk", lambda c: make_y_tangent(c.y, c.zero, XVector([OFF, 1])),
     RegularityViolation, "sdot has a pole away from the marked points", None),
    ("higgs_point-g", lambda c: make_higgs_point(c.curve, c.sl2, c.g * 2, c.phi0),
     ShapeError, _G_COUNT, None),
    ("higgs_point-size", lambda c: make_higgs_point(c.curve, c.sl2, c.g, c.sl3_zero),
     ShapeError, _SIZE.format("phi"), None),
    ("higgs_point-off", lambda c: make_higgs_point(c.curve, c.sl2, c.g, c.h_off),
     RegularityViolation, "phi has a pole away from the marked points", None),
    ("higgs_point-disk", lambda c: make_higgs_point(c.curve, c.sl2, c.g, c.h_mat),
     IrregularSection, "phi' has a pole of order 2 at marked point #0", "phi'"),
    ("higgs_point-all", lambda c: make_higgs_point(c.curve, c.sl2, c.g * 2, c.sl3_off),
     ShapeError, _G_COUNT, None),
    ("higgs_point-all-but-g", lambda c: make_higgs_point(c.curve, c.sl2, c.g, c.sl3_off),
     RegularityViolation, "phi has a pole away from the marked points", None),
    ("higgs_point-off-and-disk", lambda c: make_higgs_point(c.curve, c.sl2, c.g, c.h_off + c.h_mat),
     RegularityViolation, "phi has a pole away from the marked points", None),
    ("higgs_tangent-g_dot", lambda c: make_higgs_tangent(c.h, [], c.phi0),
     ShapeError, _GDOT_COUNT, None),
    ("higgs_tangent-size", lambda c: make_higgs_tangent(c.h, c.zero, c.sl3_zero),
     ShapeError, _SIZE.format("phidot"), None),
    ("higgs_tangent-off", lambda c: make_higgs_tangent(c.h, c.zero, c.h_off),
     RegularityViolation, "phidot has a pole away from the marked points", None),
    ("higgs_tangent-disk", lambda c: make_higgs_tangent(c.h, c.zero, c.h_mat),
     IrregularSection, "phidot' has a pole of order 2 at marked point #0", "phidot'"),
    ("higgs_tangent-all", lambda c: make_higgs_tangent(c.h, [], c.sl3_off),
     ShapeError, _GDOT_COUNT, None),
    ("higgs_tangent-all-but-g_dot", lambda c: make_higgs_tangent(c.h, c.zero, c.sl3_off),
     RegularityViolation, "phidot has a pole away from the marked points", None),
    ("higgs_tangent-off-and-disk", lambda c: make_higgs_tangent(c.h, c.zero, c.h_off + c.h_mat),
     RegularityViolation, "phidot has a pole away from the marked points", None),
    ("ambient-g_dot", lambda c: ambient_higgs_tangent(c.h, [], c.phi0, [c.phi0]),
     ShapeError, _GDOT_COUNT, None),
    ("ambient-disk_count", lambda c: ambient_higgs_tangent(c.h, c.zero, c.phi0, []),
     ShapeError, "one disk value per marked point is required", None),
    ("ambient-off", lambda c: ambient_higgs_tangent(c.h, c.zero, c.h_off, [c.phi0]),
     RegularityViolation, "phidot has a pole away from the marked points", None),
    ("ambient-disk", lambda c: ambient_higgs_tangent(c.h, c.zero, c.phi0, [U.inverse() * c.h_mat]),
     IrregularSection, "phidot' has a pole of order 1 at marked point #0", "phidot'"),
    ("ambient-all", lambda c: ambient_higgs_tangent(c.h, [], c.h_off, []),
     ShapeError, _GDOT_COUNT, None),
    ("ambient-all-but-g_dot", lambda c: ambient_higgs_tangent(c.h, c.zero, c.h_off, []),
     ShapeError, "one disk value per marked point is required", None),
    ("ambient-off-and-disk",
     lambda c: ambient_higgs_tangent(c.h, c.zero, c.h_off, [U.inverse() * c.h_mat]),
     RegularityViolation, "phidot has a pole away from the marked points", None),
]


@pytest.mark.parametrize(
    "call, exc, message, what",
    [case[1:] for case in CONSTRUCTOR_CASES],
    ids=[case[0] for case in CONSTRUCTOR_CASES],
)
def test_constructor_error_contract(ctx, call, exc, message, what):
    with pytest.raises(exc) as err:
        call(ctx)
    assert type(err.value) is exc
    assert str(err.value) == message
    if what is not None:
        assert err.value.what == what

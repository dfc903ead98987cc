"""The short forms a theorem trial takes, against the long forms they replace.

A trial forms only what its checks read: sampling sums candidate
coefficients and forms one value per draw, the adjugate of a 2x2 or 3x3
group element is written out, mu(x) is one sum over a folded quadratic
form, each residue of Omega is read off the pairings' factors, and a
scale by 1 or -1 takes no product.  Each value must equal the long
form's (``helpers``: ``cofactor_adjugate``, ``omega_by_integrand``,
``value_sample_vector``, ``value_sample_affine``), and the count guards
pin that the long forms are not taken.
"""

import json

import pytest
from helpers import (
    basis_values,
    cofactor_adjugate,
    omega_by_integrand,
    particular_value,
    value_sample_affine,
    value_sample_vector,
)
from test_sparse_forms import REPS, dense_moment

from higgsres import (
    INFINITY,
    GaussRat,
    HamiltonianRep,
    OneForm,
    P1Point,
    RatFunc,
    XVector,
    cartan_check,
    identity_check,
    liouville_lambda,
    load_scenario,
    parse_scenario,
    pullback_omega,
    symplectic_omega,
)
from higgsres import _kernels as K
from higgsres import matrices
from higgsres.curve import MarkedCurve
from higgsres.field import dot, residue_dot
from higgsres.lie import pairing
from higgsres.moduli import make_higgs_point, make_higgs_tangent, make_y_point
from higgsres.solver import (
    CocycleRecipe,
    SeedStream,
    TwistedSystem,
    build_higgs_field_space,
    build_higgs_tangent_space,
    build_section_space,
    build_tangent_space,
    random_cocycle,
    sample_affine,
    sample_vector,
)
from higgsres.suites import _random_bundle, _sample_tangent, build_instance, random_higgs_pair

U = RatFunc.x()
ZERO = RatFunc.const(0)
I = GaussRat(0, 1)
UNITS = [GaussRat(1), GaussRat(-1), I, -I]


# -- closed-form adjugates ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_adjugate_matches_cofactors(n):
    for k in range(300):
        g = random_cocycle(n, CocycleRecipe(), SeedStream("adjugate", n, k))
        assert matrices.adjugate(g.mat) == cofactor_adjugate(g.mat)


def test_closed_form_adjugate_on_fixture_bundles(fixtures_dir):
    sizes = set()
    for name in ("f1", "f2", "f3", "lambda"):
        scenario = load_scenario(str(fixtures_dir / f"{name}.json"))
        bundles = [scenario.bundle] + ([scenario.higgs.bundle] if scenario.higgs else [])
        for g in (g_i for bundle in bundles for g_i in bundle):
            assert matrices.adjugate(g.mat) == cofactor_adjugate(g.mat)
            sizes.add(g.n)
    assert sizes == {2, 3}


def test_adjugate_builds_no_minor_below_size_four(monkeypatch):
    rng = SeedStream("adjugate-minors")
    calls = [0]
    minor = matrices._minor

    def counted(a, i, j):
        calls[0] += 1
        return minor(a, i, j)

    monkeypatch.setattr(matrices, "_minor", counted)
    for n in (2, 3):
        matrices.adjugate(random_cocycle(n, CocycleRecipe(), rng.child(n)).mat)
    assert calls[0] == 0
    # the cofactor expansion still serves n >= 4, through the minors
    a = random_cocycle(4, CocycleRecipe(), rng.child(4)).mat
    assert matrices.adjugate(a) == cofactor_adjugate(a)
    assert calls[0] > 0


# -- the folded moment form --------------------------------------------------


@pytest.mark.parametrize("name", sorted(REPS))
def test_moment_values_take_no_dmoment(name, monkeypatch):
    """mu(x) is one sum over the folded form, exact also where Q_a is not
    symmetric (explicit-outside-sp)."""
    rep = REPS[name]()
    rng = SeedStream("folded-moment", name)
    xs = [
        XVector([RatFunc([rng.gauss(), rng.gauss()]) * U ** -rng.randint(0, 2) for _ in range(rep.space.dim)])
        for _ in range(6)
    ]
    want = [dense_moment(rep, x) for x in xs]

    def refused(self, x, v):
        raise AssertionError("moment_values called dmoment_values")

    monkeypatch.setattr(HamiltonianRep, "dmoment_values", refused)
    assert [rep.moment(x) for x in xs] == want
    assert any(not m.is_zero() for m in want)


# -- residues off the factors ------------------------------------------------


def _laurent(rng):
    if rng.randint(0, 4) == 0:
        return ZERO
    return RatFunc([rng.gauss() for _ in range(rng.randint(1, 4))]) * U ** -rng.randint(0, 3)


def _scalar(rng):
    """A unit one time in three, else a random value (zero included)."""
    return rng.choice(UNITS) if rng.randint(0, 2) == 0 else rng.gauss()


def test_residue_dot_on_laurent_operands():
    nonzero = 0
    for trial in range(60):
        rng = SeedStream("residue-laurent", trial)
        terms = [(_scalar(rng), _laurent(rng), _laurent(rng)) for _ in range(rng.randint(0, 5))]
        want = dot(terms).laurent_coefficient(-1)
        assert residue_dot(terms) == want
        nonzero += not want.is_zero()
    assert nonzero >= 20


def test_residue_dot_on_germs_at_a_finite_point_other_than_zero():
    """At the marked point 1 of P^1 marked at {0, 1, inf}, the germs of
    functions with poles at 0 and 1 are not Laurent."""
    curve = MarkedCurve(
        [P1Point.finite(0), P1Point.finite(1), INFINITY], OneForm(RatFunc.const(-1)), [U, U, U]
    )
    chart = curve.chart(1)
    nonzero = nonlaurent = 0
    for trial in range(40):
        rng = SeedStream("residue-germs", trial)

        def germ():
            num = RatFunc([rng.gauss() for _ in range(rng.randint(1, 3))])
            den = RatFunc([0, 1]) ** rng.randint(1, 2) * RatFunc([-1, 1]) ** rng.randint(0, 2)
            return chart.pull(num / den)

        terms = []
        for _ in range(rng.randint(1, 4)):
            terms.append((_scalar(rng), germ(), rng.choice([germ(), _laurent(rng)])))
        nonlaurent += sum(x._k < 0 for _, x, _ in terms)
        want = dot(terms).laurent_coefficient(-1)
        assert residue_dot(terms) == want
        nonzero += not want.is_zero()
    assert nonzero >= 10 and nonlaurent >= 40


def _zero_phi_pair(scenario, rng):
    """Two Higgs tangents at phi = 0 over the scenario's bundle, drawn as
    ``random_higgs_pair`` draws them."""
    algebra = scenario.rep.algebra
    point = make_higgs_point(
        scenario.curve, algebra, scenario.bundle, algebra.coadjoint_from([ZERO] * algebra.dim)
    )
    tangents = []
    for j in (1, 2):
        g_dot, space, sub, _ = _sample_tangent(
            scenario, point, rng.child("tangent", j), build_higgs_tangent_space
        )
        tangents.append(make_higgs_tangent(point, g_dot, sample_affine(space, sub.child("phi"))))
    return point, tangents


@pytest.mark.parametrize("fixture", ["f1", "f2", "f3"])
def test_omega_residues_match_the_integrand(fixtures_dir, fixture):
    scenario = load_scenario(str(fixtures_dir / f"{fixture}.json"))
    root = SeedStream("omega-residues", fixture)
    nonzero = 0
    for t in range(20):
        rng = root.child("trial", t)
        # Omega is 0 on every random_higgs_pair draw; at phi = 0 it need not be
        draw = random_higgs_pair if t % 4 == 0 else _zero_phi_pair
        point, (t1, t2) = draw(scenario, rng)
        term3, omega = omega_by_integrand(point, t1, t2)
        report = cartan_check(point, t1, t2)
        assert symplectic_omega(point, t1, t2) == omega
        assert (report.term3, report.omega_value) == (term3, omega)
        assert report.ok
        for t_ in (t1, t2):
            want = GaussRat(0)
            for i in range(point.curve.n_points):
                want = want + pairing(point.phi_prime[i], t_.g_dot[i]).laurent_coefficient(-1)
            assert liouville_lambda(point, t_) == want
        nonzero += not omega.is_zero()
    assert nonzero


# -- sampling in coefficient space -------------------------------------------


def _spaces(scenario, rng):
    """(section system, Higgs-field system, a section tangent space, a
    Higgs tangent space) over a random bundle of the scenario."""
    curve, rep, bounds = scenario.curve, scenario.rep, scenario.bounds
    g = _random_bundle(scenario, rng.child("bundle"))
    sections = build_section_space(curve, rep, g, bounds)
    fields = build_higgs_field_space(curve, rep.algebra, g, bounds)
    y = make_y_point(curve, rep, g, sample_vector(sections, rng.child("s")), sections)
    h = make_higgs_point(curve, rep.algebra, g, sample_vector(fields, rng.child("phi")), fields)
    _, y_tangents, _, _ = _sample_tangent(scenario, y, rng.child("y"), build_tangent_space)
    _, h_tangents, _, _ = _sample_tangent(scenario, h, rng.child("h"), build_higgs_tangent_space)
    return sections, fields, y_tangents, h_tangents


@pytest.mark.parametrize("fixture", ["f1", "f3"])
def test_sampling_matches_the_value_sums(fixtures_dir, fixture):
    """Both sides, linear and affine, with the fallback draw where every
    coefficient is 0 (max_num = 0)."""
    scenario = load_scenario(str(fixtures_dir / f"{fixture}.json"))
    seen = 0
    for b in range(4):
        rng = SeedStream("coefficient-sampling", fixture, b)
        sections, fields, y_tangents, h_tangents = _spaces(scenario, rng)
        for k, space in enumerate((sections, fields, y_tangents, h_tangents)):
            for max_num in (2, 0):
                draw = rng.child("draw", k, max_num)
                if isinstance(space, TwistedSystem):
                    if not space.dim:
                        continue
                    got = sample_vector(space, draw.child("c"), max_num)
                    assert got == value_sample_vector(basis_values(space), draw.child("c"), max_num)
                else:
                    got = sample_affine(space, draw.child("c"), max_num)
                    basis = basis_values(space.system)
                    want = value_sample_affine(particular_value(space), basis, draw.child("c"), max_num)
                    assert got == want
                seen += 1
    assert seen >= 24


def test_trial_combines_once_per_sampled_vector(fixtures_dir, monkeypatch):
    """A theorem trial forms one value per sampled vector (one section,
    two tangents) and no other."""
    scenario = load_scenario(str(fixtures_dir / "f3.json"))
    rng = SeedStream("combine-once")
    build_instance(scenario, rng.child(0))
    calls = []
    combine = TwistedSystem._combine

    def counted(self, vec):
        calls.append(self)
        return combine(self, vec)

    monkeypatch.setattr(TwistedSystem, "_combine", counted)
    inst = build_instance(scenario, rng.child(1))
    t1, t2 = inst.tangents
    assert pullback_omega(inst.point, t1, t2).is_zero()
    assert identity_check(inst.point, t1, t2).ok
    assert len(calls) == 3
    assert all(system is inst.point.system for system in calls)


def test_random_higgs_pair_on_a_bundle_with_no_higgs_field(fixtures_dir):
    """f2 without its bundle and higgs blocks has the trivial bundle, whose
    Higgs-field space is zero-dimensional: phi samples to the zero value,
    and the pair still passes ``cartan_check`` with every term 0."""
    raw = json.loads((fixtures_dir / "f2.json").read_text())
    del raw["bundle"], raw["higgs"]
    scenario = parse_scenario(json.dumps(raw))
    algebra = scenario.rep.algebra
    assert build_higgs_field_space(scenario.curve, algebra, scenario.bundle, scenario.bounds).dim == 0
    for t in range(3):
        point, (t1, t2) = random_higgs_pair(scenario, SeedStream("no-higgs-field", t))
        assert point.phi_circ.is_zero()
        assert point.phi_circ == algebra.coadjoint_from([0] * algebra.dim)
        report = cartan_check(point, t1, t2)
        assert report.ok
        assert (report.term1, report.term2, report.term3, report.omega_value) == (0, 0, 0, 0)


# -- unit scalars ------------------------------------------------------------


def _poly(rng):
    return K.p_norm([rng.gauss()._t for _ in range(rng.randint(1, 5))])


def test_unit_scalar_kernels_match_gq_mul():
    factors = UNITS + [SeedStream("unit-factors").nonzero_gauss(3, 3) for _ in range(6)] + [GaussRat(0)]
    for trial, c in enumerate(factors):
        rng = SeedStream("unit-kernels", trial)
        for _ in range(5):
            p, q = _poly(rng), _poly(rng)
            if not p or not q:
                continue
            scaled = K.p_norm([K.gq_mul(c._t, x) for x in p])
            assert K.p_scale(c._t, p) == scaled
            k = rng.randint(0, 3)
            assert K.p_dot([(c._t, p, q, k)]) == K.p_dot([(K.GQ_ONE, scaled, q, k)])
            s = RatFunc.monomial(rng.nonzero_gauss(), -rng.randint(0, 2))
            o = RatFunc(p, [K.GQ_ZERO] * rng.randint(0, 2) + [K.GQ_ONE])
            assert dot([(c, s, o)]) == s * o * c

"""The folded transport and the coefficient-list cocycle words against
the code they replaced.

``moduli.derive_prime`` and ``derive_prime_dot`` sum each coordinate of
a transported value as one ``field.kernel_dot`` over the numerators of
its factors wherever the disk is a marked 0 or infinity with a monomial
twist and every factor is Laurent, and form the germs T_i^-w pull_i(x_k)
anywhere else.  Both are checked against the germ transport they
replaced (``helpers.germ_derive_prime``, ``germ_derive_prime_dot``): on
the section, tangent and Higgs data of seeded f1, f2 and f3 instances,
on the curve marked at {0, 1, inf} whose twists are not monomials, and
on the curve marked at {0, inf} (f2's) with germs that have a pole at
z = 1, or with a bundle whose inverse has a pole at u = 1.
``solver.random_cocycle`` multiplies its word out on coefficient lists;
it is checked against the word multiplied with ``RatFunc`` products
(``helpers.product_random_cocycle``), with draws wide enough that column
operations cancel entries to zero.
"""

import random
from fractions import Fraction

import pytest
from helpers import germ_derive_prime, germ_derive_prime_dot, product_random_cocycle

from higgsres import (
    INFINITY,
    GaussRat,
    LoopGroupElement,
    MarkedCurve,
    OneForm,
    P1Point,
    RatFunc,
    builtin_rep,
    elementary,
    load_scenario,
)
from higgsres import _kernels as K
from higgsres import moduli
from higgsres.field import GQ_ONE, _u_power
from higgsres.lie import Coadjoint
from higgsres.moduli import derive_prime, derive_prime_dot, higgs_from_y, pushforward_tangent
from higgsres.solver import CocycleRecipe, GdotRecipe, SeedStream, random_cocycle, random_loop_algebra
from higgsres.suites import build_instance, random_higgs_pair

U = RatFunc.x()
Z = RatFunc.x()
I = GaussRat(0, 1)
ONE = RatFunc.const(1)


def _coords(value):
    return value.coords if hasattr(value, "coords") else value.coeffs


def _same(got: list, want: list) -> None:
    """Equal values, coordinate by coordinate, each with a consistent pole order slot."""
    assert [list(_coords(v)) for v in got] == [list(_coords(v)) for v in want]
    for v in got:
        for c in _coords(v):
            assert c._k == (_u_power(c._d) if len(c._d) > 1 else 0)


def _check(curve, rep, g, x, actions, sums) -> None:
    """derive_prime on x and derive_prime_dot on x with ``actions`` against
    the germ oracle, adding the folded sums (``kernel_dot``) and the germ
    sums (``dot``) the two took to the counts ``sums``."""

    def counted(name):
        fn = getattr(moduli, name)

        def wrapped(terms):
            sums[name] += 1
            return fn(terms)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("kernel_dot", "dot"):
            mp.setattr(moduli, name, counted(name))
        got = derive_prime(curve, rep, g, x), derive_prime_dot(curve, rep, g, x, actions)
    _same(got[0], germ_derive_prime(curve, rep, g, x))
    _same(got[1], germ_derive_prime_dot(curve, rep, g, x, actions))


@pytest.mark.parametrize("name", ["f1", "f2", "f3"])
def test_fixture_transports_match_the_germ_oracle(fixtures_dir, name):
    scenario = load_scenario(str(fixtures_dir / f"{name}.json"))
    curve = scenario.curve
    sums = {"kernel_dot": 0, "dot": 0}
    rng = SeedStream("transport-oracle", name)
    for trial in range(8):
        inst = build_instance(scenario, rng.child(trial))
        p = inst.point
        rep, coadjoint = p.rep, Coadjoint(p.rep.algebra)
        h = higgs_from_y(p)
        for t in inst.tangents:
            # the section side, with the formed actions (as ``make_y_tangent``)
            # and with their terms
            formed = [[[(GQ_ONE, c, ONE)] for c in a.coords] for a in t.actions]
            _check(curve, rep, p.g, t.s_circ_dot.coords, formed, sums)
            terms = [rep.inf_action_terms(xi, s) for xi, s in zip(t.g_dot, p.s_prime)]
            _check(curve, rep, p.g, p.s_circ.coords, terms, sums)
            # the Higgs side: the image of the point and of the tangent
            ht = pushforward_tangent(t)
            brackets = [coadjoint.inf_action_terms(xi, phi) for xi, phi in zip(t.g_dot, h.phi_prime)]
            _check(curve, coadjoint, p.g, ht.phi_circ_dot.coeffs, brackets, sums)
            _check(curve, coadjoint, p.g, h.phi_circ.coeffs, brackets, sums)
        point, tangents = random_higgs_pair(scenario, rng.child("pair", trial))
        for t in tangents:
            brackets = [point.rep.inf_action_terms(xi, phi) for xi, phi in zip(t.g_dot, point.phi_prime)]
            _check(curve, point.rep, point.g, t.phi_circ_dot.coeffs, brackets, sums)
    # every disk of the shipped fixtures takes the folded sums
    assert sums["kernel_dot"] > 0 and sums["dot"] == 0


def _curve_0_inf() -> MarkedCurve:
    return MarkedCurve(
        [P1Point.finite(0), INFINITY],
        OneForm(RatFunc(1, [0, 0, 1])),
        [U, RatFunc.const(I)],
    )


def _curve_0_1_inf() -> MarkedCurve:
    """Marked at {0, 1, inf}, alpha = dz/(z^2 (z-1)^2), with the
    transitions u*(u-1), u*(u+1) and i*(1-u)/u: no twist is a monomial."""
    return MarkedCurve(
        [P1Point.finite(0), P1Point.finite(1), INFINITY],
        OneForm(RatFunc(1, [0, 0, 1, -2, 1])),
        [U * (U - 1), U * (U + 1), I * (1 - U) / U],
    )


def _germ(rng: random.Random, at_one: bool = True) -> RatFunc:
    """0, a Laurent polynomial in z, or (``at_one``) one over (z - 1)."""
    kind = rng.randrange(4) if at_one else rng.choice((0, 2, 3))
    if kind == 0:
        return RatFunc.const(0)
    c = GaussRat(Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)), rng.randint(-1, 1))
    f = RatFunc.monomial(c, rng.randint(-2, 2)) + RatFunc.monomial(GaussRat(rng.randint(1, 3)), rng.randint(-2, 2))
    return f / (Z - 1) if kind == 1 else f


@pytest.mark.parametrize("curve_name", ["0-inf", "0-1-inf", "0-inf-non-laurent"])
@pytest.mark.parametrize("rep_name", ["sl2-standard", "sl3-cotangent"])
def test_transports_off_the_folded_path_match_the_germ_oracle(curve_name, rep_name):
    """On {0, 1, inf} every disk forms its germs; on {0, inf} a germ with
    a pole at z = 1 sends its disk to the germs too, and so does, on
    Laurent germs, the bundle I + 1/(u-1) E_12 at 0 (the identity at
    infinity), whose inverse has the entry -1/(u-1); the rest fold."""
    curve = _curve_0_1_inf() if curve_name == "0-1-inf" else _curve_0_inf()
    non_laurent = curve_name == "0-inf-non-laurent"
    sums = {"kernel_dot": 0, "dot": 0}
    rep = builtin_rep(rep_name)
    algebra = rep.algebra
    recipe = GdotRecipe(terms=3, pole_order=2, degree=2)
    rng = random.Random(f"off-path-{curve_name}-{rep_name}")
    for trial in range(10):
        stream = SeedStream("off-path", curve_name, rep_name, trial)
        if non_laurent:
            g = [elementary(algebra.n, 1, 2, 1 / (U - 1)), LoopGroupElement.identity(algebra.n)]
        else:
            g = [random_cocycle(algebra.n, CocycleRecipe(), stream.child("g", i)) for i in range(curve.n_points)]
        g_dot = [random_loop_algebra(algebra, recipe, stream.child("gdot", i)) for i in range(curve.n_points)]
        for side in (rep, Coadjoint(algebra)):
            x = [_germ(rng, not non_laurent) for _ in range(side.dim)]
            disk = derive_prime(curve, side, g, x)
            actions = [side.inf_action_terms(xi, v) for xi, v in zip(g_dot, disk)]
            _check(curve, side, g, [_germ(rng, not non_laurent) for _ in range(side.dim)], actions, sums)
    assert sums["dot"] > 0
    assert (sums["kernel_dot"] > 0) == (curve_name != "0-1-inf")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_words_match_the_product_oracle(n, monkeypatch):
    """Seeded words with exponents up to 2: the coefficient lists give the
    oracle's entries, and some column operations cancel a coefficient."""
    cancelled = [0]
    gq_add = K.gq_add

    def counted(x, y):
        out = gq_add(x, y)
        cancelled[0] += K.gq_is_zero(out)
        return out

    monkeypatch.setattr(K, "gq_add", counted)
    recipe = CocycleRecipe(max_exponent=2, torus_amplitude=2)
    for seed in range(300):
        got = random_cocycle(n, recipe, SeedStream("cocycle-oracle", n, seed))
        want = product_random_cocycle(n, recipe, SeedStream("cocycle-oracle", n, seed))
        assert got.mat == want.mat
        assert all(x._k == (_u_power(x._d) if len(x._d) > 1 else 0) for row in got.mat for x in row)
    assert cancelled[0] > 0

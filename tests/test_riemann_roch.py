"""Section dimensions against Riemann–Roch on P^1.

A torus cocycle diag(u^a, 1, ..., u^-a) at each marked point gives a
bundle of total degree d, the sum of the exponents a.  Twisted by K^1/2
its standard part is O(d-1) (+) O(-d-1), plus copies of O(-1), which
have no sections, so h^0 = |d| for sl2-standard; the cotangent
representation doubles it.  For cotangent representations Serre
duality pairs the sections, so the dimension is even on every bundle.
Bounds degree = pole_order = 8 hold every section of the bundles below.
"""

import pytest

from higgsres import SolverBounds, build_section_space, builtin_rep, load_scenario, torus
from higgsres.solver import CocycleRecipe, SeedStream, random_cocycle

BOUNDS = SolverBounds(degree=8, pole_order=8)
REPS = {"sl2-standard": 1, "sl3-cotangent": 2}


@pytest.fixture(scope="module")
def curves(fixtures_dir):
    """The one-point curve of f1 and the {0, inf} curve of f3."""
    return {f: load_scenario(str(fixtures_dir / f"{f}.json")).curve for f in ("f1", "f3")}


def _torus(n, a):
    """diag(u^a, 1, ..., 1, u^-a)."""
    return torus(n, [a] + [0] * (n - 2) + [-a])


@pytest.mark.parametrize("rep_name", sorted(REPS))
@pytest.mark.parametrize("a", range(-3, 4))
def test_one_point_torus_dimension(curves, rep_name, a):
    rep = builtin_rep(rep_name)
    space = build_section_space(curves["f1"], rep, [_torus(rep.algebra.n, a)], BOUNDS)
    assert space.dim == REPS[rep_name] * abs(a)


@pytest.mark.parametrize("rep_name", sorted(REPS))
@pytest.mark.parametrize("a", range(-2, 3))
def test_two_point_torus_dimension(curves, rep_name, a):
    rep = builtin_rep(rep_name)
    n = rep.algebra.n
    for b in range(-2, 3):
        space = build_section_space(curves["f3"], rep, [_torus(n, a), _torus(n, b)], BOUNDS)
        assert space.dim == REPS[rep_name] * abs(a + b), b


@pytest.mark.parametrize("curve_name", ["f1", "f3"])
def test_cotangent_dimension_is_even(curves, curve_name):
    rep = builtin_rep("sl3-cotangent")
    curve = curves[curve_name]
    rng = SeedStream("riemann-roch-even", curve_name)
    dims = []
    for k in range(8):
        g = [random_cocycle(3, CocycleRecipe(), rng.child(k, i)) for i in range(curve.n_points)]
        dims.append(build_section_space(curve, rep, g, BOUNDS).dim)
    assert all(d % 2 == 0 for d in dims), dims
    assert any(dims), dims

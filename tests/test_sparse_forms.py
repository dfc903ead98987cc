"""The sparse representation data against the dense formulas it replaced.

``HamiltonianRep`` keeps omega, each rho(xi_a) and Q_a = rho(xi_a)^T omega
as lists of non-zero entries, ``lie.pairing`` reads only the diagonal of
phi.xi, and the random builders in ``solver`` fill their matrices by
coefficient and by column operation.  The dense bodies below are the
former implementations, kept as oracles: every value must be equal, and
the builders must draw from their stream exactly as before.
"""

import pytest
from helpers import basis_element, dualize, inf_action, mat_vec, unit_vector, zero_element

from higgsres import (
    GaussRat,
    HamiltonianRep,
    NotInAlgebra,
    RatFunc,
    ShapeError,
    SymplecticSpace,
    XVector,
    builtin_rep,
    pairing,
    rep_validate,
)
from higgsres.lie import CoadjointElement, LoopAlgebraElement, LoopGroupElement, MatrixLieAlgebra, elementary, torus
from higgsres.matrices import mat_from, mat_mul, mat_transpose
from higgsres.solver import (
    CocycleRecipe,
    GdotRecipe,
    SeedStream,
    random_cocycle,
    random_loop_algebra,
)

U = RatFunc.x()
ZERO = RatFunc.const(0)
HALF = RatFunc.const(GaussRat(1) / 2)


# -- the dense bodies --------------------------------------------------------


def dense_pair(space, u, v):
    ov = mat_vec(space.omega, v.coords)
    acc = ZERO
    for a, b in zip(u.coords, ov):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


def dense_moment(rep, x):
    values = {}
    for lab in rep.algebra.labels:
        rx = XVector(mat_vec(rep.rho[lab], x.coords))
        values[lab] = HALF * dense_pair(rep.space, rx, x)
    return dualize(rep.algebra, values)


def dense_dmoment(rep, x, v):
    values = {}
    for lab in rep.algebra.labels:
        rx = XVector(mat_vec(rep.rho[lab], x.coords))
        values[lab] = dense_pair(rep.space, rx, v)
    return dualize(rep.algebra, values)


def dense_act_algebra(rep, xi):
    dim = rep.space.dim
    out = [[ZERO] * dim for _ in range(dim)]
    for c, lab in zip(xi.coeffs, rep.algebra.labels):
        if c.is_zero():
            continue
        m = rep.rho[lab]
        for i in range(dim):
            for j in range(dim):
                if not m[i][j].is_zero():
                    out[i][j] = out[i][j] + c * m[i][j]
    return tuple(tuple(row) for row in out)


def dense_inf_action(rep, xi, x):
    return XVector(mat_vec(dense_act_algebra(rep, xi), x.coords))


def dense_pairing(phi, xi):
    product = mat_mul(phi.mat, xi.mat)
    acc = ZERO
    for j in range(len(product)):
        acc = acc + product[j][j]
    return acc


def dense_random_cocycle(n, recipe, rng):
    u = RatFunc.x()
    word = LoopGroupElement.identity(n)
    has_torus = False
    for _ in range(recipe.length):
        kind = rng.choice(["torus", "elementary", "elementary"])
        if kind == "torus":
            has_torus = True
            exps = [rng.randint(-recipe.torus_amplitude, recipe.torus_amplitude) for _ in range(n - 1)]
            exps.append(-sum(exps))
            word = word * torus(n, exps)
        else:
            j = rng.randint(1, n)
            k = rng.randint(1, n - 1)
            if k >= j:
                k += 1
            m = rng.randint(-recipe.max_exponent, recipe.max_exponent)
            c = rng.nonzero_gauss(recipe.max_num, recipe.max_den)
            word = word * elementary(n, j, k, c * u ** m)
    if not has_torus:
        exps = [1] + [0] * (n - 2) + [-1]
        word = word * torus(n, exps)
    return word


def dense_random_loop_algebra(algebra, recipe, rng):
    u = RatFunc.x()
    acc = zero_element(algebra)
    for _ in range(recipe.terms):
        k = rng.randint(0, algebra.dim - 1)
        m = rng.randint(-recipe.pole_order, recipe.degree)
        c = rng.nonzero_gauss(recipe.max_num, recipe.max_den)
        acc = acc + (c * u ** m) * basis_element(algebra, algebra.labels[k])
    return acc


# -- representations ---------------------------------------------------------


def _explicit_block():
    """sl2 on C^4 through a constant change of basis P of sl2-standard-x2.

    omega' = P^T omega P and rho'(xi) = P^-1 rho(xi) P stay Hamiltonian,
    and their entries are not all 0 or +-1.
    """
    base = builtin_rep("sl2-standard-x2")
    i = GaussRat(0, 1)
    p = mat_from([[1, 2, 0, 0], [0, 1, 0, 0], [0, i, 1, 0], [3, 0, 0, 1]])
    p_inv = LoopGroupElement(p).inverse().mat
    space = SymplecticSpace(mat_mul(mat_mul(mat_transpose(p), base.space.omega), p))
    rho = {lab: mat_mul(mat_mul(p_inv, m), p) for lab, m in base.rho.items()}
    return HamiltonianRep(base.algebra, space, rho)


def _outside_sp():
    """An explicit sl2 rho whose Q_a are not symmetric (rho outside sp(omega))."""
    base = builtin_rep("sl2-standard")
    rho = {
        "E": mat_from([[1, 2], [0, 0]]),
        "H": mat_from([[0, 0], [3, 1]]),
        "F": mat_from([[0, 1], [GaussRat(0, 1), 2]]),
    }
    return HamiltonianRep(base.algebra, base.space, rho)


REPS = {
    "sl2-standard": lambda: builtin_rep("sl2-standard"),
    "sl2-standard-x2": lambda: builtin_rep("sl2-standard-x2"),
    "sl3-cotangent": lambda: builtin_rep("sl3-cotangent"),
    "sl4-cotangent": lambda: builtin_rep("sl4-cotangent"),
    "explicit-block": _explicit_block,
    "explicit-outside-sp": _outside_sp,
}


def test_oracle_representations_are_what_they_claim():
    assert rep_validate(REPS["explicit-block"]()) == []
    assert any("sp(omega)" in v for v in rep_validate(REPS["explicit-outside-sp"]()))


# -- seeded inputs -----------------------------------------------------------


def _function(rng, laurent):
    """Zero one time in four, else a Laurent n/u^k or a pole off u = 0."""
    if rng.randint(0, 3) == 0:
        return ZERO
    num = RatFunc([rng.nonzero_gauss(2, 2) for _ in range(rng.randint(1, 3))])
    if laurent:
        return num * U ** -rng.randint(0, 2)
    return num / RatFunc([rng.nonzero_gauss(2, 1), 1])


def _vector(rep, rng, laurent):
    return XVector([_function(rng, laurent) for _ in range(rep.space.dim)])


def _coefficients(algebra, rng, laurent):
    return [_function(rng, laurent) for _ in range(algebra.dim)]


@pytest.mark.parametrize("name", sorted(REPS))
def test_sparse_forms_match_dense_oracle(name):
    rep = REPS[name]()
    algebra = rep.algebra
    nonzero = 0
    for trial in range(12):
        rng = SeedStream("sparse-forms", name, trial)
        laurent = trial % 2 == 0
        x, v = _vector(rep, rng, laurent), _vector(rep, rng, laurent)
        xi = LoopAlgebraElement(algebra, algebra.combination(_coefficients(algebra, rng, laurent)))
        phi = CoadjointElement(algebra, algebra.combination(_coefficients(algebra, rng, not laurent)))
        assert rep.moment(x) == dense_moment(rep, x)
        assert rep.dmoment(x, v) == dense_dmoment(rep, x, v)
        assert rep.space.pair(x, v) == dense_pair(rep.space, x, v)
        assert inf_action(rep, xi, x) == dense_inf_action(rep, xi, x)
        assert pairing(phi, xi) == dense_pairing(phi, xi)
        nonzero += not rep.moment(x).is_zero() and not rep.dmoment(x, v).is_zero()
    assert nonzero >= 6  # the comparisons are not 0 == 0


@pytest.mark.parametrize("name", sorted(REPS))
def test_moment_values_are_half_the_dmoment_values(name):
    rep = REPS[name]()
    algebra = rep.algebra
    half = GaussRat(1) / 2
    nonzero = 0
    for trial in range(8):
        rng = SeedStream("moment-values", name, trial)
        laurent = trial % 2 == 0
        x, v = _vector(rep, rng, laurent), _vector(rep, rng, laurent)
        values = rep.moment_values(x)
        assert values == [c * half for c in rep.dmoment_values(x, x)]
        assert rep.moment(x) == dualize(algebra, dict(zip(algebra.labels, values)))
        dvalues = rep.dmoment_values(x, v)
        assert rep.dmoment(x, v) == dualize(algebra, dict(zip(algebra.labels, dvalues)))
        # <dmu_x(v), xi_a> = omega(rho(xi_a) x, v), densely
        for lab, got in zip(algebra.labels, dvalues):
            assert got == dense_pair(rep.space, XVector(mat_vec(rep.rho[lab], x.coords)), v)
        nonzero += any(not c.is_zero() for c in values)
    assert nonzero >= 4


@pytest.mark.parametrize("name", sorted(REPS))
def test_sparse_forms_keep_their_errors(name):
    rep = REPS[name]()
    dim = rep.space.dim
    good, short, long = unit_vector(dim, 0), unit_vector(dim - 1, 0), unit_vector(dim + 1, 0)
    xi = LoopAlgebraElement(rep.algebra, rep.algebra.basis[0])
    for bad in (short, long):
        with pytest.raises(ShapeError):
            rep.moment(bad)
        with pytest.raises(ShapeError):
            rep.dmoment(bad, good)
        with pytest.raises(ShapeError):
            rep.dmoment(good, bad)
        with pytest.raises(ShapeError):
            rep.space.pair(good, bad)
        with pytest.raises(ShapeError):
            inf_action(rep, xi, bad)
    other = MatrixLieAlgebra.sl(rep.algebra.n + 1)
    with pytest.raises(NotInAlgebra):
        inf_action(rep, LoopAlgebraElement(other, other.basis[0]), good)
    with pytest.raises(ShapeError):
        pairing(CoadjointElement(other, other.basis[0]), xi)


def test_builders_match_dense_oracle():
    cocycle = CocycleRecipe(length=4, max_exponent=2, torus_amplitude=2, max_num=3, max_den=2)
    gdot = GdotRecipe(terms=4, pole_order=2, degree=2)
    algebras = {n: MatrixLieAlgebra.sl(n) for n in (2, 3, 4)}
    for seed in range(200):
        n = 2 + seed % 3
        recipe = cocycle if seed % 2 else CocycleRecipe()
        new, old = SeedStream("builders", seed), SeedStream("builders", seed)
        assert random_cocycle(n, recipe, new).mat == dense_random_cocycle(n, recipe, old).mat
        assert new.randint(0, 10**9) == old.randint(0, 10**9)
        recipe = gdot if seed % 2 else GdotRecipe()
        got = random_loop_algebra(algebras[n], recipe, new)
        assert got == dense_random_loop_algebra(algebras[n], recipe, old)
        assert new.randint(0, 10**9) == old.randint(0, 10**9)

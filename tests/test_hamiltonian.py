"""Moment maps and the Hamiltonian identities."""

from fractions import Fraction

import pytest
from helpers import basis_element, coadjoint_transition, inf_action, mat_vec, rho_group, unit_vector, zero_vector

from higgsres import (
    GaussRat,
    HamiltonianRep,
    Jet2,
    RatFunc,
    ValidationError,
    XVector,
    bracket,
    builtin_rep,
    pairing,
    rep_validate,
)
from higgsres.hamiltonian import SymplecticSpace
from higgsres.lie import Coadjoint, CoadjointElement, MatrixLieAlgebra, bracket_terms
from higgsres.matrices import adjugate, block_diag, mat_eq, mat_from, mat_neg, mat_transpose
from higgsres.moduli import derive_prime, derive_prime_dot
from higgsres.solver import CocycleRecipe, GdotRecipe, SeedStream, random_cocycle, random_loop_algebra

U = RatFunc.x()

REPS = ["sl2-standard", "sl2-standard-x2", "sl3-cotangent"]


@pytest.fixture(scope="module", params=REPS)
def rep(request):
    return builtin_rep(request.param)


def _random_vector(rep, rng, polynomial=True):
    coords = []
    for _ in range(rep.space.dim):
        c0, c1 = rng.gauss(2, 2), rng.gauss(2, 2)
        coords.append(RatFunc.const(c0) + U * c1 if polynomial else RatFunc.const(c0))
    return XVector(coords)


def test_builtin_reps_validate(rep):
    assert rep_validate(rep) == []


def test_broken_rep_is_reported():
    base = builtin_rep("sl2-standard")
    rho_bad = dict(base.rho)
    rho_bad["E"] = mat_from([[1, 0], [0, 1]])
    bad = HamiltonianRep(base.algebra, base.space, rho_bad)
    violations = rep_validate(bad)
    assert violations
    assert any("sp(omega)" in v for v in violations)


def test_inf_action_base_cases():
    rep = builtin_rep("sl2-standard")
    sl2 = rep.algebra
    e1, e2 = unit_vector(2, 0), unit_vector(2, 1)
    assert inf_action(rep, basis_element(sl2, "F"), e1) == e2
    assert inf_action(rep, basis_element(sl2, "E"), e1).is_zero()
    assert inf_action(rep, U * basis_element(sl2, "H"), e1) == U * e1


def test_moment_of_first_unit_vector():
    # oracle: evaluate 1/2 omega(rho(xi) e1, e1) on the sl2 basis by hand
    # and solve the 3x3 trace-form system with plain Fractions
    rep = builtin_rep("sl2-standard")
    sl2 = rep.algebra
    e1 = unit_vector(2, 0)

    def omega(u, v):
        return u[0] * v[1] - u[1] * v[0]

    basis_vals = {}
    for lab, mat in (("E", ((0, 1), (0, 0))), ("H", ((1, 0), (0, -1))), ("F", ((0, 0), (1, 0)))):
        rx = (mat[0][0], mat[1][0])  # rho(xi) e1 = first column
        basis_vals[lab] = Fraction(1, 2) * omega(rx, (1, 0))
    assert basis_vals == {"E": 0, "H": 0, "F": Fraction(-1, 2)}
    # gram for (E, H, F): <E,F>=1, <H,H>=2, rest 0; solve gram * c = vals:
    # c_F*1 = vals[E]; 2 c_H = vals[H]; c_E*1 = vals[F]
    c = {"E": basis_vals["F"], "H": basis_vals["H"] / 2, "F": basis_vals["E"]}
    assert c == {"E": Fraction(-1, 2), "H": 0, "F": 0}
    # so mu(e1) = -1/2 E as a trace-form matrix
    mu = rep.moment(e1)
    assert mu == GaussRat(Fraction(-1, 2)) * CoadjointElement(sl2, sl2.basis[0])


def test_moment_degenerate_cases(rep):
    zero = zero_vector(rep.space.dim)
    assert rep.moment(zero).is_zero()
    rng = SeedStream("moment-scale", rep.name)
    x = _random_vector(rep, rng)
    t = rng.nonzero_gauss(3, 2)
    assert rep.moment(t * x) == (t * t) * rep.moment(x)


def test_dmoment_euler_identity(rep):
    rng = SeedStream("euler", rep.name)
    x = _random_vector(rep, rng)
    assert rep.dmoment(x, x) == 2 * rep.moment(x)
    assert rep.dmoment(zero_vector(rep.space.dim), x).is_zero()


def test_dmoment_of_unit_vectors_matches_bilinear_oracle():
    rep = builtin_rep("sl2-standard")
    sl2 = rep.algebra
    e1, e2 = unit_vector(2, 0), unit_vector(2, 1)
    got = rep.dmoment(e1, e2)
    # oracle: omega(rho(xi) e1, e2) on the basis: E -> 0, H -> 1, F -> -...
    # rho(E)e1 = 0; rho(H)e1 = e1, omega(e1, e2) = 1; rho(F)e1 = e2, omega(e2,e2)=0
    for lab, want in (("E", 0), ("H", 1), ("F", 0)):
        assert pairing(got, basis_element(sl2, lab)) == RatFunc.const(want)


def _pulled(curve, i, entries):
    return [curve.chart(i).pull(e) for e in entries]


def test_equivariance(rep, curve_two_points):
    """mu(rho(g)^-1 x) = g^-1 mu(x) g pointwise, and through the shared
    transport of ``moduli`` on a curve: s'_i and sdot'_i equal the dense
    rule T_i^-1 rho(g_i)^-1 pull(s) and T_i^-1 rho(g_i)^-1 pull(sdot) -
    rho(gdot_i) s'_i, and the coadjoint transport of mu(s) and dmu_s(sdot),
    twisted by T_i^-2, gives mu(s'_i) and dmu_(s'_i)(sdot'_i)."""
    curve = curve_two_points
    coadjoint = Coadjoint(rep.algebra)
    rng = SeedStream("equivariance", rep.name)
    n = rep.algebra.n
    for trial in range(8):
        sub = rng.child(trial)
        g = random_cocycle(n, CocycleRecipe(), sub.child("g"))
        x = _random_vector(rep, sub.child("x"))
        lhs = rep.moment(XVector(mat_vec(rho_group(rep, g.inverse()), x.coords)))
        rhs = coadjoint_transition(g, rep.moment(x))
        assert lhs == rhs

        gs = [g] * curve.n_points
        x_dot = _random_vector(rep, sub.child("x_dot"))
        g_dot = [random_loop_algebra(rep.algebra, GdotRecipe(), sub.child("g_dot", i)) for i in range(curve.n_points)]
        s_prime = derive_prime(curve, rep, gs, x.coords)
        actions = [rep.inf_action_terms(xi, s) for xi, s in zip(g_dot, s_prime)]
        s_prime_dot = derive_prime_dot(curve, rep, gs, x_dot.coords, actions)
        phi_prime = derive_prime(curve, coadjoint, gs, rep.moment(x).coeffs)
        brackets = [bracket_terms(xi, phi) for xi, phi in zip(g_dot, phi_prime)]
        phi_prime_dot = derive_prime_dot(curve, coadjoint, gs, rep.dmoment(x, x_dot).coeffs, brackets)
        rho_inv = rho_group(rep, g.inverse())
        for i in range(curve.n_points):
            t_inv = curve.transition(i).inverse()
            want = XVector([t_inv * c for c in mat_vec(rho_inv, _pulled(curve, i, x.coords))])
            assert s_prime[i] == want
            moved = XVector([t_inv * c for c in mat_vec(rho_inv, _pulled(curve, i, x_dot.coords))])
            assert s_prime_dot[i] == moved - inf_action(rep, g_dot[i], want)
            assert rep.moment(s_prime[i]) == phi_prime[i]
            assert rep.dmoment(s_prime[i], s_prime_dot[i]) == phi_prime_dot[i]


@pytest.mark.parametrize(
    "name", ["sl2-standard", "sl2-standard-x2", "sl2-standard-x3", "sl3-cotangent", "sl4-cotangent"]
)
def test_block_sums_match_the_family_constructions(name):
    """rho(xi) and omega, both built from ``blocks``, equal the formulas of
    each family: diag(xi, ..., xi) and K standard planes [[0, 1], [-1, 0]],
    or diag(xi, -xi^T) and [[0, I], [-I, 0]] for the cotangent."""
    rep = builtin_rep(name)
    alg = rep.algebra
    cotangent = name.endswith("-cotangent")
    copies = 1 if cotangent or "-x" not in name else int(name.rpartition("-x")[2])
    for lab, xi in zip(alg.labels, alg.basis):
        want = block_diag(xi, mat_neg(mat_transpose(xi))) if cotangent else block_diag(*([xi] * copies))
        assert mat_eq(rep.rho[lab], want)
    n = alg.n
    if cotangent:
        omega = [[(j == k + n) - (k == j + n) for j in range(2 * n)] for k in range(2 * n)]
    else:
        omega = block_diag(*([mat_from([[0, 1], [-1, 0]])] * copies))
    assert mat_eq(rep.space.omega, mat_from(omega))


@pytest.mark.parametrize(
    "name", ["sl2-standard", "sl2-standard-x2", "sl2-standard-x3", "sl3-cotangent", "sl2", "sl3"]
)
def test_columns_are_those_of_the_dense_inverse_image(name):
    """On seeded random cocycles, ``column(g, k)`` is the non-zero entries
    of column k of rho(g)^-1 by the dense oracle: diag(g^-1, ..., g^-1)
    for K standard planes and diag(g^-1, g^T) for the cotangent, with
    g^-1 the adjugate of g (det g = 1); on the coadjoint side (sl2, sl3)
    the coordinates of g^-1 b_k g.  A built-in representation keeps its
    columns on g, under its blocks."""
    coadjoint = "-" not in name
    rep = Coadjoint(MatrixLieAlgebra.sl(int(name[2:]))) if coadjoint else builtin_rep(name)
    alg = rep.algebra
    rng = SeedStream("rep-columns", name)
    for trial in range(6):
        g = random_cocycle(alg.n, CocycleRecipe(), rng.child(trial))
        if coadjoint:
            dense = [coadjoint_transition(g, CoadjointElement(alg, b)).coeffs for b in alg.basis]
        else:
            g_inv = adjugate(g.mat)
            if name.endswith("-cotangent"):
                blocks = [g_inv, mat_transpose(g.mat)]
            else:
                blocks = [g_inv] * (int(name.rpartition("-x")[2]) if "-x" in name else 1)
            dense = mat_transpose(block_diag(*blocks))
        assert rep.dim == len(dense)
        for k, column in enumerate(dense):
            assert rep.column(g, k) == tuple((r, x) for r, x in enumerate(column) if not x.is_zero())
            assert rep.column(g, k) is rep.column(g, k)
        if not coadjoint:
            assert list(g.images) == [rep.blocks]


def test_moment_condition(rep):
    rng = SeedStream("moment-cond", rep.name)
    for trial in range(8):
        sub = rng.child(trial)
        x = _random_vector(rep, sub.child("x"))
        xi = random_loop_algebra(rep.algebra, GdotRecipe(), sub.child("xi"))
        eta = random_loop_algebra(rep.algebra, GdotRecipe(), sub.child("eta"))
        lhs = pairing(rep.moment(x), bracket(xi, eta))
        rhs = rep.space.pair(inf_action(rep, xi, x), inf_action(rep, eta, x))
        assert lhs == rhs


def test_omega_invariance(rep):
    rng = SeedStream("omega-inv", rep.name)
    n = rep.algebra.n
    for trial in range(8):
        sub = rng.child(trial)
        g = random_cocycle(n, CocycleRecipe(), sub.child("g"))
        u = _random_vector(rep, sub.child("u"))
        v = _random_vector(rep, sub.child("v"))
        gm = rho_group(rep, g)
        gu = XVector(mat_vec(gm, u.coords))
        gv = XVector(mat_vec(gm, v.coords))
        assert rep.space.pair(gu, gv) == rep.space.pair(u, v)


def test_dmoment_is_jet_derivative_of_moment(rep):
    # independent path: compute <mu(x + e1 v), xi> with two-parameter jets
    # and read off the e1 coefficient
    rng = SeedStream("jet-dmoment", rep.name)
    x = _random_vector(rep, rng.child("x"))
    v = _random_vector(rep, rng.child("v"))
    jet_coords = [Jet2.lift1(a, b) for a, b in zip(x.coords, v.coords)]
    half = GaussRat(Fraction(1, 2))
    dm = rep.dmoment(x, v)
    omega = rep.space.omega
    dim = rep.space.dim
    for lab in rep.algebra.labels:
        rho = rep.rho[lab]
        rx = [
            sum((Jet2(rho[i][j]) * jet_coords[j] for j in range(dim) if not rho[i][j].is_zero()), Jet2(RatFunc.const(0)))
            for i in range(dim)
        ]
        total = Jet2(RatFunc.const(0))
        for i in range(dim):
            for j in range(dim):
                if not omega[i][j].is_zero():
                    total = total + rx[i] * Jet2(omega[i][j]) * jet_coords[j]
        value = Jet2(RatFunc.const(half)) * total
        assert value.d1 == pairing(dm, basis_element(rep.algebra, lab))


def test_standard_rep_rejected_for_higher_rank():
    with pytest.raises(ValidationError):
        builtin_rep("sl3-standard")


def test_zero_dimensional_symplectic_space_rejected():
    # no section of a 0-dimensional space can fail a check
    with pytest.raises(ValidationError, match="non-zero size"):
        SymplecticSpace([])
    with pytest.raises(ValidationError, match="non-zero size"):
        builtin_rep("sl2-standard-x0")


def test_z_dependent_entries_rejected():
    """A representation is linear symplectic: an omega or rho entry that
    varies with z is refused, so every form weight is a scalar."""
    base = builtin_rep("sl2-standard")
    with pytest.raises(ValidationError, match=r"omega entry \(0, 1\) varies with z"):
        SymplecticSpace([[0, U], [-U, 0]])
    rho = dict(base.rho, H=mat_from([[U, 0], [0, -U]]))
    with pytest.raises(ValidationError, match=r"rho\(H\) entry \(0, 0\) varies with z"):
        HamiltonianRep(base.algebra, base.space, rho)
    assert all(type(c) is GaussRat for entries in base._rho for _, _, c in entries)

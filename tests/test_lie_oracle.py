"""sl_n coordinates, structure constants and duals against a sympy oracle.

The oracle builds the standard basis of sl_n itself (raising E_jk for
j < k, Cartan H_j = e_jj - e_(j+1)(j+1), lowering F_jk for j > k) and
finds coordinates by solving the linear system sum_a c_a B_a = M with
sympy.  It shares no code with ``higgsres.lie``.  The inputs are seeded
constant matrices over Q(i).
"""

import random
from fractions import Fraction

import pytest
import sympy
from helpers import dualize, structure

from higgsres import (
    CoadjointElement,
    GaussRat,
    LoopAlgebraElement,
    MatrixLieAlgebra,
    NotInAlgebra,
    RatFunc,
)
from higgsres.matrices import mat_from

SIZES = (2, 3, 4)


def _unit(n, j, k):
    return sympy.Matrix(n, n, lambda r, c: 1 if (r, c) == (j, k) else 0)


def oracle_basis(n):
    """(labels, basis) of sl_n in the order raising, Cartan, lowering."""
    labels, basis = [], []

    def add(name, mat):
        labels.append(name[0] if n == 2 else name)
        basis.append(mat)

    for j in range(n):
        for k in range(j + 1, n):
            add(f"E{j + 1}{k + 1}", _unit(n, j, k))
    for j in range(n - 1):
        add(f"H{j + 1}", _unit(n, j, j) - _unit(n, j + 1, j + 1))
    for j in range(n):
        for k in range(j):
            add(f"F{j + 1}{k + 1}", _unit(n, j, k))
    return labels, basis


def oracle_coords(basis, mat):
    """The coordinates of mat in basis, or None when mat is outside the span."""
    cs = sympy.symbols(f"c0:{len(basis)}")
    combo = sympy.zeros(*mat.shape)
    for c, b in zip(cs, basis):
        combo += c * b
    solutions = sympy.solve(list(combo - mat), cs, dict=True)
    if not solutions:
        return None
    (sol,) = solutions
    return [sol[c] for c in cs]


def to_sympy(value):
    """A constant RatFunc or GaussRat as an exact sympy number."""
    g = value.constant_value() if isinstance(value, RatFunc) else value
    return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(
        g.im.numerator, g.im.denominator
    )


def to_ratfunc(x):
    re, im = sympy.re(x), sympy.im(x)
    return RatFunc.const(
        GaussRat(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    )


def random_gauss(rng):
    return sympy.Rational(rng.randint(-9, 9), rng.randint(1, 5)) + sympy.I * sympy.Rational(
        rng.randint(-9, 9), rng.randint(1, 5)
    )


def random_matrix(rng, n, traceless):
    mat = sympy.Matrix(n, n, lambda r, c: random_gauss(rng))
    if traceless:
        mat[n - 1, n - 1] -= mat.trace()
    return mat


def to_higgsres(mat):
    return mat_from([[to_ratfunc(mat[r, c]) for c in range(mat.cols)] for r in range(mat.rows)])


def from_higgsres(mat):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in mat])


@pytest.mark.parametrize("n", SIZES)
def test_basis_and_labels_match_oracle(n):
    alg = MatrixLieAlgebra.sl(n)
    labels, basis = oracle_basis(n)
    assert alg.labels == labels
    assert alg.dim == n * n - 1
    assert [from_higgsres(b) for b in alg.basis] == basis


@pytest.mark.parametrize("n", SIZES)
def test_coordinates_match_oracle(n):
    alg = MatrixLieAlgebra.sl(n)
    _, basis = oracle_basis(n)
    rng = random.Random(f"oracle-coords-{n}")
    for _ in range(6):
        mat = random_matrix(rng, n, traceless=True)
        got = alg.expand_in_basis(to_higgsres(mat))
        assert [to_sympy(c) for c in got] == oracle_coords(basis, mat)


@pytest.mark.parametrize("n", SIZES)
def test_combination_round_trips(n):
    alg = MatrixLieAlgebra.sl(n)
    _, basis = oracle_basis(n)
    rng = random.Random(f"oracle-combination-{n}")
    for _ in range(6):
        coeffs = [random_gauss(rng) for _ in basis]
        want = sympy.zeros(n, n)
        for c, b in zip(coeffs, basis):
            want += c * b
        mat = alg.combination([to_ratfunc(c) for c in coeffs])
        assert from_higgsres(mat) == want
        assert [to_sympy(c) for c in alg.expand_in_basis(mat)] == coeffs


@pytest.mark.parametrize("n", SIZES)
def test_structure_constants_match_oracle(n):
    alg = MatrixLieAlgebra.sl(n)
    _, basis = oracle_basis(n)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            want = oracle_coords(basis, basis[a] * basis[b] - basis[b] * basis[a])
            assert [to_sympy(c) for c in structure(alg)[(a, b)]] == want
            assert [to_sympy(c) for c in structure(alg)[(b, a)]] == [-c for c in want]


@pytest.mark.parametrize("n", SIZES)
def test_dualize_matches_trace_pairing(n):
    alg = MatrixLieAlgebra.sl(n)
    labels, basis = oracle_basis(n)
    rng = random.Random(f"oracle-dualize-{n}")
    for _ in range(6):
        values = {lab: random_gauss(rng) for lab in labels}
        mat = from_higgsres(dualize(alg, {k: to_ratfunc(v) for k, v in values.items()}).mat)
        assert mat.trace() == 0
        for lab, b in zip(labels, basis):
            assert sympy.expand((mat * b).trace()) == values[lab], lab


@pytest.mark.parametrize("n", SIZES)
def test_nonzero_trace_is_not_in_algebra(n):
    alg = MatrixLieAlgebra.sl(n)
    _, basis = oracle_basis(n)
    rng = random.Random(f"oracle-trace-{n}")
    checked = 0
    while checked < 4:
        mat = random_matrix(rng, n, traceless=False)
        if mat.trace() == 0:
            continue
        assert oracle_coords(basis, mat) is None
        m = to_higgsres(mat)
        assert alg.expand_in_basis(m) is None
        with pytest.raises(NotInAlgebra):
            LoopAlgebraElement(alg, m)
        with pytest.raises(NotInAlgebra):
            CoadjointElement(alg, m)
        checked += 1

"""The coordinate forms of ``lie`` against the dense matrix oracles.

``bracket`` sums over the non-zero coordinates of two elements and the
bracket table of their basis elements, ``pairing`` over the non-zero
coordinates of an element and the Gram matrix of the trace form;
``tests/helpers.py`` keeps the dense commutator and the trace-form pairing
they replaced, and the entry form ``ad_terms`` of the bracket (also
through ``helpers.coadjoint_bracket``).  ``field.polar_dot`` reads the polar coefficients of a sum
of products off coefficient windows; the oracle expands the whole sum.
"""

import random

import pytest
from helpers import ad_terms, coadjoint_bracket, commutator, structure, trace_pairing
from test_field import _operand

from higgsres import GaussRat, RatFunc, ShapeError
from higgsres import _kernels as K
from higgsres.field import dot, polar_dot
from higgsres.lie import (
    CoadjointElement,
    LoopAlgebraElement,
    MatrixLieAlgebra,
    bracket,
    bracket_terms,
    pairing,
)
from higgsres.solver import _window

U = RatFunc.x()
ZERO = RatFunc.const(0)


def _germ(rng) -> RatFunc:
    """An _operand, sometimes with an extra pole at 0 (so non-Laurent
    germs with a pole at 0 occur too)."""
    f = _operand(rng)
    return f * U ** -rng.randint(1, 3) if rng.randrange(3) == 0 else f


def _laurent_germ(rng) -> RatFunc:
    while True:
        f = _germ(rng)
        if f._k >= 0:
            return f


def _coeffs(algebra, rng, sparse: bool) -> list:
    """One or two non-zero coordinates (a drawn g_dot), or all of them;
    a dense element has one germ that may be non-Laurent, so that its
    products stay small."""
    if not sparse:
        coeffs = [_laurent_germ(rng) for _ in range(algebra.dim)]
        coeffs[rng.randrange(algebra.dim)] = _germ(rng)
        return coeffs
    coeffs = [ZERO] * algebra.dim
    for _ in range(rng.randint(1, 2)):
        coeffs[rng.randrange(algebra.dim)] = _germ(rng)
    return coeffs


def _matrix(n, rng) -> tuple:
    """A matrix with arbitrary entries, trace included, one of them
    possibly non-Laurent."""
    rows = [[_laurent_germ(rng) for _ in range(n)] for _ in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = _germ(rng)
    return tuple(tuple(row) for row in rows)


def _entries(terms: dict, n: int) -> tuple:
    return tuple(tuple(dot(terms.get((r, c), ())) for c in range(n)) for r in range(n))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_coordinate_forms_match_dense_oracles(n, sparse):
    algebra = MatrixLieAlgebra.sl(n)
    rng = random.Random(f"lie-coordinates-{n}-{sparse}")
    nonzero = 0
    for _ in range(8):
        x = algebra.element_from(_coeffs(algebra, rng, sparse))
        # the same element through the validating constructor
        y = LoopAlgebraElement(algebra, algebra.combination(_coeffs(algebra, rng, sparse)))
        phi = algebra.coadjoint_from(_coeffs(algebra, rng, not sparse))
        m = _matrix(n, rng)

        xy = bracket(x, y)
        assert xy.mat == commutator(x.mat, y.mat)
        assert xy.coeffs == algebra.expand_in_basis(commutator(x.mat, y.mat))
        assert xy == LoopAlgebraElement(algebra, commutator(x.mat, y.mat))
        assert bracket(y, x) == -xy

        assert coadjoint_bracket(phi, x).mat == commutator(phi.mat, x.mat)
        got = [dot(t) for t in bracket_terms(phi, x)]
        assert got == algebra.expand_in_basis(commutator(phi.mat, x.mat))
        assert _entries(ad_terms(x, m), n) == commutator(x.mat, m)
        assert _entries(ad_terms(y, m, -1), n) == commutator(m, y.mat)

        assert pairing(phi, x) == trace_pairing(phi, x)
        assert pairing(phi, xy) == trace_pairing(phi, xy)
        nonzero += not xy.is_zero() and not pairing(phi, xy).is_zero()
    assert nonzero >= 3  # the comparisons are not 0 == 0


def test_element_from_keeps_its_coordinates():
    sl3 = MatrixLieAlgebra.sl(3)
    coeffs = [0, U, 0, 2, 0, 0, 0, U ** -1]
    xi = sl3.element_from(coeffs)
    assert xi.coeffs == [RatFunc.const(c) if isinstance(c, int) else c for c in coeffs]
    assert xi == LoopAlgebraElement(sl3, sl3.combination(coeffs))
    assert xi.coeffs == LoopAlgebraElement(sl3, xi.mat).coeffs
    phi = sl3.coadjoint_from(coeffs)
    assert phi.mat == xi.mat and phi.coeffs == xi.coeffs
    # results of arithmetic read their coordinates off the matrix
    assert (xi + xi).coeffs == [c * 2 for c in xi.coeffs]
    with pytest.raises(ShapeError):
        sl3.element_from(coeffs[:-1])


def test_units_span_the_basis():
    for n in (2, 3, 4):
        algebra = MatrixLieAlgebra.sl(n)
        for b, units in zip(algebra.basis, algebra.units):
            assert 1 <= len(units) <= 2
            mat = [[0] * n for _ in range(n)]
            for r, c, s in units:
                mat[r][c] = s
            assert b == tuple(tuple(RatFunc.const(e) for e in row) for row in mat)


def test_coordinate_forms_leave_structure_unbuilt():
    sl9 = MatrixLieAlgebra.sl(9)
    rng = random.Random("sl9")
    x, y = (sl9.element_from(_coeffs(sl9, rng, True)) for _ in range(2))
    phi = CoadjointElement(sl9, sl9.basis[5])
    bracket(x, y)
    bracket(x, bracket(x, y))
    coadjoint_bracket(phi, x)
    pairing(phi, x)
    # only the pairs of the brackets taken are filled, not the dense layout
    assert 0 < len(sl9._brackets) < sl9.dim * (sl9.dim - 1)
    # the structure constants, when read, are the brackets of basis elements
    sl3 = MatrixLieAlgebra.sl(3)
    for (a, b), consts in structure(sl3).items():
        want = sl3.expand_in_basis(commutator(sl3.basis[a], sl3.basis[b]))
        assert [RatFunc.const(c) for c in consts] == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_table_matches_dense_commutator(n):
    """Every pair (a, b) of the bracket table is [b_a, b_b] by the dense
    commutator: its entries are the non-zero coordinates, in ascending
    index.  A pair is filled on first read and then kept."""
    algebra = MatrixLieAlgebra.sl(n)
    assert algebra._brackets == {}
    for a, x in enumerate(algebra.basis):
        for b, y in enumerate(algebra.basis):
            entries = algebra.brackets(a, b)
            assert algebra.brackets(a, b) is entries
            want = algebra.expand_in_basis(commutator(x, y))
            assert entries == tuple((c, w.constant_value()) for c, w in enumerate(want) if not w.is_zero())
    assert len(algebra._brackets) == algebra.dim ** 2


def test_mixed_sizes_rejected():
    sl2, sl3 = MatrixLieAlgebra.sl(2), MatrixLieAlgebra.sl(3)
    with pytest.raises(ShapeError):
        bracket(LoopAlgebraElement(sl2, sl2.basis[0]), LoopAlgebraElement(sl3, sl3.basis[0]))
    with pytest.raises(ShapeError):
        coadjoint_bracket(CoadjointElement(sl3, sl3.basis[0]), LoopAlgebraElement(sl2, sl2.basis[0]))
    with pytest.raises(ShapeError):
        bracket_terms(CoadjointElement(sl3, sl3.basis[0]), LoopAlgebraElement(sl2, sl2.basis[0]))
    with pytest.raises(ShapeError):
        ad_terms(LoopAlgebraElement(sl2, sl2.basis[0]), sl3.basis[0])


def _nonzero_polar(h: RatFunc) -> dict:
    window = _window(h, -1)
    if window is None:
        return {}
    lo, coefficients = window
    return {e: t for e, t in enumerate(coefficients, lo) if not K.gq_is_zero(t)}


def test_polar_dot_matches_window_of_the_sum():
    rng = random.Random("polar-dot")
    laurent = finite = 0
    for _ in range(300):
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
            terms.append((c, _germ(rng), _germ(rng)))
        got = {e: t for e, t in polar_dot(terms).items() if not K.gq_is_zero(t)}
        assert all(e < 0 for e in polar_dot(terms))
        whole = dot(terms)
        assert got == _nonzero_polar(whole)
        laurent += bool(got) and whole._k >= 0
        finite += bool(got) and whole._k < 0
    assert laurent >= 30 and finite >= 10

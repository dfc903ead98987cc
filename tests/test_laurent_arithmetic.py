"""The Laurent-native RatFunc arithmetic against the code it replaced.

``field.dot`` is checked against the sequential sum ``acc = acc + c*x*y``,
and each routine that now sums through it against its former loop body,
the pole-order slot ``_k`` against ``_u_power(_d)`` after every way a
RatFunc is built, the scalar and polynomial fast paths of the kernels
against their earlier bodies (kept here as oracles), the coefficient
window of ``solver._window`` against long division of the germ's
coefficients, and ``SeedStream``'s cached-prefix hashing against hashing
``repr((path, counter))`` per draw.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import commutator, denominator, hashed_randint, inf_action, mat_vec, numerator
from test_field import _naive_window, _operand, nonzero_gauss
from test_sparse_forms import REPS

from higgsres import GaussRat, RatFunc, ShapeError, XVector
from higgsres import _kernels as kernels
from higgsres import field
from higgsres._kernels import pure
from higgsres.field import GQ_ONE, _u_power, dot
from higgsres.lie import CoadjointElement, LoopAlgebraElement, pairing
from higgsres.matrices import mat_mul, mat_sub, mat_transpose
from higgsres.solver import SeedStream, _window

U = RatFunc.x()
ZERO = RatFunc.const(0)


# ---------------------------------------------------------------------------
# oracles: the bodies the fast paths replaced
# ---------------------------------------------------------------------------


def _old_gq_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return pure.gq_norm(a1 + a2, b1 + b2, d1)
    return pure.gq_norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _old_gq_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return pure.gq_norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _old_gq_inv(x):
    a, b, d = x
    return pure.gq_norm(d * a, -d * b, a * a + b * b)


def _old_p_mul(p, q):
    if not p or not q:
        return []
    out = [pure.GQ_ZERO] * (len(p) + len(q) - 1)
    for j, cj in enumerate(p):
        if pure.gq_is_zero(cj):
            continue
        for k, ck in enumerate(q):
            out[j + k] = _old_gq_add(out[j + k], _old_gq_mul(cj, ck))
    return pure.p_norm(out)


def _old_mat_mul(a, b):
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = ZERO
            for x, y in zip(row, col):
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def _old_mat_vec(a, v):
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return tuple(out)


def _old_pairing(phi, xi):
    pairs = zip(phi.mat, zip(*xi.mat))
    return sum((x * y for row, col in pairs for x, y in zip(row, col)), ZERO)


def _old_entries(m):
    """The non-zero entries (i, j, c) of a matrix, the form the forms were kept in."""
    return [(i, j, c) for i, row in enumerate(m) for j, c in enumerate(row) if not c.is_zero()]


def _old_bilinear(entries, u, v):
    acc = ZERO
    for i, j, c in entries:
        if not (u[i].is_zero() or v[j].is_zero()):
            acc = acc + c * u[i] * v[j]
    return acc


def _old_inf_action(rep, xi, x):
    xs = x.coords
    out = [ZERO] * rep.space.dim
    for c, entries in zip(xi.coeffs, rep._rho):
        if c.is_zero():
            continue
        for i, j, r in entries:
            if not xs[j].is_zero():
                out[i] = out[i] + c * r * xs[j]
    return XVector(out)


def _old_window(h, top):
    v = h.valuation()
    if v is None or v > top:
        return None
    return v, [c._t for c in _naive_window(h, v, top)]


class _OldSeedStream(SeedStream):
    """``SeedStream`` drawing by hashing ``repr((path, counter))`` whole,
    and building ``gauss`` from two ``Fraction``s."""

    def child(self, *label):
        return _OldSeedStream(*self._path, *label)

    def _next(self):
        key = repr((self._path, self._counter)).encode()
        self._counter += 1
        return int.from_bytes(hashlib.sha256(key).digest(), "big")

    def fraction(self, max_num=3, max_den=2):
        return Fraction(self.randint(-max_num, max_num), self.randint(1, max_den))

    def gauss(self, max_num=3, max_den=2):
        re = self.fraction(max_num, max_den)
        im = self.fraction(max_num, max_den) if self.randint(0, 2) == 0 else 0
        return GaussRat(re, im)


def _triple(rng, dens=(1, 1, 1, 2, 3, 6)):
    return pure.gq_norm(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice(dens))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_scalar_fast_paths_match_old_bodies():
    rng = random.Random(20261018)
    zeros = units = 0
    for _ in range(3000):
        x, y = _triple(rng), _triple(rng)
        assert pure.gq_mul(x, y) == _old_gq_mul(x, y)
        assert pure.gq_add(x, y) == _old_gq_add(x, y)
        neg = pure.gq_neg(x)
        assert pure.gq_add(x, neg) == pure.GQ_ZERO == _old_gq_add(x, neg)
        zeros += pure.gq_add(x, y) == pure.GQ_ZERO or pure.gq_mul(x, y) == pure.GQ_ZERO
        if not pure.gq_is_zero(x):
            # a unit of Z[i] is inverted by conjugation, any other x through a gcd
            assert pure.gq_inv(x) == _old_gq_inv(x)
            assert pure.gq_mul(x, pure.gq_inv(x)) == pure.GQ_ONE
            units += x[2] == 1 and x[0] ** 2 + x[1] ** 2 == 1
    assert zeros >= 100
    assert units >= 20
    for t in (x, pure.GQ_ZERO, (3, 0, 1), (0, -2, 1)):
        assert pure.gq_norm(*t) == t
    assert pure.gq_norm(0, 0, 1) is pure.GQ_ZERO


def test_p_mul_matches_old_body():
    rng = random.Random(20261019)
    kinds = {"one-term": 0, "general": 0, "cancel": 0}
    for _ in range(800):
        p = pure.p_norm([_triple(rng) for _ in range(rng.randint(0, 4))])
        q = pure.p_norm([_triple(rng) for _ in range(rng.randint(0, 4))])
        if rng.randrange(4) == 0 and q:
            # (x - a)(x + a) style products: interior coefficients cancel
            p = [q[0], pure.GQ_ONE]
            q = [pure.gq_neg(q[0]), pure.GQ_ONE]
            kinds["cancel"] += 1
        kinds["one-term" if min(len(p), len(q)) == 1 else "general"] += 1
        assert pure.p_mul(p, q) == _old_p_mul(p, q)
        assert pure.p_mul(p, q) == pure.p_norm(pure.p_mul(p, q))
    assert min(kinds.values()) >= 100, kinds


def test_p_dot_matches_shifted_products():
    rng = random.Random(20261020)
    for _ in range(400):
        terms = []
        for _ in range(rng.randint(1, 4)):
            p = pure.p_norm([_triple(rng) for _ in range(rng.randint(1, 4))]) or [pure.GQ_ONE]
            q = pure.p_norm([_triple(rng) for _ in range(rng.randint(1, 4))]) or [pure.GQ_ONE]
            terms.append((rng.choice([pure.GQ_ONE, _triple(rng)]), p, q, rng.randint(0, 3)))
        top = max(k for *_, k in terms)
        want = []
        for c, p, q, k in terms:
            want = pure.p_add(want, [pure.GQ_ZERO] * (top - k) + pure.p_scale(c, _old_p_mul(p, q)))
        assert pure.p_dot(terms) == (want, top)


# ---------------------------------------------------------------------------
# RatFunc: the pole-order slot and dot
# ---------------------------------------------------------------------------


def _k_ok(f: RatFunc) -> RatFunc:
    assert f._k == _u_power(f._d)
    return f


def _finite_germ(rng) -> RatFunc:
    """A germ with a pole at a finite non-zero point, not a Laurent polynomial."""
    a = GaussRat(rng.randint(1, 3), rng.randint(-2, 2))
    return RatFunc([rng.randint(-3, 3) or 1, rng.randint(-2, 2)]) / (U - a) ** rng.randint(1, 2)


def test_pole_order_slot_after_every_construction():
    rng = random.Random(20261021)
    built = [
        RatFunc([1, 1], [0, 0, 0, 1]),
        RatFunc([0, 0, 2], [0, 0, 1]),
        RatFunc(0, [0, 1]),
        RatFunc([0, 1], [-1, 1]),
        RatFunc.const(Fraction(-2, 3)),
        RatFunc.const(0),
        RatFunc.x(),
    ]
    for _ in range(60):
        built.append(_operand(rng))
        built.append(_finite_germ(rng))
    scalars = [3, Fraction(1, 2), GaussRat(0, -1), GaussRat(0)]
    for f in built:
        _k_ok(f)
        _k_ok(-f)
        _k_ok(f.shift(GaussRat(1, -1)))
        _k_ok(f.invert_variable())
        for c in scalars:
            _k_ok(f * c)
            if c != 0:
                _k_ok(f / c)
        for n in (-2, 0, 3):
            if n >= 0 or not f.is_zero():
                _k_ok(f**n)
        if not f.is_zero():
            _k_ok(f.inverse())
        g = rng.choice(built)
        _k_ok(f + g)
        _k_ok(f - g)
        _k_ok(f * g)
        _k_ok(dot([(GQ_ONE, f, g), (GaussRat(2), g, g)]))


def test_product_with_a_constant_scales_without_a_gcd(monkeypatch):
    rng = random.Random(20261101)
    cases = []
    for _ in range(100):
        f = _finite_germ(rng) if rng.randrange(2) else _operand(rng)
        c = RatFunc.const(GaussRat(rng.randint(-3, 3), rng.randint(-2, 2)))
        cases.append((f, c, RatFunc([x * c.constant_value() for x in numerator(f)], denominator(f))))
    monkeypatch.setattr(field.K, "p_gcd", None)
    for f, c, want in cases:
        assert _k_ok(f * c) == want
        assert _k_ok(c * f) == want


def test_monomial_equals_scaled_power():
    for c in (GaussRat(1), GaussRat(-2, 1), GaussRat(Fraction(1, 3), -1)):
        for m in range(-3, 4):
            assert _k_ok(RatFunc.monomial(c, m)) == c * RatFunc.x() ** m


def _sequential(terms):
    acc = RatFunc.const(0)
    for c, x, y in terms:
        acc = acc + c * x * y
    return acc


def test_dot_matches_sequential_sum():
    rng = random.Random(20261022)
    kinds = {"laurent": 0, "mixed k": 0, "cancel": 0, "zero": 0, "non-laurent": 0}
    for _ in range(300):
        kind = rng.randrange(5)
        terms = []
        for _ in range(rng.randint(0, 5)):
            c = rng.choice([GQ_ONE, GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))])
            x, y = _operand(rng), _operand(rng)
            if kind == 4:
                x = _finite_germ(rng)
            terms.append((c, x, y))
        if kind == 2 and terms:
            # each product and its negation: the sum cancels to zero
            terms += [(c, -x, y) for c, x, y in terms]
        if kind == 3:
            terms = [(GQ_ONE, RatFunc.const(0), _operand(rng)), (GaussRat(2), _operand(rng), RatFunc.const(0))]
        got = _k_ok(dot(terms))
        assert got == _sequential(terms)
        assert (numerator(got), denominator(got)) == (numerator(_sequential(terms)), denominator(_sequential(terms)))
        live = [(c, x, y) for c, x, y in terms if not (x.is_zero() or y.is_zero())]
        if not live:
            assert got is field._ZERO
            kinds["zero"] += 1
        elif kind == 2:
            assert got.is_zero()
            kinds["cancel"] += 1
        elif any(x._k < 0 or y._k < 0 for _, x, y in live):
            kinds["non-laurent"] += 1
        elif len({x._k + y._k for _, x, y in live}) > 1:
            kinds["mixed k"] += 1
        else:
            kinds["laurent"] += 1
    assert dot([]) is field._ZERO
    assert min(kinds.values()) >= 10, kinds


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([GaussRat(0), GQ_ONE, GaussRat(Fraction(-2, 3), 1)]) | nonzero_gauss,
    nonzero_gauss,
    st.integers(0, 4),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_one_term_dot_is_a_scale(c, a, k, seed, swap):
    """One term with a single-coefficient factor a*u^-k is a scale of the
    other factor, with no p_dot, whenever k = 0 or the other is Laurent."""
    single = RatFunc(a, [0] * k + [1])
    other = _operand(random.Random(seed))
    if random.Random(seed).randrange(4) == 0:
        other = _finite_germ(random.Random(seed))
    x, y = (other, single) if swap else (single, other)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "p_dot", lambda terms: calls.append(terms) or pure.p_dot(terms))
        got = _k_ok(dot([(c, x, y)]))
    want = x * y * c
    assert (numerator(got), denominator(got)) == (numerator(want), denominator(want))
    if c.is_zero() or other.is_zero():
        assert got is field._ZERO
    if k == 0 or other._k >= 0:
        assert not calls


def _entry(rng) -> RatFunc:
    return _finite_germ(rng) if rng.randrange(10) == 0 else _operand(rng)


def test_matrix_products_match_old_loops():
    rng = random.Random(20261024)
    for _ in range(50):
        n = rng.randint(1, 3)
        a, b = ([[_entry(rng) for _ in range(n)] for _ in range(n)] for _ in range(2))
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
        v = [_entry(rng) for _ in range(n)]
        assert mat_mul(a, b) == _old_mat_mul(a, b)
        assert mat_vec(a, v) == _old_mat_vec(a, v)
        assert commutator(a, b) == mat_sub(_old_mat_mul(a, b), _old_mat_mul(b, a))
    square, wide = ((ZERO,) * 2,) * 2, ((ZERO,) * 3,) * 2
    with pytest.raises(ShapeError, match="cannot multiply"):
        commutator(square, ((ZERO,) * 3,) * 3)
    with pytest.raises(ShapeError, match="not square"):
        commutator(wide, tuple(zip(*wide)))


@pytest.mark.parametrize("name", sorted(REPS))
def test_forms_and_pairing_match_old_loops(name):
    rep = REPS[name]()
    algebra = rep.algebra
    rng = random.Random(name)
    omega = rep.space.omega
    forms = [_old_entries(mat_mul(mat_transpose(rep.rho[lab]), omega)) for lab in algebra.labels]
    half = GaussRat(Fraction(1, 2))
    for trial in range(6):
        # every third coordinate zero in the later trials: the row index skips them
        x, y = (
            XVector([ZERO if trial > 2 and rng.randrange(3) == 0 else _entry(rng) for _ in range(rep.space.dim)])
            for _ in range(2)
        )
        coeffs = [_entry(rng) for _ in range(algebra.dim)]
        xi = LoopAlgebraElement(algebra, algebra.combination(coeffs))
        phi = CoadjointElement(algebra, algebra.combination(coeffs[::-1]))
        assert rep.space.pair(x, y) == _old_bilinear(_old_entries(omega), x.coords, y.coords)
        assert rep.dmoment_values(x, y) == [_old_bilinear(q, x.coords, y.coords) for q in forms]
        assert rep.moment_values(x) == [_old_bilinear(q, x.coords, x.coords) * half for q in forms]
        assert inf_action(rep, xi, x) == _old_inf_action(rep, xi, x)
        assert pairing(phi, xi) == _old_pairing(phi, xi)


# ---------------------------------------------------------------------------
# coefficient windows
# ---------------------------------------------------------------------------


def test_window_slice_matches_series_division():
    rng = random.Random(20261023)
    germs = [
        RatFunc.const(0),
        (U**3 + 1) / U**2,  # windows past the end of the numerator
        RatFunc([0, 0, 0, 1]),  # v = 3 > top for top < 3
        1 / (U - 1),  # a germ at a finite non-zero point
        (U + 2) / ((U - GaussRat(0, 1)) * U**2),
    ]
    germs += [_operand(rng) for _ in range(80)] + [_finite_germ(rng) for _ in range(20)]
    kinds = {"none": 0, "past end": 0, "non-laurent": 0}
    for h in germs:
        for top in range(-4, 6):
            window = _window(h, top)
            assert window == _old_window(h, top)
            if window is None:
                kinds["none"] += 1
                continue
            v, coefficients = window
            kinds["past end"] += h._k >= 0 and top + h._k >= len(h._n)
            kinds["non-laurent"] += h._k < 0
            for lo in (v - 2, v, top):
                assert h.coefficients(lo, top) == [h.laurent_coefficient(e)._t for e in range(lo, top + 1)]
    assert min(kinds.values()) >= 10, kinds
    assert RatFunc.const(0).coefficients(-2, 1) == [pure.GQ_ZERO] * 4


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", [("a",), ("random-suite", 1, "trial", 7, "bundle"), (1, "x", (2, 3), "deep", 5)])
def test_seed_stream_draws_match_old_body(path):
    new, old = SeedStream(*path), _OldSeedStream(*path)
    for depth in range(3):
        for _ in range(40):
            assert new.randint(-10**6, 10**6) == old.randint(-10**6, 10**6)
            assert new.gauss() == old.gauss()
            assert new.nonzero_gauss(2, 1) == old.nonzero_gauss(2, 1)
            g = new.gauss(7, 6)
            assert g == old.gauss(7, 6) and pure.gq_norm(*g._t) == g._t
        new, old = new.child("level", depth), old.child("level", depth)


def test_randint_matches_the_always_hashing_reference(monkeypatch):
    """Mixed ranges, a third of them one value wide: every draw equals the
    reference that hashes each counter, and only the wider ranges hash."""
    rng = random.Random("randint-reference")
    ranges = []
    for _ in range(300):
        lo = rng.randint(-9, 9)
        ranges.append((lo, lo + rng.choice([0, 0, 0, 1, 2, 5, 10**6])))
    hashes = []
    monkeypatch.setattr(SeedStream, "_next", lambda self, f=SeedStream._next: hashes.append(1) or f(self))
    for path in [("a",), ("random-suite", 1, "trial", 7, "bundle")]:
        stream = SeedStream(*path)
        draws = [stream.randint(lo, hi) for lo, hi in ranges]
        assert draws == [hashed_randint(path, k, lo, hi) for k, (lo, hi) in enumerate(ranges)]
        assert stream.child("next").randint(0, 10) == hashed_randint((*path, "next"), 0, 0, 10)
    assert len(hashes) == 2 * (sum(lo != hi for lo, hi in ranges) + 1)

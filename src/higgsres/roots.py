"""Exact root extraction over Q(i).

Used by the residue machinery to locate the poles of an arbitrary
rational 1-form.  The approach is the rational root theorem over the
Euclidean domain Z[i]: after clearing denominators, every root p/q in
lowest terms has p dividing the trailing and q dividing the leading
coefficient, so candidates come from Gaussian-integer divisor sets.
Divisors are enumerated through the prime factorization of Z[i], which
in turn reduces to factoring integer norms and splitting rational primes
p = 1 mod 4 via a square root of -1 mod p.

Everything here is exact; the integer factorization uses deterministic
Miller-Rabin (valid far beyond 64 bits) plus Pollard rho.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import _kernels as K
from .field import GaussRat

ZI = tuple  # Gaussian integer as an (a, b) int pair


# ---------------------------------------------------------------------------
# integers
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _sqrt_minus_one_mod(p: int) -> int:
    """x with x^2 = -1 mod p, for a prime p = 1 mod 4."""
    for a in range(2, p):
        t = pow(a, (p - 1) // 2, p)
        if t == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ArithmeticError(f"no square root of -1 mod {p}")


# ---------------------------------------------------------------------------
# Gaussian integers
# ---------------------------------------------------------------------------


def zi_norm(x: ZI) -> int:
    return x[0] * x[0] + x[1] * x[1]


def zi_mul(x: ZI, y: ZI) -> ZI:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def zi_divmod(x: ZI, y: ZI) -> tuple[ZI, ZI]:
    """Euclidean division with remainder of norm at most norm(y)/2."""
    n = zi_norm(y)
    pa = x[0] * y[0] + x[1] * y[1]
    pb = x[1] * y[0] - x[0] * y[1]
    qa = (2 * pa + n) // (2 * n)
    qb = (2 * pb + n) // (2 * n)
    q = (qa, qb)
    r = (x[0] - (qa * y[0] - qb * y[1]), x[1] - (qa * y[1] + qb * y[0]))
    return q, r


def zi_gcd(x: ZI, y: ZI) -> ZI:
    while y != (0, 0):
        x, y = y, zi_divmod(x, y)[1]
    return zi_canonical(x)


def zi_canonical(x: ZI) -> ZI:
    """The unit-multiple of x in the first quadrant (a > 0, b >= 0)."""
    a, b = x
    if a == 0 and b == 0:
        return x
    for _ in range(4):
        if a > 0 and b >= 0:
            return (a, b)
        a, b = -b, a
    raise AssertionError("unreachable")


def zi_divides(d: ZI, x: ZI) -> ZI | None:
    """x/d if d divides x in Z[i], else None."""
    n = zi_norm(d)
    pa = x[0] * d[0] + x[1] * d[1]
    pb = x[1] * d[0] - x[0] * d[1]
    if pa % n or pb % n:
        return None
    return (pa // n, pb // n)


def zi_prime_factors(w: ZI) -> list[tuple[ZI, int]]:
    """Gaussian prime factorization of w (nonzero), primes canonicalized."""
    if w == (0, 0):
        raise ValueError("factorization of zero")
    n = zi_norm(w)
    out: list[tuple[ZI, int]] = []
    for p, _ in sorted(factor_int(n).items()):
        if p == 2:
            candidates = [(1, 1)]
        elif p % 4 == 3:
            candidates = [(p, 0)]
        else:
            x = _sqrt_minus_one_mod(p)
            pi = zi_gcd((p, 0), (x, 1))
            candidates = [zi_canonical(pi), zi_canonical((pi[0], -pi[1]))]
        for pi in candidates:
            e = 0
            q = zi_divides(pi, w)
            while q is not None:
                w = q
                e += 1
                q = zi_divides(pi, w)
            if e:
                out.append((pi, e))
    if zi_norm(w) != 1:
        raise AssertionError(f"incomplete Gaussian factorization, left {w}")
    return out


def zi_divisors(w: ZI) -> list[ZI]:
    """All divisors of w up to unit multiples, canonicalized."""
    divs = [(1, 0)]
    for pi, e in zi_prime_factors(w):
        powers = [(1, 0)]
        for _ in range(e):
            powers.append(zi_mul(powers[-1], pi))
        divs = [zi_mul(d, pk) for d in divs for pk in powers]
    seen = set()
    out = []
    for d in divs:
        c = zi_canonical(d)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

_UNITS = (
    GaussRat(1),
    GaussRat(-1),
    GaussRat(0, 1),
    GaussRat(0, -1),
)


def _integerize(p: list) -> list[ZI]:
    """Scale the kernel polynomial p by a positive rational so all
    coefficients land in Z[i] with no common integer factor."""
    lcm = 1
    for _, _, d in p:
        lcm = lcm * d // gcd(lcm, d)
    out = [(a * (lcm // d), b * (lcm // d)) for a, b, d in p]
    content = 0
    for a, b in out:
        content = gcd(content, gcd(a, b))
    if content > 1:
        out = [(a // content, b // content) for a, b in out]
    return out


def gaussian_rational_roots(coeffs) -> tuple[list[tuple[GaussRat, int]], tuple]:
    """All Q(i) roots of a polynomial with multiplicities, plus the
    unsplit cofactor.

    The polynomial and the cofactor are coefficient sequences, low to
    high; the cofactor is a tuple of GaussRat, of length 1 exactly when
    the polynomial splits into linear factors over Q(i).  The polynomial
    must be nonzero.
    """
    p = K.p_norm([GaussRat(c)._t for c in coeffs])
    if not p:
        raise ValueError("roots of the zero polynomial")
    roots: list[tuple[GaussRat, int]] = []
    val = next(k for k, t in enumerate(p) if not K.gq_is_zero(t))
    if val:
        roots.append((GaussRat(0), val))
        p = p[val:]
    if len(p) < 2:
        return roots, tuple(GaussRat.from_triple(t) for t in p)
    zi_coeffs = _integerize(p)
    trailing = zi_coeffs[0]
    leading = zi_coeffs[-1]
    seen = set()
    candidates: list[GaussRat] = []
    for num in zi_divisors(trailing):
        for den in zi_divisors(leading):
            base = GaussRat(Fraction(num[0]), Fraction(num[1])) / GaussRat(
                Fraction(den[0]), Fraction(den[1])
            )
            for unit in _UNITS:
                r = base * unit
                if r._t not in seen:
                    seen.add(r._t)
                    candidates.append(r)
    for r in candidates:
        if len(p) < 2:
            break
        mult = 0
        while len(p) > 1 and K.gq_is_zero(K.p_eval(p, r._t)):
            p = K.p_divmod(p, [K.gq_neg(r._t), K.GQ_ONE])[0]
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, tuple(GaussRat.from_triple(t) for t in p)

"""Arithmetic kernels over the Gaussian rationals, in pure Python.

These functions are the hot inner loops of the library: scalar arithmetic
in Q(i), dense polynomial arithmetic over Q(i), truncated power-series
division, and fraction-free row echelon over Z[i] with the replay of its
steps on further columns.  They are the only
arithmetic backend; every result is exact.

Representations (plain tuples and lists):

  scalar   (a, b, d)  ints, meaning (a + b*i)/d with d > 0, gcd(a, b, d) = 1
  poly     list of scalars, index = exponent, no trailing zeros; zero = []
  zi       (a, b)     a Gaussian integer a + b*i, used by the echelon kernel

The scalar representation keeps one shared denominator per coefficient,
so each ring operation needs a single 3-way gcd instead of per-component
Fraction normalizations.
"""

from __future__ import annotations

from math import gcd

GQ_ZERO = (0, 0, 1)
GQ_ONE = (1, 0, 1)
GQ_I = (0, 1, 1)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def gq_norm(a, b, d):
    if d == 0:
        raise ZeroDivisionError("zero denominator in Gaussian rational")
    if a == 0 and b == 0:
        return GQ_ZERO
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g > 1:
        return (a // g, b // g, d // g)
    return (a, b, d)


def gq_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return gq_norm(a1 + a2, b1 + b2, d1)
    return gq_norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def gq_sub(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        return gq_norm(a1 - a2, b1 - b2, d1)
    return gq_norm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def gq_neg(x):
    a, b, d = x
    return (-a, -b, d)


def gq_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return gq_norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def gq_inv(x):
    a, b, d = x
    if a == 0 and b == 0:
        raise ZeroDivisionError("inverse of zero Gaussian rational")
    n = a * a + b * b
    return gq_norm(d * a, -d * b, n)


def gq_div(x, y):
    a2, b2, d2 = y
    if a2 == 0 and b2 == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    a1, b1, d1 = x
    n = a2 * a2 + b2 * b2
    return gq_norm(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), d1 * n)


def gq_is_zero(x):
    return x[0] == 0 and x[1] == 0


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def p_norm(coeffs):
    n = len(coeffs)
    while n and gq_is_zero(coeffs[n - 1]):
        n -= 1
    return list(coeffs[:n])


def p_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k in range(len(q)):
        out[k] = gq_add(out[k], q[k])
    return p_norm(out)


def p_sub(p, q):
    np, nq = len(p), len(q)
    out = []
    for k in range(max(np, nq)):
        x = p[k] if k < np else GQ_ZERO
        y = q[k] if k < nq else GQ_ZERO
        out.append(gq_sub(x, y))
    return p_norm(out)


def p_neg(p):
    return [gq_neg(c) for c in p]


def p_scale(c, p):
    if gq_is_zero(c):
        return []
    return p_norm([gq_mul(c, x) for x in p])


def p_mul(p, q):
    if not p or not q:
        return []
    out = [GQ_ZERO] * (len(p) + len(q) - 1)
    for j, cj in enumerate(p):
        if gq_is_zero(cj):
            continue
        for k, ck in enumerate(q):
            out[j + k] = gq_add(out[j + k], gq_mul(cj, ck))
    return p_norm(out)


def p_divmod(p, q):
    """Euclidean division p = quot*q + rem over Q(i); q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = len(q) - 1
    lead_inv = gq_inv(q[dq])
    if len(rem) - 1 < dq:
        return [], p_norm(rem)
    quot = [GQ_ZERO] * (len(rem) - dq)
    for k in range(len(rem) - 1 - dq, -1, -1):
        c = rem[k + dq]
        if gq_is_zero(c):
            continue
        f = gq_mul(c, lead_inv)
        quot[k] = f
        for j in range(dq + 1):
            rem[k + j] = gq_sub(rem[k + j], gq_mul(f, q[j]))
    return p_norm(quot), p_norm(rem)


def p_monic(p):
    """Return (p / lead(p), lead(p)); the zero polynomial maps to ([], 1)."""
    if not p:
        return [], GQ_ONE
    lead = p[-1]
    if lead == GQ_ONE:
        return list(p), GQ_ONE
    inv = gq_inv(lead)
    out = [gq_mul(inv, c) for c in p]
    out[-1] = GQ_ONE
    return out, lead


def _low_order(p, cap):
    """Exponent of the lowest nonzero coefficient of p, capped at cap.

    The zero polynomial has infinite order, so it gives cap.
    """
    for j in range(min(len(p), cap)):
        if p[j][0] != 0 or p[j][1] != 0:
            return j
    return cap


def p_gcd(p, q):
    """Monic gcd over Q(i).

    A monomial argument ``c*x^k`` gives ``x^j`` directly, with ``j`` the
    order of the other argument at 0 capped at ``k``; every other input
    goes through the Euclidean algorithm.
    """
    for m, other in ((q, p), (p, q)):
        k = len(m) - 1
        if k >= 0 and _low_order(m, k) == k:
            return [GQ_ZERO] * _low_order(other, k) + [GQ_ONE]
    a, b = list(p), list(q)
    while b:
        a, b = b, p_divmod(a, b)[1]
    return p_monic(a)[0]


def p_eval(p, c):
    acc = GQ_ZERO
    for k in range(len(p) - 1, -1, -1):
        acc = gq_add(gq_mul(acc, c), p[k])
    return acc


def p_shift(p, t):
    """Taylor shift: coefficients of p(x + t)."""
    if gq_is_zero(t):
        return list(p)
    acc = []
    for k in range(len(p) - 1, -1, -1):
        # acc <- acc*(x + t) + p[k]
        nxt = [GQ_ZERO] * (len(acc) + 1)
        for j, c in enumerate(acc):
            nxt[j + 1] = gq_add(nxt[j + 1], c)
            nxt[j] = gq_add(nxt[j], gq_mul(t, c))
        nxt[0] = gq_add(nxt[0], p[k])
        acc = nxt
    return p_norm(acc)


def p_series_div(num, den, n):
    """First n coefficients of num/den as a power series at 0.

    Requires den[0] != 0 (unit power series denominator).
    """
    if not den or gq_is_zero(den[0]):
        raise ZeroDivisionError("series division by non-unit")
    inv0 = gq_inv(den[0])
    out = []
    nd = len(den)
    for k in range(n):
        acc = num[k] if k < len(num) else GQ_ZERO
        jmax = min(k, nd - 1)
        for j in range(1, jmax + 1):
            acc = gq_sub(acc, gq_mul(den[j], out[k - j]))
        out.append(gq_mul(acc, inv0))
    return out


# ---------------------------------------------------------------------------
# fraction-free echelon over Z[i]
# ---------------------------------------------------------------------------


def zi_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def zi_divexact(x, y):
    """Exact Gaussian-integer division; quotient must be integral."""
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) // n, (x[1] * y[0] - x[0] * y[1]) // n)


def zi_echelon(rows, npivot):
    """In-place Bareiss echelon of a Z[i] matrix; entries are (a, b) pairs.

    Pivots are searched left to right in the first ``npivot`` columns only
    (trailing columns are carried along, e.g. right-hand sides).  Pivot rows
    are taken in order of first nonzero entry: deterministic output for
    deterministic input.  Returns the steps, one per pivot, in order:
    ``(row, col, swap, pivot, multipliers)``, where ``rows[swap]`` was
    swapped into ``rows[row]`` (``swap == row`` for none), ``pivot`` is
    ``rows[row][col]`` and ``multipliers`` are the entries of column
    ``col`` below it, before they were eliminated.  ``zi_replay`` applies
    the steps to one more column.
    """
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    steps = []
    prev = (1, 0)
    r = 0
    for col in range(npivot):
        piv = -1
        for i in range(r, m):
            e = rows[i][col]
            if e[0] != 0 or e[1] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pc = pr[col]
        multipliers = [rows[i][col] for i in range(r + 1, m)]
        for i in range(r + 1, m):
            ri = rows[i]
            ric = ri[col]
            if ric[0] == 0 and ric[1] == 0:
                # Uniform Bareiss update degenerates to pc*e/prev; it must
                # still be applied so later exact divisions stay exact.
                for j in range(col + 1, ncols):
                    e = ri[j]
                    if e[0] != 0 or e[1] != 0:
                        if prev == (1, 0):
                            ri[j] = zi_mul(pc, e)
                        else:
                            ri[j] = zi_divexact(zi_mul(pc, e), prev)
                continue
            for j in range(col + 1, ncols):
                num = (
                    pc[0] * ri[j][0] - pc[1] * ri[j][1] - ric[0] * pr[j][0] + ric[1] * pr[j][1],
                    pc[0] * ri[j][1] + pc[1] * ri[j][0] - ric[0] * pr[j][1] - ric[1] * pr[j][0],
                )
                if prev == (1, 0):
                    ri[j] = num
                else:
                    n = prev[0] * prev[0] + prev[1] * prev[1]
                    ri[j] = (
                        (num[0] * prev[0] + num[1] * prev[1]) // n,
                        (num[1] * prev[0] - num[0] * prev[1]) // n,
                    )
            ri[col] = (0, 0)
        steps.append((r, col, piv, pc, multipliers))
        prev = pc
        r += 1
        if r == m:
            break
    return steps


def zi_replay(steps, column):
    """Apply the steps of ``zi_echelon`` to one Z[i] column, in place.

    ``column`` has one entry per row of the eliminated matrix and ends as
    it would have, had it been carried along as a trailing column: the
    same swaps and the same Bareiss updates, every division exact.
    """
    prev = (1, 0)
    for r, _, swap, pc, multipliers in steps:
        if swap != r:
            column[r], column[swap] = column[swap], column[r]
        x = column[r]
        x_zero = x[0] == 0 and x[1] == 0
        n = prev[0] * prev[0] + prev[1] * prev[1]
        for i, mul in enumerate(multipliers, r + 1):
            e = column[i]
            if e[0] == 0 and e[1] == 0 and (x_zero or (mul[0] == 0 and mul[1] == 0)):
                continue
            num = (
                pc[0] * e[0] - pc[1] * e[1] - mul[0] * x[0] + mul[1] * x[1],
                pc[0] * e[1] + pc[1] * e[0] - mul[0] * x[1] - mul[1] * x[0],
            )
            if prev == (1, 0):
                column[i] = num
            else:
                column[i] = (
                    (num[0] * prev[0] + num[1] * prev[1]) // n,
                    (num[1] * prev[0] - num[0] * prev[1]) // n,
                )
        prev = pc

"""Arithmetic kernels over the Gaussian rationals, in pure Python.

These functions are the hot inner loops of the library: scalar arithmetic
in Q(i), dense polynomial arithmetic over Q(i) (sums of products of
Laurent polynomials n/x^k included), the monic gcd by one Euclidean
loop over monic remainders, truncated power-series division, and sparse
Gauss-Jordan elimination over Q(i) with the replay of its steps on
further columns.  They are the only arithmetic backend; every result is
exact.

Representations (plain tuples, lists and dicts):

  scalar   (a, b, d)  ints, meaning (a + b*i)/d with d > 0, gcd(a, b, d) = 1
  poly     list of scalars, index = exponent, no trailing zeros; zero = []
  sparse   dict {index: scalar} of the non-zero entries of a row or column:
           the systems are mostly zero, so they are assembled this way
           and the echelon kernel and its replay work on the non-zeros
           alone

The scalar representation keeps one shared denominator per coefficient,
so each ring operation needs a single 3-way gcd instead of per-component
Fraction normalizations, and none when both denominators are 1, the
common case.  A product with a one-term polynomial is a scale, and
``p_dot`` adds a whole sum of products into one numerator, summing its
coefficients unreduced and normalising each once.
"""

from __future__ import annotations

from math import gcd

GQ_ZERO = (0, 0, 1)
GQ_ONE = (1, 0, 1)
GQ_MINUS_ONE = (-1, 0, 1)
GQ_I = (0, 1, 1)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def gq_norm(a, b, d):
    if d == 1:
        return (a, b, 1) if a or b else GQ_ZERO
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
        if d1 == 1:
            a, b = a1 + a2, b1 + b2
            return (a, b, 1) if a or b else GQ_ZERO
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
    a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
    if d == 1:
        return (a, b, 1) if a or b else GQ_ZERO
    return gq_norm(a, b, d)


def gq_inv(x):
    a, b, d = x
    if d == 1 and a * a + b * b == 1:
        # a unit of Z[i]: its inverse is its conjugate
        return (a, -b, 1)
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
    """c*p; a unit factor 1 or -1 copies or negates p, with no product."""
    if gq_is_zero(c):
        return []
    if c == GQ_ONE or c == GQ_MINUS_ONE:
        return p_norm(p if c == GQ_ONE else [(-a, -b, d) for a, b, d in p])
    return p_norm([gq_mul(c, x) for x in p])


def p_mul(p, q):
    if not p or not q:
        return []
    if len(p) == 1 or len(q) == 1:
        # a scale: Q(i) has no zero divisors, so the last product is non-zero
        c, q = (p[0], q) if len(p) == 1 else (q[0], p)
        return list(q) if c == GQ_ONE else [gq_mul(c, x) for x in q]
    return p_dot([(GQ_ONE, p, q, 0)])[0]


def p_dot(terms):
    """The sum of c*p*q/x^k over the terms (c, p, q, k), as (numerator, K);
    a unit c of 1 or -1 takes no product.

    ``terms`` is a non-empty list; c is a scalar, p and q are non-zero
    polynomials and k is any integer.  K is the largest k, or 0 when
    every k is negative, and each product is added into one numerator
    over x^K, shifted up by K - k.  The coefficients are summed as
    unreduced (a, b, d) and normalised once at the end, so a sum pays
    one gcd per coefficient, and none where every denominator is 1.
    The numerator has no trailing zeros; its low zeros, which x^K may
    share, are left to the caller.
    """
    top = size = 0
    for _, p, q, k in terms:
        if k > top:
            size += k - top
            top = k
        size = max(size, len(p) + len(q) - 1 + top - k)
    re, im, den = [0] * size, [0] * size, [1] * size
    for c, p, q, k in terms:
        if c != GQ_ONE:
            p = [(-a, -b, d) for a, b, d in p] if c == GQ_MINUS_ONE else [gq_mul(c, x) for x in p]
        for i, (a1, b1, d1) in enumerate(p, top - k):
            if not (a1 or b1):
                continue
            for j, (a2, b2, d2) in enumerate(q, i):
                a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
                e = den[j]
                if e == d:
                    re[j] += a
                    im[j] += b
                else:
                    re[j] = re[j] * d + a * e
                    im[j] = im[j] * d + b * e
                    den[j] = e * d
    while size and not (re[size - 1] or im[size - 1]):
        size -= 1
    return [gq_norm(re[j], im[j], den[j]) for j in range(size)], top


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


def p_gcd(p, q):
    """Monic gcd over Q(i), by the Euclidean algorithm with each remainder
    made monic, which keeps its coefficients from swelling."""
    a, b = p_monic(p)[0], p_monic(q)[0]
    while b:
        a, b = b, p_monic(p_divmod(a, b)[1])[0]
    return a


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
# sparse Gauss-Jordan echelon over Q(i)
# ---------------------------------------------------------------------------


def zi_echelon(rows, npivot):
    """Sparse Gauss-Jordan elimination of a Q(i) matrix, in place.

    ``rows`` holds the rows as dicts ``{column: scalar}`` of their
    non-zeros, and each dict is reduced in place.  Columns are taken left
    to right in the first ``npivot`` only (trailing columns are carried
    along, e.g. right-hand sides).  The pivot of a column is the first
    unused row, in row order, with a non-zero there; it is scaled to a
    leading 1 and the column is cleared from every other row, above and
    below.  A column index ``{column: rows with a non-zero there}``,
    updated as fill-in enters a row or cancels out of it, names those
    rows, so a column costs only the rows it reaches.  Returns the steps,
    one per pivot, in order: ``(row, col, inv, targets)``, where ``inv``
    is the inverse of the pivot and ``targets`` the ``(row, factor)``
    pairs of the rows the column was cleared from, in row order, each
    factor that row's entry in the column when the pivot was taken.
    ``zi_replay`` applies the steps to one more column.

    The name predates the move from fraction-free Bareiss over Z[i]; it
    is kept because callers outside the package (the benchmark's tracer,
    for one) look the kernel up by it, and ``zi_replay`` keeps the name
    that pairs with it.
    """
    index = {}
    for i, row in enumerate(rows):
        for j in row:
            hits = index.get(j)
            if hits is None:
                index[j] = {i}
            else:
                hits.add(i)
    used = set()
    steps = []
    # fill-in enters a row only in the columns of a pivot row, so a column
    # that no row reaches stays empty and is never visited
    for col in sorted(index):
        if col >= npivot:
            break
        hits = index.pop(col)
        if len(hits) > 1:
            hits = sorted(hits)
        for piv in hits:
            if piv not in used:
                break
        else:
            continue
        used.add(piv)
        pr = rows[piv]
        inv = gq_inv(pr[col])
        if inv != GQ_ONE:
            for j, t in pr.items():
                pr[j] = gq_mul(inv, t)
        pr[col] = GQ_ONE
        targets = []
        if len(hits) > 1:
            # an unused row is zero left of col, so every other entry of
            # the pivot row lies in a column still indexed
            fill = [(j, t, index[j]) for j, t in pr.items() if j != col]
            for i in hits:
                if i == piv:
                    continue
                ri = rows[i]
                f = ri.pop(col)
                targets.append((i, f))
                for j, t, column in fill:
                    e = ri.get(j)
                    if e is None:
                        ri[j] = gq_neg(gq_mul(f, t))
                        column.add(i)
                        continue
                    x = gq_sub(e, gq_mul(f, t))
                    if x[0] or x[1]:
                        ri[j] = x
                    else:
                        del ri[j]
                        column.discard(i)
        steps.append((piv, col, inv, targets))
    return steps


def zi_replay(steps, column):
    """Apply the steps of ``zi_echelon`` to one more column, in place.

    ``column`` is the dict ``{row: scalar}`` of its non-zeros and ends as
    it would have, had it been carried along as a trailing column.  A
    step whose pivot row is zero in the column leaves it alone, so only
    the pivots the column reaches cost any work.
    """
    for r, _, inv, targets in steps:
        x = column.get(r)
        if x is None:
            continue
        x = gq_mul(inv, x)
        column[r] = x
        for i, f in targets:
            e = column.get(i)
            y = gq_neg(gq_mul(f, x)) if e is None else gq_sub(e, gq_mul(f, x))
            if y[0] or y[1]:
                column[i] = y
            else:
                del column[i]

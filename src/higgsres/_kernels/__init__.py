"""The arithmetic kernels, re-exported from ``pure``.

Library modules call them through this package (``K.p_mul``), so a
wrapper installed on an attribute here sees every call from outside the
kernels, and none of the calls one kernel makes to another.
"""

from .pure import (
    GQ_I,
    GQ_MINUS_ONE,
    GQ_ONE,
    GQ_ZERO,
    gq_add,
    gq_div,
    gq_inv,
    gq_is_zero,
    gq_mul,
    gq_neg,
    gq_norm,
    gq_sub,
    p_add,
    p_divmod,
    p_dot,
    p_gcd,
    p_monic,
    p_mul,
    p_neg,
    p_norm,
    p_scale,
    p_series_div,
    p_shift,
    p_sub,
    zi_echelon,
    zi_replay,
)

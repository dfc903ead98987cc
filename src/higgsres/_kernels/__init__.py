"""Kernel backend selection.

The compiled extension ``_fast`` is used when it is importable; the
pure-Python module ``pure`` is the fallback and the reference.
"""

try:
    from . import _fast as impl  # type: ignore[attr-defined]
except ImportError:
    from . import pure as impl

BACKEND = impl.BACKEND

GQ_ZERO = impl.GQ_ZERO
GQ_ONE = impl.GQ_ONE
GQ_I = impl.GQ_I

gq_norm = impl.gq_norm
gq_add = impl.gq_add
gq_sub = impl.gq_sub
gq_neg = impl.gq_neg
gq_mul = impl.gq_mul
gq_inv = impl.gq_inv
gq_div = impl.gq_div
gq_is_zero = impl.gq_is_zero

p_norm = impl.p_norm
p_add = impl.p_add
p_sub = impl.p_sub
p_neg = impl.p_neg
p_scale = impl.p_scale
p_mul = impl.p_mul
p_divmod = impl.p_divmod
p_monic = impl.p_monic
p_gcd = impl.p_gcd
p_eval = impl.p_eval
p_shift = impl.p_shift
p_series_div = impl.p_series_div

zi_mul = impl.zi_mul
zi_divexact = impl.zi_divexact
zi_echelon = impl.zi_echelon

"""Vectorized double-double arithmetic on numpy arrays.

A double-double carries ~31 significant decimal digits as an unevaluated sum
hi + lo of two floats with |lo| <= ulp(hi)/2.  The module serves only band
building, series.derivative, series.scale_argument and the residual of
ode.residual_norm.  The 'dd' band of _evalcore is built here and then
summed as fixed-point integers, which pushes the cancellation noise floor
of rescaled power sums from ~1e-16 down to ~1e-31 of the maximum term.

Numbers are (hi, lo) tuples of float64 arrays (or scalars).  The "sloppy"
renormalization variants are used throughout: error ~1e-31 relative, which
is all that is needed.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant

_LN2_HI = 6.931471805599452862e-01
_LN2_LO = 2.319046813846299558e-17

# 1/n! for n = 3..19, the exp Taylor core, as exact (hi, lo) pairs.
from fractions import Fraction as _Fr

_INV_FACT = []
_f = 2
for _n in range(3, 20):
    _f *= _n
    _q = _Fr(1, _f)
    _hi = float(_q)
    _lo = float(_q - _Fr(_hi))
    _INV_FACT.append((_hi, _lo))


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    err = b - (s - a)
    return s, err


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(a, b):
    s, e = two_sum(a[0], b[0])
    e = e + a[1] + b[1]
    return quick_two_sum(s, e)


def dd_sub(a, b):
    return dd_add(a, (-b[0], -b[1]))


def dd_mul(a, b):
    p, e = two_prod(a[0], b[0])
    e = e + (a[0] * b[1] + a[1] * b[0])
    return quick_two_sum(p, e)


def dd_from_d(a):
    return (a, np.zeros_like(a) if isinstance(a, np.ndarray) else 0.0)


def dd_exp(a):
    """exp of a double-double, elementwise; accurate to ~1e-31 relative.

    Arguments are expected in (-746, 1]; more negative inputs underflow to
    zero, which is the desired absorption behaviour for rescaled terms.
    """
    hi, lo = a
    hi = np.asarray(hi, dtype=float)
    lo = np.asarray(lo, dtype=float)
    # -inf / deeply negative inputs underflow to zero; compute them at a safe
    # sentinel and zero the outputs afterwards, keeping the array math finite
    tiny = ~(hi >= -746.0)
    if np.any(tiny):
        hi = np.where(tiny, -746.0, hi)
        lo = np.where(tiny, 0.0, lo)
    m = np.rint(hi / _LN2_HI)
    # r = a - m*ln2, in double-double
    t = two_prod(m, _LN2_HI)
    r = dd_sub((hi, lo), t)
    r = dd_sub(r, two_prod(m, _LN2_LO))
    # scale r by 1/4 so the Taylor core converges fast, square back twice
    r = (r[0] * 0.25, r[1] * 0.25)
    # exp(r) - 1 via Taylor; r is tiny (|r| <= ln2/8 + eps)
    p = dd_mul(r, r)
    s = dd_add(r, (p[0] * 0.5, p[1] * 0.5))
    p = dd_mul(p, r)
    for c in _INV_FACT:
        term = dd_mul(p, c)
        s = dd_add(s, term)
        p = dd_mul(p, r)
        if np.all(np.abs(p[0]) < 1e-35):
            break
    # undo the scaling: e^r = (1 + s)^4, computed as two squarings of (1+s)
    e1 = dd_add(dd_from_d(np.ones_like(s[0])), s)
    e1 = dd_mul(e1, e1)
    e1 = dd_mul(e1, e1)
    # apply 2**m
    m_int = m.astype(np.int64)
    with np.errstate(over="ignore", under="ignore"):
        out_hi = np.ldexp(e1[0], m_int)
        out_lo = np.ldexp(e1[1], m_int)
    if np.any(tiny):
        out_hi = np.where(tiny, 0.0, out_hi)
        out_lo = np.where(tiny, 0.0, out_lo)
    return out_hi, out_lo


def dd_log(a):
    """ln of a positive double-double, elementwise: one Newton step
    y + (a - e^y) e^-y from y = ln(hi), with e^y from dd_exp.  The step
    squares y's relative error (~1e-16), so what is left is dd_exp's
    (~1e-31 absolute on y) and the rounding of the correction."""
    hi, lo = a
    y = np.log(hi)
    ey = dd_exp((y, np.zeros_like(y)))
    # hi - e^y is exact (Sterbenz): the two agree to ~1e-16
    return two_sum(y, ((hi - ey[0]) + (lo - ey[1])) / ey[0])

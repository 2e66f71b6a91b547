"""Error-free transforms of doubles, elementwise on numpy arrays.

two_sum and two_prod return a rounded result together with its exact
rounding error: a + b = s + err and a b = p + err exactly (barring
overflow), for float64 scalars or arrays alike.  ode._scaled_band forms
the exponents ln|a_n| - ln mu(r) + n ln r of its band with them, and
ode.residual_norm the sums of two such ln mu, so that no logarithm of
the size of ln mu(r) is rounded on the way to a band term.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
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

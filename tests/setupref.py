"""Shared test helpers: the set-up paths around the kernels as they were
written before they were inlined, kept as references that the shipped
code must equal byte for byte.

certify_radius scans its 64 radii from the bottom up and keeps the
largest that passes; fixed_powers chains _fixed_mul calls; fixed_band
scales each term by one _shift_round call; result_fixed converts every
value through object arrays; coeff_cis takes cos and sin of every phase
and then overwrites the ones on the pi/2 grid."""

import math

import numpy as np

from growthlab import _evalcore
from growthlab import series as ps


def certify_radius(lh: np.ndarray) -> float:
    """series._certify_radius by its bottom-up loop over all 64 radii."""
    finite = np.nonzero(np.isfinite(lh))[0]
    if len(finite) < 4:
        return math.inf
    top = int(finite[-1])
    k = max(4, (top + 1) // 10)
    decade = finite[finite >= top - k + 1]
    if len(decade) < 2:
        decade = finite[-2:]
    slopes = np.diff(lh[decade]) / np.diff(decade.astype(float))
    mean_slope = float(np.mean(slopes))
    ln_r_hi = -mean_slope + math.log(0.9)
    lh_f, n_f = lh[finite], finite.astype(float)
    best = 0.0
    for ln_r in np.linspace(ln_r_hi - 12.0, ln_r_hi, 64):
        q = math.exp(mean_slope + ln_r)
        x = lh_f + n_f * ln_r
        log_mu = float(np.max(x))
        ln_tail = lh[top] + top * ln_r + math.log(q / (1.0 - q))
        if ln_tail < math.log(ps._TAIL_TOL) + log_mu:
            best = math.exp(ln_r)
    return best


def fixed_powers(x0: tuple, w: tuple, count: int, bits: int) -> list:
    """_evalcore._fixed_powers as a chain of _fixed_mul calls."""
    out = [x0]
    for _ in range(count - 1):
        out.append(_evalcore._fixed_mul(out[-1], w, bits))
    return out


def fixed_band(coeff, log_r: float, level: str, dps=None):
    """The uncached value of _evalcore._fixed_band, each term scaled by
    one _shift_round call over the fixed_powers chain."""
    ev = _evalcore
    if level == "dd":
        dps = ev._DD_DPS
    lo, hi, log_mu = (ev._band(coeff, log_r, ev._BAND_CUT["dd"])
                      if level == "dd" else ev._mp_band(coeff, log_r, dps))
    bits = ev._fixed_bits(dps, hi - lo)
    ns = lo + np.nonzero(np.isfinite(coeff.lh[lo:hi]))[0][::-1]
    g = bits + 24 + (hi - lo).bit_length()
    xs = fixed_powers(ev._fixed_exp(lo, log_r, log_mu, g),
                      ev._fixed_exp(1, log_r, 0.0, g), hi - lo, g)
    values = coeff.mp_logs(dps, hi)
    ts = [(0, 0) if v is None else
          ev._shift_round(v[0] * x, v[1] * x, -bits - v[2] - ex)
          for v, (x, _, ex) in ((values[n], xs[n - lo]) for n in ns)]
    return ((lo, hi, log_mu, bits,
             (ns, *(np.array(t, dtype=object) for t in zip(*ts)))),
            ev._fixed_floor(coeff, log_mu, dps, hi - lo))


_BIT_LENGTH = np.frompyfunc(int.bit_length, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _top_bits(v):
    s = np.maximum(_BIT_LENGTH(v).astype(np.int64) - 64, 0)
    return v >> s, s


def result_fixed(ar, ai, bits: int, log_mu: float, floor: float, level: str,
                 turn=None, mirror=None) -> _evalcore.EvalResult:
    """_evalcore._result_fixed through object arrays for any count."""
    ar = np.asarray(ar, dtype=object)
    ai = np.asarray(ai, dtype=object)
    logabs = np.full(len(ar), -np.inf)
    phase = np.zeros(len(ar))
    nz = np.nonzero((ar != 0) | (ai != 0))[0]
    vr, vi = ar[nz], ai[nz]
    top, s = _top_bits(vr * vr + vi * vi)
    logabs[nz] = log_mu + 0.5 * (_LOG(top).astype(float)
                                 + (s - 2 * bits) * math.log(2.0))
    if turn is not None:
        cr, ci = turn(nz)
        vr, vi = vr * cr - vi * ci, vr * ci + vi * cr
    _, s = _top_bits(np.maximum(np.abs(vr), np.abs(vi)))
    phase[nz] = _ATAN2((vi >> s).astype(float),
                       (vr >> s).astype(float)).astype(float)
    if mirror is not None:
        src, flip = mirror
        logabs, phase = logabs[src], np.where(flip, -phase[src], phase[src])
    return _evalcore.EvalResult(logabs, phase, floor, log_mu, level,
                                mirror is not None)


def coeff_cis(ph: np.ndarray):
    """_evalcore._coeff_cis by cos and sin of every phase, the pi/2 grid
    overwritten after."""
    cr = np.cos(ph)
    ci = np.sin(ph)
    for val, (c, s) in _evalcore._EXACT_CIS.items():
        mask = ph == val
        if np.any(mask):
            cr[mask] = c
            ci[mask] = s
    return cr, ci

"""Circle-evaluation engine for truncated power series.

Everything a growth functional needs from a series f(z) = sum a_n z^n on a
circle |z| = r is computed from per-coefficient log-magnitudes rescaled by
the maximum term mu(r) = max |a_n| r^n:

    f(r e^{i theta}) / mu(r) = sum t_n e^{i n theta},   |t_n| <= 1,

so the working numbers stay inside ordinary float range no matter how
violently the function grows.  What fixed-precision arithmetic cannot do is
resolve cancellation much deeper than its significand: the sum above can be
as small as e^{-2r} relative to mu(r) (e.g. e^z at theta = pi), which no
double can see at r = 100.  Three precision levels are therefore provided:

  'd'   plain complex128 from the stored logs, noise floor
        ~3e-16 * N * mu(r)
  'dd'  the 'mp' band at 32 digits (_DD_DPS) with a cut of 130 nats:
        fixed-point integers fed by the exact coefficients, P =
        _fixed_bits(32, N), floor ~3 N 10^-30.4 * mu(r)
  'mp'  fixed-point integers fed by the exact coefficients at dps digits,
        P = _fixed_bits(dps, N), floor ~3 N 10^(-0.95 dps) * mu(r)

'dd' and 'mp' differ only in their band's cut and digits (_fixed_band)
and share the kernels.  Scattered angles (`eval_points`) are summed by a
scalar fixed-point Horner per angle, with error at most (N + 1)^2 2^-P *
mu(r) for a band of N terms: below 2^-16 10^-dps (dps = 32 for 'dd').
Equispaced circles (`eval_circle`) of m angles fold the band mod m and
run one FFT: numpy's at 'd', for any m; one radix-2 FFT over Python
integers (twiddles cached per size) at 'dd' and 'mp', for m a power of
two up to _FFT_MAX_ANGLES, with error at most (2 N + 3) 2^-P * mu(r)
(see _circle_fixed), again far under the floor.
Circles therefore sample the exact angles 2 pi (j + 1/2) / m, points the
float angles they are given.
`eval_circle_at` reads an mp circle's values at chosen indices by whichever
of the two kernels costs less.

Every evaluation returns an explicit noise floor (in log scale) so callers
can tell whether deep cancellation corrupted the values they care about, and
escalate.  At 'd', phases of coefficients that are exact multiples of
pi/2 are propagated exactly, and everything else is accounted for in the
coefficient-data error bound CoeffData.rel_err_ln; 'dd' and 'mp' read
the exact values, whose accuracy is CoeffData.data_floor_ln(dps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp
import numpy as np

__all__ = ["CoeffData", "EvalResult", "log_max_term", "eval_circle",
           "eval_circle_at", "eval_points", "dps_for_floor", "LEVELS"]

LEVELS = ("d", "dd", "mp")

_EPS_LN_D = math.log(3e-16)  # the d level's arithmetic floor

# band cutoffs: terms this far (in nats) below the max term cannot move the
# result above the level's noise floor
_BAND_CUT = {"d": 60.0, "dd": 130.0}

_DD_DPS = 32  # the digits of the 'dd' level's exact values and floor


@dataclass
class CoeffData:
    """Log-polar coefficient storage for one truncated power series.

    lh:    ln|a_n|, -inf for a_n = 0; the nearest double where the series
           has exact values (a builtin, an integer march).
    ph:    phase of a_n; the sentinel values 0, +-pi/2, +-pi (stored as the
           numpy constants) are treated as exact.
    rel_err_ln: ln of the relative error bound on the stored logs: the
           data error of the 'd' level, and of 'dd' and 'mp' for a series
           without a factory, whose exact values are read from the logs
           (_fixed_of_logs).
    mp_factory: optional callable dps -> the exact coefficient values in
           the format of mp_logs, regenerating the series at arbitrary
           precision.  A derived series' factory reads its parents only
           through their mp_logs, so it shares their caches.

    The exact values are cached as one (dps, values) entry, which serves
    every request at or below that dps; a deeper request replaces it.
    _a_cache keeps the latest band per level (see _cached_band).
    """

    lh: np.ndarray
    ph: np.ndarray
    rel_err_ln: float
    mp_factory: Optional[Callable[[int], list]] = None
    _mp_entry: Optional[tuple] = field(default=None, repr=False)
    _a_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_terms(self) -> int:
        return len(self.lh)

    def mp_logs(self, dps: int) -> list:
        """The coefficient values for dps digits: each a triple (re, im, e)
        of integers standing for (re + i im) 2^e, with at least
        _exact_bits(dps) + 1 significant bits in the larger component, and
        None for an exact zero.  The name predates the format (the values
        were once log-polar pairs, then mpc).  Without a factory the values
        come from the stored logs (_fixed_of_logs).
        """
        if self._mp_entry is None or self._mp_entry[0] < dps:
            values = (self.mp_factory(dps) if self.mp_factory is not None
                      else _fixed_of_logs(self.lh, self.ph,
                                          _exact_bits(dps)))
            self._mp_entry = (dps, values)
        return self._mp_entry[1]

    def data_floor_ln(self, dps: Optional[int] = None) -> float:
        """ln of the relative accuracy claimed for the stored coefficients.

        Without dps (or without an mp factory) this is rel_err_ln.  With
        both it is 10^(-0.95 dps): a heuristic, not a bound.  It holds for
        builtins, whose values are exact to _exact_bits(dps) bits, but an
        ODE solution inherits the rounding of its inputs A_j, amplified by
        the recurrence: for f'' + e^z f = 0 (exp 220, init (1, 0), 2048
        terms) at dps 52, rounding A_0 to P + 1 bits alone moves
        coefficient 1097 by 5.4e-59 relative, against 4.0e-50 claimed.
        """
        if dps is not None and self.mp_factory is not None:
            return -0.95 * dps * math.log(10)
        return self.rel_err_ln


def _floor_ln(log_mu: float, eps_ln: float, data_ln: float,
              width: int) -> float:
    """Noise floor of a band sum of `width` terms: the larger of the
    arithmetic and data errors, times 3 width, relative to mu(r)."""
    return log_mu + max(eps_ln, data_ln) + math.log(3.0 * width)


def _fixed_floor(coeff: CoeffData, log_mu: float, dps: int,
                 width: int) -> float:
    """The 'dd' and 'mp' floor of a band sum of `width` terms at dps
    digits: the arithmetic error 10^(-0.95 dps) against the exact values'
    data_floor_ln(dps)."""
    return _floor_ln(log_mu, -0.95 * dps * math.log(10),
                     coeff.data_floor_ln(dps), width)


@dataclass
class EvalResult:
    """ln|f| and arg f at the sampled angles, plus the noise floor.

    Values with logabs <= floor_ln are numerically indistinguishable from
    zero at the level used; their phases are meaningless.
    """

    logabs: np.ndarray
    phase: np.ndarray
    floor_ln: float
    log_mu: float
    level: str


def log_max_term(coeff: CoeffData, log_r: float):
    """(ln mu(r), nu(r)): max of ln|a_n| + n ln r and the LARGEST argmax;
    (ln|a_0|, 0) at z = 0 (log_r = -inf), where a_0 = 0 is a ValueError,
    as is the zero series at any radius."""
    if log_r == -math.inf:
        if math.isfinite(coeff.lh[0]):
            return float(coeff.lh[0]), 0
        raise ValueError("a_0 = 0: no maximum term at z = 0"
                         if np.isfinite(coeff.lh).any()
                         else "all coefficients vanish")
    n = np.arange(coeff.n_terms, dtype=float)
    x = coeff.lh + n * log_r
    if not np.any(np.isfinite(x)):
        raise ValueError("all coefficients vanish")
    m = np.nanmax(x[np.isfinite(x)])
    winners = np.nonzero(x == m)[0]
    return float(m), int(winners[-1])


def _band(coeff: CoeffData, log_r: float, cut: float):
    n = np.arange(coeff.n_terms, dtype=float)
    x = coeff.lh + n * log_r
    finite = np.isfinite(x)
    m = np.max(x[finite])
    keep = finite & (x >= m - cut)
    idx = np.nonzero(keep)[0]
    return int(idx[0]), int(idx[-1]) + 1, float(m)


_EXACT_CIS = {
    0.0: (1.0, 0.0),
    float(np.pi): (-1.0, 0.0),
    float(-np.pi): (-1.0, 0.0),
    float(np.pi / 2): (0.0, 1.0),
    float(-np.pi / 2): (0.0, -1.0),
}


def _wrap_pi(p):
    """Angles reduced to [-pi, pi)."""
    return (p + np.pi) % (2.0 * np.pi) - np.pi


def _coeff_cis(ph: np.ndarray):
    """cos/sin of coefficient phases, exact on the pi/2 grid."""
    cr = np.cos(ph)
    ci = np.sin(ph)
    for val, (c, s) in _EXACT_CIS.items():
        mask = ph == val
        if np.any(mask):
            cr[mask] = c
            ci[mask] = s
    return cr, ci


def _rescaled(ldiff: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """exp(ldiff + i ph) as complex128, exact on the pi/2 phase grid."""
    with np.errstate(under="ignore"):
        mag = np.exp(ldiff)
    cr, ci = _coeff_cis(ph)
    return mag * cr + 1j * (mag * ci)


def _mp_band(coeff: CoeffData, log_r: float, dps: int):
    """(lo, hi, log_mu) of the mp band at dps digits: the terms within
    dps ln 10 + 40 nats of mu(r).  _fixed_band evaluates it, and the
    integer march of harness._count_solution_zeros is sized by it."""
    return _band(coeff, log_r, dps * math.log(10) + 40.0)


def _terms_d(coeff: CoeffData, log_r: float):
    """Rescaled coefficients t_n = a_n r^n / mu(r) as complex128 on a band,
    cached as the 'd' level's latest band (see _cached_band)."""
    def build():
        lo, hi, log_mu = _band(coeff, log_r, _BAND_CUT["d"])
        n = np.arange(lo, hi, dtype=float)
        return lo, hi, log_mu, _rescaled(
            coeff.lh[lo:hi] + n * log_r - log_mu, coeff.ph[lo:hi])

    return _cached_band(coeff, ("d", log_r), build)


def _cached_band(coeff: CoeffData, key: tuple, build: Callable):
    """build(), cached in coeff._a_cache as the latest band of level
    key[0]: a quadrature's circle, crossing search and partial-cell Gauss
    nodes at one radius reuse one band."""
    hit = coeff._a_cache.get(key[0])
    if hit is not None and hit[0] == key:
        return hit[1]
    entry = build()
    coeff._a_cache[key[0]] = (key, entry)
    return entry


def _poly_at_points_d(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum t_s x^s over unit-modulus points x, blocked for BLAS speed.

    t may be a stack of bands of one length, shape (k, N): the result is
    then (k, len(x)), and each row is bit for bit the 1-D call on that row
    of t.  Each band takes the 1-D call's own matmul: one batched product
    over the stack timed slower under OpenBLAS's default threads on a
    2-core machine.  The Horner steps run on flat rows of all k len(x) sums:
    numpy rounds a complex product on a contiguous 1-D array alike at
    every position, but not always alike on a broadcast 2-D one."""
    lead, n = t.shape[:-1], t.shape[-1]
    if n == 0:
        return np.zeros(lead + x.shape, dtype=complex)
    b = max(1, int(math.isqrt(n)))
    q = -(-n // b)
    tt = np.zeros(lead + (q * b,), dtype=complex)
    tt[..., :n] = t
    xs = np.empty((b, len(x)), dtype=complex)
    xs[0] = 1.0
    for s in range(1, b):
        xs[s] = xs[s - 1] * x
    if lead:
        inner = np.stack([band.reshape(q, b) @ xs for band in
                          tt.reshape(-1, q * b)], axis=1).reshape(q, -1)
        xb = np.tile(xs[b - 1] * x, math.prod(lead))
    else:  # one band: its product and step row need no stack or tile
        inner = tt.reshape(q, b) @ xs
        xb = xs[b - 1] * x
    acc = inner[q - 1]
    for row in range(q - 2, -1, -1):
        acc = acc * xb + inner[row]
    return acc.reshape(lead + x.shape)


def _logpolar(shift, v: np.ndarray) -> tuple:
    """(shift + ln|v|, arg v) of complex values v, and (-inf, 0) where v is
    0; shift is a float or an array of v's shape."""
    nz = v != 0
    with np.errstate(divide="ignore"):
        lh = np.where(nz, shift + np.log(np.abs(v)), -np.inf)
    return lh, np.where(nz, np.angle(v), 0.0)


def _result_d(coeff: CoeffData, val: np.ndarray, lo: int, hi: int,
              log_mu: float) -> EvalResult:
    """EvalResult of band sums val = f / mu(r) computed in complex128."""
    floor = _floor_ln(log_mu, _EPS_LN_D, coeff.rel_err_ln, hi - lo)
    return EvalResult(*_logpolar(log_mu, val), floor, log_mu, "d")


_FIX_GUARD_BITS = 16
_LN2 = math.log(2.0)

# circles up to this size (nevanlinna's largest mesh) take the integer FFT;
# the twiddle cache holds one table per power of two up to it
_FFT_MAX_ANGLES = 1 << 16
_TW_GUARD_BITS = 64  # bits a cached twiddle table keeps below its scale
_TWIDDLES = {}  # m -> (scale, re, im) of e^{i pi k / m}, k < m
# eval_circle_at's crossover: N (p + this) is the cost of p Horner points
# over N terms in the units of an m-angle circle's m log2 m
_HORNER_STEP_COST = 10


def _fixed_bits(dps: int, width: int) -> int:
    """Fixed-point scale P for an mp band of `width` terms at `dps` digits.

    P >= dps log2(10) + 2 log2(width + 1) + 16, so the kernel's error bound
    (width + 1)^2 2^-P stays below 2^-16 10^-dps: under the mp floor
    3 width 10^(-0.95 dps) (relative to mu) by more than 10^(0.05 dps) 2^16.
    """
    return (int(math.ceil(dps * math.log2(10.0)))
            + 2 * (width + 1).bit_length() + _FIX_GUARD_BITS)


def _to_fixed(v, bits: int) -> int:
    """round(v 2^bits) for a raw mpf value v (an mpf's _mpf_ tuple)."""
    lib = mp.libmp
    return lib.to_int(lib.mpf_shift(v, bits), lib.round_nearest)


# Exact coefficient values are fixed-point triples (re, im, e) of integers,
# standing for (re + i im) 2^e, with None for an exact zero (the format of
# CoeffData.mp_logs).  Only these helpers and the integer kernels that sum
# such values know the format.

def _exact_bits(dps: int) -> int:
    """P = ceil(dps log2 10) + 32: the significant bits, beyond the top
    one, that exact values for dps digits keep, and with them the
    exact-sum kernels (the integer march, the integer Cauchy product)."""
    return math.ceil(dps * math.log2(10)) + 32


def _shift_round(re: int, im: int, s: int) -> tuple:
    """(re, im) 2^-s, each rounded to the nearest integer."""
    if s <= 0:
        return re << -s, im << -s
    half = 1 << (s - 1)
    return (re + half) >> s, (im + half) >> s


def _fixed_round(v: tuple, bits: int) -> Optional[tuple]:
    """v rounded to nearest with bits + 1 significant bits in its larger
    component (bits + 2 after a carry), so within 2^-bits of |v|; a value
    with fewer bits is shifted up exactly.  None for zero."""
    re, im, e = v
    s = max(abs(re), abs(im)).bit_length() - bits - 1
    return (*_shift_round(re, im, s), e + s) if re or im else None


def _fixed_of_complex(c) -> Optional[tuple]:
    """A complex float as an exact triple; None for 0."""
    (nr, dr), (ni, di) = (float(x).as_integer_ratio()
                          for x in (c.real, c.imag))
    k = max(dr, di).bit_length() - 1  # both denominators divide 2^k
    return ((nr << k) // dr, (ni << k) // di, -k) if nr or ni else None


def _fixed_div(re: int, im: int, e: int, d: int, bits: int) -> tuple:
    """(re + i im) 2^e / d for a positive int d, as (re, im, e) with bits + 1
    or bits + 2 significant bits: one floor division per component, so each
    component is within 2^-bits |quotient| of the exact one."""
    sh = bits + 1 - max(abs(re), abs(im)).bit_length() + d.bit_length()
    if sh >= 0:
        return (re << sh) // d, (im << sh) // d, e - sh
    d <<= -sh
    return re // d, im // d, e - sh


def _fixed_mul(a: tuple, b: tuple, bits: int) -> Optional[tuple]:
    """a b, formed exactly and rounded by _fixed_round."""
    (ar, ai, ea), (br, bi, eb) = a, b
    return _fixed_round((ar * br - ai * bi, ar * bi + ai * br, ea + eb), bits)


def _fixed_add(a, b, sign: int, bits: int) -> Optional[tuple]:
    """a + sign b for sign = +-1 (None is zero), formed exactly and rounded
    by _fixed_round."""
    if a is None or b is None:
        return a if b is None else (sign * b[0], sign * b[1], b[2])
    e = min(a[2], b[2])
    sa, sb = a[2] - e, b[2] - e
    return _fixed_round(((a[0] << sa) + sign * (b[0] << sb),
                         (a[1] << sa) + sign * (b[1] << sb), e), bits)


def _fixed_powers(x0: tuple, w: tuple, count: int, bits: int) -> list:
    """x0 w^k for k < count, each from the one before by _fixed_mul: the
    k-th within (1 + 2^-bits)^k - 1 relative of x0 w^k."""
    out = [x0]
    for _ in range(count - 1):
        out.append(_fixed_mul(out[-1], w, bits))
    return out


def _fixed_exp(k: int, log_r: float, log_mu: float, bits: int) -> tuple:
    """e^(k log_r - log_mu), the argument formed exactly, as a real triple
    within 2^-bits (1/2 + 2^-8) relative."""
    lib = mp.libmp
    arg = lib.mpf_sub(lib.mpf_mul(lib.from_int(k), lib.from_float(log_r)),
                      lib.from_float(log_mu))
    _, man, e, _ = lib.mpf_exp(arg, bits + 9, lib.round_nearest)
    return _fixed_round((man, 0, e), bits)


def _fixed_of_logs(lh, ph, bits: int) -> list:
    """exp(lh + i ph) per stored coefficient, within 2^-bits (1 + 2^-6)
    relative; None where lh = -inf.  Phases on the pi/2 grid (_EXACT_CIS)
    are taken as exact."""
    out = []
    for h, p in zip(lh.tolist(), ph.tolist()):
        cs = _EXACT_CIS.get(p)
        cis = ((int(cs[0]), int(cs[1]), 0) if cs is not None
               else (*_fixed_cis(1, p, bits + 8), -bits - 8))
        out.append(_fixed_mul(_fixed_exp(1, h, 0.0, bits + 8), cis, bits)
                   if math.isfinite(h) else None)
    return out


_LOG_BITS = 53 + 64  # ln|v| to 64 bits past a double, then rounded


def _logs_of(values: list) -> tuple:
    """(lh, ph) of triples: ln|v| to the nearest double (computed to
    _LOG_BITS bits and rounded once), arg v to 53 bits; -inf, 0 for None.
    Exactly real or imaginary values get the phases 0, +-pi/2 and pi of
    the _EXACT_CIS grid."""
    lib, rnd = mp.libmp, mp.libmp.round_nearest
    lh, ph = np.full(len(values), -np.inf), np.zeros(len(values))
    for i in (i for i, v in enumerate(values) if v is not None):
        re, im, e = values[i]
        sq = lib.from_man_exp(re * re + im * im, 2 * e)  # |v|^2
        lh[i] = lib.to_float(lib.mpf_shift(lib.mpf_log(sq, _LOG_BITS, rnd),
                                           -1), rnd=rnd)
        ph[i] = lib.to_float(lib.mpf_atan2(lib.from_int(im), lib.from_int(re),
                                           53, rnd))
    return lh, ph


def _fixed_cis(k: int, theta: float, bits: int):
    """cos, sin of k theta (formed exactly) as integers at scale 2^bits."""
    lib = mp.libmp
    arg = lib.mpf_mul(lib.from_int(k), lib.from_float(theta))
    c, s = lib.mpf_cos_sin(arg, bits + 8)
    return _to_fixed(c, bits), _to_fixed(s, bits)


def _fixed_band(coeff: CoeffData, log_r: float, level: str,
                dps: Optional[int]):
    """((lo, hi, log_mu, P, (n, re, im)), floor_ln) at 'dd' or 'mp': the
    band's nonzero terms t_n = a_n r^n / mu(r), highest n first, as an
    index array and two object arrays of integers at scale 2^P, and the
    level's noise floor (_fixed_floor).

    Both levels read the exact values coeff.mp_logs(dps); they differ in
    their cut and digits.  'mp' keeps the terms within dps ln 10 + 40
    nats of mu(r) (_mp_band); 'dd' keeps those within _BAND_CUT['dd'] nats,
    at dps = _DD_DPS.  P = _fixed_bits(dps, N), and each value a_n times
    r^n / mu(r) from _fixed_powers (start e^(lo ln r - ln mu), ratio r, by
    _fixed_exp) at P + 24 + bitlen(hi - lo) bits, so within 2^-(P+23)
    relative, is rounded to nearest at scale 2^P: each component is
    within (1/2 + 2^-23 |t_n|) 2^-P of the exact a_n r^n / mu(r).  The
    band is cached as its level's latest (see _cached_band).
    """
    if level == "dd":
        dps = _DD_DPS
        lo, hi, log_mu = _band(coeff, log_r, _BAND_CUT["dd"])
    elif level == "mp":
        if dps is None:
            raise ValueError("mp evaluation needs an explicit dps")
        lo, hi, log_mu = _mp_band(coeff, log_r, dps)
    else:
        raise ValueError(f"unknown level {level!r}")
    bits = _fixed_bits(dps, hi - lo)

    def build():
        ns = lo + np.nonzero(np.isfinite(coeff.lh[lo:hi]))[0][::-1]
        g = bits + 24 + (hi - lo).bit_length()
        xs = _fixed_powers(_fixed_exp(lo, log_r, log_mu, g),
                           _fixed_exp(1, log_r, 0.0, g), hi - lo, g)
        values = coeff.mp_logs(dps)
        ts = [(0, 0) if v is None else
              _shift_round(v[0] * x, v[1] * x, -bits - v[2] - ex)
              for v, (x, _, ex) in ((values[n], xs[n - lo]) for n in ns)]
        return lo, hi, log_mu, bits, (ns, *(np.array(t, dtype=object)
                                            for t in zip(*ts)))

    return (_cached_band(coeff, (level, dps, lo, hi, log_r), build),
            _fixed_floor(coeff, log_mu, dps, hi - lo))


_BIT_LENGTH = np.frompyfunc(int.bit_length, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _top_bits(v):
    """(v >> s, s) elementwise, s = max(0, bit_length(v) - 64): the leading
    64 bits of each integer of the object array v, and the shift."""
    s = np.maximum(_BIT_LENGTH(v).astype(np.int64) - 64, 0)
    return v >> s, s


def _result_fixed(ar, ai, bits: int, log_mu: float, floor: float,
                  level: str, turn: Optional[Callable] = None) -> EvalResult:
    """EvalResult of fixed-point sums (ar_j + i ai_j) 2^-bits = f / mu(r).

    ln|f| comes from the leading 64 bits of ar^2 + ai^2, arg f from those
    of (ar, ai), through math.log and math.atan2 elementwise.  With `turn`,
    sum j is f / (mu(r) z^last), and turn(js) gives the fixed-point cis
    arrays that restore f's phase at the indices js; the modulus needs no
    turn.
    """
    ar = np.asarray(ar, dtype=object)
    ai = np.asarray(ai, dtype=object)
    logabs = np.full(len(ar), -np.inf)
    phase = np.zeros(len(ar))
    nz = np.nonzero((ar != 0) | (ai != 0))[0]
    vr, vi = ar[nz], ai[nz]
    top, s = _top_bits(vr * vr + vi * vi)
    logabs[nz] = log_mu + 0.5 * (_LOG(top).astype(float)
                                 + (s - 2 * bits) * _LN2)
    if turn is not None:
        cr, ci = turn(nz)
        vr, vi = vr * cr - vi * ci, vr * ci + vi * cr
    _, s = _top_bits(np.maximum(np.abs(vr), np.abs(vi)))
    phase[nz] = _ATAN2((vi >> s).astype(float),
                       (vr >> s).astype(float)).astype(float)
    return EvalResult(logabs, phase, floor, log_mu, level)


def _horner_fixed(band, bits: int, ths):
    """The band's sum over x^(n - last) at x = e^{i theta}, last the band's
    lowest index, as an (re, im) pair of fixed-point ints per angle: one
    scalar loop over Python ints per angle, with x^gap rounded per gap
    (_fixed_cis), not formed by repeated multiplication."""
    ns, trs, tis = band
    gaps = (ns[:-1] - ns[1:]).tolist()
    steps = list(zip(gaps, trs[1:].tolist(), tis[1:].tolist()))
    distinct = set(gaps)
    sums = []
    for th in ths:
        powers = {g: _fixed_cis(g, th, bits) for g in distinct}
        ar, ai = trs[0], tis[0]
        for g, tr, ti in steps:
            xr, xi = powers[g]
            ar, ai = (((ar * xr - ai * xi) >> bits) + tr,
                      ((ar * xi + ai * xr) >> bits) + ti)
        sums.append((ar, ai))
    return sums


def _twiddles(m: int, bits: int):
    """e^{i pi k / m} for k < m, rounded to integers at scale 2^bits.

    One table per m is cached, at a multiple of _TW_GUARD_BITS at least
    that far below the deepest scale asked for, and rounded down to each
    request's scale: the correctly rounded integers unless a value lies
    within 2^-63 units of a rounding midpoint.  A table is built one way,
    whatever else is cached: w = e^{i pi / m} from one mpf_cos_sin, and
    w^k for k <= m / 4 by _fixed_powers at g = depth + 16 + bitlen(m)
    bits, each within (1 + 2^-4) k 2^-g < 2^-(depth + 17) of e^{i pi k /
    m}, rounded to nearest at the table's depth.  The rest follows exactly
    from the symmetries of cos and sin.
    """
    deep = (-(-bits // _TW_GUARD_BITS) + 1) * _TW_GUARD_BITS
    entry = _TWIDDLES.get(m)
    if entry is None or entry[0] < deep:
        g = deep + 16 + m.bit_length()
        lib = mp.libmp
        arg = lib.mpf_div(lib.mpf_pi(g + 8), lib.from_int(m), g + 8)
        w = (*(_to_fixed(v, g + 4) for v in lib.mpf_cos_sin(arg, g + 8)),
             -g - 4)
        cs = [_shift_round(re, im, -deep - e) for re, im, e in
              _fixed_powers((1, 0, 0), w, m // 4 + 1, g)]
        # i conj(e^{i pi (m/2 - k)/m}) to m/2, then i e^{i pi (k - m/2)/m}
        cs += [cs[m // 2 - k][::-1] for k in range(m // 4 + 1, m // 2 + 1)]
        cs += [(-s, c) for c, s in cs[1:m // 2]]
        entry = (deep, *(np.array(v, dtype=object) for v in zip(*cs)))
        _TWIDDLES[m] = entry
    shift = entry[0] - bits
    half = 1 << (shift - 1)
    return (entry[1] + half) >> shift, (entry[2] + half) >> shift


def _circle_fixed(n, tr, ti, bits: int, m: int, offset: bool):
    """sum_n t_n e^{i n theta_j} for theta_j = 2 pi (j + offset/2) / m,
    j < m, from the band's terms t_n = (tr + i ti) 2^-bits at indices n.

    Returns (ar, ai, q): the sums as integers at scale 2^q, q = bits +
    log2 m.  m is a power of two.  The terms are folded into m bins by
    n mod m, with the exact sign (-1)^floor(n/m) on the offset mesh; each
    bin is shifted to scale 2^q and, on the offset mesh, twisted once by
    e^{i pi k / m}; a radix-2 decimation-in-time FFT over object arrays of
    Python ints then sums each bin against e^{2 pi i jk / m}, truncating
    each twiddle product at scale 2^q.

    Error, relative to mu(r), for a band of N terms |t_n| <= 1, each given
    to within delta 2^-bits (delta = sqrt2 (1/2 + 2^-23) for the dd and mp
    bands alike; see _fixed_band).  In units of
    2^-q, each product truncates by at most sqrt2 and carries its
    twiddle's rounding, sqrt2/2 times its operand.  An output sees each
    twist product once and, at butterfly level s = 2 .. log2 m, one
    product per block of 2^s bins, whose operands sum to at most N.  So
    the sums are within

        delta N 2^-bits + ((3/2) sqrt2 m + (sqrt2/2) N log2 m) 2^-q
            <= ((delta + 0.36) N + 2.2) 2^-bits

    of the exact ones: under (2 N + 3) 2^-bits, and so, with bits from
    _fixed_bits, under 2^-15 10^-dps (dps = 32 for dd), far below both
    levels' floors.
    """
    log_m = m.bit_length() - 1
    k = n % m
    if offset:
        odd = (n // m) % 2 == 1
        tr = np.where(odd, -tr, tr)
        ti = np.where(odd, -ti, ti)
    xr = np.zeros(m, dtype=object)
    xi = np.zeros(m, dtype=object)
    np.add.at(xr, k, tr)
    np.add.at(xi, k, ti)
    q = bits + log_m
    xr, xi = xr << log_m, xi << log_m
    wr, wi = _twiddles(m, q)
    if offset:
        xr, xi = (xr * wr - xi * wi) >> q, (xr * wi + xi * wr) >> q
    j = np.arange(m)
    rev = np.zeros(m, dtype=np.intp)
    for b in range(log_m):
        rev |= ((j >> b) & 1) << (log_m - 1 - b)
    xr, xi = xr[rev], xi[rev]
    h = 1
    while h < m:
        ar, ai = xr.reshape(-1, 2, h), xi.reshape(-1, 2, h)
        br, bi = ar[:, 1], ai[:, 1]
        if h > 1:  # e^{i pi k / h} = table entry k m / h; exact 1 at h = 1
            cr, ci = wr[::m // h], wi[::m // h]
            br, bi = (br * cr - bi * ci) >> q, (br * ci + bi * cr) >> q
        xr = np.concatenate((ar[:, 0] + br, ar[:, 0] - br), axis=1)
        xi = np.concatenate((ai[:, 0] + bi, ai[:, 0] - bi), axis=1)
        h *= 2
    return xr.reshape(m), xi.reshape(m), q


def eval_points(coeff: CoeffData, log_r: float, thetas: np.ndarray,
                level: str = "dd", dps: Optional[int] = None) -> EvalResult:
    """Evaluate ln|f|, arg f at arbitrary angles on |z| = e^{log_r}.

    'd' sums the complex128 band by blocked Horner.  'dd' and 'mp' run a
    scalar fixed-point Horner per angle over the band of _fixed_band
    (_horner_fixed): f(r e^{i theta}) / mu(r) = sum t_n x^n with |t_n| <=
    1 and x = e^{i theta}, summed over Python integers at scale 2^P.  The
    powers x^gap are rounded to nearest at scale 2^P, and each step acc <-
    (acc x^gap >> P) + t_n truncates once per component.  For a band of N
    terms the partial sums obey |acc_k| <= k, so the computed sum differs
    from the exact one by at most

        (N + 1)^2 2^-P   relative to mu(r),

    for the rounded terms of _fixed_band.  _fixed_bits keeps this below
    2^-16 10^-dps (dps = 32 at 'dd'), far under either level's floor_ln
    (3 N 10^-30.4 at 'dd').  The modulus
    comes from acc itself; the phase from acc times the fixed-point cis of
    the lowest nonzero index times theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    if level == "d":
        lo, hi, log_mu, t = _terms_d(coeff, log_r)
        x = np.exp(1j * thetas)
        return _result_d(coeff, _poly_at_points_d(t, x) * x ** lo, lo, hi,
                         log_mu)
    (_, _, log_mu, bits, band), floor = _fixed_band(coeff, log_r, level, dps)
    thetas = thetas.tolist()
    ar, ai = np.array(_horner_fixed(band, bits, thetas),
                      dtype=object).reshape(-1, 2).T
    last = int(band[0][-1])

    def turn(js):
        return np.array([_fixed_cis(last, thetas[j], bits) for j in js],
                        dtype=object).reshape(-1, 2).T

    return _result_fixed(ar, ai, bits, log_mu, floor, level,
                         turn if last else None)


def eval_circle(coeff: CoeffData, log_r: float, m: int, offset: bool = True,
                level: str = "d", dps: Optional[int] = None) -> EvalResult:
    """Evaluate on m equispaced angles theta_j = 2 pi (j + offset/2) / m.

    The offset mesh dodges the real axis, where test subjects habitually
    keep their zeros.  Every level folds the band mod m and runs one FFT:
    complex128 at 'd'; at 'dd' and 'mp', for m a power of two up to
    _FFT_MAX_ANGLES, the integer FFT of _circle_fixed at the exact angles
    over the fixed-point band of _fixed_band, within (2 N + 3) 2^-P of f /
    mu(r) for a band of N terms, where P is the band's scale:
    _fixed_bits(dps, N) at 'mp', _fixed_bits(32, N) at 'dd'.  Any other m
    is a ValueError at 'dd'
    and 'mp' (eval_circle_at reads larger circles by eval_points); 'd'
    takes any m.
    """
    if level == "d":
        lo, hi, log_mu, t = _terms_d(coeff, log_r)
        n = np.arange(lo, hi)
        if offset:
            # theta_j = 2 pi (j + 1/2) / m: twist each term by e^{i pi n / m}
            t = t * np.exp(1j * np.pi * n / m)
        # fold indices modulo m (exact evaluation of the trig sum by FFT)
        folded = np.zeros(m, dtype=complex)
        np.add.at(folded, n % m, t)
        return _result_d(coeff, m * np.fft.ifft(folded), lo, hi, log_mu)
    if m < 1 or m & (m - 1) or m > _FFT_MAX_ANGLES:
        raise ValueError(f"a {level} circle takes a power of two up to "
                         f"{_FFT_MAX_ANGLES} angles, not {m}")
    (_, _, log_mu, bits, band), floor = _fixed_band(coeff, log_r, level, dps)
    ar, ai, q = _circle_fixed(*band, bits, m, offset)
    return _result_fixed(ar, ai, q, log_mu, floor, level)


def eval_circle_at(coeff: CoeffData, log_r: float, m: int, idx, dps: int,
                   offset: bool = True) -> EvalResult:
    """The mp circle's values at the indices idx of its m angles, at dps
    digits, by the cheaper kernel.

    For m a power of two up to _FFT_MAX_ANGLES, the whole circle's integer
    FFT costs about m log2 m units of work, and eval_points on p =
    len(idx) angles about N (p + _HORNER_STEP_COST) for a band of N
    nonzero terms; the cheaper runs.  Timed with cached bands and twiddles
    on an ODE solution and builtins (N = 64 .. 654, dps 47 .. 64, m = 256
    .. 16384), the circle took 320 - 1400 ns per unit, and a Horner step
    (one angle's sum by one term) 590 - 1700 ns at p = 8 and 64, 760 -
    3700 ns at p = 1: a call's fixed cost is one or two steps per term, not
    the ~10 of the object-array kernel _HORNER_STEP_COST was measured on.
    An uncached twiddle table costs up to a circle again, once.  The
    circle gives the exact angles 2 pi (j + offset/2) / m, the points
    those angles rounded to floats: the two agree within the floor, not
    bit for bit.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if not m & (m - 1) and m <= _FFT_MAX_ANGLES:
        (_, _, _, _, band), _ = _fixed_band(coeff, log_r, "mp", dps)
        if m * math.log2(m) <= len(band[0]) * (len(idx) + _HORNER_STEP_COST):
            res = eval_circle(coeff, log_r, m, offset=offset, level="mp",
                              dps=dps)
            return EvalResult(res.logabs[idx], res.phase[idx], res.floor_ln,
                              res.log_mu, res.level)
    thetas = (2.0 * np.pi) * (idx + (0.5 if offset else 0.0)) / m
    return eval_points(coeff, log_r, thetas, level="mp", dps=dps)


_DPS_GUARD = 25.0  # nats of slack between the mp floor and the target


def dps_for_floor(coeff: CoeffData, log_r: float, target_ln: float) -> int:
    """dps needed so the mp noise floor sits below target_ln (in ln units)."""
    log_mu, _ = log_max_term(coeff, log_r)
    need = log_mu + math.log(3.0 * coeff.n_terms) + _DPS_GUARD - target_ln
    return max(30, int(math.ceil(need / math.log(10))) + 5)

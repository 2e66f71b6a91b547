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
and share the kernels.  Scattered angles (`eval_points`) are summed by
Reinsch's real three-term recurrence per angle over fixed-point integers,
with error at most 2^-(P+3) * mu(r): below 2^-19 10^-dps (dps = 32 for
'dd').
Equispaced circles (`eval_circle`) of m angles 2 pi (j + 1/2) / m fold
the band mod m and run one FFT: numpy's at 'd', for any m; one radix-2
FFT over Python integers (twiddles cached per size) at 'dd' and 'mp', for
m a power of two up to _FFT_MAX_ANGLES, with error at most (2 N + 3) 2^-P
* mu(r) (see _circle_fixed), again far under the floor.
Circles therefore sample the exact angles, points the float angles they
are given.  `eval_circle_at` reads chosen indices of an mp circle, on the
offset mesh or the unshifted one, as points.

Every evaluation returns an explicit noise floor (in log scale) so callers
can tell whether deep cancellation corrupted the values they care about, and
escalate.  At 'd', phases of coefficients that are exact multiples of
pi/2 are propagated exactly, and everything else is accounted for in the
coefficient-data error bound CoeffData.rel_err_ln; 'dd' and 'mp' read
the exact values, whose accuracy is CoeffData.data_floor_ln(dps).
"""

from __future__ import annotations

import functools
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
    mp_factory: optional callable (dps, n) -> a_0..a_{n-1}, the exact
           coefficient values in the format of mp_logs, regenerating the
           series at arbitrary precision.  It is prefix-exact: its value
           at index i does not depend on n.  A derived series' factory
           reads its parents only through their mp_logs, so it shares
           their caches.

    The exact values are cached as one (dps, values) entry, which serves
    every request at or below its dps and length; any other request
    replaces it by factory(max(dps, cached dps), max(n, cached length)),
    so the entry never loses depth or length.  _a_cache keeps the latest
    band per level (see _cached_band).
    """

    lh: np.ndarray
    ph: np.ndarray
    rel_err_ln: float
    mp_factory: Optional[Callable[[int, int], list]] = None
    _mp_entry: Optional[tuple] = field(default=None, repr=False)
    _a_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_terms(self) -> int:
        return len(self.lh)

    def mp_logs(self, dps: int, n: Optional[int] = None) -> list:
        """The values a_0..a_{n-1} for dps digits (every stored term for
        n None): each a triple (re, im, e) of integers standing for
        (re + i im) 2^e, with at least _exact_bits(dps) + 1 significant
        bits in the larger component, and None for an exact zero.  The
        name predates the format (the values were once log-polar pairs,
        then mpc).  Without a factory the values come from the stored logs
        (_fixed_of_logs).
        """
        n = self.n_terms if n is None else min(n, self.n_terms)
        entry = self._mp_entry
        if entry is None or entry[0] < dps or len(entry[1]) < n:
            d, m = (dps, n) if entry is None else (max(dps, entry[0]),
                                                   max(n, len(entry[1])))
            values = (self.mp_factory(d, m) if self.mp_factory is not None
                      else _fixed_of_logs(self.lh[:m], self.ph[:m],
                                          _exact_bits(d)))
            entry = self._mp_entry = (d, values)
        return entry[1] if len(entry[1]) == n else entry[1][:n]

    def data_floor_ln(self, dps: Optional[int] = None) -> float:
        """ln of the relative accuracy claimed for the stored coefficients.

        Without dps (or without an mp factory) this is rel_err_ln.  With
        both it is 10^(-0.95 dps): a heuristic, not a bound.  It holds for
        builtins, whose values are exact to _exact_bits(dps) bits, but an
        ODE solution inherits the rounding of its inputs A_j, amplified by
        the recurrence: for f'' + e^z f = 0 (exp 220, init (1, 0), 2048
        terms) at dps 52, coefficient 1097 is 3.9e-58 relative off a march
        20 digits deeper (5.4e-59 of it input rounding), against 4.0e-50.
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
    zero at the level used; their phases are meaningless.  A circle of a
    real band is `mirrored`: its values at theta and -theta are exact
    conjugates (equal logabs, negated phase), as f(r e^{-i theta}) =
    conj f(r e^{i theta}) for real coefficients.
    """

    logabs: np.ndarray
    phase: np.ndarray
    floor_ln: float
    log_mu: float
    level: str
    mirrored: bool = False


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
    dps ln 10 + 40 nats of mu(r).  _fixed_band evaluates it, and
    harness._count_solution_zeros fills the exact values it reads."""
    return _band(coeff, log_r, dps * math.log(10) + 40.0)


def _terms_d(coeff: CoeffData, log_r: float):
    """Rescaled coefficients t_n = a_n r^n / mu(r) as complex128 on a band,
    cached as the 'd' level's latest band (see _cached_band)."""
    def build():
        lo, hi, log_mu, t = _bands_d(coeff, [log_r])
        return int(lo[0]), int(hi[0]), float(log_mu[0]), t

    return _cached_band(coeff, ("d", log_r), build)


def _bands_d(coeff: CoeffData, log_rs):
    """The d bands of _terms_d at several log radii, uncached: (lo, hi,
    log_mu) as arrays, one entry per radius, and every band's terms end to
    end in one complex128 array, from one exp, cos and sin over all of
    them.  Each step is elementwise, so a band has the same bits as at its
    radius alone."""
    ends = [_band(coeff, lr, _BAND_CUT["d"]) for lr in log_rs]
    lo, hi, log_mu = (np.array(v) for v in zip(*ends))
    width = hi - lo
    n = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width - lo,
                                           width)
    ldiff = (coeff.lh[n] + n.astype(float) * np.repeat(log_rs, width)
             - np.repeat(log_mu, width))
    return lo, hi, log_mu, _rescaled(ldiff, coeff.ph[n])


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
    """sum t_n x^n (n < N) over unit-modulus points x, from a power table.

    With b = isqrt(N) and q = ceil(N / b), each power x^n, n = r b + s,
    is (x^b)^r x^s: the table is held as its two factors, the running
    products x^s (s < b, one np.cumprod) and (x^b)^r (r < q, a second
    one from x^b = x^(b-1) x).  x^n thus carries s + r(b + 1) rounded
    products of unit-modulus numbers, at most about N + sqrt(N) of them:
    the same class as the blocked Horner this replaces, whose steps acc x^b
    carried the same (x^b)^r.  Each band row, cut into q blocks of b terms,
    is summed against the table by 1-D complex dots (np.vecdot), q b-term
    dots per point and then one q-term dot per point.

    No matrix product is made: OpenBLAS runs even a tiny complex matrix
    product on two threads of a 2-core machine, and waking them costs far
    more than the product (an (85, 86) @ (86, 1) product took 436 us per
    call, against 5.2 us on one thread).  A 1-D dot runs on one thread up
    to 10,000 terms, past which OpenBLAS splits it, and its rounding, by
    thread count; these dots are about sqrt(N) terms long.

    t may be a stack of bands of one length, shape (k, N): the result is
    then (k, len(x)), and each row is bit for bit the 1-D call on that row
    of t, since each of its sums is the same dot of the same vectors.
    np.vecdot conjugates its first operand, so the table is built from
    conj(x), whose running products are exactly the conjugates of x's."""
    lead, n = t.shape[:-1], t.shape[-1]
    if n == 0:
        return np.zeros(lead + x.shape, dtype=complex)
    b = max(1, math.isqrt(n))
    q = -(-n // b)
    xc = np.conj(x)[:, None]
    low = np.ones((len(x), b), dtype=complex)
    low[:, 1:] = xc
    np.cumprod(low, axis=1, out=low)
    high = np.ones((len(x), q), dtype=complex)
    high[:, 1:] = low[:, -1:] * xc
    np.cumprod(high, axis=1, out=high)
    tt = np.zeros(lead + (q * b,), dtype=complex)
    tt[..., :n] = t
    inner = np.vecdot(low[:, None, :], tt.reshape(lead + (1, q, b)))
    return np.vecdot(high, inner)


def _logpolar(shift, v: np.ndarray) -> tuple:
    """(shift + ln|v|, arg v) of complex values v, and (-inf, 0) where v is
    0; shift is a float or an array of v's shape."""
    nz = v != 0
    with np.errstate(divide="ignore"):
        lh = np.where(nz, shift + np.log(np.abs(v)), -np.inf)
    return lh, np.where(nz, np.angle(v), 0.0)


def _result_d(coeff: CoeffData, val: np.ndarray, lo: int, hi: int,
              log_mu: float, mirrored: bool = False) -> EvalResult:
    """EvalResult of band sums val = f / mu(r) computed in complex128."""
    floor = _floor_ln(log_mu, _EPS_LN_D, coeff.rel_err_ln, hi - lo)
    return EvalResult(*_logpolar(log_mu, val), floor, log_mu, "d", mirrored)


def _mirror_rep(idx: np.ndarray, m: int, offset: bool) -> np.ndarray:
    """The representative of each index's mirror pair {j, the index of
    -theta_j} on the m-angle circle: the one with theta in [0, pi].  The
    mirror of j is m - 1 - j on the offset mesh, -j mod m on the unshifted
    one."""
    return np.minimum(idx, (m - 1 - idx) if offset else (-idx) % m)


@functools.lru_cache(maxsize=None)
def _mirror_map(m: int) -> tuple:
    """(src, flip) for a real band's circle of m angles, m a power of two:
    its sum at angle j is the conjugate of the sum at -theta_j, so
    _circle_fixed computes only the even angles' sums, and the sum at
    angle j is computed sum number src[j], conjugated where flip[j]: odd j
    is the conjugate of the even m - 1 - j.
    """
    j = np.arange(m)
    return np.where(j % 2 == 0, j, m - 1 - j) // 2, j % 2 == 1


_FIX_GUARD_BITS = 16
_LN2 = math.log(2.0)

# circles up to this size (nevanlinna's largest mesh) take the integer FFT;
# the twiddle cache holds one table per power of two up to it
_FFT_MAX_ANGLES = 1 << 16
_TW_GUARD_BITS = 64  # bits a cached twiddle table keeps below its scale
_TWIDDLES = {}  # m -> (scale, re, im) of e^{i pi k / m}, k < m
_TW_SCALED = {}  # m -> (table, bits, re, im): the last request's rounding


def _fixed_bits(dps: int, width: int) -> int:
    """Fixed-point scale P for an mp band of `width` terms at `dps` digits.

    P >= dps log2(10) + 2 log2(width + 1) + 16, so the circle kernel's
    error bound (2 width + 3) 2^-P (_circle_fixed), and the points
    kernel's 2^-(P+3) (eval_points), stay below 2^-16 10^-dps: under the
    mp floor 3 width 10^(-0.95 dps) (relative to mu) by more than
    10^(0.05 dps) 2^16.
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

    Both levels read the exact values up to the band's end,
    coeff.mp_logs(dps, hi); they differ in their cut and digits.  'mp'
    keeps the terms within dps ln 10 + 40 nats of mu(r) (_mp_band); 'dd'
    keeps those within _BAND_CUT['dd'] nats, at dps = _DD_DPS.
    P = _fixed_bits(dps, N), and each value a_n times r^n / mu(r) from
    _fixed_powers (start e^(lo ln r - ln mu), ratio r, by _fixed_exp) at
    P + 24 + bitlen(hi - lo) bits, so within 2^-(P+23) relative, is
    rounded to nearest at scale 2^P: each component is within
    (1/2 + 2^-23 |t_n|) 2^-P of the exact a_n r^n / mu(r).  Band and floor
    are cached as the level's latest (see _cached_band), keyed by (level,
    dps, log_r), so a repeated read finds them without rescanning the
    stored terms for the band's ends.
    """
    if level == "dd":
        dps = _DD_DPS
    elif level != "mp":
        raise ValueError(f"unknown level {level!r}")
    elif dps is None:
        raise ValueError("mp evaluation needs an explicit dps")

    def build():
        lo, hi, log_mu = (_band(coeff, log_r, _BAND_CUT["dd"])
                          if level == "dd" else _mp_band(coeff, log_r, dps))
        bits = _fixed_bits(dps, hi - lo)
        ns = lo + np.nonzero(np.isfinite(coeff.lh[lo:hi]))[0][::-1]
        g = bits + 24 + (hi - lo).bit_length()
        xs = _fixed_powers(_fixed_exp(lo, log_r, log_mu, g),
                           _fixed_exp(1, log_r, 0.0, g), hi - lo, g)
        values = coeff.mp_logs(dps, hi)
        ts = [(0, 0) if v is None else
              _shift_round(v[0] * x, v[1] * x, -bits - v[2] - ex)
              for v, (x, _, ex) in ((values[n], xs[n - lo]) for n in ns)]
        return ((lo, hi, log_mu, bits,
                 (ns, *(np.array(t, dtype=object) for t in zip(*ts)))),
                _fixed_floor(coeff, log_mu, dps, hi - lo))

    return _cached_band(coeff, (level, dps, log_r), build)


_BIT_LENGTH = np.frompyfunc(int.bit_length, 1, 1)
_LOG = np.frompyfunc(math.log, 1, 1)
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


def _top_bits(v):
    """(v >> s, s) elementwise, s = max(0, bit_length(v) - 64): the leading
    64 bits of each integer of the object array v, and the shift."""
    s = np.maximum(_BIT_LENGTH(v).astype(np.int64) - 64, 0)
    return v >> s, s


def _result_fixed(ar, ai, bits: int, log_mu: float, floor: float,
                  level: str, turn: Optional[Callable] = None,
                  mirror: Optional[tuple] = None) -> EvalResult:
    """EvalResult of fixed-point sums (ar_j + i ai_j) 2^-bits = f / mu(r).

    ln|f| comes from the leading 64 bits of ar^2 + ai^2, arg f from those
    of (ar, ai), through math.log and math.atan2 elementwise.  With `turn`,
    sum j is f / (mu(r) z^last), and turn(js) gives the fixed-point cis
    arrays that restore f's phase at the indices js; the modulus needs no
    turn.  With `mirror`, the (src, flip) of _mirror_map, the sums are the
    ones a real band's circle computes: each is taken once, and the
    result, mirrored, holds the whole circle.
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
    if mirror is not None:
        src, flip = mirror
        logabs, phase = logabs[src], np.where(flip, -phase[src], phase[src])
    return EvalResult(logabs, phase, floor, log_mu, level, mirror is not None)


def _reinsch_terms(band, bits: int):
    """The band as _reinsch_fixed sums it: (g, w, re, im), with g the gcd
    of the band's index gaps (1 for a one-term band), w = bits + 2
    bitlen(K) + 4 the working scale for the K = (n_top - last) / g + 1
    steps from the band's lowest index `last` to its highest, and each
    component a pair (a_K-1 .. a_1 as a list, a_0) of the terms at n = last
    + g k shifted to scale 2^w, zero-filled between the band's indices;
    im is None for a real band."""
    ns, trs, tis = band
    last = int(ns[-1])
    g = int(np.gcd.reduce(ns[:-1] - ns[1:])) if len(ns) > 1 else 1
    ks = ((ns - last) // g).tolist()
    n_steps = ks[0] + 1
    guard = 2 * n_steps.bit_length() + 4

    def component(ts):
        a = [0] * n_steps
        for k, t in zip(ks, ts.tolist()):
            a[k] = t << guard
        return a[:0:-1], a[0]

    return (g, bits + guard, component(trs),
            None if _is_real(tis) else component(tis))


def _reinsch(a, lam: int, s: int, pos: bool):
    """(U_1, C) of Reinsch's recurrence over the terms a = (a_K-1 .. a_1,
    a_0) at scale 2^w, for lam = lambda 2^s (see _reinsch_fixed)."""
    rest, a0 = a
    u = d = 0
    if pos:
        for c in rest:
            d += c + (lam * u >> s)
            u += d
        return u, a0 + (lam * u >> (s + 1)) + d
    for c in rest:
        d = c + (lam * u >> s) - d
        u = d - u
    return u, a0 + (lam * u >> (s + 1)) - d


def _reinsch_fixed(terms, ths) -> list:
    """The band's sum over x^(n - last) at x = e^{i theta}, last the band's
    lowest index, as an (re, im) pair of ints at scale 2^w per angle, for
    the terms (g, w, re, im) of _reinsch_terms.

    With phi = g theta each real component a sums to C + i S, C = sum a_k
    cos k phi and S = sum a_k sin k phi, by Reinsch's modification of the
    Goertzel recurrence (Stoer & Bulirsch, Introduction to Numerical
    Analysis, 2.3): highest k first, with lambda = -4 sin^2(phi/2) where
    cos phi > 0, D_k = a_k + lambda U_k+1 + D_k+1 and U_k = D_k + U_k+1,
    and otherwise lambda = 4 cos^2(phi/2), D_k = a_k + lambda U_k+1 - D_k+1
    and U_k = D_k - U_k+1; then C = D_0 - (lambda/2) U_1 and S = U_1 sin
    phi.  One product per term, where a complex Horner step takes four.
    lambda and sin phi come from one mpf_cos_sin of the exact phi / 2 at
    w + 4 bits, rounded to integers at scale 2^(w+e), e = min(w, max(0,
    -E)) for 2^(E-1) <= |sin phi| < 2^E: the extra bits keep the angle
    lambda stands for within 2^-(w+1) of phi where a small sin phi would
    blur it.  A complex band sums its two components with one lambda and
    returns (C_re - S_im) + i (S_re + C_im).  The error bound is
    eval_points'.
    """
    g, w, re, im = terms
    sums = []
    for th in ths:
        fm, fe = math.frexp(th)  # the float th is fm 2^fe, 53-bit fm
        (cc, cm, ce, _), (sc, sm, se, _) = mp.libmp.mpf_cos_sin(
            mp.libmp.from_man_exp(g * int(fm * 2.0 ** 53), fe - 54), w + 4)
        x = min(ce, se)
        pos = cm << (ce - x) > sm << (se - x)  # |cos phi/2| > |sin phi/2|
        # lambda = lm 2^le and sin phi = sn 2^sx, from cos and sin of phi/2
        lm, le = (-sm * sm, 2 * se + 2) if pos else (cm * cm, 2 * ce + 2)
        sn, sx = (-1) ** (sc ^ cc) * sm * cm, se + ce + 1
        s = w + (min(w, max(0, -sx - sn.bit_length())) if sm else 0)
        x = min(le, sx)
        lam, sn = _shift_round(lm << (le - x), sn << (sx - x), -x - s)
        u, cr = _reinsch(re, lam, s, pos)
        sr = u * sn >> s
        if im is None:
            sums.append((cr, sr))
            continue
        u, ci = _reinsch(im, lam, s, pos)
        sums.append((cr - (u * sn >> s), sr + ci))
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
    from the symmetries of cos and sin.  The last request's rounded table
    per m is kept while its table is.
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
    hit = _TW_SCALED.get(m)
    if hit is None or hit[0] is not entry or hit[1] != bits:
        shift = entry[0] - bits
        half = 1 << (shift - 1)
        hit = _TW_SCALED[m] = (entry, bits, (entry[1] + half) >> shift,
                               (entry[2] + half) >> shift)
    return hit[2], hit[3]


def _fft_fixed(xr, xi, wr, wi, q: int):
    """sum_k x_k e^{2 pi i jk / L} for j < L, from the L bins x_k = xr +
    i xi, L a power of two, by a radix-2 decimation-in-time FFT over
    object arrays of Python ints, truncating each twiddle product at scale
    2^q; (wr, wi) is a _twiddles table e^{i pi k / M} of M >= L entries."""
    size, tab = len(xr), len(wr)
    log_l = size.bit_length() - 1
    j = np.arange(size)
    rev = np.zeros(size, dtype=np.intp)
    for b in range(log_l):
        rev |= ((j >> b) & 1) << (log_l - 1 - b)
    xr, xi = xr[rev], xi[rev]
    h = 1
    while h < size:
        ar, ai = xr.reshape(-1, 2, h), xi.reshape(-1, 2, h)
        br, bi = ar[:, 1], ai[:, 1]
        if h > 1:  # e^{i pi k / h} = table entry k M / h; exact 1 at h = 1
            cr, ci = wr[::tab // h], wi[::tab // h]
            br, bi = (br * cr - bi * ci) >> q, (br * ci + bi * cr) >> q
        xr = np.concatenate((ar[:, 0] + br, ar[:, 0] - br), axis=1)
        xi = np.concatenate((ai[:, 0] + bi, ai[:, 0] - bi), axis=1)
        h *= 2
    return xr.reshape(size), xi.reshape(size)


def _is_real(ti) -> bool:
    """Whether every imaginary part ti of a dd or mp band's terms is 0."""
    return not np.any(ti != 0)


def _circle_fixed(n, tr, ti, bits: int, m: int):
    """sum_n t_n e^{i n theta_j} for theta_j = 2 pi (j + 1/2) / m, j < m,
    from the band's terms t_n = (tr + i ti) 2^-bits at indices n.

    Returns (ar, ai, q, mirrored): the sums as integers at scale 2^q, and
    whether they are a real band's, which holds only the half of the sums
    that _mirror_map expands (the rest are their conjugates).  m is a
    power of two.  The terms are folded into m bins x_k by n mod m, with
    the exact sign (-1)^floor(n/m), and each bin is shifted to scale 2^q,
    q = bits + log2 m.  FFTs (_fft_fixed) truncate each twiddle product at
    scale 2^q.  With h = m / 2:

    * a complex band: each bin is twisted once by e^{i pi k / m}, and one
      m-point FFT sums the bins.  A real band's circle of m = 1 is its one
      bin.
    * a real band: the even sums X_2l, l < h, are the h-point FFT of y_k =
      (x_k + i x_{k+h}) e^{i pi k / m}, k < h, one twist product per y_k;
      odd j has X_j = conj X_{m-1-j}.

    Error, relative to mu(r), for a band of N terms |t_n| <= 1, each given
    to within delta 2^-bits (delta = sqrt2 (1/2 + 2^-23) for the dd and mp
    bands alike; see _fixed_band).  In units of 2^-q, each product
    truncates by at most sqrt2 and carries its twiddle's rounding, sqrt2/2
    times its operand.  An output of an L-point FFT sees, at butterfly
    level s = 2 .. log2 L, one product per block of 2^s bins, whose
    operands sum to at most N; of the twist, each product once.  So the
    sums are within delta N 2^-bits plus, for a complex band,

        ((3/2) sqrt2 m + (sqrt2/2) N log2 m) 2^-q
            <= (0.36 N + 2.2) 2^-bits,

    and for a real band (h twist products, an h-point FFT)

        ((3/4) sqrt2 m + (sqrt2/2) N (log2 m - 1)) 2^-q
            <= (0.18 N + 1.1) 2^-bits

    of the exact ones: each under (2 N + 3) 2^-bits, and so, with bits from
    _fixed_bits, under 2^-15 10^-dps (dps = 32 for dd), far below both
    levels' floors.  The conjugated sums are exact conjugates.
    """
    log_m = m.bit_length() - 1
    k = n % m
    odd = (n // m) % 2 == 1
    tr = np.where(odd, -tr, tr)
    ti = np.where(odd, -ti, ti)
    q = bits + log_m
    wr, wi = _twiddles(m, q)
    xr = np.zeros(m, dtype=object)
    np.add.at(xr, k, tr)
    xr = xr << log_m
    if not _is_real(ti):
        xi = np.zeros(m, dtype=object)
        np.add.at(xi, k, ti)
        xi = xi << log_m
        xr, xi = (xr * wr - xi * wi) >> q, (xr * wi + xi * wr) >> q
        return (*_fft_fixed(xr, xi, wr, wi, q), q, False)
    if m == 1:
        return xr, np.zeros(1, dtype=object), q, True
    h = m // 2
    a, b, cr, ci = xr[:h], xr[h:], wr[:h], wi[:h]
    return (*_fft_fixed((a * cr - b * ci) >> q, (a * ci + b * cr) >> q,
                        wr, wi, q), q, True)


def eval_points(coeff: CoeffData, log_r: float, thetas: np.ndarray,
                level: str = "dd", dps: Optional[int] = None) -> EvalResult:
    """Evaluate ln|f|, arg f at arbitrary angles on |z| = e^{log_r}.

    'd' sums the complex128 band against a power table of each point
    (_poly_at_points_d).  'dd' and 'mp' sum the band of _fixed_band, f(r
    e^{i theta}) / (mu(r) x^last) = sum t_n x^(n - last) with |t_n| <= 1
    and x = e^{i theta}, by Reinsch's real three-term recurrence over
    Python integers (_reinsch_fixed): over the K = (n_top - last) / g + 1
    steps of stride g, the gcd of the band's index gaps, at the working
    scale 2^W, W = P + G with P the band's scale and G = 2 bitlen(K) + 4.
    Each step truncates one product, which is exactly a change of its term
    by under 2^-W, so the K - 1 steps move C and S by under K 2^-W.  The
    rounded lambda stands for an angle within (5/8) 2^-W of g theta, and
    the rounded sin(g theta) is within (5/8) 2^-W of the sine: 2^-(W+1)
    from their rounding to integers at scale 2^(W+e) (see
    _reinsch_fixed), 2^-(W+3) from the mpf_cos_sin at W + 4 bits.  As
    |U_1| <= sum k |t| <= K^2 / 2, these move C by under (5/16) K^2 2^-W
    and S by under (15/16) K^2 2^-W.  The last two products truncate once
    each.  So each real component's C and S are within (K + 1)^2 2^-W of
    its exact sums, and the result, for a complex band the sum of two
    components, within

        2 (K + 1)^2 2^-W <= 2^-(P+3)   relative to mu(r)

    of the exact sum of the band's rounded terms: with P from _fixed_bits,
    far under either level's floor_ln (3 N 10^-30.4 at 'dd').  The modulus
    comes from the sum itself; the phase from the sum times the fixed-point
    cis of the lowest nonzero index times theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    if level == "d":
        lo, hi, log_mu, t = _terms_d(coeff, log_r)
        x = np.exp(1j * thetas)
        return _result_d(coeff, _poly_at_points_d(t, x) * x ** lo, lo, hi,
                         log_mu)
    (_, _, log_mu, bits, band), floor = _fixed_band(coeff, log_r, level, dps)
    # cached beside the band, keyed by its id: the entry keeps the band
    # alive, so the id is no other band's
    terms = _cached_band(coeff, (f"{level} reinsch", id(band)),
                         lambda: (band, _reinsch_terms(band, bits)))[1]
    thetas = thetas.tolist()
    ar, ai = np.array(_reinsch_fixed(terms, thetas),
                      dtype=object).reshape(-1, 2).T
    last = int(band[0][-1])

    def turn(js):
        return np.array([_fixed_cis(last, thetas[j], bits) for j in js],
                        dtype=object).reshape(-1, 2).T

    return _result_fixed(ar, ai, terms[1], log_mu, floor, level,
                         turn if last else None)


def eval_circle(coeff: CoeffData, log_r: float, m: int, level: str = "d",
                dps: Optional[int] = None) -> EvalResult:
    """Evaluate on m equispaced angles theta_j = 2 pi (j + 1/2) / m.

    The half-step offset dodges the real axis, where test subjects
    habitually keep their zeros.  Every level folds the band mod m and
    runs one FFT: complex128 at 'd'; at 'dd' and 'mp', for m a power of
    two up to _FFT_MAX_ANGLES, the integer FFT of _circle_fixed at the
    exact angles over the fixed-point band of _fixed_band, within (2 N +
    3) 2^-P of f / mu(r) for a band of N terms, where P is the band's
    scale: _fixed_bits(dps, N) at 'mp', _fixed_bits(32, N) at 'dd'.  Any
    other m is a ValueError at 'dd' and 'mp'; 'd' takes any m.  A real
    band's result is mirrored: at 'd' the lower half circle is set from
    the upper after the FFT, and at 'dd' and 'mp' only the half that
    _mirror_map expands is computed.
    """
    if level == "d":
        lo, hi, log_mu, t = _terms_d(coeff, log_r)
        n = np.arange(lo, hi)
        real = not np.any(t.imag)
        # theta_j = 2 pi (j + 1/2) / m: twist each term by e^{i pi n / m}
        t = t * np.exp(1j * np.pi * n / m)
        # fold indices modulo m (exact evaluation of the trig sum by FFT)
        folded = np.zeros(m, dtype=complex)
        np.add.at(folded, n % m, t)
        val = m * np.fft.ifft(folded)
        if real:
            # the lower half circle from the upper; angles on the axis real
            j = np.arange(m)
            mir = m - 1 - j
            val = np.where(j < mir, val, np.where(j > mir, np.conj(val[mir]),
                                                  val.real))
        return _result_d(coeff, val, lo, hi, log_mu, real)
    if m < 1 or m & (m - 1) or m > _FFT_MAX_ANGLES:
        raise ValueError(f"a {level} circle takes a power of two up to "
                         f"{_FFT_MAX_ANGLES} angles, not {m}")
    (_, _, log_mu, bits, band), floor = _fixed_band(coeff, log_r, level, dps)
    ar, ai, q, mirrored = _circle_fixed(*band, bits, m)
    return _result_fixed(ar, ai, q, log_mu, floor, level,
                         mirror=_mirror_map(m) if mirrored else None)


def eval_circle_at(coeff: CoeffData, log_r: float, m: int, idx, dps: int,
                   offset: bool = True) -> EvalResult:
    """The mp values at the indices idx of a circle of m angles, theta_j =
    2 pi (j + offset/2) / m, at dps digits, by eval_points at those angles
    rounded to floats.

    For a real band each mirror pair of indices {j, the index of -theta_j}
    is read once, at its representative in the upper half circle, and the
    other index takes the conjugate reading.  The whole FFT circle is not
    a second kernel here: by the cost model that once chose between the
    two, it never cost less than the points over the shipped experiments,
    perfbench's oracles and oscillation workloads at 58 seeds, and the
    test suite (at best 1.19 times the points: a complex band, m = 512, 6
    points; on the oracles at least 5.8 times).
    """
    idx = np.asarray(idx, dtype=np.int64)
    (_, _, _, _, band), _ = _fixed_band(coeff, log_r, "mp", dps)
    rep = _mirror_rep(idx, m, offset) if _is_real(band[2]) else idx
    reads, inv = np.unique(rep, return_inverse=True)
    thetas = (2.0 * np.pi) * (reads + (0.5 if offset else 0.0)) / m
    res = eval_points(coeff, log_r, thetas, level="mp", dps=dps)
    phase = res.phase[inv]
    return EvalResult(res.logabs[inv], np.where(rep != idx, -phase, phase),
                      res.floor_ln, res.log_mu, res.level)


_DPS_GUARD = 25.0  # nats of slack between the mp floor and the target


def dps_for_floor(coeff: CoeffData, log_r: float, target_ln: float) -> int:
    """dps needed so the mp noise floor sits below target_ln (in ln units)."""
    log_mu, _ = log_max_term(coeff, log_r)
    need = log_mu + math.log(3.0 * coeff.n_terms) + _DPS_GUARD - target_ln
    return max(30, int(math.ceil(need / math.log(10))) + 5)

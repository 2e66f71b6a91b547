"""Entire functions as truncated power series with extended-range coefficients.

Coefficients are held in log-polar form (double-double ln|a_n| plus phase),
which is what every downstream consumer — maximum term, central index,
max-modulus sweeps, quadrature — actually wants.  The `coeffs` property
materializes ordinary ExtendedComplex scalars on demand.  For deep
evaluation every series also regenerates its coefficients as mpmath values
at any dps (CoeffData.mp_logs); a derived series computes them in one
expression from its parents' cached values.

Each series carries a trusted radius (the field keeps its historical name,
guaranteed_radius): the largest r on a geometric test grid where a geometric
extrapolation of the last tenth of |a_n| r^n puts the truncation tail below
tail_tol * mu(r).  It is an estimate, not a certificate: a tail that stops
decaying geometrically past the stored terms would fool it.  Evaluation
beyond it raises TruncationError; the caller must rebuild with more terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from . import _dd, _evalcore
from .erfloat import (ExtendedComplex, EC_ZERO, er_exp,
                      er_from_float, er_mul)

__all__ = [
    "PowerSeries", "MaxTermResult", "TruncationError", "DegenerateSeriesError",
    "builtin", "evaluate", "max_term", "central_index_jumps", "log_mu_from_jumps",
    "log_max_modulus", "derivative", "combine", "scale_argument", "valuation",
    "dump_csv",
]

BUILTIN_NAMES = ("exp", "sin", "cos", "poly", "exp_exp", "airy_like")


class TruncationError(ValueError):
    """Requested radius exceeds the series' certified radius."""


class DegenerateSeriesError(ValueError):
    """The operation is undefined for the identically-zero series."""


@dataclass
class PowerSeries:
    """Truncated power series; treat as immutable after construction.

    guaranteed_radius is not a certificate: it is the radius up to which the
    geometric extrapolation of the last tenth of the stored coefficients
    (see _certify_radius) puts the truncation tail below tail_tol * mu(r).
    """

    coeff: _evalcore.CoeffData
    provenance: str
    guaranteed_radius: float
    tail_tol: float = 1e-12

    @property
    def n_terms(self) -> int:
        return self.coeff.n_terms

    @property
    def coeffs(self) -> tuple:
        """Coefficients as ExtendedComplex scalars (materialized on demand)."""
        out = []
        for L, p in zip(self.coeff.lh, self.coeff.ph):
            if not math.isfinite(L):
                out.append(EC_ZERO)
            else:
                mag = er_exp(float(L))
                out.append(ExtendedComplex(
                    er_mul(mag, er_from_float(math.cos(p))),
                    er_mul(mag, er_from_float(math.sin(p))),
                ))
        return tuple(out)

    def check_radius(self, log_r: float) -> None:
        if log_r > math.log(self.guaranteed_radius) + 1e-12:
            raise TruncationError(
                f"radius e^{log_r:.6g} exceeds certified radius "
                f"{self.guaranteed_radius:.6g} of {self.provenance}; "
                "rebuild with more terms"
            )


@dataclass(frozen=True)
class MaxTermResult:
    """ln mu(r) and the central index (largest maximizing index)."""

    log_mu: float
    nu: int


def _certify_radius(lh: np.ndarray, tail_tol: float) -> float:
    """Largest grid radius where the extrapolated tail is < tail_tol*mu(r).

    Despite the name this certifies nothing: the mean log-slope of the last
    tenth of the stored |a_n| is extrapolated as a geometric tail, which is
    an estimate of the truncation error, not a bound on it.  A series whose
    stored tail is exactly zero (a polynomial) is trusted everywhere.
    """
    finite = np.nonzero(np.isfinite(lh))[0]
    if len(finite) == 0:
        return math.inf  # zero series
    top = int(finite[-1])
    if top + 1 < len(lh) or len(finite) < 4:
        # trailing zeros stored: polynomial, converges everywhere
        return math.inf
    k = max(4, (top + 1) // 10)
    decade = finite[finite >= top - k + 1]
    if len(decade) < 2:
        return math.inf
    slopes = np.diff(lh[decade]) / np.diff(decade.astype(float))
    mean_slope = float(np.mean(slopes))
    # per-index ratio of |a_n| r^n is q(r) = exp(mean_slope + ln r)
    ln_r_hi = -mean_slope + math.log(0.9)
    n_idx = np.arange(len(lh), dtype=float)
    best = 0.0
    for ln_r in np.linspace(ln_r_hi - 12.0, ln_r_hi, 64):
        q = math.exp(mean_slope + ln_r)
        x = lh[finite] + finite * ln_r
        log_mu = float(np.max(x))
        ln_tail = lh[top] + top * ln_r + math.log(q / (1.0 - q))
        if ln_tail < math.log(tail_tol) + log_mu:
            best = math.exp(ln_r)
    return best


def make_series(lh, ll, ph, rel_err_ln: float, provenance: str,
                mp_factory=None, tail_tol: float = 1e-12) -> PowerSeries:
    """Assemble a PowerSeries from log-polar coefficient arrays."""
    lh = np.asarray(lh, dtype=float)
    ll = np.asarray(ll, dtype=float)
    ph = np.asarray(ph, dtype=float)
    ll = np.where(np.isfinite(lh), ll, 0.0)
    coeff = _evalcore.CoeffData(lh, ll, ph, rel_err_ln, mp_factory)
    return PowerSeries(coeff, provenance, _certify_radius(lh, tail_tol), tail_tol)


# ---------------------------------------------------------------------------
# builtins

_BUILTIN_CACHE: dict = {}

_GEN_DPS = 50  # construction precision; gives double-double-grade logs


def _split_mpf(x) -> tuple:
    hi = float(x)
    if not math.isfinite(hi):
        return hi, 0.0
    return hi, float(x - hi)


def _exp_logs(n: int, dps: int):
    with mp.workdps(dps):
        logs = [-mp.loggamma(k + 1) for k in range(n)]
        phases = [mp.mpf(0)] * n
    return logs, phases


def _sincos_logs(parity: int, n: int, dps: int):
    """sin (parity 1) or cos (parity 0): terms of the other parity vanish."""
    with mp.workdps(dps):
        logs, phases = [], []
        for k in range(n):
            if k % 2 != parity:
                logs.append(mp.mpf("-inf"))
                phases.append(mp.mpf(0))
            else:
                logs.append(-mp.loggamma(k + 1))
                phases.append(mp.mpf(0) if (k // 2) % 2 == 0 else +mp.pi)
    return logs, phases


@functools.lru_cache(maxsize=8)
def _bell_numbers(n: int) -> tuple:
    """B_0..B_{n-1} as exact integers, by the Bell triangle.

    Each row is rewritten in place: a fresh list per row leaves the
    interpreter's small-object arenas fragmented (1.9 MB more peak RSS
    at n = 400 on CPython 3.11)."""
    bell = [1]
    row = [1]
    for _ in range(n - 1):
        carry = row[-1]
        for i, x in enumerate(row):
            row[i] = carry
            carry += x
        row.append(carry)
        bell.append(row[0])
    return tuple(bell)


def _exp_exp_logs(n: int, dps: int):
    bell = _bell_numbers(n)
    with mp.workdps(dps):
        logs = [mp.mpf(1) + mp.log(bell[k]) - mp.loggamma(k + 1) for k in range(n)]
        phases = [mp.mpf(0)] * n
    return logs, phases


_MP_GENERATORS = {
    "exp": _exp_logs,
    "sin": functools.partial(_sincos_logs, 1),
    "cos": functools.partial(_sincos_logs, 0),
    "exp_exp": _exp_exp_logs,
}


def _phase_float(x) -> float:
    """Phase as float with the pi/2 grid snapped to exact sentinels."""
    p = float(x)
    for exact in _evalcore._EXACT_CIS:
        if abs(p - exact) < 1e-15:
            return exact
    return p


def builtin(name: str, n_terms: int = 400,
            coeffs: Optional[Sequence[complex]] = None) -> PowerSeries:
    """Construct a named test subject.

    poly takes its (complex) coefficient list through `coeffs`; airy_like is
    produced by the ode module (it is an equation solution, not a closed
    form) and is routed there.
    """
    if name == "poly":
        if not coeffs:
            raise ValueError("poly requires a coefficient list")
        return _poly_series(list(coeffs))
    if name == "airy_like":
        from . import ode
        return ode.airy_like(n_terms)
    if name not in _MP_GENERATORS:
        raise ValueError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    key = (name, n_terms)
    cached = _BUILTIN_CACHE.get(key)
    if cached is not None:
        return cached
    gen = _MP_GENERATORS[name]
    logs, phases = gen(n_terms, _GEN_DPS)
    lh = np.empty(n_terms)
    ll = np.empty(n_terms)
    for i, L in enumerate(logs):
        lh[i], ll[i] = _split_mpf(L)
    ph = np.array([_phase_float(p) for p in phases])
    out = make_series(lh, ll, ph, math.log(1e-28), name,
                      mp_factory=lambda dps, _g=gen, _n=n_terms:
                      _evalcore.logs_to_values(*_g(_n, dps), dps))
    _BUILTIN_CACHE[key] = out
    return out


def _poly_series(coeffs: list) -> PowerSeries:
    n = len(coeffs)
    lh = np.full(n, -np.inf)
    ll = np.zeros(n)
    ph = np.zeros(n)
    for i, c in enumerate(coeffs):
        c = complex(c)
        if c != 0:
            lh[i] = math.log(abs(c))
            ph[i] = _phase_float(math.atan2(c.imag, c.real))

    def factory(dps, _c=list(coeffs)):
        with mp.workdps(dps):
            return [mp.mpc(complex(c)) for c in _c]

    return make_series(lh, ll, ph, math.log(3e-16), "poly", mp_factory=factory)


# ---------------------------------------------------------------------------
# operations

def evaluate(f: PowerSeries, log_z: tuple) -> ExtendedComplex:
    """Value at z given as (ln|z|, arg z), in extended range.

    Relative accuracy is O(N eps) away from zeros of f; near zeros only
    absolute accuracy relative to mu(r) is possible in fixed precision.
    """
    log_r, theta = log_z
    f.check_radius(log_r)
    res = _evalcore.eval_points(f.coeff, log_r, np.array([theta]), level="dd")
    if not math.isfinite(res.logabs[0]):
        return EC_ZERO
    mag = er_exp(float(res.logabs[0]))
    p = float(res.phase[0])
    return ExtendedComplex(er_mul(mag, er_from_float(math.cos(p))),
                           er_mul(mag, er_from_float(math.sin(p))))


def max_term(f: PowerSeries, log_r: float) -> MaxTermResult:
    """Scan of ln|a_n| + n ln r; ties resolved to the largest index."""
    try:
        log_mu, nu = _evalcore.log_max_term(f.coeff, log_r)
    except ValueError as exc:
        raise DegenerateSeriesError(str(exc)) from exc
    return MaxTermResult(log_mu, nu)


def valuation(f: PowerSeries) -> int:
    """Order of the zero at the origin (index of first nonzero coefficient)."""
    finite = np.nonzero(np.isfinite(f.coeff.lh))[0]
    if len(finite) == 0:
        raise DegenerateSeriesError("zero series has no valuation")
    return int(finite[0])


def central_index_jumps(f: PowerSeries) -> list:
    """Radii where the central index jumps, as (ln r, nu_after) pairs.

    Built from the upper envelope (concave hull) of the points
    (n, ln|a_n|): between consecutive jump radii the central index is
    constant, which makes the log-integral of nu exact.  Requires a_0 != 0;
    divide out the origin zero first if not.
    """
    lh = f.coeff.lh
    if len(lh) == 0 or not math.isfinite(lh[0]):
        raise ValueError("central_index_jumps requires a_0 != 0")
    pts = [(int(n), float(lh[n])) for n in np.nonzero(np.isfinite(lh))[0]]
    hull: list = []
    for p in pts:
        # pop while the middle point falls on/below the chord (collinear
        # points are dropped, which implements the largest-index tie-break)
        while len(hull) >= 2:
            (n1, y1), (n2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - n2) <= (p[1] - y2) * (n2 - n1):
                hull.pop()
            else:
                break
        hull.append(p)
    jumps = []
    for (n1, y1), (n2, y2) in zip(hull, hull[1:]):
        jumps.append(((y1 - y2) / (n2 - n1), n2))
    return jumps


def log_mu_from_jumps(f: PowerSeries, log_r: float,
                      jumps: Optional[list] = None) -> float:
    """ln mu(r) recovered from the jump list by the exact step integral."""
    if jumps is None:
        jumps = central_index_jumps(f)
    y0 = float(f.coeff.lh[0])
    total = y0
    nu_prev = 0
    t_prev = None
    terms = []
    for t_i, nu_i in jumps:
        if t_i >= log_r:
            break
        if t_prev is not None:
            terms.append(nu_prev * (t_i - t_prev))
        t_prev, nu_prev = t_i, nu_i
    if t_prev is not None:
        terms.append(nu_prev * (log_r - t_prev))
    return total + math.fsum(terms)


def log_max_modulus(f: PowerSeries, log_r: float) -> float:
    """ln M(r, f) = max over the circle of ln|f|.

    64 equispaced angles seed the search; the best three local maxima are
    refined by golden-section until the relative improvement drops below
    1e-9.  Max-picking is immune to the cancellation that plagues small
    values, so plain double significands suffice.
    """
    f.check_radius(log_r)
    m0 = 64
    sweep = _evalcore.eval_circle(f.coeff, log_r, m0, offset=False, level="d")
    v = sweep.logabs
    order = np.argsort(v)[::-1]
    picked: list = []
    for idx in order:
        if all(min((idx - p) % m0, (p - idx) % m0) > 1 for p in picked):
            picked.append(int(idx))
        if len(picked) == 3:
            break
    h = 2.0 * np.pi / m0
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo = np.array([p * h - h for p in picked])
    hi = np.array([p * h + h for p in picked])
    x1 = hi - gr * (hi - lo)
    x2 = lo + gr * (hi - lo)
    f1 = _evalcore.eval_points(f.coeff, log_r, x1, level="d").logabs
    f2 = _evalcore.eval_points(f.coeff, log_r, x2, level="d").logabs
    best = float(np.max(v))
    for _ in range(80):
        move_right = f1 < f2
        lo = np.where(move_right, x1, lo)
        hi = np.where(move_right, hi, x2)
        x1 = np.where(move_right, x2, hi - gr * (hi - lo))
        x2 = np.where(move_right, lo + gr * (hi - lo), x2)
        f1n = np.where(move_right, f2, np.nan)
        f2n = np.where(move_right, np.nan, f1)
        need = np.concatenate([x1[~move_right], x2[move_right]])
        if len(need):
            got = _evalcore.eval_points(f.coeff, log_r, need, level="d").logabs
            k = np.count_nonzero(~move_right)
            f1n[~move_right] = got[:k]
            f2n[move_right] = got[k:]
        f1, f2 = f1n, f2n
        new_best = max(float(np.nanmax(f1)), float(np.nanmax(f2)), best)
        if new_best - best <= 1e-9 * max(1.0, abs(new_best)) and _ > 4:
            best = new_best
            break
        best = new_best
    return best


_LN_INT_DD: dict = {}


def _ln_int_dd(n: int):
    """(hi, lo) arrays with entry i = ln(i + 1) as a double-double, for
    i in [0, n); cached and extended on demand."""
    have = _LN_INT_DD.get("n", 0)
    if n > have:
        hi = np.empty(n)
        lo = np.empty(n)
        if have:
            hi[:have] = _LN_INT_DD["hi"][:have]
            lo[:have] = _LN_INT_DD["lo"][:have]
        with mp.workdps(40):
            for i in range(have, n):
                v = mp.log(i + 1)
                h = float(v)
                hi[i] = h
                lo[i] = float(v - h)
        _LN_INT_DD.update(n=n, hi=hi, lo=lo)
    return _LN_INT_DD["hi"][:n], _LN_INT_DD["lo"][:n]


def derivative(f: PowerSeries) -> PowerSeries:
    """Coefficientwise derivative: (n+1) a_{n+1}, one term shorter.

    The log-magnitude shift ln(n+1) is applied in double-double so the
    derivative's coefficients stay as accurate as the parent's (a plain
    double add of ~1e3-magnitude logs would cost ~1e-13 of relative
    coefficient accuracy, which deep winding cannot afford).
    """
    n = f.n_terms
    if n <= 1:
        return make_series(np.array([-np.inf]), np.zeros(1), np.zeros(1),
                           f.coeff.rel_err_ln, f.provenance + "'")
    finite = np.isfinite(f.coeff.lh[1:])
    lk_h, lk_l = _ln_int_dd(n - 1)
    lh_in = np.where(finite, f.coeff.lh[1:], 0.0)
    lh, ll = _dd.dd_add((lh_in, f.coeff.ll[1:]), (lk_h, lk_l))
    lh = np.where(finite, lh, -np.inf)
    ll = np.where(finite, ll, 0.0)
    ph = f.coeff.ph[1:].copy()

    def factory(dps):
        with mp.workdps(dps):
            return [(i + 1) * v
                    for i, v in enumerate(f.coeff.mp_logs(dps)[1:])]

    return make_series(lh, ll, ph, f.coeff.rel_err_ln, f.provenance + "'",
                       mp_factory=factory, tail_tol=f.tail_tol)


def combine(f: PowerSeries, g: PowerSeries, op: str) -> PowerSeries:
    """add/sub termwise (union of stored ranges), or Cauchy product.

    The Cauchy product is truncated to the shorter input's length: beyond it
    the convolution would be missing contributions from unstored
    coefficients, so those entries are not the truncation of f*g.
    """
    if op in ("add", "sub"):
        n = max(f.n_terms, g.n_terms)
        lf = np.full(n, -np.inf); pf = np.zeros(n)
        lg = np.full(n, -np.inf); pg = np.zeros(n)
        lf[:f.n_terms] = f.coeff.lh; pf[:f.n_terms] = f.coeff.ph
        lg[:g.n_terms] = g.coeff.lh; pg[:g.n_terms] = g.coeff.ph
        sign = -1.0 if op == "sub" else 1.0
        lmax = np.maximum(lf, lg)
        lmax_safe = np.where(np.isfinite(lmax), lmax, 0.0)
        vals = (_evalcore._rescaled(lf - lmax_safe, pf)
                + sign * _evalcore._rescaled(lg - lmax_safe, pg))
        with np.errstate(divide="ignore"):
            lh = np.where(vals != 0, lmax_safe + np.log(np.abs(vals)), -np.inf)
        ph = np.where(vals != 0, np.angle(vals), 0.0)
        op_err, name = 3e-16, f"({f.provenance} {op} {g.provenance})"
    elif op == "cauchy_product":
        lh, ph = _cauchy_logpolar(f.coeff.lh, f.coeff.ph, g.coeff.lh, g.coeff.ph,
                                  min(f.n_terms, g.n_terms))
        op_err, name = 1e-14, f"({f.provenance} * {g.provenance})"
    else:
        raise ValueError(f"unknown combine op {op!r}")
    rel = float(np.logaddexp(f.coeff.rel_err_ln, g.coeff.rel_err_ln))
    rel = float(np.logaddexp(rel, math.log(op_err)))
    out = make_series(lh, np.zeros(len(lh)), ph, rel, name,
                      mp_factory=_combine_factory(f, g, op))
    out.guaranteed_radius = min(out.guaranteed_radius,
                                f.guaranteed_radius, g.guaranteed_radius)
    return out


def _wrap_pi(p):
    return (p + np.pi) % (2.0 * np.pi) - np.pi


def _cauchy_logpolar(lf, pf, lg, pg, n_out):
    """Log-polar Cauchy convolution via a two-pass rescaled accumulation.

    Both passes loop over f's finite indices and run vector operations over
    g.  The indices run from the top down, so every output receives its
    terms in increasing g index.
    """
    outer = [m for m in range(min(len(lf), n_out) - 1, -1, -1)
             if math.isfinite(lf[m])]
    lmax = np.full(n_out, -np.inf)
    for m in outer:
        span = min(n_out - m, len(lg))
        np.maximum(lmax[m:m + span], lf[m] + lg[:span], out=lmax[m:m + span])
    acc = np.zeros(n_out, dtype=complex)
    lmax_safe = np.where(np.isfinite(lmax), lmax, 0.0)
    with np.errstate(under="ignore"):
        for m in outer:
            span = min(n_out - m, len(lg))
            mag = np.exp(lf[m] + lg[:span] - lmax_safe[m:m + span])
            angs = pf[m] + pg[:span]
            acc[m:m + span] += mag * np.cos(angs) + 1j * (mag * np.sin(angs))
    with np.errstate(divide="ignore"):
        lh = np.where(acc != 0, lmax_safe + np.log(np.abs(acc)), -np.inf)
    ph = np.where(acc != 0, np.angle(acc), 0.0)
    return lh, ph


def _combine_factory(f: PowerSeries, g: PowerSeries, op: str):
    def factory(dps):
        a, b = f.coeff.mp_logs(dps), g.coeff.mp_logs(dps)
        with mp.workdps(dps):
            if op == "cauchy_product":
                return [mp.fsum(a[k] * b[i - k] for k in range(i + 1))
                        for i in range(min(len(a), len(b)))]
            zero, sign = mp.mpc(0), (-1 if op == "sub" else 1)
            return [(a[i] if i < len(a) else zero)
                    + sign * (b[i] if i < len(b) else zero)
                    for i in range(max(len(a), len(b)))]
    return factory


def scale_argument(f: PowerSeries, c: complex) -> PowerSeries:
    """The series of z -> f(c z): a_n -> a_n c^n."""
    c = complex(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    n = np.arange(f.n_terms, dtype=float)
    # ln|c| as a double-double so n * ln|c| keeps coefficient-grade accuracy
    with mp.workdps(40):
        lc_mp = mp.log(abs(mp.mpc(c)))
        lc_h = float(lc_mp)
        lc_l = float(lc_mp - lc_h)
    finite = np.isfinite(f.coeff.lh)
    d = _dd.two_prod(n, lc_h)
    d = (d[0], d[1] + n * lc_l)
    lh_in = np.where(finite, f.coeff.lh, 0.0)
    lh_dd = _dd.dd_add((lh_in, f.coeff.ll), d)
    lh_dd = (np.where(finite, lh_dd[0], -np.inf),
             np.where(finite, lh_dd[1], 0.0))
    ac = math.atan2(c.imag, c.real)
    ph = f.coeff.ph + (n * ac if ac != 0.0 else 0.0)
    if ac != 0.0:
        ph = _wrap_pi(ph)

    def factory(dps):
        with mp.workdps(dps):
            cc = mp.mpc(c)
            return [v * cc ** i for i, v in enumerate(f.coeff.mp_logs(dps))]

    return make_series(lh_dd[0], lh_dd[1], ph, f.coeff.rel_err_ln,
                       f"{f.provenance}(c z)", mp_factory=factory,
                       tail_tol=f.tail_tol)


def dump_csv(f: PowerSeries, path: str) -> None:
    """Coefficient dump: one row per coefficient, columns n, ln|a_n|, arg."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,ln_abs,arg\n")
        for i in range(f.n_terms):
            fh.write(f"{i},{float(f.coeff.lh[i])!r},"
                     f"{float(f.coeff.ph[i])!r}\n")

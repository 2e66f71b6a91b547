"""Entire functions as truncated power series with extended-range coefficients.

Coefficients are held in log-polar form (ln|a_n| and phase as doubles),
which is what every downstream consumer — maximum term, central index,
max-modulus sweeps, quadrature — actually wants.  For deep
evaluation (the 'dd' and 'mp' levels) every series also regenerates its
exact coefficients at any dps, for any prefix a_0..a_{n-1}, as
fixed-point integer triples (CoeffData.mp_logs); a derived series
computes them in one expression from the same prefix of its parents'
cached values.  A builtin's logs are the nearest doubles to the logs of
the same exact values.

Each series carries a trusted radius (the field keeps its historical name,
guaranteed_radius): the largest r on a geometric test grid where a geometric
extrapolation of the last tenth of |a_n| r^n puts the truncation tail below
_TAIL_TOL * mu(r).  It is an estimate, not a certificate: a tail that stops
decaying geometrically past the stored terms would fool it.  Evaluation
beyond it raises TruncationError; the caller must rebuild with more terms.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _evalcore

__all__ = [
    "PowerSeries", "MaxTermResult", "TruncationError", "DegenerateSeriesError",
    "builtin", "evaluate", "max_term", "central_index_jumps", "log_mu_from_jumps",
    "log_max_modulus", "derivative", "combine", "scale_argument", "valuation",
    "dump_csv",
]

BUILTIN_NAMES = ("exp", "sin", "cos", "poly", "exp_exp", "airy_like")

_TAIL_TOL = 1e-12  # truncation tail a trusted radius allows, relative to mu


class TruncationError(ValueError):
    """Requested radius exceeds the series' certified radius."""


class DegenerateSeriesError(ValueError):
    """The operation is undefined for the identically-zero series."""


@dataclass
class PowerSeries:
    """Truncated power series; treat as immutable after construction.

    guaranteed_radius is not a certificate: it is the radius up to which the
    geometric extrapolation of the last tenth of the stored coefficients
    (see _certify_radius) puts the truncation tail below _TAIL_TOL * mu(r).
    """

    coeff: _evalcore.CoeffData
    provenance: str
    guaranteed_radius: float

    @property
    def n_terms(self) -> int:
        return self.coeff.n_terms

    def check_radius(self, log_r: float) -> None:
        if math.isnan(log_r):
            raise ValueError("radius ln r = nan is not a number")
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


def _certify_radius(lh: np.ndarray) -> float:
    """Largest grid radius where the extrapolated tail is < _TAIL_TOL mu(r).

    Despite the name this certifies nothing: the mean log-slope of the
    nonzero |a_n| in the last tenth up to the last nonzero one (the last two
    nonzero ones, if that tenth holds fewer) is extrapolated as a geometric
    tail, which is an estimate of the truncation error, not a bound on it.
    Zeros after the last nonzero term do not make a series a polynomial: a
    lacunary series (sin, cos, airy_like, an ODE solution on a residue
    class) ends on one at some lengths.  Polynomials are marked by
    make_series(polynomial=True) instead.  A series of fewer than 4 nonzero
    terms is trusted everywhere.

    The 64 test radii are scanned from the top, and the first that passes
    is returned (0.0 if none does): the largest passing radius, the same
    float a scan of all 64 keeps.  On the shipped series the answer lies
    within the top few radii, so few of the 64 sweeps over every stored
    term are made.
    """
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
    # per-index ratio of |a_n| r^n is q(r) = exp(mean_slope + ln r)
    ln_r_hi = -mean_slope + math.log(0.9)
    lh_f, n_f = lh[finite], finite.astype(float)
    for ln_r in np.linspace(ln_r_hi - 12.0, ln_r_hi, 64)[::-1]:
        q = math.exp(mean_slope + ln_r)
        x = lh_f + n_f * ln_r
        log_mu = float(np.max(x))
        ln_tail = lh[top] + top * ln_r + math.log(q / (1.0 - q))
        if ln_tail < math.log(_TAIL_TOL) + log_mu:
            return math.exp(ln_r)
    return 0.0


def make_series(lh, ph, rel_err_ln: float, provenance: str,
                mp_factory=None, radius_cap: float = math.inf,
                polynomial: bool = False) -> PowerSeries:
    """Assemble a PowerSeries from log-polar coefficient arrays; its
    trusted radius is at most radius_cap.  A polynomial (its stored terms
    are all of the function) is trusted everywhere, without
    _certify_radius."""
    lh = np.asarray(lh, dtype=float)
    ph = np.asarray(ph, dtype=float)
    coeff = _evalcore.CoeffData(lh, ph, rel_err_ln, mp_factory)
    return PowerSeries(coeff, provenance, math.inf if polynomial
                       else min(_certify_radius(lh), radius_cap))


# ---------------------------------------------------------------------------
# builtins

# One entry per (name, n_terms) for the life of the process, never evicted,
# each with its mp values at the deepest dps asked for: the cache grows
# without bound as new lengths are requested.
_BUILTIN_CACHE: dict = {}

_GEN_DPS = 50  # a builtin's logs come from its exact values at this dps


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


# the numerator of a_n n! for the builtins whose a_n n! is an integer
_SIGNS = {
    "exp": lambda n: 1,
    "sin": lambda n: n % 2 * (-1) ** (n // 2),
    "cos": lambda n: (1 - n % 2) * (-1) ** (n // 2),
}


def _builtin_values(name: str, n_terms: int, n: int, bits: int) -> list:
    """The exact a_0..a_{n-1} of a builtin of n_terms terms in the format of
    mp_logs, with bits + 1 or bits + 2 significant bits: +-1/k! or 0 for
    exp, sin and cos, e B_k / k! for exp_exp (B_k from the n_terms table),
    each a floor division (_fixed_div) within 2^-bits relative; e enters
    64 bits deeper (_evalcore._fixed_exp)."""
    if name == "exp_exp":
        e_man, _, e = _evalcore._fixed_exp(1, 1.0, 0.0, bits + 64)
        nums = [e_man * b for b in _bell_numbers(n_terms)[:n]]
    else:
        nums, e = [_SIGNS[name](k) for k in range(n)], 0
    facts = itertools.accumulate(range(1, n), operator.mul, initial=1)
    return [_evalcore._fixed_div(a, 0, e, fact, bits) if a else None
            for a, fact in zip(nums, facts)]


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
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    key = (name, n_terms)
    cached = _BUILTIN_CACHE.get(key)
    if cached is not None:
        return cached
    values = _builtin_values(name, n_terms, n_terms,
                             _evalcore._exact_bits(_GEN_DPS))
    out = make_series(*_evalcore._logs_of(values), math.log(1e-28), name,
                      mp_factory=lambda dps, n: _builtin_values(
                          name, n_terms, n, _evalcore._exact_bits(dps)))
    out.coeff._mp_entry = (_GEN_DPS, values)
    _BUILTIN_CACHE[key] = out
    return out


def _poly_series(coeffs: list) -> PowerSeries:
    n = len(coeffs)
    lh = np.full(n, -np.inf)
    ph = np.zeros(n)
    for i, c in enumerate(coeffs):
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"poly coefficient {i} is not finite: {c}")
        if c != 0:
            lh[i] = math.log(abs(c))
            ph[i] = math.atan2(c.imag, c.real)

    def factory(dps, n, _c=list(coeffs)):
        bits = _evalcore._exact_bits(dps)
        return [None if c == 0 else
                _evalcore._fixed_round(_evalcore._fixed_of_complex(c), bits)
                for c in _c[:n]]

    return make_series(lh, ph, math.log(3e-16), "poly", mp_factory=factory,
                       polynomial=True)


# ---------------------------------------------------------------------------
# operations

def evaluate(f: PowerSeries, log_z: tuple) -> tuple:
    """(ln|f|, arg f, floor_ln) at z given as (ln|z|, arg z).

    An exact zero reads ln|f| = -inf.  Relative accuracy is O(N eps) away
    from zeros of f; near zeros only absolute accuracy relative to mu(r) is
    possible in fixed precision.  floor_ln is the dd sum's noise floor; at
    z = 0 (ln|z| = -inf) the sum is the one term a_0, with the dd floor of
    a one-term band, and a_0 = 0 reads (-inf, 0, -inf).
    """
    log_r, theta = log_z
    f.check_radius(log_r)
    if log_r == -math.inf:
        ln_a0 = float(f.coeff.lh[0])
        if ln_a0 == -math.inf:
            return -math.inf, 0.0, -math.inf
        return ln_a0, float(f.coeff.ph[0]), _evalcore._fixed_floor(
            f.coeff, ln_a0, _evalcore._DD_DPS, 1)
    res = _evalcore.eval_points(f.coeff, log_r, np.array([theta]), level="dd")
    return float(res.logabs[0]), float(res.phase[0]), float(res.floor_ln)


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


def log_max_modulus(f: PowerSeries, log_r):
    """ln M(r, f) = max over the circle of ln|f|: a float for one log
    radius, an array for an increasing array of them, searched in one
    pass (see _max_modulus).  At r = 0 (log_r = -inf) it is ln|a_0|.

    A 64-angle d circle seeds the search: its (up to) three largest local
    maxima, no two adjacent, are refined at once by safeguarded Newton
    steps on g(theta) = ln|f(r e^{i theta})|, each inside its bracket of
    one grid step either side.  A pick stops when the
    gain its Newton model still promises falls below 1e-15 max(1, |g|)
    plus the d arithmetic noise of g there, so ln M is under-read by about
    that much (a few 1e-16 relative on the shipped subjects).  Max-picking
    is immune to the cancellation that plagues small values, so plain
    double significands suffice.  Each radius reads the same bits whether
    it is searched alone or in a grid.
    """
    return _max_modulus(f, log_r)[0]


# _max_modulus: seed angles, picks refined, the stop rule's relative gain
# and the guard on its stacked sums per radius
_PEAK_SEED, _PEAK_PICKS, _PEAK_REL_GAIN, _PEAK_MAX_SUMS = 64, 3, 1e-15, 24


def _check_log_radii(log_r: np.ndarray) -> None:
    """ValueError, naming the radius, unless the log radii increase
    strictly and none is nan or +inf (r = 0, ln r = -inf, may lead)."""
    prev = None
    for i, lr in enumerate(log_r.tolist()):
        if math.isnan(lr) or lr == math.inf:
            raise ValueError(f"radius ln r = {lr!r} (index {i}) is not "
                             "finite")
        if prev is not None and not lr > prev:
            raise ValueError(f"radius ln r = {lr!r} (index {i}) does not "
                             f"exceed ln r = {prev!r} before it")
        prev = lr


def _max_modulus(f: PowerSeries, log_r) -> tuple:
    """(ln M(r, f), an angle where the search attained it), by
    log_max_modulus's search: floats for one log radius, arrays for a
    grid.  The grid is checked (_check_log_radii) and its largest radius
    checked against f's trusted radius before any search runs.

    On f's d band t_n = a_n r^n / mu(r) at each radius, S_k = sum w^k t_n
    e^{i n theta} with w = n - c (c the band's middle index) give g' =
    -Im(S_1/S_0) and g'' = Re((S_1/S_0)^2 - S_2/S_0).  The seed circles of
    all radii are folded into one (radii, 64) array and transformed by one
    FFT, and picks are made per radius.  Each Newton round then reads S_0,
    S_1, S_2 at a radius's live picks by one stacked _poly_at_points_d call
    on its own band, and steps every live (radius, pick) pair at once.
    g' > 0 moves a pick's
    bracket's left end to it, g' < 0 its right end; the next point is the
    Newton step x - g'/g'', or the bracket's midpoint when g'' >= 0 or the
    step leaves the bracket.  A pick stops at a stationary point (g' = 0,
    as everywhere for z^k), when its model gain g'^2 / (2 |g''|) is below
    the tolerance, or when g plus that gain cannot beat the best value
    read at its radius; _PEAK_MAX_SUMS stacked calls per radius are a
    guard, not a stop rule.  Every step is elementwise on contiguous
    arrays, or one row of the FFT, so a radius reads the same bits alone
    as in a grid.  At r = 0 the result is (ln|a_0|, 0), and a_0 = 0 is a
    DegenerateSeriesError.
    """
    one = np.ndim(log_r) == 0
    grid = np.atleast_1d(np.asarray(log_r, dtype=float))
    if grid.ndim != 1 or not len(grid):
        raise ValueError("log radii must be one value or a nonempty 1-D "
                         "array")
    _check_log_radii(grid)
    f.check_radius(float(grid[-1]))
    if not np.isfinite(f.coeff.lh).any():
        raise DegenerateSeriesError("all coefficients vanish")
    best = np.full(len(grid), -np.inf)
    angle = np.zeros(len(grid))
    first = int(grid[0] == -np.inf)  # r = 0: M(0) = |a_0|
    if first:
        if f.coeff.lh[0] == -np.inf:
            raise DegenerateSeriesError("a_0 = 0: ln M(0) is -inf")
        best[0] = f.coeff.lh[0]
    if first < len(grid):
        best[first:], angle[first:] = _search(
            *_evalcore._bands_d(f.coeff, grid[first:]))
    return (float(best[0]), float(angle[0])) if one else (best, angle)


def _search(lo, hi, log_mu, t) -> tuple:
    """(ln M, angle) per radius, as lists, from the d bands of
    _evalcore._bands_d: the search of _max_modulus."""
    m0, k = _PEAK_SEED, len(lo)
    width = hi - lo
    start = np.cumsum(width) - width  # each band's offset in t
    # the band index n and the weight w = n - c of every term, end to end
    n = np.arange(len(t)) - np.repeat(start - lo, width)
    w = (n - np.repeat(lo, width)) - np.repeat(0.5 * (width - 1), width)
    # seed circles: fold each band by n mod m0 into its radius' row, in
    # index order as eval_circle does, and transform every row at once
    folded = np.zeros(k * m0, dtype=complex)
    np.add.at(folded, np.repeat(np.arange(k) * m0, width) + n % m0, t)
    with np.errstate(divide="ignore"):
        v = log_mu[:, None] + np.log(np.abs(m0 * np.fft.ifft(
            folded.reshape(k, m0), axis=1)))
    peak = (v >= np.roll(v, 1, axis=1)) & (v >= np.roll(v, -1, axis=1))
    order = np.argsort(np.where(peak, -v, np.inf), axis=1, kind="stable")
    picks, owner, first = [], [], []
    for r, (row, is_peak) in enumerate(zip(order.tolist(), peak.tolist())):
        picked: list = []
        for idx in (i for i in row if is_peak[i]):
            if all(min((idx - p) % m0, (p - idx) % m0) > 1 for p in picked):
                picked.append(idx)
                if len(picked) == _PEAK_PICKS:
                    break
        picks += picked
        owner += [r] * len(picked)
        first.append(picked[0])
    rows = np.stack([t, w * t, w * w * t])
    noise_ln = np.array([_evalcore._floor_ln(mu, _evalcore._EPS_LN_D,
                                             -np.inf, n_t) for mu, n_t in
                         zip(log_mu.tolist(), width.tolist())])
    spans = list(zip(start.tolist(), (start + width).tolist()))
    h = 2.0 * np.pi / m0
    x = np.array(picks) * h
    a, b, own = x - h, x + h, np.array(owner)
    best, angle = [-math.inf] * k, [p * h for p in first]
    for _ in range(_PEAK_MAX_SUMS):
        # the live pairs of each radius are contiguous, in radius order
        cut = [0, *(np.flatnonzero(np.diff(own)) + 1).tolist(), len(own)]
        z = np.exp(1j * x)
        s0, s1, s2 = np.concatenate([
            _evalcore._poly_at_points_d(rows[:, slice(*spans[own[i]])],
                                        z[i:j])
            for i, j in zip(cut, cut[1:])], axis=1)
        g = log_mu[own] + np.log(np.abs(s0))
        q1 = s1 / s0
        d1, d2 = -q1.imag, (q1 * q1 - s2 / s0).real
        gl, xl = g.tolist(), x.tolist()
        for i, j in zip(cut, cut[1:]):
            top = max(range(i, j), key=gl.__getitem__)
            r = int(own[i])
            if gl[top] > best[r]:
                best[r], angle[r] = gl[top], xl[top]
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.where(d2 < 0.0, d1 * d1 / (-2.0 * d2), np.inf)
        tol = (_PEAK_REL_GAIN * np.maximum(1.0, np.abs(g))
               + np.exp(noise_ln[own] - g))
        live = (d1 != 0.0) & (gain >= tol) & (g + gain > np.array(best)[own])
        if not live.any():
            break
        a = np.where(d1 > 0.0, x, a)
        b = np.where(d1 < 0.0, x, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - d1 / d2
        inside = (d2 < 0.0) & (step > a) & (step < b)
        x = np.where(inside, step, 0.5 * (a + b))
        x, a, b, own = x[live], a[live], b[live], own[live]
    return best, angle


def _derivative_quotients(f: PowerSeries, log_r: float, theta: float,
                          order: int) -> np.ndarray:
    """z^k f^(k)(z) / f(z) for k = 1 .. order at z = r e^{i theta}: S_k /
    S_0 for S_k = sum n(n-1)...(n-k+1) t_n e^{i n theta} over f's d band,
    all read by one stacked _poly_at_points_d call at theta."""
    f.check_radius(log_r)
    lo, hi, _, t = _evalcore._terms_d(f.coeff, log_r)
    n = np.arange(lo, hi, dtype=float)
    rows = [t]
    for s in range(order):
        rows.append(rows[-1] * (n - s))
    sums = _evalcore._poly_at_points_d(np.stack(rows),
                                       np.exp(1j * np.array([theta])))[:, 0]
    return sums[1:] / sums[0]


def derivative(f: PowerSeries) -> PowerSeries:
    """Coefficientwise derivative: (n+1) a_{n+1}, one term shorter.

    The logs are ln|a_{n+1}| + ln(n+1) in double, for the 'd' level; the
    exact values, which 'dd' and 'mp' read, are the parent's times n + 1,
    exactly.

    One derived CoeffData and its trusted radius are kept per coefficient
    set (f.coeff._derived), with the exact values and bands it caches, and
    each call wraps them with f's provenance.  They are kept only while
    f.coeff's exact values are the entry they were first derived from:
    once that entry is replaced, a deeper or longer one whose values may
    differ in their last bits, the derivative is rebuilt, so every call
    reads the bytes a fresh one would.
    """
    coeff = f.coeff
    hit = coeff._derived
    if hit is None or hit[2] and hit[2][0] is not coeff._mp_entry:
        hit = coeff._derived = _derive(coeff)
    return PowerSeries(hit[0], f.provenance + "'", hit[1])


def _derive(coeff: _evalcore.CoeffData) -> tuple:
    """(CoeffData, trusted radius, src) of the derivative: src holds, from
    the first read of the exact values on, the parent's entry they were
    derived from."""
    n = coeff.n_terms
    if n <= 1:
        out = make_series(np.array([-np.inf]), np.zeros(1), coeff.rel_err_ln,
                          "")
        return out.coeff, out.guaranteed_radius, []
    lh = coeff.lh[1:] + np.log(np.arange(1.0, n))
    ph = coeff.ph[1:].copy()
    src = []

    def factory(dps, n):
        values = coeff.mp_logs(dps, n + 1)
        if not src:
            src.append(coeff._mp_entry)
        return [None if v is None else (k * v[0], k * v[1], v[2])
                for k, v in enumerate(values[1:], 1)]

    out = make_series(lh, ph, coeff.rel_err_ln, "", mp_factory=factory)
    return out.coeff, out.guaranteed_radius, src


def combine(f: PowerSeries, g: PowerSeries, op: str) -> PowerSeries:
    """add/sub termwise (union of stored ranges), or Cauchy product.

    The Cauchy product is truncated to the shorter input's length: beyond it
    the convolution would be missing contributions from unstored
    coefficients, so those entries are not the truncation of f*g.  So a
    sum or difference of two polynomials (trusted radius inf) is one, and
    a product is not.
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
        lh, ph = _evalcore._logpolar(lmax_safe, vals)
        op_err, name = 3e-16, f"({f.provenance} {op} {g.provenance})"
    elif op == "cauchy_product":
        lh, ph = _cauchy_logpolar(f.coeff.lh, f.coeff.ph, g.coeff.lh, g.coeff.ph,
                                  min(f.n_terms, g.n_terms))
        op_err, name = 1e-14, f"({f.provenance} * {g.provenance})"
    else:
        raise ValueError(f"unknown combine op {op!r}")
    rel = float(np.logaddexp(f.coeff.rel_err_ln, g.coeff.rel_err_ln))
    rel = float(np.logaddexp(rel, math.log(op_err)))
    cap = min(f.guaranteed_radius, g.guaranteed_radius)
    return make_series(lh, ph, rel, name,
                       mp_factory=_combine_factory(f, g, op), radius_cap=cap,
                       polynomial=op != "cauchy_product" and cap == math.inf)


def _max_plus(lf, lg, n_out: int) -> tuple:
    """(lmax, outer): lmax[i] the maximum over k + m = i of lf[k] + lg[m]
    for i < n_out, -inf where no pair is finite, and outer the finite
    indices of lf below n_out from the top down, the order the pass loops
    over them in (vector operations over lg).  On integer exponents below
    2^53 every sum, and so the maximum, is exact."""
    outer = [m for m in range(min(len(lf), n_out) - 1, -1, -1)
             if math.isfinite(lf[m])]
    lmax = np.full(n_out, -np.inf)
    for m in outer:
        span = min(n_out - m, len(lg))
        np.maximum(lmax[m:m + span], lf[m] + lg[:span], out=lmax[m:m + span])
    return lmax, outer


def _cauchy_logpolar(lf, pf, lg, pg, n_out):
    """Log-polar Cauchy convolution via a two-pass rescaled accumulation.

    The first pass is _max_plus; the second loops over the same indices
    of f, from the top down, and runs vector operations over g, so every
    output receives its terms in increasing g index.
    """
    lmax, outer = _max_plus(lf, lg, n_out)
    acc = np.zeros(n_out, dtype=complex)
    lmax_safe = np.where(np.isfinite(lmax), lmax, 0.0)
    with np.errstate(under="ignore"):
        for m in outer:
            span = min(n_out - m, len(lg))
            mag = np.exp(lf[m] + lg[:span] - lmax_safe[m:m + span])
            angs = pf[m] + pg[:span]
            acc[m:m + span] += mag * np.cos(angs) + 1j * (mag * np.sin(angs))
    return _evalcore._logpolar(lmax_safe, acc)


def _combine_factory(f: PowerSeries, g: PowerSeries, op: str):
    def factory(dps, n):
        a, b = f.coeff.mp_logs(dps, n), g.coeff.mp_logs(dps, n)
        if op == "cauchy_product":
            return _cauchy_fixed(a, b, dps)
        bits, sign = _evalcore._exact_bits(dps), (-1 if op == "sub" else 1)
        return [_evalcore._fixed_add(x, y, sign, bits)
                for x, y in itertools.zip_longest(a, b)]
    return factory


def _cauchy_fixed(a: list, b: list, dps: int) -> list:
    """The Cauchy product of two lists of values in the format of mp_logs,
    truncated to the shorter, summed in fixed-point integers: output i
    reads only the pairs k + m = i, so a prefix of the inputs gives the
    same prefix of the output.

    The nonzero values are rounded to P + 1 significant bits, P =
    _evalcore._exact_bits(dps) (_fixed_round): each moves by at most half
    a unit per component, 2^-P / sqrt2 of its modulus, so a product by at
    most 2^-P (sqrt2 + 2^-P / 2) of its own.
    Output i forms its products a_k b_{i-k} of nonzero values exactly,
    adds them at one exponent E = T - 2P - 16, where T bounds the top bit
    of its largest product, flooring each to a multiple of 2^E, and rounds
    the sum once to P + 1 bits (_fixed_round), which moves it by at most
    2^-P of its modulus.  Before that rounding it is within M 2^(-2P-13)
    max_k |a_k b_{i-k}| per component of the exact sum of the rounded
    products, M being its number of nonzero products; an output without
    one, or whose sum is exactly zero, is None.
    """
    n = min(len(a), len(b))
    bits = _evalcore._exact_bits(dps)
    fa, fb = ([(k,) + _evalcore._fixed_round(v, bits)
               for k, v in enumerate(x[:n]) if v is not None] for x in (a, b))
    # per output, the largest exponent sum of its products (_max_plus of
    # the two exponent arrays, -inf at a zero); every product component is
    # below 2^(that + 2P + 3)
    exp_a, exp_b = np.full(n, -np.inf), np.full(n, -np.inf)
    exp_a[[v[0] for v in fa]] = [v[3] for v in fa]
    exp_b[[v[0] for v in fb]] = [v[3] for v in fb]
    top = [None if t == -math.inf else int(t)
           for t in _max_plus(exp_a, exp_b, n)[0].tolist()]
    sr, si = [0] * n, [0] * n
    for k, ar, ai, ea in fa:
        for m, br, bi, eb in fb:
            i = k + m
            if i >= n:
                break
            re, im = ar * br - ai * bi, ar * bi + ai * br
            s = ea + eb - top[i] + 13  # E = top + 2P + 3 - 2P - 16
            if s >= 0:
                sr[i] += re << s
                si[i] += im << s
            else:
                sr[i] += re >> -s
                si[i] += im >> -s
    return [None if t is None else
            _evalcore._fixed_round((sr[i], si[i], t - 13), bits)
            for i, t in enumerate(top)]


def scale_argument(f: PowerSeries, c: complex) -> PowerSeries:
    """The series of z -> f(c z): a_n -> a_n c^n."""
    c = complex(c)
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    n = np.arange(f.n_terms, dtype=float)
    c_fix = _evalcore._fixed_of_complex(c)
    lh = f.coeff.lh + n * math.log(abs(c))
    ac = math.atan2(c.imag, c.real)
    ph = f.coeff.ph + (n * ac if ac != 0.0 else 0.0)
    if ac != 0.0:
        ph = _evalcore._wrap_pi(ph)

    def factory(dps, n):
        # c^k within 2^-(P+16) relative (_fixed_powers), P = _exact_bits,
        # at a precision set by f's length, so the same for any prefix n
        bits = _evalcore._exact_bits(dps)
        powers = _evalcore._fixed_powers(
            (1, 0, 0), c_fix, n, bits + 16 + f.n_terms.bit_length())
        return [None if v is None else _evalcore._fixed_mul(v, p, bits)
                for v, p in zip(f.coeff.mp_logs(dps, n), powers)]

    return make_series(lh, ph, f.coeff.rel_err_ln,
                       f"{f.provenance}(c z)", mp_factory=factory)


def dump_csv(f: PowerSeries, path: str) -> None:
    """Coefficient dump: one row per coefficient, columns n, ln|a_n|, arg."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,ln_abs,arg\n")
        for i in range(f.n_terms):
            fh.write(f"{i},{float(f.coeff.lh[i])!r},"
                     f"{float(f.coeff.ph[i])!r}\n")

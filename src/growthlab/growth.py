"""Estimators for generalized growth functionals from sampled data.

A growth functional compares alpha(numerator) with beta(log gamma(r)) as
r -> infinity, via lim sup or lim inf.  Finite data cannot compute limits;
what it can estimate well is the *slope* of alpha(v) against beta(log
gamma(r)) over the tail of a geometric grid, which is immune to the O(1)
offsets (log pi and friends) that poison raw ratios at desk radii.  The
estimate reported is the extreme slope over well-separated tail pairs
(upper mode: max, lower mode: min); the raw ratio series is retained in
full so a human can inspect convergence.

Type functionals are genuine ratio limits at a fixed order rho, so they use
the tail extreme of exp(alpha(v) - rho * beta(log gamma(r))) directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .nevanlinna import CountingData, characteristic_entire, integrated_count
from .scale import ScaleTriple, compose_with_log, eval_scale
from .series import PowerSeries, log_max_modulus

__all__ = ["GrowthSample", "OrderEstimate", "Profile", "DegenerateScaleError",
           "make_grid", "sample", "estimate_order", "estimate_type",
           "estimate_lambda", "compare_characteristics", "profile_sum",
           "profile_product", "profile_scalar_multiple",
           "profile_from_descriptor"]

QUANTITIES = ("log_T", "log2_M", "log_n", "log_N")


class DegenerateScaleError(ValueError):
    """The denominator scale vanished on the whole sampled tail."""


def make_grid(r_min: float, r_max: float, points: int = 48) -> np.ndarray:
    """Geometric radius grid (every scale of interest lives in log r)."""
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    return np.geomspace(r_min, r_max, points)


@dataclass(frozen=True)
class GrowthSample:
    """A radius grid paired with one sampled growth quantity."""

    quantity: str
    radii: np.ndarray
    values: np.ndarray
    source: str

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sampled values must be finite")


@dataclass(frozen=True)
class OrderEstimate:
    """A tail estimate of a lim sup / lim inf growth functional."""

    value: float
    mode: str
    tail_fraction: float
    trend: str
    ratios: tuple = field(repr=False)
    radii: tuple = field(repr=False)

    def as_dict(self) -> dict:
        """Report serialization (the full ratio series is retained so a
        reader can inspect convergence)."""
        return {"value": self.value, "mode": self.mode, "trend": self.trend,
                "tail_fraction": self.tail_fraction,
                "ratios": list(self.ratios)}


# ---------------------------------------------------------------------------
# profiles: closed-form growth curves for calibrating the estimators
# independently of the series machinery

def _formula(desc: dict) -> Callable[[np.ndarray], np.ndarray]:
    form = desc.get("form")
    if form == "c_rp":          # c * r^p
        c, p = float(desc["c"]), float(desc["p"])
        return lambda r: c * np.asarray(r, float) ** p
    if form == "ln_c_rp":       # ln(c * r^p)
        c, p = float(desc["c"]), float(desc["p"])
        return lambda r: math.log(c) + p * np.log(np.asarray(r, float))
    if form == "c_lnr":         # c * ln r
        c = float(desc["c"])
        return lambda r: c * np.log(np.asarray(r, float))
    if form == "ln_c_lnr":      # ln(c * ln r)
        c = float(desc["c"])
        return lambda r: np.log(c * np.log(np.asarray(r, float)))
    if form == "r_adj":         # r - ln(2 pi r)/2 (log T of e^{e^z})
        return lambda r: np.asarray(r, float) \
            - 0.5 * np.log(2.0 * math.pi * np.asarray(r, float))
    if form == "r":             # plain r
        return lambda r: np.asarray(r, float)
    raise ValueError(f"unknown profile formula {form!r}")


@dataclass(frozen=True)
class Profile:
    """Closed-form log T(r) and/or log log M(r)."""

    name: str
    log_T_fn: Optional[Callable] = None
    log2_M_fn: Optional[Callable] = None

    def log_T(self, r):
        if self.log_T_fn is None:
            raise ValueError(f"profile {self.name} has no log T formula")
        return self.log_T_fn(r)

    def log2_M(self, r):
        if self.log2_M_fn is None:
            raise ValueError(f"profile {self.name} has no log log M formula")
        return self.log2_M_fn(r)


def profile_from_descriptor(desc: dict) -> Profile:
    name = desc.get("name", "profile")
    lt = _formula(desc["log_T"]) if "log_T" in desc else None
    lm = _formula(desc["log2_M"]) if "log2_M" in desc else None
    if lt is None and lm is None:
        raise ValueError("profile descriptor needs log_T and/or log2_M")
    return Profile(name, lt, lm)


def profile_sum(p1: Profile, p2: Profile) -> Profile:
    """Growth curve of f + g via T(f+g) <= T(f) + T(g) + ln 2.

    Everything stays in log space; T values of fast-growing profiles do not
    fit a float.
    """
    lt = lambda r: np.logaddexp(np.logaddexp(p1.log_T(r), p2.log_T(r)),
                                math.log(math.log(2.0)))
    lm = None
    if p1.log2_M_fn is not None and p2.log2_M_fn is not None:
        # ln ln(M1 + M2) <= ln(ln M1 + ln M2) up to o(1); good enough for
        # order arithmetic
        lm = lambda r: np.logaddexp(p1.log2_M(r), p2.log2_M(r))
    return Profile(f"({p1.name}+{p2.name})", lt, lm)


def profile_product(p1: Profile, p2: Profile) -> Profile:
    """Growth curve of f * g via T(fg) <= T(f) + T(g)."""
    lt = lambda r: np.logaddexp(p1.log_T(r), p2.log_T(r))
    lm = None
    if p1.log2_M_fn is not None and p2.log2_M_fn is not None:
        lm = lambda r: np.logaddexp(p1.log2_M(r), p2.log2_M(r))
    return Profile(f"({p1.name}*{p2.name})", lt, lm)


def profile_scalar_multiple(p: Profile, a: float) -> Profile:
    """Growth curve of a*f (a != 0): T(af) = T(f) + ln+|a|."""
    if a == 0:
        raise ValueError("scalar must be nonzero")
    shift = max(math.log(abs(a)), 0.0)
    if shift > 0:
        lt = lambda r: np.logaddexp(p.log_T(r), math.log(shift))
    else:
        lt = p.log_T_fn
    return Profile(f"{a:g}*{p.name}", lt, p.log2_M_fn)


# ---------------------------------------------------------------------------
# sampling

def sample(src: Union[PowerSeries, Profile, CountingData], quantity: str,
           grid: np.ndarray) -> GrowthSample:
    """Sample one growth quantity over a radius grid.

    Radii where the quantity is undefined (T <= 0, n = 0, ...) are dropped;
    at least three usable radii must remain.
    """
    grid = np.asarray(grid, dtype=float)
    radii, values = [], []
    if isinstance(src, Profile):
        vals = src.log_T(grid) if quantity == "log_T" else src.log2_M(grid) \
            if quantity == "log2_M" else None
        if vals is None:
            raise ValueError(f"profiles cannot supply {quantity}")
        keep = np.isfinite(vals)
        radii, values = grid[keep], np.asarray(vals)[keep]
        name = src.name
    elif isinstance(src, PowerSeries):
        name = src.provenance
        for r in grid:
            if quantity == "log_T":
                t = characteristic_entire(src, math.log(r))
                if t > 0:
                    radii.append(r)
                    values.append(math.log(t))
            elif quantity == "log2_M":
                lm = log_max_modulus(src, math.log(r))
                if lm > 0:
                    radii.append(r)
                    values.append(math.log(lm))
            else:
                raise ValueError(f"series cannot supply {quantity}")
    elif isinstance(src, CountingData):
        name = "counting"
        if quantity == "log_n":
            for r, n in zip(src.radii, src.counts):
                if n >= 1:
                    radii.append(r)
                    values.append(math.log(n))
        elif quantity == "log_N":
            for r in src.radii:
                big_n = integrated_count(src, math.log(r))
                if big_n > 0:
                    radii.append(r)
                    values.append(math.log(big_n))
        else:
            raise ValueError(f"counting data cannot supply {quantity}")
    else:
        raise TypeError(f"cannot sample from {type(src).__name__}")
    radii = np.asarray(radii, float)
    values = np.asarray(values, float)
    if len(radii) < 3:
        raise ValueError(f"fewer than 3 usable radii for {quantity} of {name}")
    return GrowthSample(quantity, radii, values, name)


# ---------------------------------------------------------------------------
# estimators

def _classify_trend(ratios: np.ndarray) -> str:
    if len(ratios) < 3:
        return "converging"
    spread = float(np.max(ratios) - np.min(ratios))
    scale = max(1.0, float(np.max(np.abs(ratios))))
    if spread <= 0.02 * scale:
        return "converging"
    d = np.diff(ratios)
    tol = 1e-3 * scale
    if np.all(d >= -tol):
        return "increasing"
    if np.all(d <= tol):
        return "decreasing"
    return "oscillating"


def _beta_log_gamma(t: ScaleTriple, radii: np.ndarray) -> np.ndarray:
    """beta(log gamma(r)), the denominator scale of every estimator."""
    return eval_scale(t.beta, np.log(np.maximum(eval_scale(t.gamma, radii),
                                                1e-300)))


def _tail_slope_estimate(beta_vals: np.ndarray, alpha_vals: np.ndarray,
                         radii: np.ndarray, mode: str,
                         tail_fraction: float) -> OrderEstimate:
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    valid = (beta_vals > 1e-12) & np.isfinite(alpha_vals) \
        & np.isfinite(beta_vals)
    if np.count_nonzero(valid) < 3:
        raise DegenerateScaleError(
            "denominator scale vanishes on (almost) the whole grid")
    b = beta_vals[valid]
    a = alpha_vals[valid]
    r = radii[valid]
    ratios = a / b
    k = max(3, int(math.ceil(tail_fraction * len(b))))
    bt, at, rt = b[-k:], a[-k:], r[-k:]
    span = bt[-1] - bt[0]
    if span <= 1e-9:
        raise DegenerateScaleError("tail has no denominator spread")
    # slopes over all tail pairs separated by at least half the tail span
    i, j = np.triu_indices(k, 1)
    sep = bt[j] - bt[i]
    keep = sep >= 0.5 * span
    slopes = (at[j[keep]] - at[i[keep]]) / sep[keep]
    value = float(np.max(slopes) if mode == "upper" else np.min(slopes))
    return OrderEstimate(value, mode, tail_fraction,
                         _classify_trend(ratios[-k:]),
                         tuple(float(x) for x in ratios),
                         tuple(float(x) for x in r))


def estimate_order(s: GrowthSample, t: ScaleTriple, mode: str,
                   tail_fraction: float = 0.25) -> OrderEstimate:
    """Order estimate: slope of alpha(v) against beta(log gamma(r)).

    mode 'upper' plays the role of the lim sup, 'lower' of the lim inf;
    upper >= lower always holds for estimates from the same sample.
    """
    alpha_vals = eval_scale(t.alpha, s.values)
    beta_vals = _beta_log_gamma(t, s.radii)
    return _tail_slope_estimate(beta_vals, alpha_vals, s.radii, mode,
                                tail_fraction)


def estimate_type(s: GrowthSample, t: ScaleTriple, rho_or_mu: float,
                  mode: str, tail_fraction: float = 0.25) -> OrderEstimate:
    """Type estimate at a given finite positive order.

    Works in log space: ln ratio = alpha(v) - rho * beta(log gamma(r)), and
    reports exp of the tail extreme.
    """
    if not 0.0 < rho_or_mu < math.inf:
        raise ValueError("type needs a finite positive order")
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    alpha_vals = eval_scale(t.alpha, s.values)
    beta_vals = _beta_log_gamma(t, s.radii)
    valid = np.isfinite(alpha_vals) & np.isfinite(beta_vals)
    if np.count_nonzero(valid) < 3:
        raise DegenerateScaleError("type estimate needs 3 usable radii")
    d = alpha_vals[valid] - rho_or_mu * beta_vals[valid]
    r = s.radii[valid]
    k = max(3, int(math.ceil(tail_fraction * len(d))))
    tail = d[-k:]
    pick = float(np.max(tail) if mode == "upper" else np.min(tail))
    ratios = np.exp(d)
    return OrderEstimate(math.exp(pick), mode, tail_fraction,
                         _classify_trend(ratios[-k:]),
                         tuple(float(x) for x in ratios),
                         tuple(float(x) for x in r))


def estimate_lambda(c: CountingData, t: ScaleTriple, form: str = "n_based",
                    log_wrap: bool = False, mode: str = "upper",
                    tail_fraction: float = 0.25) -> OrderEstimate:
    """Zero-sequence convergence exponent estimate from counting data.

    form picks the n(r) or N(r) numerator; log_wrap replaces alpha by
    alpha(log) (the scale under which solution growth matches coefficient
    growth).  All-zero counts are a degenerate case: estimate 0.
    """
    if form == "n_based":
        usable = [(r, math.log(n)) for r, n in zip(c.radii, c.counts) if n >= 1]
    elif form == "N_based":
        usable = []
        for r in c.radii:
            big_n = integrated_count(c, math.log(r))
            if big_n > 0:
                usable.append((r, math.log(big_n)))
    else:
        raise ValueError("form must be 'n_based' or 'N_based'")
    if len(usable) < 3:
        return OrderEstimate(0.0, mode, tail_fraction, "degenerate", (), ())
    radii = np.array([u[0] for u in usable])
    vals = np.array([u[1] for u in usable])
    alpha = compose_with_log(t.alpha) if log_wrap else t.alpha
    alpha_vals = eval_scale(alpha, vals)
    beta_vals = _beta_log_gamma(t, radii)
    return _tail_slope_estimate(beta_vals, alpha_vals, radii, mode,
                                tail_fraction)


def compare_characteristics(s1: GrowthSample, s2: GrowthSample,
                            tail_fraction: float = 0.25) -> float:
    """Tail max of T1/T2 from two log T samples on the same grid.

    Small values support T1 = o(T2); a ratio near a positive constant is
    the equal-growth negative control.
    """
    if len(s1.radii) != len(s2.radii) or not np.allclose(s1.radii, s2.radii):
        raise ValueError("samples must share the same radius grid")
    k = max(1, int(math.ceil(tail_fraction * len(s1.radii))))
    return float(np.max(np.exp(s1.values[-k:] - s2.values[-k:])))

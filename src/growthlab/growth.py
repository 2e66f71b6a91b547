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

from .nevanlinna import CountingData, characteristic_entire
from .scale import ScaleTriple, beta_log_gamma, compose_with_log, eval_scale
from .series import PowerSeries, log_max_modulus

__all__ = ["GrowthSample", "OrderEstimate", "Profile", "DegenerateScaleError",
           "make_grid", "sample", "estimate_order", "estimate_type",
           "estimate_lambda", "compare_characteristics", "profile_sum",
           "profile_product", "profile_scalar_multiple",
           "profile_from_descriptor"]

QUANTITIES = ("log_T", "log2_M")

_TAIL_FRACTION = 0.25  # share of a sample's radii the estimators read


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

    def as_dict(self) -> dict:
        """Report serialization (the full ratio series is retained so a
        reader can inspect convergence)."""
        return {"value": self.value, "mode": self.mode, "trend": self.trend,
                "tail_fraction": self.tail_fraction,
                "ratios": list(self.ratios)}


# ---------------------------------------------------------------------------
# profiles: closed-form growth curves for calibrating the estimators
# independently of the series machinery

# form -> (its parameters, log T or log log M at radii r given them)
_FORMS = {
    "c_rp": (("c", "p"), lambda r, c, p: c * r ** p),
    "ln_c_rp": (("c", "p"), lambda r, c, p: math.log(c) + p * np.log(r)),
    "c_lnr": (("c",), lambda r, c: c * np.log(r)),
    "ln_c_lnr": (("c",), lambda r, c: np.log(c * np.log(r))),
    # log T of e^{e^z}
    "r_adj": ((), lambda r: r - 0.5 * np.log(2.0 * math.pi * r)),
    "r": ((), lambda r: r),
}


def _formula(desc: dict) -> Callable[[np.ndarray], np.ndarray]:
    params, fn = _FORMS[desc["form"]]
    args = [float(desc[k]) for k in params]
    return lambda r: fn(np.asarray(r, float), *args)


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
    """A closed-form profile; a formula given as None is left out."""
    name = desc.get("name", "profile")
    lt = _formula(desc["log_T"]) if desc.get("log_T") else None
    lm = _formula(desc["log2_M"]) if desc.get("log2_M") else None
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

def sample(src: Union[PowerSeries, Profile], quantity: str,
           grid: np.ndarray) -> GrowthSample:
    """Sample log T(r) ("log_T") or log log M(r) ("log2_M") of a series or
    a closed-form profile over a radius grid.

    On a series the grid must hold finite, positive, strictly increasing
    radii: anything else is a ValueError naming the radius, raised before
    any evaluation.  ln M(r) comes from one log_max_modulus search over
    the whole grid; log T from characteristic_entire per radius.
    Radii where the quantity is undefined (T <= 0, ln M <= 0) are dropped;
    at least three usable radii must remain.  Zero counts are not sampled
    here: estimate_lambda reads log n(r) from the CountingData itself.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}; expected one of "
                         f"{QUANTITIES}")
    grid = np.asarray(grid, dtype=float)
    if isinstance(src, Profile):
        vals = src.log_T(grid) if quantity == "log_T" else src.log2_M(grid)
        keep = np.isfinite(vals)
        radii, values = grid[keep], np.asarray(vals)[keep]
        name = src.name
    elif isinstance(src, PowerSeries):
        name = src.provenance
        _check_radii(grid)
        log_r = np.array([math.log(r) for r in grid.tolist()])
        if quantity == "log_T":
            v = np.array([characteristic_entire(src, lr)
                          for lr in log_r.tolist()])
        else:
            v = log_max_modulus(src, log_r)
        keep = v > 0
        radii = grid[keep]
        values = np.array([math.log(x) for x in v[keep].tolist()])
    else:
        raise TypeError(f"cannot sample from {type(src).__name__}")
    if len(radii) < 3:
        raise ValueError(f"fewer than 3 usable radii for {quantity} of {name}")
    return GrowthSample(quantity, radii, values)


def _check_radii(grid: np.ndarray) -> None:
    """ValueError, naming the radius, unless the grid is a 1-D array of
    finite, positive, strictly increasing radii."""
    if grid.ndim != 1:
        raise ValueError("the radius grid must be a 1-D array")
    prev = None
    for i, r in enumerate(grid.tolist()):
        if not math.isfinite(r):
            raise ValueError(f"radius {r!r} (index {i}) is not finite")
        if r <= 0:
            raise ValueError(f"radius {r!r} (index {i}) is not positive")
        if prev is not None and r <= prev:
            raise ValueError(f"radius {r!r} (index {i}) does not exceed "
                             f"{prev!r} before it")
        prev = r


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


def _tail_slope_estimate(beta_vals: np.ndarray, alpha_vals: np.ndarray,
                         mode: str, tail_fraction: float) -> OrderEstimate:
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    valid = (beta_vals > 1e-12) & np.isfinite(alpha_vals) \
        & np.isfinite(beta_vals)
    if np.count_nonzero(valid) < 3:
        raise DegenerateScaleError(
            "denominator scale vanishes on (almost) the whole grid")
    b = beta_vals[valid]
    a = alpha_vals[valid]
    ratios = a / b
    k = max(3, int(math.ceil(tail_fraction * len(b))))
    bt, at = b[-k:], a[-k:]
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
                         tuple(float(x) for x in ratios))


def estimate_order(s: GrowthSample, t: ScaleTriple,
                   mode: str) -> OrderEstimate:
    """Order estimate: slope of alpha(v) against beta(log gamma(r)) over
    the last _TAIL_FRACTION of the sample.

    mode 'upper' plays the role of the lim sup, 'lower' of the lim inf;
    upper >= lower always holds for estimates from the same sample.
    """
    alpha_vals = eval_scale(t.alpha, s.values)
    beta_vals = beta_log_gamma(t.beta, t.gamma, s.radii)
    return _tail_slope_estimate(beta_vals, alpha_vals, mode, _TAIL_FRACTION)


def estimate_type(s: GrowthSample, t: ScaleTriple, rho_or_mu: float,
                  mode: str) -> OrderEstimate:
    """Type estimate at a given finite positive order.

    Works in log space: ln ratio = alpha(v) - rho * beta(log gamma(r)), and
    reports exp of the extreme over the last _TAIL_FRACTION of the sample.
    """
    if not 0.0 < rho_or_mu < math.inf:
        raise ValueError("type needs a finite positive order")
    if mode not in ("upper", "lower"):
        raise ValueError("mode must be 'upper' or 'lower'")
    alpha_vals = eval_scale(t.alpha, s.values)
    beta_vals = beta_log_gamma(t.beta, t.gamma, s.radii)
    valid = np.isfinite(alpha_vals) & np.isfinite(beta_vals)
    if np.count_nonzero(valid) < 3:
        raise DegenerateScaleError("type estimate needs 3 usable radii")
    d = alpha_vals[valid] - rho_or_mu * beta_vals[valid]
    k = max(3, int(math.ceil(_TAIL_FRACTION * len(d))))
    tail = d[-k:]
    pick = float(np.max(tail) if mode == "upper" else np.min(tail))
    ratios = np.exp(d)
    return OrderEstimate(math.exp(pick), mode, _TAIL_FRACTION,
                         _classify_trend(ratios[-k:]),
                         tuple(float(x) for x in ratios))


def estimate_lambda(c: CountingData, t: ScaleTriple, *,
                    log_wrap: bool = False, mode: str = "upper",
                    tail_fraction: float = _TAIL_FRACTION) -> OrderEstimate:
    """Zero-sequence convergence exponent estimate: the slope of alpha(log
    n(r)) against beta(log gamma(r)), over the radii with n(r) >= 1.

    n(r) and N(r) have the same order, so log n(r) is the one numerator.
    log_wrap replaces alpha by alpha(log) (the scale under which solution
    growth matches coefficient growth).  All-zero counts are a degenerate
    case: estimate 0.
    """
    usable = [(r, math.log(n)) for r, n in zip(c.radii, c.counts) if n >= 1]
    if len(usable) < 3:
        return OrderEstimate(0.0, mode, tail_fraction, "degenerate", ())
    radii = np.array([u[0] for u in usable])
    vals = np.array([u[1] for u in usable])
    alpha = compose_with_log(t.alpha) if log_wrap else t.alpha
    alpha_vals = eval_scale(alpha, vals)
    beta_vals = beta_log_gamma(t.beta, t.gamma, radii)
    return _tail_slope_estimate(beta_vals, alpha_vals, mode, tail_fraction)


def compare_characteristics(s1: GrowthSample, s2: GrowthSample) -> float:
    """Tail max of T1/T2 from two log T samples on the same grid, over the
    last _TAIL_FRACTION of the radii.

    Small values support T1 = o(T2); a ratio near a positive constant is
    the equal-growth negative control.
    """
    if len(s1.radii) != len(s2.radii) or not np.allclose(s1.radii, s2.radii):
        raise ValueError("samples must share the same radius grid")
    k = max(1, int(math.ceil(_TAIL_FRACTION * len(s1.radii))))
    return float(np.max(np.exp(s1.values[-k:] - s2.values[-k:])))

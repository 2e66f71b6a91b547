"""Declarative experiments over the growth machinery, with reports.

An experiment is a JSON-friendly config dict with a versioned "schema"
field; run_config validates it, dispatches on "kind", and returns a Report
whose check records are deterministic given the config and seed (timing and
environment live in an isolated sub-object excluded from that promise).

The experiment kinds, KINDS, are the keys of _KINDS, each described there.
A config gives what an experiment is about: the scales, the subject or
equation, the radii and the bands it expects.  How a check reads its
estimates is fixed, once, by module constants (_THEOREM_RESIDUAL_TOL to
_PROPOSITION_TOL below, and nevanlinna's digit budget and zero margin).
A key its kind's table does not declare is a ConfigError at its path.

Hypothesis gating: theorem experiments verify their hypotheses empirically
first and mark the report "hypotheses-not-met" instead of asserting any
conclusion when the check fails.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, growth, nevanlinna as nev, ode, scale
from . import series as ps
from . import _evalcore
from .scale import (ScaleTriple, audit_condition_ii, beta_log_gamma,
                    inverse_scale)

__all__ = ["ConfigError", "CheckRecord", "Report", "run_config", "emit",
           "check_wiman_valiron", "check_gundersen", "check_log_derivative",
           "run_theorem_experiment", "shipped_config", "shipped_names",
           "validate", "SCHEMA"]

SCHEMA = "growthlab-experiment/1"

class ConfigError(ValueError):
    """Invalid experiment config; carries a JSON-pointer-ish path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class CheckRecord:
    name: str
    measured: object
    expected: object
    tolerance: object
    verdict: str  # pass | fail | info
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "measured": _jsonable(self.measured),
                "expected": _jsonable(self.expected),
                "tolerance": _jsonable(self.tolerance),
                "verdict": self.verdict, "detail": self.detail}


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return x


@dataclass
class Report:
    name: str
    kind: str
    config: dict
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    verdict: str = "pass"
    environment: dict = field(default_factory=dict)

    def add(self, rec: CheckRecord) -> CheckRecord:
        self.checks.append(rec)
        if rec.verdict == "fail" and self.verdict == "pass":
            self.verdict = "fail"
        return rec

    def close(self, measured, expected, tol, name, detail="") -> CheckRecord:
        ok = abs(measured - expected) <= tol
        return self.add(CheckRecord(name, measured, expected, tol,
                                    "pass" if ok else "fail", detail))

    def within(self, measured, lo, hi, name, detail="") -> CheckRecord:
        ok = lo <= measured <= hi
        return self.add(CheckRecord(name, measured, f"[{lo:g},{hi:g}]", None,
                                    "pass" if ok else "fail", detail))

    def leq(self, measured, bound, name, detail="") -> CheckRecord:
        ok = measured <= bound
        return self.add(CheckRecord(name, measured, f"<= {bound:g}", None,
                                    "pass" if ok else "fail", detail))

    def truth(self, ok, name, detail="") -> CheckRecord:
        return self.add(CheckRecord(name, bool(ok), True, None,
                                    "pass" if ok else "fail", detail))

    def info(self, name, value, detail="") -> CheckRecord:
        return self.add(CheckRecord(name, value, None, None, "info", detail))

    def as_dict(self) -> dict:
        return {
            "schema": "growthlab-report/1",
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "config": self.config,
            "checks": [c.as_dict() for c in self.checks],
            "notes": list(self.notes),
            "environment": dict(self.environment),
        }


def _stamp(report: Report, t0: float) -> Report:
    report.environment = {
        "growthlab": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "elapsed_s": round(time.time() - t0, 3),
    }
    return report


# ---------------------------------------------------------------------------
# config schema.  A spec checks one field: spec(value, path) returns the
# value the pipelines read or raises ConfigError at path.  The kind tables
# at the end are the schema reference.

_REQUIRED = object()


def _require(ok, path: str, message: str) -> None:
    if not ok:
        raise ConfigError(path, message)


class _Shape:
    """An object: fields maps each key to (spec, default), the default
    _REQUIRED, None (no value) or a value checked as if given.  Any other
    key is a ConfigError at its path unless free names it (free None: any
    key); a free key is not read.  Its value is build(checked fields,
    path), if given."""

    def __init__(self, fields: dict, build=None, path: str = "", free=()):
        self.fields, self.build, self.path = fields, build, path
        self.free = free

    def __call__(self, desc, path: Optional[str] = None):
        path = self.path if path is None else path
        _require(isinstance(desc, dict), path, f"need an object, got {desc!r}")
        for key in () if self.free is None else desc:
            _require(key in self.fields or key in self.free, f"{path}/{key}",
                     f"unknown field; expected one of {sorted(self.fields)}")
        out = {}
        for key, (spec, default) in self.fields.items():
            at = f"{path}/{key}"
            _require(key in desc or default is not _REQUIRED, at,
                     "missing required field")
            out[key] = spec(desc[key], at) if key in desc else \
                None if default is None else spec(default, at)
        return self.build(out, path) if self.build else out


def _list(item, least: int = 1):
    """At least least items, a shaped one checked at its index, any other
    at the list's path."""
    def check(x, path):
        _require(isinstance(x, (list, tuple)) and len(x) >= least, path,
                 f"expected a list of at least {least} items, got {x!r}")
        return [item(v, f"{path}/{i}" if isinstance(item, _Shape) else path)
                for i, v in enumerate(x)]
    return check


def _leaf(ok, want: str, convert=None):
    """A spec taking x where ok(x), as convert(x) if given."""
    def check(x, path):
        _require(ok(x), path, f"expected {want}, got {x!r}")
        return convert(x) if convert else x
    return check


def _number(x, types=(int, float)) -> bool:
    return isinstance(x, types) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max  # exact for ints, false for nan


def _real(low: float, closed: bool = False):
    return _leaf(lambda x: _number(x) and (x >= low if closed else x > low),
                 f"a finite number {'>=' if closed else '>'} {low:g}", float)


def _int(least: int):
    return _leaf(lambda x: type(x) is int and x >= least,
                 f"an integer >= {least}")


def _one_of(*choices):
    return _leaf(lambda x: isinstance(x, str) and x in choices,
                 f"one of {choices}")


def _opaque(build):
    """A spec (or build) for what build(x) checks itself: an error it
    raises is a ConfigError at path."""
    def check(x, path):
        try:
            return build(x)
        except (ValueError, TypeError, KeyError, AttributeError,
                OverflowError) as exc:
            raise ConfigError(path, str(exc)) from exc
    return check


def _at_grid(path: str, estimate, *args, **kw):
    """estimate(*args, **kw) over the config grid at path: an error it
    raises (a scale triple whose tail on the grid has no spread, say) is
    a ConfigError there, by _opaque."""
    return _opaque(lambda a: estimate(*a, **kw))(args, path)


def _tagged(tag: str, kinds: dict):
    """A descriptor: an object whose tag field names one of kinds, each
    (factory, fields).  The fields, with the tag, are checked as a
    _Shape's, and the value is factory(**the checked fields), a factory's
    error a ConfigError at the descriptor's path."""
    def check(desc, path):
        kind = _Shape({tag: (_one_of(*kinds), _REQUIRED)},
                      free=None)(desc, path)[tag]
        factory, fields = kinds[kind]
        return _Shape(fields, _opaque(lambda v: factory(**v)),
                      free=(tag,))(desc, path)
    return check


_POSITIVE = _real(0.0)
_FINITE = _leaf(_number, "a finite number", float)
_bool = _leaf(lambda x: isinstance(x, bool), "true or false")
_text = _leaf(lambda x: isinstance(x, str), "a string")
_any = _leaf(lambda x: True, "")
_complex = _leaf(lambda x: _number(x, (int, float, complex)),
                 "a finite number")
_radii = _leaf(lambda x: isinstance(x, (list, tuple)) and len(x) >= 1
               and all(_number(v) and v > 0 for v in x)
               and all(a < b for a, b in zip(x, x[1:])),
               "strictly increasing finite numbers > 0",
               lambda x: list(map(float, x)))
_band = _leaf(lambda x: isinstance(x, (list, tuple)) and len(x) == 2
              and all(_number(v) for v in x) and x[0] < x[1],
              "two finite numbers lo < hi", lambda x: tuple(map(float, x)))


def _grid(r_min: float, r_max: Optional[float], points: int) -> _Shape:
    """A radius grid with these defaults, as (r_min, r_max, points): 0 <
    r_min < r_max finite, points an integer >= 3, a null the grid's fault.
    r_max None: a theorem's solution grid ends at each certified radius."""
    def build(g, path):
        lo, hi, n = g["r_min"], g["r_max"], g["points"]
        _require(None not in (lo, n) and (hi is not None or r_max is None),
                 path, f"expected numbers r_min, r_max and points, got {g!r}")
        lo, n = _POSITIVE(lo, path + "/r_min"), _int(3)(n, path + "/points")
        hi = hi if hi is None else _POSITIVE(hi, path + "/r_max")
        _require(hi is None or lo < hi, path, f"need r_min < r_max, got {g!r}")
        return lo, hi, n
    return _Shape({"r_min": (_any, r_min), "r_max": (_any, r_max),
                   "points": (_any, points)}, build)


def _series(s: dict, path: str) -> ps.PowerSeries:
    if s["poly"] is not None:
        return ps.builtin("poly", coeffs=s["poly"])
    _require(s["builtin"], path, "needs 'builtin' or 'poly' (or an analyze "
             "'profile')")
    f = ps.builtin(s["builtin"], s["n_terms"])
    return f if s["z_scale"] is None else ps.scale_argument(f, s["z_scale"])


# the shared shapes (an analyze subject may be a closed-form profile).  A
# scale is {"kind": ..., parameters}; its factory in scale checks the
# parameters' joint domain (power c <= 1, user_table knot order)
_SCALE_KINDS = {
    "identity": (scale.identity, {}),
    "log_plus": (scale.log_plus, {"x0": (_real(1.0), math.e)}),
    "iterated_log": (scale.iterated_log, {"p": (_int(1), 1)}),
    "power": (scale.power, {"c": (_POSITIVE, _REQUIRED)}),
    "linear": (scale.linear, {"a": (_POSITIVE, _REQUIRED),
                              "b": (_FINITE, 0.0)}),
    "user_table": (scale.user_table, dict.fromkeys(
        ("xs", "ys"), (_list(_FINITE, 2), _REQUIRED))),
    "composed_log": (scale.compose_with_log, {
        "inner": (lambda x, path: _SCALE(x, path), _REQUIRED)})}
_SCALE = _tagged("kind", _SCALE_KINDS)
# a profile formula {"form": ..., parameters} of growth._FORMS, as
# checked: each parameter a finite number > 0
_PROFILE_FORMS = {
    form: (dict, {"form": (_text, _REQUIRED),
                  **dict.fromkeys(params, (_POSITIVE, _REQUIRED))})
    for form, (params, _) in growth._FORMS.items()}
_FORM = _tagged("form", _PROFILE_FORMS)
resolve_triple = _Shape({
    "alpha": (_SCALE, _REQUIRED), "beta": (_SCALE, _REQUIRED),
    "gamma": (_SCALE, _REQUIRED), "l1_constant": (_POSITIVE, 1.0)},
    _opaque(lambda t: ScaleTriple(**t)), "/scales")
_SERIES_FIELDS = {  # "poly" is spelled {"poly": [a_0, a_1, ...]}
    "builtin": (_one_of(*(n for n in ps.BUILTIN_NAMES if n != "poly")),
                None),
    "n_terms": (_int(1), 400), "poly": (_list(_complex), None),
    "z_scale": (_leaf(lambda x: _number(x, (int, float, complex)) and x != 0,
                      "a finite nonzero number"), None)}
_SERIES = _Shape(_SERIES_FIELDS, _series, "/subject")
resolve_subject = _Shape({
    **_SERIES_FIELDS,
    "profile": (_Shape({"name": (_text, "profile"),
                        "log_T": (_FORM, None), "log2_M": (_FORM, None)},
                       _opaque(growth.profile_from_descriptor)), None)},
    lambda s, path: s["profile"] or _series(s, path), "/subject")
resolve_equation = _Shape({
    "k": (_int(1), _REQUIRED), "A": (_list(_SERIES), _REQUIRED),
    "F": (lambda x, path: x if x is None else _SERIES(x, path), None)},
    lambda e, path: _require(len(e["A"]) == e["k"], path + "/A",
                             f"need exactly k = {e['k']} coefficients")
    or ode.LinearODE(e["k"], tuple(e["A"]), e["F"]), "/equation")

# the first series length auto_solve marches for each theorem solution
_THEOREM_N_START = 1 << 10
# how the checks read their estimates: one value each, not config fields
_THEOREM_RESIDUAL_TOL = 1e-8  # residual[solN] bound of a theorem solution
_LAMBDA_TOLERANCE = 0.3  # |lambda_wrapped - mu[A0]| a theorem allows
_HYPOTHESIS_MARGIN = 0.2  # theorem_dominant: max rho[A_j] + it <= mu[A0]
_TYPE_MARGIN = 0.1  # theorem_type: tau1 + it <= the lower type of A_0
_RATIO_BOUND = 2.0  # log_derivative: the tail ratio m / bound allowed
_PROPOSITION_TOL = 0.05  # proposition_suite: each order law's tolerance
# one table per kind besides schema, kind and name (see validate); a
# default of None that a pipeline fills in is noted
_ANALYZE = _Shape({
    "scales": (resolve_triple, _REQUIRED),
    "subject": (resolve_subject, _REQUIRED),
    "grid": (_grid(5.0, 100.0, 32), {}),
    # None: log_T of a profile, log2_M of a series
    "quantity": (_one_of(*growth.QUANTITIES), None),
    "expected_order": (_band, None), "expected_lower_order": (_band, None),
    "type_order": (_POSITIVE, None),  # None: the upper order estimate
    "expected_type": (_band, None),
    "count_zeros": (_Shape({
        "grid": (_grid(5.0, 50.0, 12), {}),
        "log_wrap": (_bool, False), "expected_lambda": (_band, None)}),
        None)},
    lambda v, _: _require(
        v["count_zeros"] is None or isinstance(v["subject"], ps.PowerSeries),
        "/count_zeros", "zeros are counted on a series subject, not a "
        "profile") or v)
_SOLVE = _Shape({
    "equation": (resolve_equation, _REQUIRED),
    "init": (_list(_complex), _REQUIRED),
    "r_max": (_POSITIVE, 5.0), "residual_tol": (_POSITIVE, 1e-8),
    "n_start": (_int(1), 1 << 8), "max_terms": (_int(1), 1 << 16)},
    lambda v, _: _require(v["n_start"] > v["equation"].k, "/n_start",
                          "expected an integer above the equation's order")
    or _require(v["max_terms"] >= v["n_start"], "/max_terms",
                "expected an integer >= n_start, the first series length")
    or v)
_WIMAN_VALIRON = _Shape({
    "grid": (_grid(1.0, 50.0, 24), {}),
    "subjects": (_list(_Shape({
        **_SERIES_FIELDS, "label": (_text, None),  # None: the provenance
        "ratio_orders": (_list(_int(1), 0), [])},
        lambda s, path: dict(s, series=_series(s, path)))), _REQUIRED)})
_GUNDERSEN = _Shape({
    "subject": (_SERIES, _REQUIRED), "chi": (_real(1.0), 2.0),
    "grid": (_grid(2.0, 40.0, 16), {}), "i": (_int(0), 0),
    "j": (_int(1), 1)},
    lambda v, _: _require(v["i"] < v["j"], "/j", "need i < j") or v)
_LOG_DERIVATIVE = _Shape({
    "subject": (_SERIES, _REQUIRED), "scales": (resolve_triple, _REQUIRED),
    "grid": (_grid(2.0, 20.0, 12), {}),
    "rho": (_real(0.0, closed=True), _REQUIRED), "k": (_int(1), 1)})
_PROPOSITIONS = _Shape({
    "scales": (resolve_triple, dict.fromkeys(("alpha", "beta", "gamma"),
                                             {"kind": "identity"})),
    "grid": (_grid(10.0, 2000.0, 48), {}),
    "dominance_r_min": (_POSITIVE, 100.0),
    "dominance_r_max": (_POSITIVE, 1e4)},
    lambda v, _: _require(v["dominance_r_min"] < v["dominance_r_max"],
                          "/dominance_r_max", "need dominance_r_min < "
                          "dominance_r_max") or v)
_SCALES = _Shape({"scales": (resolve_triple, _REQUIRED),
                  "grid": (_grid(100.0, 1e80, 64), {}), "p": (_int(1), 2)})
_THEOREM = _Shape({  # theorem_dominant, theorem_type and theorem_proximity
    "expect": (_one_of("hypotheses-not-met"), None),
    "variant": (_one_of("liminf"), None),  # None: lim sup (proximity)
    "scales": (resolve_triple, _REQUIRED),
    "equation": (resolve_equation, _REQUIRED),
    "coeff_grid": (_grid(5.0, 120.0, 24), {}),
    "proximity_grid": (_grid(5.0, 60.0, 8), {}),
    "r_max": (_POSITIVE, 12.0),
    "max_terms": (_int(_THEOREM_N_START), 1 << 14),
    "solution_grid": (_grid(4.0, None, 20), {}),
    "solution_band": (_band, [0.8, 1.1]),
    "seed": (_int(0), 20240401), "classical_min": (_POSITIVE, 3.0),
    "oscillation": (_Shape({
        "g": (_SERIES, {"poly": [0.0, 1.0]}),
        "radii": (_radii, None),  # None: 5 to past min_radius
        "n_subjects": (_int(0), 3), "min_radius": (_POSITIVE, 8.0)}),
        {})})


# ---------------------------------------------------------------------------
# check suites

def check_wiman_valiron(f: ps.PowerSeries, grid: np.ndarray,
                        report: Optional[Report] = None,
                        label: str = "", ratio_orders=()) -> Report:
    """Max-term identity, modulus bound, and the derivative-quotient ratio.

    (i)  ln mu(r) from the jump list equals the direct scan, everywhere;
    (ii) M(r) < mu(r) (nu(2r) + 2) at each sampled r (the free parameter of
         the bound is fixed at R = 2r);
    (iii) for the orders requested, |f^(n)(z*)/f(z*)| matches (nu(r)/z*)^n
         at the max-modulus angle z*, with tail deviation < 0.1.

    The radii (ii) and (iii) read are searched once, in one grid search
    (series._max_modulus), and the two share the result.  z*^n
    f^(n)(z*)/f(z*) for every order comes from one stacked sum over f's d
    band with falling-factorial weights (series._derivative_quotients): no
    derivative series is built.
    """
    rep = report or Report(label or f.provenance, "wiman_valiron", {})
    tag = label or f.provenance
    try:
        jumps = ps.central_index_jumps(f)
    except ValueError as exc:
        rep.add(CheckRecord(f"wv_identity[{tag}]", "error", "a0 != 0", None,
                            "fail", f"precondition: {exc}"))
        return rep
    worst = 0.0
    for r in grid:
        lr = math.log(r)
        worst = max(worst, abs(ps.log_mu_from_jumps(f, lr, jumps)
                               - ps.max_term(f, lr).log_mu))
    rep.leq(worst, 1e-9, f"wv_identity[{tag}]",
            "max |step-integral - scan| over grid")

    # one max-modulus search over every radius the bound or the ratio
    # reads: the bound's stop below R = 2r, the ratio's whole grid
    log_r = [math.log(r) for r in grid]
    n_bound = next((i for i, r in enumerate(grid)
                    if 2.0 * r > f.guaranteed_radius), len(grid))
    n_read = len(grid) if ratio_orders else n_bound
    peak_ln, peak_theta = (ps._max_modulus(f, np.array(log_r[:n_read]))
                           if n_read else ((), ()))

    ok_bound = True
    detail = ""
    for r, lr, lhs in zip(grid[:n_bound], log_r, peak_ln):
        mt = ps.max_term(f, lr)
        nu2 = ps.max_term(f, lr + math.log(2.0)).nu
        rhs = mt.log_mu + math.log(nu2 + 2.0)
        if not lhs < rhs:
            ok_bound = False
            detail = f"violated at r = {r:.6g}"
            break
    rep.truth(ok_bound, f"wv_bound[{tag}]", detail or "M < mu*(nu(2r)+2)")

    # z^n f^(n)/f at the max-modulus angle and nu(r), per radius, for
    # every order at once
    at = [(ps._derivative_quotients(f, lr, theta, max(ratio_orders)),
           ps.max_term(f, lr).nu)
          for lr, theta in zip(log_r, peak_theta)] if ratio_orders else []
    for order in ratio_orders:
        # (f^(n)/f) / (nu/z)^n = z^n f^(n)/f / nu^n
        devs = [abs(quot[order - 1] / nu ** order - 1.0) for quot, nu in at]
        tail = devs[-max(1, len(devs) // 3):]
        rep.leq(max(tail), 0.1, f"wv_ratio[{tag},n={order}]",
                "tail of |f^(n)/f / (nu/z)^n - 1| at max-modulus angle")
    return rep


def _derivative(f: ps.PowerSeries, k: int) -> ps.PowerSeries:
    """f^(k), by k calls of series.derivative."""
    for _ in range(k):
        f = ps.derivative(f)
    return f


def check_gundersen(f: ps.PowerSeries, chi: float, i: int, j: int,
                    grid: np.ndarray, report: Optional[Report] = None,
                    label: str = "") -> Report:
    """Smallest admissible constant in the derivative-quotient bound
    |f^(j)/f^(i)| <= B {T(chi r)/r (log^chi r) log T(chi r)}^{j-i}.

    The required B per radius must stay finite with a non-increasing tail;
    up to 10% of grid radii may misbehave (the bound holds only outside a
    small exceptional set of radii).  Angles where |f^(i)| falls below
    1e-8 mu(r) are left out of the sup.
    """
    if not 0 <= i < j:
        raise ValueError("need 0 <= i < j")
    if chi <= 1.0:
        raise ValueError("chi must exceed 1")
    rep = report or Report(label or f.provenance, "gundersen", {})
    tag = label or f.provenance
    fi = _derivative(f, i)
    fj = _derivative(fi, j - i)
    b_req = []
    for r in grid:
        lr = math.log(r)
        ri = _evalcore.eval_circle(fi.coeff, lr, 64, level="dd")
        rj = _evalcore.eval_circle(fj.coeff, lr, 64, level="dd")
        mask = ri.logabs >= ri.log_mu + math.log(1e-8)
        if not np.any(mask):
            continue
        sup_ln = float(np.max(rj.logabs[mask] - ri.logabs[mask]))
        t_chi = nev.characteristic_entire(f, lr + math.log(chi))
        if t_chi <= 1.0:
            continue
        core_ln = (j - i) * (math.log(t_chi) - lr
                             + chi * math.log(max(lr, 1e-9))
                             + math.log(math.log(t_chi)))
        b_req.append(math.exp(sup_ln - core_ln))
    if len(b_req) < 4:
        rep.truth(False, f"gundersen[{tag}]", "too few usable radii")
        return rep
    tail = b_req[-max(2, len(b_req) // 4):]
    viol = sum(1 for a, b in zip(tail, tail[1:]) if b > a * (1 + 1e-9))
    frac = viol / max(1, len(tail) - 1)
    rep.truth(all(math.isfinite(x) for x in b_req),
              f"gundersen_finite[{tag}]", "required B finite")
    rep.leq(frac, 0.10, f"gundersen_trend[{tag}]",
            f"fraction of increasing steps in required-B tail; tail={tail!r}")
    return rep


def check_log_derivative(f: ps.PowerSeries, triple: ScaleTriple, rho: float,
                         k: int, grid: np.ndarray,
                         report: Optional[Report] = None,
                         label: str = "") -> Report:
    """m(r, f^(k)/f) against exp(alpha^{-1}((rho + 1/4) beta(log gamma r))).

    rho is the caller's a-priori wrapped-order estimate of f.  The verdict
    asks for a tail ratio m / bound of at most _RATIO_BOUND, with at most
    10% of radii violating.  The
    detail names the radii whose m is a trimmed mean or did not converge
    (see nevanlinna.proximity_of_ratio).
    """
    rep = report or Report(label or f.provenance, "log_derivative", {})
    tag = label or f.provenance
    fk = _derivative(f, k)
    ratios, trimmed, unconverged = [], [], []
    eps = 0.25
    alpha_min = growth.eval_scale(triple.alpha, triple.alpha.x0)
    for r in grid:
        lr = math.log(r)
        prox = nev.proximity_of_ratio(fk, f, lr)
        if prox.trimmed:
            trimmed.append(round(float(r), 4))
        if not prox.converged:
            unconverged.append(round(float(r), 4))
        b_val = beta_log_gamma(triple.beta, triple.gamma, r)
        # clamp into the scale's range: below its minimum the generalized
        # inverse is the freeze point
        y = max((rho + eps) * b_val, alpha_min)
        bound = math.exp(min(inverse_scale(triple.alpha, y), 700.0))
        ratios.append(prox.value / bound)
    tail = ratios[-max(2, len(ratios) // 4):]
    viol = sum(1 for x in tail if x > _RATIO_BOUND)
    detail = f"tail ratios m/bound = {[round(x, 4) for x in tail]!r}"
    if trimmed:
        detail += f"; trimmed mean at r = {trimmed!r}"
    if unconverged:
        detail += f"; unconverged at r = {unconverged!r}"
    rep.leq(viol / len(tail), 0.10, f"log_derivative[{tag},k={k}]", detail)
    return rep


# ---------------------------------------------------------------------------
# kind pipelines

# how far above a radius r, in ln r, count_zeros_grid's largest retry lies
_RETRY_REACH = max(nev._retry_log_radii(0.0))


def _within(grid: np.ndarray, limit: float, path: str,
            least: int = 3) -> np.ndarray:
    """The radii of grid up to limit, a series' guaranteed_radius less a
    margin; a ConfigError at path if fewer than least remain."""
    kept = grid[grid <= limit]
    _require(len(kept) >= least, path, f"{len(kept)} of its radii lie "
             f"within r = {limit:.6g}, where the series is trusted; need "
             f"{least}")
    return kept


def _expect(report: Report, v: dict, key: str, value: float) -> None:
    """A within-band check named key, if v gives the band."""
    if v[key] is not None:
        report.within(value, *v[key], key)


def _run_analyze(v: dict, report: Report, _out_dir) -> Report:
    triple, subject = v["scales"], v["subject"]
    grid = growth.make_grid(*v["grid"])
    quantity = v["quantity"] or ("log_T" if isinstance(subject, growth.Profile)
                                 else "log2_M")
    if isinstance(subject, ps.PowerSeries):
        _require(np.isfinite(subject.coeff.lh).any(), "/subject",
                 "the zero series has no growth")
        grid = _within(grid, subject.guaranteed_radius * 0.999, "/grid", 4)
    s = growth.sample(subject, quantity, grid)
    up = _at_grid("/grid", growth.estimate_order, s, triple, "upper")
    lo = _at_grid("/grid", growth.estimate_order, s, triple, "lower")
    report.info("order_upper", up.value, f"trend {up.trend}")
    report.info("order_lower", lo.value, f"trend {lo.trend}")
    report.info("order_upper_estimate", up.as_dict())
    report.info("order_lower_estimate", lo.as_dict())
    report.truth(up.value >= lo.value - 1e-12, "order_upper_ge_lower")
    _expect(report, v, "expected_order", up.value)
    _expect(report, v, "expected_lower_order", lo.value)
    if v["expected_type"] is not None or v["type_order"] is not None:
        rho = up.value if v["type_order"] is None else v["type_order"]
        if 0 < rho < math.inf:
            t_up = _at_grid("/grid", growth.estimate_type, s, triple, rho,
                            "upper")
            report.info("type_upper", t_up.value, f"at order {rho:g}")
            _expect(report, v, "expected_type", t_up.value)
    cz = v["count_zeros"]
    if cz is not None:  # a series subject (validate checks it)
        # every retry radius of count_zeros_grid inside the trusted one
        cz_grid = _within(growth.make_grid(*cz["grid"]), math.exp(
            math.log(subject.guaranteed_radius) - _RETRY_REACH),
            "/count_zeros/grid")
        try:
            data = nev.count_zeros_grid(subject, cz_grid)
        except nev.PrecisionBudgetError as exc:
            raise ConfigError("/count_zeros/grid", str(exc)) from exc
        lam = _at_grid("/count_zeros/grid", growth.estimate_lambda, data,
                       triple, log_wrap=cz["log_wrap"])
        report.info("lambda_upper", lam.value, f"counts {data.counts!r}")
        _expect(report, cz, "expected_lambda", lam.value)
    return report


def _run_solve(v: dict, report: Report, out_dir: Optional[str]) -> Report:
    eq, init = v["equation"], ode.InitialData(tuple(map(complex, v["init"])))
    _opaque(eq.check_init)(init, "/init")
    sol, info = ode.auto_solve(eq, init, v["r_max"],
                               residual_tol=v["residual_tol"],
                               n_start=v["n_start"], n_cap=v["max_terms"])
    report.info("n_terms", info["n_terms"])
    report.info("certified_radius", info["certified_radius"])
    report.leq(info["residual"], v["residual_tol"],
               "residual", f"at r = {info['checked_radius']:.6g}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        # named relative to out_dir, where emit writes the report
        ps.dump_csv(sol, os.path.join(out_dir, f"{report.name}.csv"))
        report.info("coefficients_csv", f"{report.name}.csv")
    return report


def _run_wiman_valiron(v: dict, report: Report, _out_dir) -> Report:
    grid = growth.make_grid(*v["grid"])
    for s in v["subjects"]:
        f = s["series"]
        check_wiman_valiron(f, _within(grid, f.guaranteed_radius / 2.001,
                                       "/grid"),
                            report, label=s["label"] or "",
                            ratio_orders=s["ratio_orders"])
    return report


def _run_gundersen(v: dict, report: Report, _out_dir) -> Report:
    f, chi = v["subject"], v["chi"]
    grid = _within(growth.make_grid(*v["grid"]),
                   f.guaranteed_radius / (chi * 1.001), "/grid", 4)
    return check_gundersen(f, chi, v["i"], v["j"], grid, report,
                           v["name"] or "")


def _run_log_derivative(v: dict, report: Report, _out_dir) -> Report:
    f = v["subject"]
    grid = _within(growth.make_grid(*v["grid"]), f.guaranteed_radius * 0.999,
                   "/grid")
    return check_log_derivative(f, v["scales"], v["rho"], v["k"], grid, report,
                                label=v["name"] or "")


def _run_propositions(v: dict, report: Report, _out_dir) -> Report:
    """Sum/product/scalar order laws and characteristic domination, on
    closed-form profiles (the estimators' calibration set)."""
    triple, tol = v["scales"], _PROPOSITION_TOL
    wrapped, grid = triple.wrapped(), growth.make_grid(*v["grid"])

    def order(profile, mode, t=wrapped):
        s = growth.sample(profile, "log_T", grid)
        return _at_grid("/grid", growth.estimate_order, s, t, mode).value

    f1 = growth.profile_from_descriptor(
        {"name": "logT=r", "log_T": {"form": "c_rp", "c": 1.0, "p": 1.0}})
    f2 = growth.profile_from_descriptor(
        {"name": "logT=r^2", "log_T": {"form": "c_rp", "c": 1.0, "p": 2.0}})
    g3 = growth.profile_from_descriptor(
        {"name": "logT=r^3", "log_T": {"form": "c_rp", "c": 1.0, "p": 3.0}})

    r1 = order(f1, "upper")
    r2 = order(f2, "upper")
    report.close(r1, 1.0, tol, "calibration_order[f1]")
    report.close(r2, 2.0, tol, "calibration_order[f2]")

    s_sum = order(growth.profile_sum(f1, f2), "upper")
    report.leq(s_sum, max(r1, r2) + tol, "sum_order_law")
    s_prod = order(growth.profile_product(f1, f2), "upper")
    report.leq(s_prod, max(r1, r2) + tol, "product_order_law")
    report.close(s_sum, max(r1, r2), tol, "sum_order_equality",
                 "distinct orders: equality holds")

    # lower-order laws: mu(f+g) <= max(rho(f), mu(g)), equality when
    # mu(g) > rho(f)
    mu_g = order(g3, "lower")
    mu_sum = order(growth.profile_sum(f2, g3), "lower")
    mu_prod = order(growth.profile_product(f2, g3), "lower")
    report.leq(mu_sum, max(r2, mu_g) + tol, "lower_sum_law")
    report.close(mu_sum, mu_g, tol, "lower_sum_equality",
                 "mu(g) > rho(f) forces equality")
    report.close(mu_prod, mu_g, tol, "lower_product_equality")

    # scalar invariance: T(af) = T(f) + ln+|a|, so order estimates agree to
    # the suite tolerance at desk radii (the additive shift decays like
    # ln|a| / T(r); exact equality is an asymptotic statement)
    pe = growth.profile_from_descriptor(
        {"name": "exp", "log_T": {"form": "ln_c_rp", "c": 1 / math.pi,
                                  "p": 1.0}})
    pe5 = growth.profile_scalar_multiple(pe, 5.0)
    o1 = order(pe, "upper", triple)
    report.close(order(pe5, "upper", triple), o1, tol,
                 "scalar_order_invariance")

    # characteristic domination: T(poly) = o(T(exp)); equal-order control
    big_grid = growth.make_grid(v["dominance_r_min"], v["dominance_r_max"],
                                32)
    p_poly = growth.profile_from_descriptor(
        {"name": "poly3", "log_T": {"form": "ln_c_lnr", "c": 3.0}})
    p_exp2 = growth.profile_from_descriptor(
        {"name": "exp2", "log_T": {"form": "ln_c_rp", "c": 2 / math.pi,
                                   "p": 1.0}})
    ratio_small = growth.compare_characteristics(
        growth.sample(p_poly, "log_T", big_grid),
        growth.sample(pe, "log_T", big_grid))
    report.leq(ratio_small, 0.01, "domination_positive",
               "T(poly)/T(e^z) tail")
    ratio_half = growth.compare_characteristics(
        growth.sample(pe, "log_T", big_grid),
        growth.sample(p_exp2, "log_T", big_grid))
    report.within(ratio_half, 0.45, 0.55, "domination_negative_control",
                  "equal orders: ratio -> 1/2, not o(1)")
    same = growth.sample(pe, "log_T", big_grid)
    report.close(growth.compare_characteristics(same, same), 1.0, 1e-12,
                 "domination_identity")
    return report


def _run_scales(v: dict, report: Report, _out_dir) -> Report:
    triple = v["scales"]
    for rep in triple.audits:
        report.truth(not rep.falsified, f"audit[{rep.property_name}]",
                     f"worst violation {rep.worst_violation:.3g}; {rep.note}")
    for rep in audit_condition_ii(triple.alpha, triple.beta, triple.gamma,
                                  growth.make_grid(*v["grid"]), p=v["p"]):
        report.truth(not rep.falsified, f"audit[{rep.property_name}]",
                     f"worst tail ratio {rep.worst_violation:.3g}; {rep.note}")
    return report


# ---------------------------------------------------------------------------
# theorem experiments

def _coeff_order_estimates(eq: ode.LinearODE, triple: ScaleTriple,
                           grid: np.ndarray, report: Report):
    """(mu0_hat, rho0_hat, A_0's sample, [(j, rho_j, sample) for j >= 1])
    for the equation's coefficients, from max-modulus growth on the
    coefficient grid; a constant (or zero) A_j has rho_j = 0 and no
    sample, and a constant A_0 is a ConfigError."""
    others = []
    for j, a in enumerate(eq.coeffs):
        if not np.isfinite(a.coeff.lh[1:]).any():
            _require(j != 0, "/equation/A/0",
                     "A_0 must be nonconstant: it has no growth")
            others.append((j, 0.0, None))
            continue
        s = growth.sample(a, "log2_M", _within(
            grid, a.guaranteed_radius * 0.999, "/coeff_grid"))
        rho = _at_grid("/coeff_grid", growth.estimate_order, s, triple,
                       "upper").value
        if j == 0:
            s0, rho0 = s, rho
            mu0 = _at_grid("/coeff_grid", growth.estimate_order, s, triple,
                           "lower").value
        else:
            others.append((j, rho, s))
    report.info("mu_hat[A0]", mu0)
    report.info("rho_hat[A0]", rho0)
    for j, v, _ in others:
        report.info(f"rho_hat[A{j}]", v)
    return mu0, rho0, s0, others


def _hypotheses(v: dict, report: Report):
    """Empirical hypothesis verification; returns (ok, mu0, rho0)."""
    kind, eq, triple = v["kind"], v["equation"], v["scales"]
    mu0, rho0, s0, rho_others = _coeff_order_estimates(
        eq, triple, growth.make_grid(*v["coeff_grid"]), report)
    worst_other = max((rho for _, rho, _ in rho_others), default=0.0)
    if kind == "theorem_dominant":
        ok = worst_other + _HYPOTHESIS_MARGIN <= mu0 and rho0 < math.inf
        report.truth(ok, "hypothesis_dominant_lower_order",
                     f"max rho[A_j] = {worst_other:.4g} vs mu[A0] = "
                     f"{mu0:.4g} (margin {_HYPOTHESIS_MARGIN:g})")
    else:
        ok = worst_other <= mu0 + 0.05 and (kind == "theorem_proximity"
                                            or 0 < rho0 < math.inf)
        report.truth(ok, "hypothesis_orders_weakly_dominated",
                     f"max rho[A_j] = {worst_other:.4g} vs mu[A0] = {mu0:.4g}")
    if kind == "theorem_type" and ok:
        tau0_lower = _at_grid("/coeff_grid", growth.estimate_type, s0,
                              triple, mu0, "lower").value
        tau1 = 0.0
        for j, rho, s in rho_others:
            if s is not None and abs(rho - mu0) <= 0.1:
                tau1 = max(tau1, _at_grid("/coeff_grid", growth.estimate_type,
                                          s, triple, mu0, "upper").value)
        ok = tau1 + _TYPE_MARGIN <= tau0_lower
        report.truth(ok, "hypothesis_dominant_type",
                     f"tau1 = {tau1:.4g} vs lower type[A0] = "
                     f"{tau0_lower:.4g}")
    elif kind == "theorem_proximity":
        prox_grid = _within(growth.make_grid(*v["proximity_grid"]), min(
            a.guaranteed_radius for a in eq.coeffs) * 0.999, "/proximity_grid")
        ratios = []
        for r in prox_grid:
            lr = math.log(r)
            m0 = nev.characteristic_entire(eq.coeffs[0], lr)
            if m0 <= 0:
                continue
            m_sum = 0.0
            for a in eq.coeffs[1:]:
                try:
                    m_sum += nev.characteristic_entire(a, lr)
                except ps.DegenerateSeriesError:
                    pass
            ratios.append(m_sum / m0)
        tail = ratios[-max(1, len(ratios) // 2):]
        liminf = v["variant"] == "liminf"
        stat = (min if liminf else max)(tail, default=math.inf)
        report.info(f"proximity_ratio_tail_{'min' if liminf else 'max'}",
                    stat)
        lim = "inf" if liminf else "sup"
        ok2 = stat < 1.0 - 0.05
        report.truth(ok2, f"hypothesis_proximity_lim{lim}",
                     f"lim {lim} sum m(r,A_j)/m(r,A_0) < 1")
        ok = ok and ok2
        if liminf:
            reg = abs(rho0 - mu0) <= 0.1
            report.truth(reg, "hypothesis_regular_growth",
                         f"mu[A0] = {mu0:.4g} vs rho[A0] = {rho0:.4g}")
            transc = eq.coeffs[0].provenance != "poly"
            report.truth(transc, "hypothesis_A0_transcendental")
            ok = ok and reg and transc
    return ok, mu0, rho0


_PROBE_TERMS = 1 << 11  # first length of the double probe march
_PROBE_CAP = 1 << 16  # longest double probe


def _count_solution_zeros(eq: ode.LinearODE, init: ode.InitialData,
                          g_series: ps.PowerSeries, radii,
                          sol: Optional[ps.PowerSeries] = None):
    """Counting data for h = f - g, counted on a double probe of f.

    The probe is the first of _PROBE_TERMS times 1, 2, 4, ... terms whose
    trusted radius covers the march radius (the largest retry radius,
    _RETRY_REACH above the top radius in ln r) and whose mp band of h
    there, at the depth nevanlinna.winding_dps gives for the top radius,
    ends before its last term.  Its exact values come from the
    integer march (double-marched coefficients carry ~1e-11 relative
    error, far too coarse for winding at these depths), which h's exact
    values are filled from once, at that depth, as far as the mp bands of
    h and of h' reach at the march radius: h' at index i reads h at i + 1.
    A band only grows with its radius and its depth, so every count up to
    the top radius, and every retry radius, reads that one march unless
    its depth is higher.  The double probes are cut from sol, a double
    solution of the same equation and initial data (a march as auto_solve
    returns it, or a basis combination), and marched only past its end.
    Each of these raises ConfigError before any integer march: a
    coefficient A_j trusted to less than the march radius (before any
    probe: no probe length can raise it), a depth past nevanlinna's
    _DPS_BUDGET, and a probe of _PROBE_CAP terms that falls short."""
    r_top = max(radii)
    log_r = math.log(r_top) + _RETRY_REACH
    r_march = math.exp(log_r)
    for j, a in enumerate(eq.coeffs):
        _require(a.guaranteed_radius >= r_march, "/oscillation/radii",
                 f"counting up to r = {r_top:g} needs A_{j} trusted to "
                 f"{r_march:g}; it is trusted to {a.guaranteed_radius:.4g}")
    n, longest = _PROBE_TERMS, sol
    while True:
        probe = ode.solve_series(eq, init, n, _resume=longest)
        if longest is None or n > longest.n_terms:
            longest = probe
        held = probe.guaranteed_radius >= r_march
        if held:
            h = ps.combine(probe, g_series, "sub")
            try:
                dps = nev.winding_dps(h.coeff, math.log(r_top))
            except nev.PrecisionBudgetError as exc:
                raise ConfigError("/oscillation/radii",
                                  f"counting up to r = {r_top:g}: {exc}") \
                    from exc
            end = _evalcore._mp_band(h.coeff, log_r, dps)[1]
            held = end < n
        if held:
            break
        _require(n < _PROBE_CAP, "/oscillation/radii", f"counting up to r = "
                 f"{r_top:g}: the {n}-term probe is not trusted to "
                 f"{r_march:g}, or its mp band there reaches its last term")
        n *= 2
    end_dh = _evalcore._mp_band(ps.derivative(h).coeff, log_r, dps)[1]
    h.coeff.mp_logs(dps, max(end, end_dh + 1))
    return nev.count_zeros_grid(h, radii)


def _initial_vectors(k: int, seed: int) -> list:
    """The k basis vectors, then one random unit vector in C^k."""
    vec = np.random.default_rng(seed).normal(size=2 * k)
    vec = vec / np.linalg.norm(vec)
    return [ode.InitialData.basis(k, i) for i in range(k)] + [
        ode.InitialData(tuple(complex(vec[2 * t], vec[2 * t + 1])
                              for t in range(k)))]


def _theorem_solutions(eq: ode.LinearODE, inits: list, r_max: float,
                       residual_tol: float, n_cap: int) -> list:
    """(solution, info) for each initial vector, as auto_solve returns
    them.  The first k, the basis vectors, are marched by auto_solve.  For
    a homogeneous equation each other one is formed from the basis
    marches (ode.basis_combination) and kept if ode.final_check accepts
    it with its residual below residual_tol; otherwise it is marched by
    auto_solve too."""
    def march(init):
        return ode.auto_solve(eq, init, r_max, residual_tol=residual_tol,
                              n_start=_THEOREM_N_START, n_cap=n_cap)

    solved = [march(init) for init in inits[:eq.k]]
    basis = [sol for sol, _ in solved]
    for init in inits[eq.k:]:
        info = None
        if eq.homogeneous:
            sol = ode.basis_combination(eq, basis, init)
            info = ode.final_check(eq, sol, r_max, residual_tol, n_cap)
        if info is not None and info["residual"] < residual_tol:
            solved.append((sol, info))
        else:
            solved.append(march(init))
    return solved


def run_theorem_experiment(cfg: dict,
                           report: Optional[Report] = None) -> Report:
    """Hypotheses -> solutions -> growth estimates -> oscillation clause,
    for a theorem config (checked here unless validate returned it)."""
    v = cfg if isinstance(cfg, _Checked) else validate(cfg)
    kind = v["kind"]
    _require(_KINDS[kind][1] is _run_theorem, "/kind",
             f"not a theorem kind: {kind}")
    rep = report or Report(v["name"] or kind, kind, cfg)
    triple, eq, osc = v["scales"], v["equation"], v["oscillation"]
    wrapped = triple.wrapped()
    r_max, residual_tol = v["r_max"], _THEOREM_RESIDUAL_TOL

    ok, mu0, rho0 = _hypotheses(v, rep)
    if not ok:
        rep.verdict = "hypotheses-not-met"
        rep.notes.append("hypotheses not met: conclusions skipped")
        return rep

    inits = _initial_vectors(eq.k, v["seed"])
    band_lo, band_hi = v["solution_band"]
    min_r = osc["min_radius"]
    rep.truth(mu0 > 0.3, "oscillation_g_dominated",
              "polynomial g has wrapped order 0 < mu[A0]")

    solved = _theorem_solutions(eq, inits, r_max, residual_tol,
                                v["max_terms"])
    for s_idx, init in enumerate(inits):
        tag = f"sol{s_idx}"
        # the list lets go of each solution, and its caches, once checked
        (sol, info), solved[s_idx] = solved[s_idx], None
        rep.leq(info["residual"], residual_tol, f"residual[{tag}]",
                f"n = {info['n_terms']}, certified r = "
                f"{info['certified_radius']:.4g}")
        r_eff = min(r_max, info["certified_radius"] * 0.999)
        g_min, g_max, points = v["solution_grid"]
        sol_grid = np.geomspace(g_min, g_max or r_eff, points)
        sol_grid = sol_grid[sol_grid <= r_eff]
        _require(g_min < r_eff and len(sol_grid) >= 3, "/solution_grid",
                 f"fewer than 3 radii within {tag}'s certified radius")
        s = growth.sample(sol, "log2_M", sol_grid)
        mu_hat = _at_grid("/solution_grid", growth.estimate_order, s,
                          wrapped, "lower").value
        rho_hat = _at_grid("/solution_grid", growth.estimate_order, s,
                           wrapped, "upper").value
        rep.within(mu_hat, band_lo, band_hi, f"wrapped_mu[{tag}]",
                   f"target mu[A0] = {mu0:.4g}")
        rep.within(rho_hat, band_lo, band_hi, f"wrapped_rho[{tag}]",
                   f"target rho[A0] = {rho0:.4g}")
        rep.truth(mu_hat <= rho_hat + 1e-9, f"mu_le_rho[{tag}]")
        cls = _at_grid("/solution_grid", growth.estimate_order, s, triple,
                       "upper")
        rep.truth(cls.value > v["classical_min"]
                  and cls.trend in ("increasing", "converging"),
                  f"classical_diverges[{tag}]",
                  f"estimate {cls.value:.3g}, trend {cls.trend}")
        if s_idx < osc["n_subjects"]:
            radii = osc["radii"]
            if radii is None:
                top = min(min_r + 0.05, info["certified_radius"] * 0.85)
                radii = [5.0, 6.3, 7.1, top]
            data = _count_solution_zeros(eq, init, osc["g"], radii, sol)
            rep.info(f"zero_counts[{tag}]",
                     [list(data.radii), list(data.counts)])
            covered = [n for r, n in zip(data.radii, data.counts)
                       if r >= min_r]
            rep.truth(len(covered) > 0 and min(covered) >= 1,
                      f"zeros_beyond_{min_r:g}[{tag}]",
                      "counts are nondecreasing, so this extends upward")
            # the conclusion ties the LOWER zero exponent to mu[A0]
            lam = _at_grid("/oscillation/radii", growth.estimate_lambda,
                           data, triple, log_wrap=True, mode="lower",
                           tail_fraction=1.0)
            rep.close(lam.value, mu0, _LAMBDA_TOLERANCE,
                      f"lambda_wrapped[{tag}]",
                      "simple-zero assumption: distinct = all")
            rep.truth(lam.trend in ("increasing", "converging"),
                      f"lambda_trend[{tag}]", f"trend {lam.trend}; ratios "
                      f"{[round(x, 3) for x in lam.ratios]!r}")
    return rep


# ---------------------------------------------------------------------------
# dispatch, emit, shipped configs

def _run_theorem(v: dict, report: Report, _out_dir) -> Report:
    run_theorem_experiment(v, report)
    if report.verdict == v["expect"] == "hypotheses-not-met":
        report.notes.append("hypotheses-not-met was the expected outcome")
    return report


# kind -> (table, pipeline(v, report, out_dir)); only solve writes to out_dir
_KINDS = {
    "analyze": (_ANALYZE, _run_analyze),  # growth functionals of a subject
    "solve": (_SOLVE, _run_solve),  # series solution, residual, CSV dump
    "wiman_valiron": (_WIMAN_VALIRON, _run_wiman_valiron),  # mu, nu, M(r)
    "gundersen": (_GUNDERSEN, _run_gundersen),  # derivative-quotient bound
    "log_derivative": (_LOG_DERIVATIVE, _run_log_derivative),  # m(r, f'/f)
    # solutions under a coefficient dominant by lower order, type or m(r)
    **dict.fromkeys(("theorem_dominant", "theorem_type",
                     "theorem_proximity"), (_THEOREM, _run_theorem)),
    "proposition_suite": (_PROPOSITIONS, _run_propositions),  # order laws
    "scales": (_SCALES, _run_scales),  # a scale triple's class conditions
}
KINDS = tuple(_KINDS)


class _Checked(dict):
    """A config's values as validate returns them."""


_HEAD = _Shape({"schema": (_one_of(SCHEMA), _REQUIRED),
                "kind": (_one_of(*KINDS), _REQUIRED),
                "name": (_text, None)}, free=None)


def validate(cfg: dict) -> dict:
    """cfg, left as it is, checked against its kind's table before any
    work: the values the pipelines read, or a bad field's ConfigError.
    The kind's table checks every key but the head fields of _HEAD."""
    head = _HEAD(cfg)
    body = {key: x for key, x in cfg.items() if key not in head}
    return _Checked(_KINDS[head["kind"]][0](body), **head)


def run_config(cfg: dict, out_dir: Optional[str] = None) -> Report:
    """Validate and run one experiment config; returns its Report."""
    t0 = time.time()
    v = validate(cfg)
    report = Report(v["name"] or v["kind"], v["kind"], dict(cfg))
    _KINDS[v["kind"]][1](v, report, out_dir)
    return _stamp(report, t0)


def emit(report: Report, fmt: str = "json",
         out_dir: str = ".") -> list:
    """Write the report; returns the file paths.

    JSON output is deterministic for a fixed config and seed except for the
    isolated environment block.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    base = os.path.join(out_dir, report.name.replace(" ", "_"))
    if fmt == "json":
        path = base + ".report.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    elif fmt == "csv":
        path = base + ".report.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,measured,expected,tolerance,verdict,detail\n")
            for c in report.checks:
                row = [c.name, c.measured, c.expected, c.tolerance,
                       c.verdict, c.detail]
                fh.write(",".join('"' + str(x).replace('"', "'") + '"'
                                  for x in row) + "\n")
        paths.append(path)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return paths


_EXPERIMENT_DIR = os.path.join(os.path.dirname(__file__), "experiments")


def shipped_names() -> list:
    return sorted(n[:-5] for n in os.listdir(_EXPERIMENT_DIR)
                  if n.endswith(".json"))


def shipped_config(name: str) -> dict:
    path = os.path.join(_EXPERIMENT_DIR, name + ".json")
    if not os.path.exists(path):
        raise ConfigError("/name", f"no shipped experiment {name!r}; "
                          f"have {shipped_names()}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

"""Declarative experiments over the growth machinery, with reports.

An experiment is a JSON-friendly config dict with a versioned "schema"
field; run_config validates it, dispatches on "kind", and returns a Report
whose check records are deterministic given the config and seed (timing and
environment live in an isolated sub-object excluded from that promise).

The experiment kinds, KINDS, are the keys of _PIPELINES, each described
there.

Hypothesis gating: theorem experiments verify their hypotheses empirically
first and mark the report "hypotheses-not-met" instead of asserting any
conclusion when the check fails.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, growth, nevanlinna as nev, ode
from . import series as ps
from . import _evalcore
from .scale import (ScaleTriple, audit_condition_ii, beta_log_gamma,
                    inverse_scale, scale_from_descriptor)

__all__ = ["ConfigError", "CheckRecord", "Report", "run_config", "emit",
           "check_wiman_valiron", "check_gundersen", "check_log_derivative",
           "run_theorem_experiment", "shipped_config", "shipped_names",
           "SCHEMA"]

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
# config resolution

def _need(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}/{key}", "missing required field")
    return cfg[key]


def _at(path: str, fn, *args):
    """fn(*args), a ValueError, TypeError, KeyError, AttributeError or
    OverflowError (an infinite int or complex) raised as a ConfigError at
    path; a ConfigError passes unchanged."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError,
            OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _integer(cfg: dict, key: str, default, path: str = "") -> int:
    """cfg.get(key, default) if an integer (a bool is not one), else a
    ConfigError at path/key: a float such as 31.5 is not truncated."""
    x = cfg.get(key, default)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ConfigError(f"{path}/{key}", f"expected an integer, got {x!r}")
    return x


def _boolean(cfg: dict, key: str, default: bool, path: str = "") -> bool:
    """cfg.get(key, default) if a JSON boolean (the string "false" is not
    false), else a ConfigError at path/key."""
    x = cfg.get(key, default)
    if not isinstance(x, bool):
        raise ConfigError(f"{path}/{key}",
                          f"expected true or false, got {x!r}")
    return x


def _positive(cfg: dict, key: str, default, path: str = "") -> float:
    """cfg.get(key, default) if a positive finite number, as a float."""
    x = _at(f"{path}/{key}", float, cfg.get(key, default))
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"{path}/{key}", f"need a positive number, not {x}")
    return x


def resolve_triple(desc: dict, path: str = "/scales") -> ScaleTriple:
    if not isinstance(desc, dict):
        raise ConfigError(path, "scales must be an object")
    return _at(path, lambda: ScaleTriple(
        *(scale_from_descriptor(_need(desc, k, path))
          for k in ("alpha", "beta", "gamma")),
        l1_constant=float(desc.get("l1_constant", 1.0))))


def resolve_subject(desc: dict, path: str = "/subject"):
    """A series or profile from its config descriptor."""
    if not isinstance(desc, dict):
        raise ConfigError(path, "subject must be an object")
    if "profile" in desc:
        return _at(path + "/profile", growth.profile_from_descriptor,
                   desc["profile"])
    if "poly" in desc:
        return _at(path + "/poly",
                   lambda: ps.builtin("poly", coeffs=desc["poly"]))
    if "builtin" in desc:
        n = _at(path + "/n_terms", int, desc.get("n_terms", 400))
        out = _at(path + "/builtin", ps.builtin, desc["builtin"], n,
                  desc.get("coeffs"))
        if "z_scale" in desc:
            out = _at(path + "/z_scale", lambda: ps.scale_argument(
                out, complex(desc["z_scale"])))
        return out
    raise ConfigError(path, "subject needs 'builtin', 'poly' or 'profile'")


def resolve_equation(desc: dict, path: str = "/equation") -> ode.LinearODE:
    if not isinstance(desc, dict):
        raise ConfigError(path, "equation must be an object")
    _need(desc, "k", path)
    k = _integer(desc, "k", None, path)
    a_descs = _need(desc, "A", path)
    if not isinstance(a_descs, list) or len(a_descs) != k:
        raise ConfigError(path + "/A", f"need exactly k = {k} coefficients")
    coeffs = tuple(resolve_subject(d, f"{path}/A/{i}")
                   for i, d in enumerate(a_descs))
    rhs = None
    if desc.get("F") is not None:
        rhs = resolve_subject(desc["F"], path + "/F")
    try:
        return ode.LinearODE(k, coeffs, rhs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _integer_at_least(cfg: dict, key: str, default, path: str = "",
                      least: int = 0) -> int:
    """_integer(cfg, key, default, path), which must be at least least."""
    x = _integer(cfg, key, default, path)
    if x < least:
        raise ConfigError(f"{path}/{key}",
                          f"expected an integer >= {least}, got {x}")
    return x


def _finite(x) -> bool:
    """x is a finite int or float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _grid_from(cfg: dict, key: str, default: tuple, path: str = "") -> np.ndarray:
    g = cfg.get(key, {})
    r_max = _at(f"{path}/{key}", lambda: float(g.get("r_max", default[1])))
    if not math.isfinite(r_max):
        raise ConfigError(f"{path}/{key}/r_max", f"need a finite radius, "
                          f"not {r_max}")
    return _at(f"{path}/{key}", lambda: growth.make_grid(
        float(g.get("r_min", default[0])), r_max,
        _integer(g, "points", default[2], f"{path}/{key}")))


def _solver_limits(cfg: dict, r_max: float, residual_tol: float,
                   max_terms: int, n_start, order: int) -> tuple:
    """(r_max, residual_tol, max_terms) of a config that runs auto_solve,
    from the defaults given for missing fields.  n_start, auto_solve's
    first length, must be an integer above the equation's order, r_max and
    residual_tol positive finite numbers and max_terms an integer of at
    least n_start; anything else is a ConfigError at the field's path."""
    if isinstance(n_start, bool) or not isinstance(n_start, int) \
            or n_start <= order:
        raise ConfigError("/n_start", f"expected an integer > {order} "
                          f"(the equation's order), got {n_start!r}")
    n_cap = _integer(cfg, "max_terms", max_terms)
    if n_cap < n_start:
        raise ConfigError("/max_terms", f"expected an integer >= {n_start} "
                          f"(the first series length), got {n_cap!r}")
    return (_positive(cfg, "r_max", r_max),
            _positive(cfg, "residual_tol", residual_tol), n_cap)


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
        ri = _evalcore.eval_circle(fi.coeff, lr, 64, offset=True, level="dd")
        rj = _evalcore.eval_circle(fj.coeff, lr, 64, offset=True, level="dd")
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
                         ratio_bound: float = 2.0, label: str = "") -> Report:
    """m(r, f^(k)/f) against exp(alpha^{-1}((rho + 1/4) beta(log gamma r))).

    rho is the caller's a-priori wrapped-order estimate of f.  The verdict
    asks for a bounded tail ratio with at most 10% of radii violating.  The
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
    viol = sum(1 for x in tail if x > ratio_bound)
    detail = f"tail ratios m/bound = {[round(x, 4) for x in tail]!r}"
    if trimmed:
        detail += f"; trimmed mean at r = {trimmed!r}"
    if unconverged:
        detail += f"; unconverged at r = {unconverged!r}"
    rep.leq(viol / len(tail), 0.10, f"log_derivative[{tag},k={k}]", detail)
    return rep


# ---------------------------------------------------------------------------
# kind pipelines

def _expect(report: Report, cfg: dict, key: str, value: float) -> None:
    """A within-band check named key, if cfg gives the band [lo, hi]."""
    if key in cfg:
        report.within(value, float(cfg[key][0]), float(cfg[key][1]), key)


def _run_analyze(cfg: dict, report: Report, _out_dir) -> Report:
    triple = resolve_triple(_need(cfg, "scales", ""))
    subject = resolve_subject(_need(cfg, "subject", ""))
    grid_default = (5.0, 100.0, 32)
    grid = _grid_from(cfg, "grid", grid_default)
    quantity = cfg.get("quantity",
                       "log_T" if isinstance(subject, growth.Profile)
                       else "log2_M")
    if isinstance(subject, ps.PowerSeries):
        if not np.isfinite(subject.coeff.lh).any():
            raise ConfigError("/subject", "the zero series has no growth")
        r_cap = subject.guaranteed_radius * 0.999
        grid = grid[grid <= r_cap]
        if len(grid) < 4:
            raise ConfigError("/grid", "grid exceeds the certified radius")
    s = growth.sample(subject, quantity, grid)
    up = growth.estimate_order(s, triple, "upper")
    lo = growth.estimate_order(s, triple, "lower")
    report.info("order_upper", up.value, f"trend {up.trend}")
    report.info("order_lower", lo.value, f"trend {lo.trend}")
    report.info("order_upper_estimate", up.as_dict())
    report.info("order_lower_estimate", lo.as_dict())
    report.truth(up.value >= lo.value - 1e-12, "order_upper_ge_lower")
    _expect(report, cfg, "expected_order", up.value)
    _expect(report, cfg, "expected_lower_order", lo.value)
    if "expected_type" in cfg or "type_order" in cfg:
        rho = float(cfg.get("type_order", up.value))
        if 0 < rho < math.inf:
            t_up = growth.estimate_type(s, triple, rho, "upper")
            report.info("type_upper", t_up.value, f"at order {rho:g}")
            _expect(report, cfg, "expected_type", t_up.value)
    if cfg.get("count_zeros") and isinstance(subject, ps.PowerSeries):
        cz = cfg["count_zeros"]
        radii = _grid_from(cz, "grid", (5.0, 50.0, 12), "/count_zeros")
        margin = ("auto" if cz.get("zero_margin", "auto") == "auto"
                  else _positive(cz, "zero_margin", None, "/count_zeros"))
        try:
            data = nev.count_zeros_grid(subject, radii, zero_margin=margin)
        except nev.PrecisionBudgetError as exc:
            raise ConfigError("/count_zeros/grid", str(exc)) from exc
        lam = growth.estimate_lambda(data, triple,
                                     log_wrap=bool(cz.get("log_wrap", False)))
        report.info("lambda_upper", lam.value, f"counts {data.counts!r}")
        _expect(report, cz, "expected_lambda", lam.value)
    return report


def _run_solve(cfg: dict, report: Report, out_dir: Optional[str]) -> Report:
    eq = resolve_equation(_need(cfg, "equation", ""))
    init = _at("/init", lambda: ode.InitialData(tuple(
        complex(v) for v in _need(cfg, "init", ""))))
    _at("/init", eq.check_init, init)
    n_start = cfg.get("n_start", 1 << 8)
    r_max, residual_tol, n_cap = _solver_limits(cfg, 5.0, 1e-8, 1 << 16,
                                                n_start, eq.k)
    sol, info = ode.auto_solve(eq, init, r_max, residual_tol=residual_tol,
                               n_start=n_start, n_cap=n_cap)
    report.info("n_terms", info["n_terms"])
    report.info("certified_radius", info["certified_radius"])
    report.leq(info["residual"], residual_tol,
               "residual", f"at r = {info['checked_radius']:.6g}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        # named relative to out_dir, where emit writes the report
        name = f"{cfg.get('name', 'solution')}.csv"
        ps.dump_csv(sol, os.path.join(out_dir, name))
        report.info("coefficients_csv", name)
    return report


def _run_wiman_valiron(cfg: dict, report: Report, _out_dir) -> Report:
    grid = _grid_from(cfg, "grid", (1.0, 50.0, 24))
    for i, desc in enumerate(_need(cfg, "subjects", "")):
        subject = resolve_subject(desc, f"/subjects/{i}")
        orders = desc.get("ratio_orders", [])
        if not (isinstance(orders, list)
                and all(type(n) is int and n > 0 for n in orders)):
            raise ConfigError(f"/subjects/{i}/ratio_orders", "need ints >= 1")
        sub_grid = grid[grid <= subject.guaranteed_radius / 2.001] \
            if math.isfinite(subject.guaranteed_radius) else grid
        check_wiman_valiron(subject, sub_grid, report,
                            label=desc.get("label", subject.provenance),
                            ratio_orders=orders)
    return report


def _run_gundersen(cfg: dict, report: Report, _out_dir) -> Report:
    subject = resolve_subject(_need(cfg, "subject", ""))
    chi = _at("/chi", float, cfg.get("chi", 2.0))
    if not (math.isfinite(chi) and chi > 1.0):
        raise ConfigError("/chi", f"need a finite chi > 1, got {chi}")
    grid = _grid_from(cfg, "grid", (2.0, 40.0, 16))
    grid = grid[grid <= subject.guaranteed_radius / (chi * 1.001)]
    i, j = _integer(cfg, "i", 0), _integer(cfg, "j", 1)
    if not 0 <= i < j:
        raise ConfigError("/j", f"need 0 <= i < j, got i = {i}, j = {j}")
    check_gundersen(subject, chi, i, j, grid, report, cfg.get("name", ""))
    return report


def _run_log_derivative(cfg: dict, report: Report, _out_dir) -> Report:
    subject = resolve_subject(_need(cfg, "subject", ""))
    triple = resolve_triple(_need(cfg, "scales", ""))
    grid = _grid_from(cfg, "grid", (2.0, 20.0, 12))
    grid = grid[grid <= subject.guaranteed_radius * 0.999]
    k = _integer(cfg, "k", 1)
    if k < 1:
        raise ConfigError("/k", f"expected a derivative order >= 1, got {k}")
    check_log_derivative(subject, triple, float(_need(cfg, "rho", "")), k,
                         grid, report,
                         ratio_bound=float(cfg.get("ratio_bound", 2.0)),
                         label=cfg.get("name", ""))
    return report


def _run_propositions(cfg: dict, report: Report, _out_dir) -> Report:
    """Sum/product/scalar order laws and characteristic domination, on
    closed-form profiles (the estimators' calibration set)."""
    triple = resolve_triple(cfg.get("scales", {
        "alpha": {"kind": "identity"}, "beta": {"kind": "identity"},
        "gamma": {"kind": "identity"}}))
    wrapped = triple.wrapped()
    tol = float(cfg.get("tolerance", 0.05))
    grid = _grid_from(cfg, "grid", (10.0, 2000.0, 48))

    def order(profile, mode, t=wrapped):
        s = growth.sample(profile, "log_T", grid)
        return growth.estimate_order(s, t, mode).value

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
    big_grid = growth.make_grid(float(cfg.get("dominance_r_min", 100.0)),
                                float(cfg.get("dominance_r_max", 1e4)), 32)
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


def _run_scales(cfg: dict, report: Report, _out_dir) -> Report:
    triple = resolve_triple(_need(cfg, "scales", ""))
    for rep in triple.audits:
        report.truth(not rep.falsified, f"audit[{rep.property_name}]",
                     f"worst violation {rep.worst_violation:.3g}; {rep.note}")
    grid = _grid_from(cfg, "grid", (100.0, 1e80, 64))
    for rep in audit_condition_ii(triple.alpha, triple.beta, triple.gamma,
                                  grid, p=int(cfg.get("p", 2))):
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
            if j == 0:
                raise ConfigError("/equation/A/0", "A_0 must be "
                                  "nonconstant: it has no growth")
            others.append((j, 0.0, None))
            continue
        g = grid[grid <= a.guaranteed_radius * 0.999]
        s = growth.sample(a, "log2_M", g)
        if j == 0:
            s0 = s
            mu0 = growth.estimate_order(s, triple, "lower").value
            rho0 = growth.estimate_order(s, triple, "upper").value
        else:
            others.append((j, growth.estimate_order(s, triple,
                                                    "upper").value, s))
    report.info("mu_hat[A0]", mu0)
    report.info("rho_hat[A0]", rho0)
    for j, v, _ in others:
        report.info(f"rho_hat[A{j}]", v)
    return mu0, rho0, s0, others


def _theorem_settings(cfg: dict) -> dict:
    """A theorem config's own fields, each checked before any march: a
    bad value is a ConfigError at its path."""
    band = cfg.get("solution_band", [0.8, 1.1])
    if not (isinstance(band, (list, tuple)) and len(band) == 2
            and all(_finite(x) for x in band) and band[0] < band[1]):
        raise ConfigError("/solution_band", "expected two finite numbers "
                          f"lo < hi, got {band!r}")
    osc = cfg.get("oscillation", {})
    if not isinstance(osc, dict):
        raise ConfigError("/oscillation", "oscillation must be an object")
    radii = osc.get("radii")
    if radii is not None and not (
            isinstance(radii, list) and radii
            and all(_finite(r) and r > 0 for r in radii)):
        raise ConfigError("/oscillation/radii", "expected a nonempty list "
                          f"of positive finite numbers, got {radii!r}")
    if cfg.get("variant", "liminf") != "liminf":
        raise ConfigError("/variant", 'expected "liminf" or no variant, '
                          f"got {cfg['variant']!r}")
    return {
        "seed": _integer_at_least(cfg, "seed", 20240401),
        "n_random": _integer_at_least(cfg, "n_random", 1),
        "band": tuple(float(x) for x in band),
        "lam_tol": _positive(cfg, "lambda_tolerance", 0.3),
        "margin": _positive(cfg, "hypothesis_margin", 0.2),
        "type_margin": _positive(cfg, "type_margin", 0.1),
        "classical_min": _positive(cfg, "classical_min", 3.0),
        "classical": _boolean(cfg, "expect_infinite_classical", True),
        "osc_enabled": _boolean(osc, "enabled", True, "/oscillation"),
        "g": resolve_subject(osc.get("g", {"poly": [0.0, 1.0]}),
                             "/oscillation/g"),
        "radii": radii,
        "n_subjects": _integer_at_least(osc, "n_subjects", 3,
                                        "/oscillation"),
        "min_radius": _positive(osc, "min_radius", 8.0, "/oscillation"),
        "dps_budget": _integer_at_least(osc, "dps_budget", 400,
                                        "/oscillation", 1),
    }


def _hypotheses(kind: str, cfg: dict, eq: ode.LinearODE, triple: ScaleTriple,
                report: Report, margin: float, type_margin: float):
    """Empirical hypothesis verification; returns (ok, mu0, rho0)."""
    coeff_grid = _grid_from(cfg, "coeff_grid", (5.0, 120.0, 24))
    mu0, rho0, s0, rho_others = _coeff_order_estimates(
        eq, triple, coeff_grid, report)
    worst_other = max((v for _, v, _ in rho_others), default=0.0)
    if kind == "theorem_dominant":
        ok = worst_other + margin <= mu0 and rho0 < math.inf
        report.truth(ok, "hypothesis_dominant_lower_order",
                     f"max rho[A_j] = {worst_other:.4g} vs mu[A0] = "
                     f"{mu0:.4g} (margin {margin:g})")
    elif kind in ("theorem_type", "theorem_proximity"):
        ok = worst_other <= mu0 + 0.05 and (kind == "theorem_proximity"
                                            or 0 < rho0 < math.inf)
        report.truth(ok, "hypothesis_orders_weakly_dominated",
                     f"max rho[A_j] = {worst_other:.4g} vs mu[A0] = {mu0:.4g}")
    else:
        raise ConfigError("/kind", f"not a theorem kind: {kind}")
    if kind == "theorem_type" and ok:
        tau0_lower = growth.estimate_type(s0, triple, mu0, "lower").value
        tau1 = 0.0
        for j, v, s in rho_others:
            if s is not None and abs(v - mu0) <= 0.1:
                tau1 = max(tau1, growth.estimate_type(
                    s, triple, mu0, "upper").value)
        ok = tau1 + type_margin <= tau0_lower
        report.truth(ok, "hypothesis_dominant_type",
                     f"tau1 = {tau1:.4g} vs lower type[A0] = "
                     f"{tau0_lower:.4g}")
    elif kind == "theorem_proximity":
        prox_grid = _grid_from(cfg, "proximity_grid", (5.0, 60.0, 8))
        cap = min(a.guaranteed_radius for a in eq.coeffs) * 0.999
        prox_grid = prox_grid[prox_grid <= cap]
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
        liminf = cfg.get("variant") == "liminf"
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


def _march_log_radius(r_top: float) -> float:
    """ln of the largest radius count_zeros_grid counts at for the top
    radius r_top: its largest retry above it, r_top (1 + s), s =
    ((_MAX_RETRIES - 1) // 2 + 1) _RETRY_STEP (1.002 r_top), formed as the
    retry forms it."""
    step = ((nev._MAX_RETRIES - 1) // 2 + 1) * nev._RETRY_STEP
    return math.log(r_top) + math.log1p(step)


def _count_solution_zeros(eq: ode.LinearODE, init: ode.InitialData,
                          g_series: ps.PowerSeries, radii, dps_budget: int,
                          sol: Optional[ps.PowerSeries] = None):
    """Counting data for h = f - g, counted on a double probe of f.

    The probe is the first of _PROBE_TERMS times 1, 2, 4, ... terms whose
    trusted radius covers the march radius (_march_log_radius, the
    largest retry radius above the top radius) and whose mp band of h
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
    probe: no probe length can raise it), a depth past dps_budget, and a
    probe of _PROBE_CAP terms that falls short."""
    r_top = max(radii)
    log_r = _march_log_radius(r_top)
    r_march = math.exp(log_r)
    for j, a in enumerate(eq.coeffs):
        if a.guaranteed_radius < r_march:
            raise ConfigError(
                "/oscillation/radii", f"counting up to r = {r_top:g} needs "
                f"A_{j} trusted to {r_march:g}; it is trusted "
                f"to {a.guaranteed_radius:.4g}")
    n, longest = _PROBE_TERMS, sol
    while True:
        probe = ode.solve_series(eq, init, n, _resume=longest)
        if longest is None or n > longest.n_terms:
            longest = probe
        held = probe.guaranteed_radius >= r_march
        if held:
            h = ps.combine(probe, g_series, "sub")
            try:
                dps = nev.winding_dps(h.coeff, math.log(r_top), dps_budget)
            except nev.PrecisionBudgetError as exc:
                raise ConfigError("/oscillation/radii",
                                  f"counting up to r = {r_top:g}: {exc}") \
                    from exc
            end = _evalcore._mp_band(h.coeff, log_r, dps)[1]
            held = end < n
        if held:
            break
        if n >= _PROBE_CAP:
            raise ConfigError(
                "/oscillation/radii", f"counting up to r = {r_top:g}: the "
                f"{n}-term probe is not trusted to {r_march:g}, or its mp "
                f"band there reaches its last term")
        n *= 2
    end_dh = _evalcore._mp_band(ps.derivative(h).coeff, log_r, dps)[1]
    h.coeff.mp_logs(dps, max(end, end_dh + 1))
    return nev.count_zeros_grid(h, radii, zero_margin="auto",
                                dps_budget=dps_budget)


# the first series length auto_solve marches for each theorem solution
_THEOREM_N_START = 1 << 10


def _initial_vectors(k: int, seed: int, n_random: int) -> list:
    """The k basis vectors, then n_random random unit vectors in C^k."""
    rng = np.random.default_rng(seed)
    inits = [ode.InitialData.basis(k, i) for i in range(k)]
    for _ in range(n_random):
        vec = rng.normal(size=2 * k)
        vec = vec / np.linalg.norm(vec)
        inits.append(ode.InitialData(tuple(
            complex(vec[2 * t], vec[2 * t + 1]) for t in range(k))))
    return inits


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
    """Hypotheses -> solutions -> growth estimates -> oscillation clause."""
    kind = cfg.get("kind", "theorem_dominant")
    rep = report or Report(cfg.get("name", kind), kind, cfg)
    triple = resolve_triple(_need(cfg, "scales", ""))
    wrapped = triple.wrapped()
    eq = resolve_equation(_need(cfg, "equation", ""))
    r_max, residual_tol, n_cap = _solver_limits(cfg, 12.0, 1e-8, 1 << 14,
                                                _THEOREM_N_START, eq.k)
    opt = _theorem_settings(cfg)

    ok, mu0, rho0 = _hypotheses(kind, cfg, eq, triple, rep, opt["margin"],
                                opt["type_margin"])
    if not ok:
        rep.verdict = "hypotheses-not-met"
        rep.notes.append("hypotheses not met: conclusions skipped")
        return rep

    inits = _initial_vectors(eq.k, opt["seed"], opt["n_random"])
    band_lo, band_hi = opt["band"]
    min_r = opt["min_radius"]
    rep.truth(mu0 > 0.3, "oscillation_g_dominated",
              "polynomial g has wrapped order 0 < mu[A0]")

    solved = _theorem_solutions(eq, inits, r_max, residual_tol, n_cap)
    for s_idx, init in enumerate(inits):
        tag = f"sol{s_idx}"
        # the list lets go of each solution, and its caches, once checked
        (sol, info), solved[s_idx] = solved[s_idx], None
        rep.leq(info["residual"], residual_tol, f"residual[{tag}]",
                f"n = {info['n_terms']}, certified r = "
                f"{info['certified_radius']:.4g}")
        r_eff = min(r_max, info["certified_radius"] * 0.999)
        sol_grid = _grid_from(cfg, "solution_grid", (4.0, r_eff, 20))
        sol_grid = sol_grid[sol_grid <= r_eff]
        s = growth.sample(sol, "log2_M", sol_grid)
        mu_hat = growth.estimate_order(s, wrapped, "lower").value
        rho_hat = growth.estimate_order(s, wrapped, "upper").value
        rep.within(mu_hat, band_lo, band_hi, f"wrapped_mu[{tag}]",
                   f"target mu[A0] = {mu0:.4g}")
        rep.within(rho_hat, band_lo, band_hi, f"wrapped_rho[{tag}]",
                   f"target rho[A0] = {rho0:.4g}")
        rep.truth(mu_hat <= rho_hat + 1e-9, f"mu_le_rho[{tag}]")
        if opt["classical"]:
            cls = growth.estimate_order(s, triple, "upper")
            rep.truth(cls.value > opt["classical_min"]
                      and cls.trend in ("increasing", "converging"),
                      f"classical_diverges[{tag}]",
                      f"estimate {cls.value:.3g}, trend {cls.trend}")
        if opt["osc_enabled"] and s_idx < opt["n_subjects"]:
            radii = opt["radii"]
            if radii is None:
                top = min(min_r + 0.05, info["certified_radius"] * 0.85)
                radii = [5.0, 6.3, 7.1, top]
            data = _count_solution_zeros(eq, init, opt["g"], radii,
                                         opt["dps_budget"], sol)
            rep.info(f"zero_counts[{tag}]",
                     [list(data.radii), list(data.counts)])
            covered = [n for r, n in zip(data.radii, data.counts)
                       if r >= min_r]
            rep.truth(len(covered) > 0 and min(covered) >= 1,
                      f"zeros_beyond_{min_r:g}[{tag}]",
                      "counts are nondecreasing, so this extends upward")
            # the conclusion ties the LOWER zero exponent to mu[A0]
            lam = growth.estimate_lambda(data, triple, log_wrap=True,
                                         mode="lower", tail_fraction=1.0)
            rep.close(lam.value, mu0, opt["lam_tol"],
                      f"lambda_wrapped[{tag}]",
                      "simple-zero assumption: distinct = all")
            rep.truth(lam.trend in ("increasing", "converging"),
                      f"lambda_trend[{tag}]", f"trend {lam.trend}; ratios "
                      f"{[round(x, 3) for x in lam.ratios]!r}")
    return rep


# ---------------------------------------------------------------------------
# dispatch, emit, shipped configs

def _run_theorem(cfg: dict, report: Report, _out_dir) -> Report:
    run_theorem_experiment(cfg, report)
    if report.verdict == "hypotheses-not-met" \
            and cfg.get("expect") == "hypotheses-not-met":
        report.notes.append("hypotheses-not-met was the expected outcome")
    return report


# kind -> pipeline(cfg, report, out_dir); only solve writes to out_dir
_PIPELINES = {
    "analyze": _run_analyze,  # growth functionals of one subject
    "solve": _run_solve,  # power-series solution, residual and CSV dump
    "wiman_valiron": _run_wiman_valiron,  # max-term identity, M(r) bound
    "gundersen": _run_gundersen,  # logarithmic-derivative quotient bound
    "log_derivative": _run_log_derivative,  # m(r, f^(k)/f) against a cap
    # growth and zeros of solutions under a dominant coefficient, with
    # dominance by lower order, by maximum-term type or by proximity
    "theorem_dominant": _run_theorem, "theorem_type": _run_theorem,
    "theorem_proximity": _run_theorem,
    "proposition_suite": _run_propositions,  # order laws on profiles
    "scales": _run_scales,  # audits of a scale triple's class conditions
}
KINDS = tuple(_PIPELINES)


def run_config(cfg: dict, out_dir: Optional[str] = None) -> Report:
    """Validate and run one experiment config; returns its Report."""
    t0 = time.time()
    if not isinstance(cfg, dict):
        raise ConfigError("", "config must be a JSON object")
    if cfg.get("schema") != SCHEMA:
        raise ConfigError("/schema", f"expected {SCHEMA!r}")
    kind = _need(cfg, "kind", "")
    if kind not in KINDS:
        raise ConfigError("/kind", f"unknown kind {kind!r}; "
                          f"expected one of {KINDS}")
    report = Report(cfg.get("name", kind), kind, dict(cfg))
    _PIPELINES[kind](cfg, report, out_dir)
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

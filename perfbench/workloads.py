"""The benchmark's workloads: fixed operation lists made from a seed.

Each workload is a list of operations.  An operation calls growthlab's
public API once, checks its result against an exact or published answer,
and reduces the result to a SHA-256 digest so runs can be compared bit for
bit.  `builtins` lists the builtin subjects the workload's set-up builds.

    fixed_precision  shipped experiments that stay at d/dd precision
    oracles          m(r, e^z) = r/pi, n(r, 1/sin) = 2 floor(r/pi) + 1 and
                     subadditivity of m for e^z cos z
    oscillation      theorem_dominant in miniature (mp march and winding)
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

FIXED_PRECISION_EXPERIMENTS = (
    "theorem_type", "theorem_dominant_first_order", "log_derivative_exp_exp",
    "wiman_valiron", "analyze_exp", "solve_airy", "propositions",
    "scales_default")

ORACLE_RADII = (10.0, 20.0, 40.0, 60.0)
ORACLE_JITTER = 0.02
PRODUCT_RADIUS = 12.5
# Not moved by the seed: where the radii fall decides whether mp_logs must
# march the mp solution again at more digits (about 4 s of a 22 s pass).
# Moved by ±1%, 3 seeds in 25 missed that re-march, and a set of ten runs
# with three such seeds spreads by 20%.  Fixed, every run makes it.
OSCILLATION_RADII = (4.5, 5.6, 6.3)


@dataclass
class Op:
    """One benchmark operation: run() -> result, check(result) -> (ok, why)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    digest: Callable[[object], str]


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report) -> str:
    d = report.as_dict()
    d.pop("environment")
    return _sha(d)


def _jitter(rng: random.Random, x: float, frac: float) -> float:
    return x * (1.0 + rng.uniform(-frac, frac))


def _builtins_in(obj) -> set:
    """(name, n_terms) of every builtin subject named in a config."""
    out = set()
    if isinstance(obj, dict):
        if "builtin" in obj:
            out.add((obj["builtin"], int(obj.get("n_terms", 400))))
        for v in obj.values():
            out |= _builtins_in(v)
    elif isinstance(obj, list):
        for v in obj:
            out |= _builtins_in(v)
    return out


def _report_check(report) -> tuple:
    failed = [c.name for c in report.checks if c.verdict == "fail"]
    return report.verdict == "pass", f"verdict {report.verdict} {failed}"


def _experiment_op(harness, cfg: dict) -> Op:
    return Op(name=f"run_config[{cfg['name']}]",
              run=lambda: harness.run_config(cfg),
              check=_report_check, digest=_report_digest)


def fixed_precision(gl, seed: int):
    rng = random.Random(seed)
    cfgs = []
    for name in FIXED_PRECISION_EXPERIMENTS:
        cfg = gl.harness.shipped_config(name)
        if cfg["kind"].startswith("theorem_"):
            cfg["seed"] = rng.randrange(1 << 31)
        cfgs.append(cfg)
    return _builtins_in(cfgs), [_experiment_op(gl.harness, c) for c in cfgs]


def oracles(gl, seed: int):
    ps, nev = gl.series, gl.nevanlinna
    rng = random.Random(seed)
    ops = []

    def m_exp(r):
        res = nev.proximity_detailed(ps.builtin("exp", 400), math.log(r))
        return r, res

    def m_exp_check(out):
        r, res = out
        err = abs(res.value - r / math.pi)
        # criterion 3 of the acceptance suite: |T(r, e^z) - r/pi| <= 1e-6 r
        return err <= 1e-6 * r, f"|m - r/pi| / r = {err / r:.3g}"

    def n_sin(r):
        return nev.count_zeros_grid(ps.builtin("sin", 700), [r])

    def n_sin_check(data):
        r_used, n = data.radii[0], data.counts[0]
        want = 2 * math.floor(r_used / math.pi) + 1
        return n == want, f"n({r_used!r}) = {n}, oracle {want}"

    for nominal in ORACLE_RADII:
        r = _jitter(rng, nominal, ORACLE_JITTER)
        ops.append(Op(f"m_exp[{nominal:g}]", lambda r=r: m_exp(r), m_exp_check,
                      lambda out: _sha([out[0], out[1].value, out[1].n_angles,
                                        out[1].level, out[1].uncertainty])))
    for nominal in ORACLE_RADII:
        r = _jitter(rng, nominal, ORACLE_JITTER)
        ops.append(Op(f"n_sin[{nominal:g}]", lambda r=r: n_sin(r), n_sin_check,
                      lambda d: _sha([list(d.radii), list(d.counts)])))

    r_prod = _jitter(rng, PRODUCT_RADIUS, ORACLE_JITTER)

    def m_product():
        e, c = ps.builtin("exp", 400), ps.builtin("cos", 400)
        lr = math.log(r_prod)
        fg = ps.combine(e, c, "cauchy_product")
        return (nev.proximity_detailed(fg, lr).value,
                nev.proximity_detailed(e, lr).value,
                nev.proximity_detailed(c, lr).value)

    def m_product_check(vals):
        m_fg, m_f, m_g = vals
        # m(r, fg) <= m(r, f) + m(r, g), up to the quadrature tolerance
        slack = 1e-8 * max(1.0, m_f + m_g)
        return m_fg <= m_f + m_g + slack, (
            f"m(fg) = {m_fg!r}, m(f) + m(g) = {m_f + m_g!r}")

    ops.append(Op(f"m_exp_cos[{PRODUCT_RADIUS:g}]", m_product,
                  m_product_check, lambda v: _sha([r_prod, *v])))
    return {("exp", 400), ("sin", 700), ("cos", 400)}, ops


def oscillation(gl, seed: int):
    rng = random.Random(seed)
    cfg = gl.harness.shipped_config("theorem_dominant")
    cfg["name"] = "theorem_dominant_mini"
    cfg["seed"] = rng.randrange(1 << 31)
    cfg["r_max"] = 10.0
    cfg["solution_grid"] = {"r_min": 3.0, "r_max": 10.0, "points": 16}
    cfg["oscillation"].update({"n_subjects": 1,
                               "radii": list(OSCILLATION_RADII),
                               "min_radius": 6.0})
    return _builtins_in(cfg), [_experiment_op(gl.harness, cfg)]


WORKLOADS = {"fixed_precision": fixed_precision, "oracles": oracles,
             "oscillation": oscillation}


def oracle_err_max(results: dict) -> float:
    """max |m(r, e^z) - r/pi| / r over the m_exp ops of one pass."""
    pairs = [out for name, out in results.items() if name.startswith("m_exp[")]
    errs = [abs(res.value - r / math.pi) / r for r, res in pairs]
    return max(errs, default=math.nan)

"""Span tracing of growthlab's layers, installed from outside the package.

`Tracer.install()` replaces every public function of each traced layer
(the module's `__all__`), plus a few named internals, with a wrapper that
records one span per call.  A function imported by name into another module
(`from .series import max_term`) is a second binding of the same object, so
every growthlab module's globals are scanned and each binding is swapped.

A span is (name, parent, op, start, end, attrs): `parent` is the index of
the enclosing span or -1, `op` the id of the benchmark operation it ran in,
`attrs` the counts taken from the call's arguments and result.  Spans stay
in memory until the pass ends.  `layer_metrics()` derives the per-layer
figures from them.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

LAYERS = {
    "harness": "growthlab.harness",
    "growth": "growthlab.growth",
    "nevanlinna": "growthlab.nevanlinna",
    "ode": "growthlab.ode",
    "series": "growthlab.series",
    "evalcore": "growthlab._evalcore",
}

# internals the per-layer metrics need besides each layer's __all__
EXTRA = {"ode": ("_solve_series_mp",)}

EVAL_SPANS = ("evalcore.eval_points", "evalcore.eval_circle")
LEVELS = ("d", "dd", "mp")


def _arg(bound, name):
    return bound.arguments.get(name, bound.signature.parameters[name].default)


def _eval_attrs(bound, result):
    level = _arg(bound, "level")
    if "m" in bound.signature.parameters:
        points = int(_arg(bound, "m"))
    else:
        points = len(_arg(bound, "thetas"))
    dps = _arg(bound, "dps") or 0
    return {"level": level, "points": points, "dps": int(dps)}


def _solve_attrs(bound, result):
    return {"terms": int(_arg(bound, "n_terms")),
            "mp": _arg(bound, "dps") is not None}


def _auto_solve_attrs(bound, result):
    kept = result[0].n_terms if result is not None else 0
    return {"kept_terms": kept, "mp": _arg(bound, "dps") is not None}


def _proximity_attrs(bound, result):
    if result is None:
        return {}
    return {"angles": result.n_angles, "level": result.level}


# name -> attrs(bound_arguments, result); result is None if the call raised
ATTRS = {
    "evalcore.eval_points": _eval_attrs,
    "evalcore.eval_circle": _eval_attrs,
    "ode.solve_series": _solve_attrs,
    "ode._solve_series_mp": _solve_attrs,
    "ode.auto_solve": _auto_solve_attrs,
    "nevanlinna.proximity_detailed": _proximity_attrs,
}


class Tracer:
    """In-memory span recorder; one per benchmark pass."""

    def __init__(self):
        self.spans = []   # [name, parent, op, start, end, attrs, error]
        self._stack = []
        self.op = -1

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the traced functions.

        modules is the caller's sys.modules, so every binding site in a
        loaded growthlab module can be found.
        """
        originals = {}
        for layer, modname in LAYERS.items():
            mod = modules[modname]
            names = [n for n in mod.__all__
                     if inspect.isfunction(getattr(mod, n, None))]
            for n in names + list(EXTRA.get(layer, ())):
                fn = getattr(mod, n)
                originals[fn] = self._wrap(f"{layer}.{n}", fn)
        for modname, mod in modules.items():
            if modname != "growthlab" and not modname.startswith("growthlab."):
                continue
            for key, val in list(vars(mod).items()):
                wrapper = originals.get(val) if callable(val) else None
                if wrapper is not None:
                    setattr(mod, key, wrapper)
        coeff_cls = modules[LAYERS["evalcore"]].CoeffData
        coeff_cls.mp_logs = self._wrap("evalcore.mp_logs", coeff_cls.mp_logs)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        describe = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.op, clock(), 0.0,
                   None, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                rec[6] = type(err).__name__
                raise
            finally:
                rec[4] = clock()
                stack.pop()
                if describe is not None:
                    rec[5] = describe(sig.bind(*args, **kwargs), result)

        return wrapper

    # -- export -----------------------------------------------------------

    def as_records(self) -> list:
        keys = ("name", "parent", "op", "start", "end", "attrs", "error")
        return [dict(zip(keys, s)) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans, keep):
    """Indices of spans matching keep() with no matching ancestor."""
    out = []
    for i, s in enumerate(spans):
        if not keep(s[0]):
            continue
        p = s[1]
        while p >= 0 and not keep(spans[p][0]):
            p = spans[p][1]
        if p < 0:
            out.append(i)
    return out


def _dur(s) -> float:
    return s[4] - s[3]


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer figures of one traced pass (see perfbench/README.md)."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += _dur(s)

    def named(name):
        return [i for i in range(n) if spans[i][0] == name]

    def busy(name):
        return math.fsum(_dur(spans[i]) for i in
                         _outermost(spans, lambda x: x == name))

    def self_s(names):
        return math.fsum(_dur(spans[i]) - child_time[i]
                         for i in range(n) if spans[i][0] in names)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = math.fsum(
            _dur(spans[i]) for i in
            _outermost(spans, lambda x, _l=layer: _layer(x) == _l))
        out[f"{layer}.self_s"] = self_s(
            {s[0] for s in spans if _layer(s[0]) == layer})

    # evalcore: points and time per precision level, attributed at the
    # outermost evaluation span (eval_circle calls eval_points at mp)
    points = dict.fromkeys(LEVELS, 0)
    level_busy = dict.fromkeys(LEVELS, 0.0)
    digit_points = 0
    under = {}  # ancestor index -> {level: points}
    watch = {"nevanlinna.proximity_detailed", "nevanlinna.zero_count"}
    for i in _outermost(spans, lambda x: x in EVAL_SPANS):
        a = spans[i][5]
        lvl = a["level"]
        points[lvl] += a["points"]
        level_busy[lvl] += _dur(spans[i])
        if lvl == "mp":
            digit_points += a["points"] * a["dps"]
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] in watch:
                acc = under.setdefault(p, dict.fromkeys(LEVELS, 0))
                acc[lvl] += a["points"]
            p = spans[p][1]
    for lvl in LEVELS:
        out[f"evalcore.points.{lvl}"] = points[lvl]
        out[f"evalcore.busy_s.{lvl}"] = level_busy[lvl]
        out[f"evalcore.pts_per_s.{lvl}"] = (points[lvl] / level_busy[lvl]
                                            if level_busy[lvl] > 0 else 0.0)
    out["evalcore.mp_digit_points"] = digit_points
    out["evalcore.mp_logs.calls"] = len(named("evalcore.mp_logs"))
    out["evalcore.mp_logs.busy_s"] = busy("evalcore.mp_logs")

    prox = named("nevanlinna.proximity_detailed")
    done = [i for i in prox if spans[i][5] and "level" in spans[i][5]]
    out["nevanlinna.proximity.calls"] = len(prox)
    out["nevanlinna.proximity.busy_s"] = busy("nevanlinna.proximity_detailed")
    out["nevanlinna.proximity.self_s"] = self_s(
        {"nevanlinna.proximity_detailed"})
    out["nevanlinna.proximity.angles"] = sum(spans[i][5]["angles"]
                                             for i in done)
    out["nevanlinna.proximity.mp_finish_frac"] = (
        sum(spans[i][5]["level"] == "mp" for i in done) / len(prox)
        if prox else 0.0)
    wasted = total = 0
    for i in prox:
        acc = under.get(i, dict.fromkeys(LEVELS, 0))
        total += sum(acc.values())
        final = spans[i][5].get("level") if spans[i][5] else None
        for lvl in LEVELS:
            if lvl == final:
                break
            wasted += acc[lvl]
    out["nevanlinna.proximity.wasted_points_frac"] = (wasted / total
                                                      if total else 0.0)

    zc = named("nevanlinna.zero_count")
    out["nevanlinna.zero_count.calls"] = len(zc)
    out["nevanlinna.zero_count.busy_s"] = busy("nevanlinna.zero_count")
    out["nevanlinna.zero_count.self_s"] = self_s({"nevanlinna.zero_count"})
    out["nevanlinna.zero_count.points"] = sum(
        sum(under.get(i, {}).values()) for i in zc)
    out["nevanlinna.zero_count.escalated_frac"] = (
        sum(under.get(i, {}).get("mp", 0) > 0 for i in zc) / len(zc)
        if zc else 0.0)
    out["nevanlinna.zero_count.retries"] = sum(
        spans[i][6] == "RetryPerturbedRadius" for i in zc)
    out["nevanlinna.proximity_of_ratio.busy_s"] = busy(
        "nevanlinna.proximity_of_ratio")

    for kind, is_mp in (("d", False), ("mp", True)):
        name = "ode._solve_series_mp" if is_mp else "ode.solve_series"
        idx = [i for i in named(name) if spans[i][5]
               and spans[i][5]["mp"] == is_mp]
        top = set(_outermost(spans, lambda x, _n=name: x == _n))
        out[f"ode.solve_series.{kind}.calls"] = len(idx)
        out[f"ode.solve_series.{kind}.terms"] = sum(spans[i][5]["terms"]
                                                    for i in idx)
        out[f"ode.solve_series.{kind}.busy_s"] = math.fsum(
            _dur(spans[i]) for i in idx if i in top)
    kept = sum(spans[i][5]["kept_terms"] for i in named("ode.auto_solve")
               if spans[i][5] and not spans[i][5]["mp"])
    marched = out["ode.solve_series.d.terms"]
    out["ode.march_useful_frac"] = kept / marched if marched else 0.0
    out["ode.residual_norm.busy_s"] = busy("ode.residual_norm")
    out["ode.auto_solve.busy_s"] = busy("ode.auto_solve")

    for fn in ("builtin", "log_max_modulus", "derivative", "combine",
               "scale_argument"):
        out[f"series.{fn}.busy_s"] = busy(f"series.{fn}")
    out["series.log_max_modulus.calls"] = len(named("series.log_max_modulus"))

    out["growth.sample.busy_s"] = busy("growth.sample")
    out["growth.sample.self_s"] = self_s({"growth.sample"})
    out["growth.estimate.busy_s"] = math.fsum(
        busy(f"growth.{fn}") for fn in ("estimate_order", "estimate_type",
                                        "estimate_lambda"))
    out["harness.run_config.calls"] = len(named("harness.run_config"))
    out["harness.run_config.busy_s"] = busy("harness.run_config")

    out["trace.spans"] = n
    out["trace.wall_s"] = wall_s
    return out


def op_top_level_s(spans: list) -> dict:
    """op id -> summed duration of the op's top-level spans."""
    out = {}
    for s in spans:
        if s[1] < 0:
            out[s[2]] = out.get(s[2], 0.0) + _dur(s)
    return out


def call_counts(spans: list) -> dict:
    out = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out

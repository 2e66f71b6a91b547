"""Scale functions for generalized growth orders, their algebra, and
sampled audits of the class conditions they are declared to satisfy.

A scale function is continuous, nonnegative, constant at the value s(x0) on
(-inf, x0], and nondecreasing and unbounded on [x0, inf).  The three slots
of a ScaleTriple are conventionally subject to:

  L1: s(a+b) <= s(a) + s(b) + c for a fixed constant c,
  L2: s(x + O(1)) = (1 + o(1)) s(x),
  L3: s(a+b) <= s(a) + s(b) (subadditive; implied by concavity with s(0)>=0),

plus joint asymptotic conditions tying the triple together.  None of these
can be certified by finite sampling, so audits report a worst violation over
a grid and an explicit "consistent is not a proof" caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["ScaleFunction", "ScaleTriple", "AuditReport", "eval_scale",
           "inverse_scale", "compose_with_log", "audit_class",
           "audit_condition_ii", "identity", "log_plus", "iterated_log",
           "power", "linear", "user_table", "scale_from_descriptor"]

_E = math.e


@dataclass(frozen=True)
class ScaleFunction:
    """Tagged scale function; construct via the factory helpers below."""

    kind: str
    x0: float
    params: tuple = ()
    inner: Optional["ScaleFunction"] = None
    label: str = ""

    def __call__(self, x):
        return eval_scale(self, x)

    def __repr__(self) -> str:
        return self.label or self.kind


def identity() -> ScaleFunction:
    return ScaleFunction("identity", 0.0, label="identity")


def log_plus(x0: float = _E) -> ScaleFunction:
    """log x, frozen at the value log(x0) below x0 (default x0 = e)."""
    if x0 <= 1.0:
        raise ValueError("log_plus freeze point must exceed 1")
    return ScaleFunction("log_plus", x0, label="log_plus")


def iterated_log(p: int = 1) -> ScaleFunction:
    """p-fold iterated log, frozen where the iterate reaches 0."""
    if p < 1:
        raise ValueError("p must be >= 1")
    x0 = 1.0
    for _ in range(p - 1):
        x0 = math.exp(x0)
    # log^[p](x0) = 0 at this x0, keeping the function nonnegative
    return ScaleFunction("iterated_log", x0, (p,), label=f"log^[{p}]")


def power(c: float) -> ScaleFunction:
    """x**c on x >= 0 with c in (0, 1] (concave, hence subadditive)."""
    if not 0.0 < c <= 1.0:
        raise ValueError("power exponent must lie in (0, 1]")
    return ScaleFunction("power", 0.0, (c,), label=f"x^{c:g}")


def linear(a: float, b: float = 0.0) -> ScaleFunction:
    if a <= 0.0:
        raise ValueError("linear scale needs positive slope")
    x0 = max(0.0, -b / a)
    return ScaleFunction("linear", x0, (a, b), label=f"{a:g}x+{b:g}")


def user_table(xs: Sequence[float], ys: Sequence[float]) -> ScaleFunction:
    """Monotone piecewise-linear interpolant, linearly extrapolated above
    the last knot (keeps it nondecreasing and unbounded)."""
    xs = tuple(float(v) for v in xs)
    ys = tuple(float(v) for v in ys)
    if len(xs) < 2 or len(xs) != len(ys):
        raise ValueError("user_table needs matching xs/ys with >= 2 knots")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("user_table xs must be strictly increasing")
    if any(b < a for a, b in zip(ys, ys[1:])) or ys[0] < 0:
        raise ValueError("user_table ys must be nonnegative and nondecreasing")
    if ys[-1] <= ys[-2]:
        raise ValueError("last segment must climb so the scale is unbounded")
    return ScaleFunction("user_table", xs[0], (xs, ys), label="user_table")


def compose_with_log(s: ScaleFunction) -> ScaleFunction:
    """The scale x -> s(log x), frozen below exp(x0 of s)."""
    return ScaleFunction("composed_log", math.exp(min(s.x0, 700.0)),
                         inner=s, label=f"{s!r}(log)")


def eval_scale(s: ScaleFunction, x):
    """Evaluate, scalar or ndarray; total on the reals (frozen below x0)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    frozen = arr < s.x0
    arr[frozen] = s.x0
    if s.kind == "identity":
        out = arr
    elif s.kind == "log_plus":
        out = np.log(arr)
    elif s.kind == "iterated_log":
        out = arr
        for _ in range(s.params[0]):
            out = np.log(out)
    elif s.kind == "power":
        out = arr ** s.params[0]
    elif s.kind == "linear":
        a, b = s.params
        out = a * arr + b
    elif s.kind == "user_table":
        xs, ys = s.params
        out = np.interp(arr, xs, ys)
        beyond = arr > xs[-1]
        if np.any(beyond):
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out[beyond] = ys[-1] + slope * (arr[beyond] - xs[-1])
    elif s.kind == "composed_log":
        out = eval_scale(s.inner, np.log(arr))
    else:
        raise ValueError(f"unknown scale kind {s.kind!r}")
    out = np.atleast_1d(np.asarray(out, dtype=float))
    return float(out[0]) if scalar else out


def inverse_scale(s: ScaleFunction, y: float) -> float:
    """Smallest x with s(x) >= y.

    Closed forms for the analytic kinds; monotone bisection to an absolute
    tolerance of 1e-12 * max(1, |x|) otherwise.  y below s(x0) is a domain
    error (the scale never takes such values).
    """
    base = eval_scale(s, s.x0)
    if y < base - 1e-12 * max(1.0, abs(base)):
        raise ValueError(f"{y} below the scale's minimum value {base}")
    if y <= base:
        return s.x0
    if s.kind == "identity":
        return float(y)
    if s.kind == "log_plus":
        return math.exp(y)
    if s.kind == "iterated_log":
        x = float(y)
        for _ in range(s.params[0]):
            x = math.exp(x)
        return x
    if s.kind == "power":
        return float(y) ** (1.0 / s.params[0])
    if s.kind == "linear":
        a, b = s.params
        return (y - b) / a
    if s.kind == "composed_log":
        return math.exp(inverse_scale(s.inner, y))
    # bisection fallback (user_table)
    hi = max(s.x0 + 1.0, 1.0)
    while eval_scale(s, hi) < y:
        hi = s.x0 + 2.0 * (hi - s.x0) + 1.0
        if hi > 1e300:
            raise ValueError("inverse_scale bracket exceeded float range")
    lo = s.x0
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if eval_scale(s, mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one sampled class audit.

    A 'consistent' verdict means no violation was found on the grid; it is
    evidence, not a proof (the conditions are asymptotic).
    """

    property_name: str
    grid_size: int
    worst_violation: float
    verdict: str
    note: str = "sampled check only; consistency is not a proof"

    @property
    def falsified(self) -> bool:
        return self.verdict == "falsified"


_TREND_TOL = 0.05


def audit_class(s: ScaleFunction, cls: str, grid: Sequence,
                c: float = 1.0) -> AuditReport:
    """Sampled falsification of a class condition.

    grid is a list of (a, b) pairs for L1/L3 (additive inequalities) or of
    (x, K) pairs for L2 (shift-ratio trend).  The joint condition on a
    triple is audited by audit_condition_ii, not here.
    """
    if cls == "cond_ii":
        raise ValueError("condition (ii) relates a whole triple; "
                         "use audit_condition_ii")
    pairs = np.asarray(list(grid), dtype=float)
    if pairs.size == 0:
        raise ValueError("empty audit grid")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("audit grid must be made of pairs")
    a, b = pairs[:, 0], pairs[:, 1]

    if cls in ("L1", "L3"):
        slack = c if cls == "L1" else 0.0
        lhs = eval_scale(s, a + b)
        rhs = eval_scale(s, a) + eval_scale(s, b) + slack
        viol = np.max(lhs - rhs)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(rhs))))
        worst = float(max(viol, 0.0))
        return AuditReport(f"{cls}[{s!r}]", len(pairs), worst,
                           "falsified" if viol > tol else "consistent")

    if cls == "L2":
        order = np.argsort(a)
        x, k = a[order], b[order]
        ratio = eval_scale(s, x + k) / np.maximum(eval_scale(s, x), 1e-300)
        tail = ratio[-max(1, len(ratio) // 4):]
        worst = float(np.max(np.abs(tail - 1.0)))
        return AuditReport(f"L2[{s!r}]", len(pairs), worst,
                           "falsified" if worst > _TREND_TOL else "consistent")

    raise ValueError(f"unknown class {cls!r}")


def _iter_log(x: np.ndarray, p: int) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    for _ in range(p):
        out = np.log(out)
    return out


def audit_condition_ii(alpha: ScaleFunction, beta: ScaleFunction,
                       gamma: ScaleFunction, grid: Sequence[float],
                       p: int = 2) -> list:
    """Sampled audit of the joint smallness conditions on a triple:
    alpha(log^[p] x) = o(beta(log gamma(x))) and alpha(log x) = o(alpha(x)).

    p is a caller choice (the conditions hold for every p >= 2 when they
    hold at all, but a finite grid can only probe one).  Returns a report
    per clause; the tail statistic is the max over the last grid quarter.
    """
    x = np.sort(np.asarray(list(grid), dtype=float))
    if x.size == 0:
        raise ValueError("empty audit grid")
    q = max(1, len(x) // 4)
    reports = []

    num = eval_scale(alpha, _iter_log(x, p))
    den = eval_scale(beta, np.log(np.maximum(eval_scale(gamma, x), 1e-300)))
    ratio = num / np.maximum(den, 1e-300)
    worst = float(np.max(ratio[-q:]))
    reports.append(AuditReport(f"alpha(log^[{p}])=o(beta(log gamma))",
                               len(x), worst,
                               "falsified" if worst > _TREND_TOL else "consistent"))

    r2 = eval_scale(alpha, np.log(x)) / np.maximum(eval_scale(alpha, x), 1e-300)
    worst2 = float(np.max(r2[-q:]))
    reports.append(AuditReport("alpha(log)=o(alpha)", len(x), worst2,
                               "falsified" if worst2 > _TREND_TOL else "consistent"))
    return reports


def _default_pair_grid(s: ScaleFunction):
    rng = np.random.default_rng(7)
    lo = max(s.x0, 1.0) + 1.0
    a = lo * np.exp(rng.uniform(0.0, 10.0, 256))
    b = lo * np.exp(rng.uniform(0.0, 10.0, 256))
    return np.stack([a, b], axis=1)


@dataclass(frozen=True)
class ScaleTriple:
    """The (alpha, beta, gamma) scales with their declared class flags.

    Construction audits every declared flag on a deterministic grid and
    refuses triples whose declarations are falsifiable by sampling; gamma
    must be declared subadditive.
    """

    alpha: ScaleFunction
    beta: ScaleFunction
    gamma: ScaleFunction
    declared_classes: tuple = (True, True, True)
    l1_constant: float = 1.0
    audits: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.declared_classes[2]:
            raise ValueError("gamma must be declared subadditive (L3)")
        reports = []
        if self.declared_classes[0]:
            reports.append(audit_class(self.alpha, "L1",
                                       _default_pair_grid(self.alpha),
                                       c=self.l1_constant))
        if self.declared_classes[1]:
            shifts = _default_pair_grid(self.beta)
            shifts[:, 1] = np.linspace(0.5, 5.0, len(shifts))
            reports.append(audit_class(self.beta, "L2", shifts))
        reports.append(audit_class(self.gamma, "L3",
                                   _default_pair_grid(self.gamma)))
        for rep in reports:
            if rep.falsified:
                raise ValueError(f"declared class falsified: {rep}")
        object.__setattr__(self, "audits", tuple(reports))

    def wrapped(self) -> "ScaleTriple":
        """The triple with alpha replaced by alpha(log): the scale under
        which solution growth matches coefficient growth."""
        return ScaleTriple(compose_with_log(self.alpha), self.beta,
                           self.gamma, self.declared_classes, self.l1_constant)

    def __repr__(self) -> str:
        return f"({self.alpha!r},{self.beta!r},{self.gamma!r})"


_DESCRIPTOR_KINDS = {
    "identity": lambda d: identity(),
    "log_plus": lambda d: log_plus(float(d.get("x0", _E))),
    "iterated_log": lambda d: iterated_log(int(d.get("p", 1))),
    "power": lambda d: power(float(d["c"])),
    "linear": lambda d: linear(float(d["a"]), float(d.get("b", 0.0))),
    "user_table": lambda d: user_table(d["xs"], d["ys"]),
    "composed_log": lambda d: compose_with_log(scale_from_descriptor(d["inner"])),
}


def scale_from_descriptor(desc: dict) -> ScaleFunction:
    """Build a scale from its JSON config form, e.g. {"kind": "log_plus"}."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError("scale descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    if kind not in _DESCRIPTOR_KINDS:
        raise ValueError(f"unknown scale kind {kind!r}")
    return _DESCRIPTOR_KINDS[kind](desc)

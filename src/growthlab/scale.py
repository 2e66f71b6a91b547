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
           "inverse_scale", "compose_with_log", "beta_log_gamma",
           "audit_class", "audit_condition_ii", "identity", "log_plus",
           "iterated_log", "power", "linear", "user_table"]

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
    if not 1 <= p <= 4:
        # from p = 5 the freeze point exp^[p-1](1) passes the float range
        raise ValueError("p must lie in 1 <= p <= 4")
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


def compose_with_log(inner: ScaleFunction) -> ScaleFunction:
    """The scale x -> inner(log x), frozen below exp(x0 of inner)."""
    return ScaleFunction("composed_log", math.exp(min(inner.x0, 700.0)),
                         inner=inner, label=f"{inner!r}(log)")


def _iterate(fn, x, p: int):
    for _ in range(p):
        x = fn(x)
    return x


def _table_map(s: ScaleFunction, x: np.ndarray) -> np.ndarray:
    xs, ys = s.params
    out = np.interp(x, xs, ys)
    beyond = x > xs[-1]
    if np.any(beyond):
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out[beyond] = ys[-1] + slope * (x[beyond] - xs[-1])
    return out


def _table_inverse(s: ScaleFunction, y: float) -> float:
    """Closed form on the first segment whose right knot reaches y, else
    on the extrapolated last one.  y exceeds the first knot's value, so
    the segment climbs: the knot left of it lies below y."""
    xs, ys = s.params
    i = next((i for i in range(1, len(ys)) if ys[i] >= y), len(ys) - 1)
    return xs[i - 1] + (y - ys[i - 1]) * (xs[i] - xs[i - 1]) \
        / (ys[i] - ys[i - 1])


# kind -> (map on x >= x0 as an array, inverse at y above the frozen value)
_KINDS = {
    "identity": (lambda s, x: x, lambda s, y: float(y)),
    "log_plus": (lambda s, x: np.log(x), lambda s, y: math.exp(y)),
    "iterated_log": (lambda s, x: _iterate(np.log, x, s.params[0]),
                     lambda s, y: _iterate(math.exp, float(y), s.params[0])),
    "power": (lambda s, x: x ** s.params[0],
              lambda s, y: float(y) ** (1.0 / s.params[0])),
    "linear": (lambda s, x: s.params[0] * x + s.params[1],
               lambda s, y: (y - s.params[1]) / s.params[0]),
    "user_table": (_table_map, _table_inverse),
    "composed_log": (lambda s, x: eval_scale(s.inner, np.log(x)),
                     lambda s, y: math.exp(inverse_scale(s.inner, y))),
}


def eval_scale(s: ScaleFunction, x):
    """Evaluate, scalar or ndarray; total on the reals (frozen below x0)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    arr[arr < s.x0] = s.x0
    out = np.atleast_1d(np.asarray(_KINDS[s.kind][0](s, arr), dtype=float))
    return float(out[0]) if scalar else out


def inverse_scale(s: ScaleFunction, y: float) -> float:
    """Smallest x with s(x) >= y, in closed form.  y below s(x0) is a
    domain error (the scale never takes such values)."""
    base = eval_scale(s, s.x0)
    if y < base - 1e-12 * max(1.0, abs(base)):
        raise ValueError(f"{y} below the scale's minimum value {base}")
    if y <= base:
        return s.x0
    return _KINDS[s.kind][1](s, y)


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


def beta_log_gamma(beta: ScaleFunction, gamma: ScaleFunction, x):
    """beta(log gamma(x)), gamma floored at 1e-300 before the log: the
    denominator scale of every growth estimator.  Scalar or ndarray x."""
    return eval_scale(beta, np.log(np.maximum(eval_scale(gamma, x), 1e-300)))


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

    num = eval_scale(alpha, eval_scale(iterated_log(p), x))
    den = beta_log_gamma(beta, gamma, x)
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
    """The (alpha, beta, gamma) scales, audited on construction.

    Construction audits alpha for L1 (with constant l1_constant), beta for
    L2 and gamma for L3 on deterministic grids, keeps the three reports in
    `audits`, and refuses a triple that any of them falsifies.
    """

    alpha: ScaleFunction
    beta: ScaleFunction
    gamma: ScaleFunction
    l1_constant: float = 1.0
    audits: tuple = field(default=(), compare=False)

    def __post_init__(self):
        shifts = _default_pair_grid(self.beta)
        shifts[:, 1] = np.linspace(0.5, 5.0, len(shifts))
        reports = (audit_class(self.alpha, "L1",
                               _default_pair_grid(self.alpha),
                               c=self.l1_constant),
                   audit_class(self.beta, "L2", shifts),
                   audit_class(self.gamma, "L3",
                               _default_pair_grid(self.gamma)))
        for rep in reports:
            if rep.falsified:
                raise ValueError(f"declared class falsified: {rep}")
        object.__setattr__(self, "audits", reports)

    def wrapped(self) -> "ScaleTriple":
        """The triple with alpha replaced by alpha(log): the scale under
        which solution growth matches coefficient growth."""
        return ScaleTriple(compose_with_log(self.alpha), self.beta,
                           self.gamma, self.l1_constant)

    def __repr__(self) -> str:
        return f"({self.alpha!r},{self.beta!r},{self.gamma!r})"


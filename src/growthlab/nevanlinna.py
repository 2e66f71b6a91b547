"""Nevanlinna proximity function, characteristic, and zero counting.

For an entire function the characteristic T(r, f) equals the proximity
function m(r, f) = (1/2pi) int log+ |f(r e^{i theta})| d theta, so the whole
module reduces to two numerical problems on the circle:

* quadrature of log+ |f|, which is smooth except for kinks where |f|
  crosses 1: with no crossing, the periodic trapezoid rule on the circle's
  values; otherwise the crossings are located and each positive arc takes
  the trapezoid rule on its interior mesh nodes with Gregory end weights
  of order 7, plus 4-node Gauss on the two partial cells at its ends (an
  arc of under 8 interior nodes takes per-cell Gauss panels instead);

* the winding number of f along the circle, which counts the enclosed
  zeros by the argument principle; the mesh is refined wherever the sampled
  phase increment exceeds pi/2 or the local rotation bound |z f'/f| says a
  cell could hide a full turn.  Each round's midpoints lie on one dyadic
  circle, so f and f' are read there from one FFT circle each, or by
  scattered points where those cost less.

Both escalate through the evaluation engine's precision levels with
explicit noise-floor accounting: values of |f| far below the maximum term
are invisible to fixed-precision arithmetic, and pretending otherwise
silently corrupts m(r, f) (positive noise readings) and winding phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _evalcore
from ._evalcore import _wrap_pi
from .series import PowerSeries, max_term, valuation

__all__ = ["CountingData", "RetryPerturbedRadius", "PrecisionBudgetError",
           "proximity", "proximity_detailed", "characteristic_entire",
           "zero_count", "winding_dps", "count_zeros_grid",
           "integrated_count", "proximity_of_ratio"]

_TRUST_GUARD = 14.0  # nats above the floor a value must sit to be believed
_DPS_BUDGET = 600  # digits proximity_detailed may climb to
_RETRY_STEP = 1e-3  # relative radius step of count_zeros_grid's retries
_MAX_RETRIES = 3  # perturbed radii count_zeros_grid tries per grid radius
_MAX_MESH = 1 << 18  # winding mesh points before zero_count gives up

# m(r, f), m(r, num/den): angles doubled from _PROX_START to _PROX_MAX_ANGLES
# until two estimates agree to max(_PROX_REL_TOL max(1, m), _PROX_ABS_TOL)
_PROX_START, _PROX_REL_TOL, _PROX_MAX_ANGLES = 128, 1e-8, 1 << 16
_PROX_ABS_TOL = 1e-10

# crossings of g = 0 (_crossings): located to +/- h 2^-_CROSS_BITS in a
# mesh cell of width h, by an ITP search with slack _ITP_N0 and truncation
# constants _ITP_KAPPA1 (in units of 1/h) and _ITP_KAPPA2
_CROSS_BITS = 43
_ITP_N0 = 1
_ITP_KAPPA1, _ITP_KAPPA2 = 0.2, 2


class RetryPerturbedRadius(ArithmeticError):
    """A zero sits too close to the requested circle; retry nearby.

    Carries the radius it was raised at.  The perturbation is
    caller-driven: count_zeros_grid retries at r (1 +- k retry_step).
    """

    def __init__(self, log_r: float, detail: str = ""):
        self.log_r = log_r
        super().__init__(
            f"zero too close to |z| = e^{log_r:.6g}; retry at "
            f"r*(1+/-{_RETRY_STEP:g}). {detail}")


class PrecisionBudgetError(RuntimeError):
    """The evaluation depth needed exceeds the configured precision budget."""


@dataclass(frozen=True)
class CountingData:
    """Sampled zero counts n(r_i), plus the origin multiplicity.

    counts must be nondecreasing and never below count_at_zero.
    """

    radii: tuple
    counts: tuple
    count_at_zero: int = 0

    def __post_init__(self):
        if len(self.radii) != len(self.counts):
            raise ValueError("radii/counts length mismatch")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be nondecreasing")
        if any(c < self.count_at_zero for c in self.counts):
            raise ValueError("counts cannot be below the origin multiplicity")


@dataclass(frozen=True)
class ProximityResult:
    """m(r) as `value`, with the angles and level of the pass that gave
    it, whether two passes agreed, the floor uncertainty, and whether the
    pass was a trimmed mean (proximity_of_ratio's masked angles)."""

    value: float
    n_angles: int
    converged: bool
    level: str
    uncertainty: float
    trimmed: bool = False


_GL_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                      0.3399810435848563, 0.8611363115940526])
_GL_WTS = np.array([0.34785484513745385, 0.6521451548625461,
                    0.6521451548625461, 0.34785484513745385])

# Gregory end weights of order _GREGORY_K: the trapezoid rule's first K + 1
# weights (its last K + 1 reversed) that make it exact for polynomials of
# degree <= K; as fractions, 1070017/3628800, 5537111/3628800,
# 103613/403200, 261115/145152, 298951/725760, 515677/403200,
# 3349879/3628800, 3662753/3628800
_GREGORY_K = 7
_GREGORY = np.array([0.2948680004409171, 1.5258793540564375,
                     0.2569766865079365, 1.798907352292769,
                     0.4119144069664903, 1.2789608134920636,
                     0.9231368496472663, 1.00935653659612])


def _crossings(read, a, h, fa, fb):
    """Midpoints of brackets of width at most 2 eps, eps = h 2^-_CROSS_BITS,
    (or of adjacent floats, where eps is below an ulp) around the crossings
    of g = 0 in the cells [a, a + h], whose end readings fa and fb lie on
    opposite sides of the rule v > 0; read(thetas) gives g at the angles.

    An ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2020) runs over
    all cells at once and evaluates only the unconverged ones.  Round j
    takes the regula-falsi point (the midpoint where it is not finite),
    truncates it toward the midpoint by delta = max(_ITP_KAPPA1
    (b - a)^_ITP_KAPPA2 / h, eps), and projects it onto the disc of radius
    eps 2^(n_max - j) - (b - a)/2 about the midpoint, n_max = n_half +
    _ITP_N0 with n_half = _CROSS_BITS - 1 the bisection rounds from h to
    2 eps.  So a cell takes at most n_max evaluations, and on analytic
    g converges superlinearly.  delta is floored at eps: the textbook
    kappa1 (b - a)^2 drops below an ulp near the root, and the bracket
    then shrinks by about that much per round until the projection forces
    a bisection.
    """
    a = np.array(a, dtype=float)
    b = a + h
    fa = np.array(fa, dtype=float)
    fb = np.array(fb, dtype=float)
    eps = h * 2.0 ** -_CROSS_BITS
    n_max = _CROSS_BITS - 1 + _ITP_N0
    for j in range(n_max):
        mid = 0.5 * (a + b)
        live = np.nonzero((b - a > 2.0 * eps) & (a < mid) & (mid < b))[0]
        if len(live) == 0:
            break
        al, bl, fal, fbl, ml = a[live], b[live], fa[live], fb[live], mid[live]
        w = bl - al
        with np.errstate(all="ignore"):
            xf = (al * fbl - bl * fal) / (fbl - fal)
        xf = np.where(np.isfinite(xf), np.clip(xf, al, bl), ml)
        delta = np.maximum(_ITP_KAPPA1 / h * w ** _ITP_KAPPA2, eps)
        sigma = np.sign(ml - xf)
        xt = np.where(delta <= np.abs(ml - xf), xf + sigma * delta, ml)
        rad = np.maximum(eps * 2.0 ** (n_max - j) - 0.5 * w, 0.0)
        x = np.where(np.abs(xt - ml) <= rad, xt, ml - sigma * rad)
        fx = read(x)
        left = (fal > 0) != (fx > 0)
        a[live] = np.where(left, al, x)
        fa[live] = np.where(left, fal, fx)
        b[live] = np.where(left, x, bl)
        fb[live] = np.where(left, fx, fbl)
    return 0.5 * (a + b)


def _reject_unc(log_mu: float, n_terms: int) -> float:
    """Half _until_stable's m(r) tolerance at the largest estimate a pass
    can return, U = max(0, ln mu(r) + ln N) for a series of N terms (|f| <=
    N mu(r) on the circle): a pass whose uncertainty exceeds this is
    rejected whatever its estimate."""
    top = max(0.0, log_mu + math.log(n_terms))
    return 0.5 * max(_PROX_REL_TOL * max(1.0, top), _PROX_ABS_TOL)


def _logplus_quadrature(coeff, log_r, m, level, dps):
    """One pass of m(r, f) at resolution m: _arc_quadrature of ln|f| from
    its circle, and the floor-driven uncertainty bound.  A pass whose
    uncertainty exceeds _reject_unc returns the plain trapezoid mean
    before any search: _until_stable rejects it either way."""
    res = _evalcore.eval_circle(coeff, log_r, m, offset=True,
                                level=level, dps=dps)
    v = res.logabs
    trust = res.floor_ln + _TRUST_GUARD
    # Points reading below the trust line have unknown true value in
    # (-inf, trust]; when trust <= 0 their log+ contribution is exactly 0.
    unc = float(np.count_nonzero(v < trust)) / m * max(trust, 0.0)
    if unc > _reject_unc(res.log_mu, coeff.n_terms):
        return float(np.mean(np.maximum(v, 0.0))), unc
    return _arc_quadrature(v, m, lambda t: _evalcore.eval_points(
        coeff, log_r, t, level=level, dps=dps).logabs), unc


def _arc_quadrature(v, m, read):
    """(1/2pi) int g+ over the circle from g's readings v at the m offset
    angles; read(thetas) gives g anywhere.  g (ln|f|, or ln|num| - ln|den|)
    is analytic along the circle away from zeros, and g+ has kinks only
    where g crosses 0.  Without crossings (or with over m / 4 crossing
    cells) this is the periodic trapezoid rule on v, spectrally accurate
    in the first case.  Otherwise `_crossings` locates them, and each
    positive arc [c1, c2] is integrated in three parts: the mesh nodes x_0
    .. x_n strictly inside it by the trapezoid rule with Gregory end
    corrections of order _GREGORY_K (Fornberg, SIAM Rev. 63(1), 2021),
    exact for polynomials of degree <= _GREGORY_K and so O(h^(_GREGORY_K +
    1)) on smooth g, from v; and the partial cells [c1, x_0] and [x_n, c2]
    by 4-node Gauss.  An arc with fewer than _GREGORY_K + 1 interior nodes
    takes composite 4-node Gauss panels of width <= h across it instead.
    All Gauss nodes go into one read.  The rule's rate near a zero is set
    by that zero's distance from the circle (Trefethen & Weideman, SIAM
    Rev. 56, 2014)."""
    pos = v > 0.0
    cells = np.nonzero(pos != np.roll(pos, -1))[0]
    if len(cells) == 0 or len(cells) > m // 4:
        return float(np.mean(np.maximum(v, 0.0)))

    h = 2.0 * math.pi / m
    a = (2.0 * math.pi) * (cells + 0.5) / m
    x = _crossings(read, a, h, v[cells], v[(cells + 1) % m])
    # cells alternate between rising and falling; pair each rising cell
    # with the falling one after it
    k = int(np.argmax(~pos[cells]))
    cells, a, x = np.roll(cells, -k), np.roll(a, -k), np.roll(x, -k)
    corr = _GREGORY - 1.0
    total, lo, hi = 0.0, [], []
    for cu, cd, au, ad, xu, xd in zip(cells[0::2], cells[1::2], a[0::2],
                                      a[1::2], x[0::2], x[1::2]):
        n = (cd - cu) % m
        if n > _GREGORY_K:
            u = v[(cu + 1 + np.arange(n)) % m]
            total += h * (np.sum(u) + corr @ u[:_GREGORY_K + 1]
                          + corr[::-1] @ u[-_GREGORY_K - 1:])
            lo += [xu, ad]
            hi += [au + h, xd]
        else:
            xd += 0.0 if cd > cu else 2.0 * math.pi
            edges = np.linspace(xu, xd, max(2, math.ceil((xd - xu) / h)) + 1)
            lo.extend(edges[:-1])
            hi.extend(edges[1:])
    mids = 0.5 * (np.array(lo) + np.array(hi))
    halfw = 0.5 * (np.array(hi) - np.array(lo))
    pts = (mids[:, None] + halfw[:, None] * _GL_NODES[None, :]).ravel()
    gv = read(pts % (2.0 * math.pi)).reshape(-1, 4)
    total += float(np.sum(halfw[:, None] * _GL_WTS[None, :]
                          * np.maximum(gv, 0.0)))
    return float(total) / (2.0 * math.pi)


def _until_stable(estimate, m: int, rel_tol: float, max_angles: int,
                  abs_tol: float = 0.0):
    """Run estimate(m) -> (value, uncertainty) at m, 2m, 4m, ... until two
    successive values agree to tol = max(rel_tol max(1, |value|), abs_tol)
    or m reaches max_angles.  Returns (value, m, converged, uncertainty),
    or None once the uncertainty exceeds tol / 2 (the caller escalates)."""
    prev = None
    while True:
        est, unc = estimate(m)
        tol = max(rel_tol * max(1.0, abs(est)), abs_tol)
        if unc > 0.5 * tol:
            return None
        converged = prev is not None and abs(est - prev) <= tol
        if converged or m >= max_angles:
            return est, m, converged, unc
        prev = est
        m *= 2


def _mp_dps(coeff, log_r: float, target_ln: float, dps_budget: int,
            what: str) -> int:
    """dps_for_floor(target_ln), or PrecisionBudgetError past dps_budget."""
    dps = _evalcore.dps_for_floor(coeff, log_r, target_ln)
    if dps > dps_budget:
        raise PrecisionBudgetError(
            f"{what} at ln r = {log_r:.4g} needs ~{dps} digits, "
            f"budget is {dps_budget}")
    return dps


def proximity_detailed(f: PowerSeries, log_r: float) -> ProximityResult:
    """m(r, f) with convergence and precision-escalation diagnostics."""
    f.check_radius(log_r)
    coeff = f.coeff
    for level in _evalcore.LEVELS:
        # at mp, choose dps so untrusted readings certainly sit below
        # log+ = 0
        dps = (_mp_dps(coeff, log_r, -2.0 * _TRUST_GUARD, _DPS_BUDGET, "m(r)")
               if level == "mp" else None)
        out = _until_stable(
            lambda m: _logplus_quadrature(coeff, log_r, m, level, dps),
            _PROX_START, _PROX_REL_TOL, _PROX_MAX_ANGLES,
            abs_tol=_PROX_ABS_TOL)
        if out is not None:
            est, m, converged, unc = out
            return ProximityResult(est, m, converged, level, unc)
    raise PrecisionBudgetError("proximity could not reach the noise target")


def proximity(f: PowerSeries, log_r: float) -> float:
    """m(r, f): the log+ quadrature of _logplus_quadrature over m
    equispaced angles, m doubled until successive estimates agree to 1e-8
    relative (or the angle cap is reached)."""
    return proximity_detailed(f, log_r).value


def characteristic_entire(f: PowerSeries, log_r: float) -> float:
    """T(r, f) for entire f: equals m(r, f) since N(r, f) = 0."""
    return proximity(f, log_r)


def proximity_of_ratio(num: PowerSeries, den: PowerSeries,
                       log_r: float) -> ProximityResult:
    """m(r, num/den): _arc_quadrature of ln|num| - ln|den| at dd, in the
    angle loop of m(r, f).  A pass where den reads below its trust line
    (floor + _TRUST_GUARD) takes the trapezoid mean with those angles
    masked out instead: a trimmed mean, as the ratio is unreadable there.
    The result is at level "dd", trimmed if its last pass was, and not
    converged if the loop stopped at _PROX_MAX_ANGLES; its uncertainty is
    0, as no floor term is carried for the ratio.
    """
    num.check_radius(log_r)
    den.check_radius(log_r)
    trimmed = False

    def read(thetas):
        return (_evalcore.eval_points(num.coeff, log_r, thetas).logabs
                - _evalcore.eval_points(den.coeff, log_r, thetas).logabs)

    def estimate(m):
        nonlocal trimmed
        rn = _evalcore.eval_circle(num.coeff, log_r, m, offset=True, level="dd")
        rd = _evalcore.eval_circle(den.coeff, log_r, m, offset=True, level="dd")
        v = rn.logabs - rd.logabs
        ok = rd.logabs >= rd.floor_ln + _TRUST_GUARD
        trimmed = not ok.all()
        if not trimmed:
            return _arc_quadrature(v, m, read), 0.0
        return float(np.mean(np.where(ok, np.maximum(v, 0.0), 0.0))), 0.0

    est, m, converged, unc = _until_stable(
        estimate, _PROX_START, _PROX_REL_TOL, _PROX_MAX_ANGLES,
        abs_tol=_PROX_ABS_TOL)
    return ProximityResult(est, m, converged, "dd", unc, trimmed)


def winding_dps(coeff: _evalcore.CoeffData, log_r: float,
                dps_budget: int) -> int:
    """Digits the mp winding on |z| = e^{log_r} needs: enough to put the
    noise floor 45 nats below min(1, r).  Raises PrecisionBudgetError past
    dps_budget.  Choosing an ODE solution's march depth by the same rule
    lets one mp march serve every count up to that radius."""
    return _mp_dps(coeff, log_r, min(0.0, log_r) - 45.0, dps_budget,
                   "winding")


def zero_count(f: PowerSeries, log_r: float, zero_margin: float = 1e-8,
               dps_budget: int = 600) -> int:
    """n(r, 1/f): zeros in |z| <= r, by the winding number of f.

    The argument increments of f along an adaptive angular mesh are
    accumulated.  A sampled increment alone cannot rule out a hidden full
    turn inside a cell, so cells are also refined while the local rotation
    bound |z f'/f| (which dominates d arg f / d theta for analytic f) times
    the cell width exceeds ~1 radian; only then is the wrapped increment
    trusted.  Refinement splits each bad cell at its midpoint.  A cell
    turns bad only through its two end readings, so a cell never split
    never turns bad, and every bad cell of round k = 0, 1, ... has width
    2 pi / (m_start 2^k): round 0's midpoints are the non-offset m_start
    circle, round k's the offset circle of m_start 2^k angles.  Each round
    reads f and f' at its midpoints through _evalcore.eval_circle_at: one
    FFT circle per series, or scattered eval_points past the kernels' cost
    crossover (_evalcore._HORNER_STEP_COST) or past _FFT_MAX_ANGLES; a
    round's margin and trust checks read only its midpoints.  If |f|
    anywhere on the mesh falls below zero_margin * mu(r)
    (after the engine's own noise floor is cleared by escalating
    precision), a zero is too close to the circle and RetryPerturbedRadius
    carries the suggested replacement radii.  Pass zero_margin="auto" to
    accept whatever the arithmetic can actually resolve.
    """
    from .series import derivative  # local import avoids cycle at load

    f.check_radius(log_r)
    coeff = f.coeff
    fp = derivative(f)
    mt = max_term(f, log_r)

    def with_velocity(evaluate):
        """evaluate(coeff) for f and f', and the rotation bound |z f'/f|."""
        rf, rd = evaluate(coeff), evaluate(fp.coeff)
        with np.errstate(over="ignore"):
            vel = np.exp(np.minimum(rd.logabs - rf.logabs + log_r, 700.0))
        return rf, vel

    auto = zero_margin == "auto"
    for level in ("dd", "mp"):
        dps = None
        if level == "mp":
            dps = winding_dps(coeff, log_r, dps_budget)
            # expensive per point: start coarse, let refinement concentrate
            m_start = 512
        else:
            m_start = 1 << max(8, min(12, int(math.ceil(
                math.log2(8.0 * (mt.nu + 4))))))

        res, vels = with_velocity(lambda c: _evalcore.eval_circle(
            c, log_r, m_start, offset=True, level=level, dps=dps))
        margin_ln = (res.floor_ln + 9.0 if auto
                     else res.log_mu + math.log(zero_margin))
        vmin = float(np.min(res.logabs))
        if vmin < res.floor_ln + _TRUST_GUARD and level != "mp":
            continue  # cannot certify the margin at this level; escalate
        if vmin < margin_ln:
            raise RetryPerturbedRadius(log_r, detail=f"min ln|f| = {vmin:.4g}"
                                       f" below margin {margin_ln:.4g}")
        thetas = (2.0 * math.pi) * (np.arange(m_start) + 0.5) / m_start
        phases = res.phase
        tail_ok = True
        for k in range(48):
            dphi = _wrap_pi(np.diff(np.concatenate([phases, [phases[0]]])))
            gaps = np.diff(np.concatenate([thetas,
                                           [thetas[0] + 2.0 * math.pi]]))
            vmax = np.maximum(vels, np.roll(vels, -1))
            bad = np.nonzero((np.abs(dphi) > 0.5 * math.pi)
                             | (gaps * vmax > 1.0))[0]
            if len(bad) == 0:
                break
            if len(thetas) + len(bad) > _MAX_MESH:
                raise RetryPerturbedRadius(
                    log_r, detail="mesh budget exhausted (zero on circle?)")
            nxt = np.concatenate([thetas[1:], [thetas[0] + 2.0 * math.pi]])
            mids = 0.5 * (thetas[bad] + nxt[bad])
            # round k's midpoints lie on the circle of m_start 2^k angles
            size, offset = m_start << k, k > 0
            idx = np.rint(mids * (size / (2.0 * math.pi)) - 0.5 * offset)
            idx = idx.astype(np.int64) % size
            mres, mvel = with_velocity(lambda c: _evalcore.eval_circle_at(
                c, log_r, size, idx, offset=offset, level=level, dps=dps))
            mmin = float(np.min(mres.logabs))
            if mmin < mres.floor_ln + _TRUST_GUARD and level != "mp":
                tail_ok = False
                break
            if mmin < margin_ln:
                raise RetryPerturbedRadius(
                    log_r, detail=f"refined min ln|f| = {mmin:.4g} below "
                    f"margin {margin_ln:.4g}")
            order = np.argsort(np.concatenate([thetas, mids]))
            thetas = np.concatenate([thetas, mids])[order]
            phases = np.concatenate([phases, mres.phase])[order]
            vels = np.concatenate([vels, mvel])[order]
        else:
            raise RetryPerturbedRadius(log_r, detail="refinement stalled")
        if not tail_ok:
            continue
        d = _wrap_pi(np.diff(phases))
        total = float(np.sum(d) + _wrap_pi(phases[0] - phases[-1]))
        w = total / (2.0 * math.pi)
        if abs(w - round(w)) > 1e-6:
            raise RetryPerturbedRadius(
                log_r, detail=f"winding {w:.8f} not close to an integer")
        return int(round(w))
    raise PrecisionBudgetError("zero_count escalation failed")


def count_zeros_grid(f: PowerSeries, radii: Sequence[float],
                     zero_margin="auto", retry_step: float = _RETRY_STEP,
                     dps_budget: int = 600) -> CountingData:
    """Counts over a radius grid, applying the perturbed-radius retry rule.

    A radius r that raises RetryPerturbedRadius is retried at r(1 + s),
    r(1 - s), r(1 + 2s), ... with s = retry_step, up to 3 times.  Candidates
    at or below the last radius used are skipped, so the recorded radii
    (the ones actually used, after perturbation) stay increasing on a tight
    grid; with no candidate left the radius raises RetryPerturbedRadius.
    The nominal radii must be strictly increasing.
    """
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    used, counts = [], []
    m0 = valuation(f)
    for r in radii:
        cands = [math.log(r)]
        for a in range(_MAX_RETRIES):
            step = (a // 2 + 1) * retry_step
            cands.append(math.log(r) + math.log1p(-step if a % 2 else step))
        cands = [lr for lr in cands if not used or math.exp(lr) > used[-1]]
        if not cands:
            raise RetryPerturbedRadius(
                math.log(r), detail=f"no retry radius above {used[-1]:.6g}")
        for i, log_r in enumerate(cands):
            try:
                n = zero_count(f, log_r, zero_margin=zero_margin,
                               dps_budget=dps_budget)
            except RetryPerturbedRadius:
                if i == len(cands) - 1:
                    raise
                continue
            used.append(math.exp(log_r))
            counts.append(n)
            break
    return CountingData(tuple(used), tuple(counts), m0)


def integrated_count(data: CountingData, log_r: float) -> float:
    """A lower bound on N(r) = int_0^r (n(t) - n(0))/t dt + n(0) log r.

    The integral is a left-endpoint step sum: n(t) is taken as n(r_i) on
    [r_i, r_{i+1}), and zeros below the first recorded radius (other than
    the origin's) are ignored.  Since n is nondecreasing, the sum never
    exceeds the true N(r).  Radii must cover the requested r (no
    extrapolation).
    """
    r = math.exp(log_r)
    if not data.radii:
        return 0.0
    if r > data.radii[-1] * (1.0 + 1e-12):
        raise ValueError(f"requested r = {r:.6g} beyond counted range "
                         f"{data.radii[-1]:.6g}")
    n0 = data.count_at_zero
    terms = []
    for i, (ri, ni) in enumerate(zip(data.radii, data.counts)):
        if ri >= r:
            break
        r_next = min(r, data.radii[i + 1]) if i + 1 < len(data.radii) else r
        if ni > n0:
            terms.append((ni - n0) * (math.log(r_next) - math.log(ri)))
    return math.fsum(terms) + n0 * log_r

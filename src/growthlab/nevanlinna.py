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

A real g is read on the upper half circle.  For real coefficients (every
theorem equation's, every builtin's), f(r e^{-i theta}) = conj f(r e^{i
theta}), so a circle of a real band comes back mirrored from the
evaluation engine: its dd and mp FFT computes half the angles, and the
rest are exact conjugates.  The log+ quadrature of a mirrored g (ln|f|, or
ln|num| - ln|den| when both are real) searches only the crossings in the
upper half circle and reads its Gauss nodes only on [0, pi]; the lower
crossings are 2 pi minus the upper ones, and the nodes count twice.  A
winding round reads each mirror pair of its midpoints once when it reads
scattered points.

Each pass of the angle loop after the first, at the same level and depth,
inherits the previous pass's final crossing brackets: a crossing cell of
the doubled mesh that holds exactly one of them starts its search from
that bracket, cut at the cell's ends, instead of from the whole cell, so
a crossing already located to the previous pass's tolerance costs at most
a read or two more.  A level's first pass, after an escalation too,
starts from whole cells.

Both keep explicit noise-floor accounting: values of |f| far below the
maximum term are invisible to fixed-precision arithmetic, and pretending
otherwise silently corrupts m(r, f) (positive noise readings) and winding
phases.  So m(r, f) climbs the evaluation engine's precision levels d ->
dd -> mp until its floor is cleared, and the winding runs once, at mp, at
a depth that puts the floor 45 nats below min(1, r) (winding_dps).
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
           "proximity_detailed", "characteristic_entire", "zero_count",
           "winding_dps", "count_zeros_grid", "proximity_of_ratio"]

_TRUST_GUARD = 14.0  # nats above the floor a value must sit to be believed
_DPS_BUDGET = 600  # digits m(r) and a winding count may climb to
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
    caller-driven: count_zeros_grid retries at r (1 +- k _RETRY_STEP).
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


def _crossings(read, a, b, fa, fb, h):
    """Brackets of width at most 2 eps, eps = h 2^-_CROSS_BITS for the
    mesh step h, (or of adjacent floats, where eps is below an ulp) around
    the crossings of g = 0 in the brackets [a, b], whose end readings fa
    and fb lie on opposite sides of the rule v > 0; read(thetas) gives g
    at the angles.  Returns the final brackets as lists (a, b, fa, fb).

    An ITP search (Oliveira & Takahashi, ACM TOMS 47(1), 2020) runs over
    all brackets at once and evaluates only the unconverged ones, one
    read per round.  Round j takes the regula-falsi point (the midpoint
    where it is not finite), truncates it toward the midpoint by delta =
    max(_ITP_KAPPA1 (b - a)^_ITP_KAPPA2 / h, eps), and projects it onto
    the disc of radius eps 2^(n_max - j) - (b - a)/2 about the midpoint,
    n_max = n_half + _ITP_N0 with n_half the bisection rounds from the
    bracket's starting width to 2 eps (_CROSS_BITS - 1 for a whole cell).
    So a bracket takes at most n_max evaluations, and on analytic g
    converges superlinearly.  delta is floored at eps: the textbook
    kappa1 (b - a)^2 drops below an ulp near the root, and the bracket
    then shrinks by about that much per round until the projection forces
    a bisection.
    """
    eps = h * 2.0 ** -_CROSS_BITS
    out = [list(t) for t in zip(*(np.asarray(x, dtype=float).tolist()
                                  for x in (a, b, fa, fb)))]
    # the 1e-9 absorbs the rounding that leaves a whole cell an ulp wider
    # than h, so that it takes _CROSS_BITS - 1 halvings
    n_max = [_ITP_N0 + max(0, math.ceil(math.log2(
        max(hi - lo, eps) / (2.0 * eps)) - 1e-9)) for lo, hi, _, _ in out]

    def is_open(i, j):
        lo, hi = out[i][:2]
        return j < n_max[i] and hi - lo > 2.0 * eps and lo < 0.5 * (
            lo + hi) < hi

    live = range(len(out))
    for j in range(max(n_max, default=0)):
        live = [i for i in live if is_open(i, j)]
        if not live:
            break
        xs = []
        for i in live:
            al, bl, fal, fbl = out[i]
            mid, w, d = 0.5 * (al + bl), bl - al, fbl - fal
            xf = (al * fbl - bl * fal) / d if d else math.nan
            xf = min(max(xf, al), bl) if math.isfinite(xf) else mid
            delta = max(_ITP_KAPPA1 / h * w ** _ITP_KAPPA2, eps)
            sigma = 1.0 if mid > xf else -1.0
            xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
            rad = max(eps * 2.0 ** (n_max[i] - j) - 0.5 * w, 0.0)
            xs.append(xt if abs(xt - mid) <= rad else mid - sigma * rad)
        for i, x, fx in zip(live, xs, read(np.array(xs)).tolist()):
            br = out[i]
            if (br[2] > 0) != (fx > 0):
                br[1], br[3] = x, fx
            else:
                br[0], br[2] = x, fx
    return [list(t) for t in zip(*out)] if out else [[], [], [], []]


def _start_brackets(a, h, fa, fb, held):
    """The brackets (a, b, fa, fb) a crossing search starts from in the
    cells [a, a + h] (increasing) with end readings fa and fb: each cell
    itself, unless it overlaps exactly one of the brackets `held` (a
    previous pass's final brackets as _crossings returns them, or None)
    and that bracket, cut at the cell's ends with the cell's readings
    there, still has its ends on opposite sides of the rule v > 0."""
    b = a + h
    if not held or not len(held[0]):
        return a, b, fa, fb
    # held as a search returns them, in increasing order within one turn
    # from the first cell; each also a turn down and up, for the cells
    # that wrap past 2 pi
    turn = np.repeat([-2.0 * math.pi, 0.0, 2.0 * math.pi], len(held[0]))
    ha, hb, hfa, hfb = (np.tile(x, 3) for x in held)
    ha, hb = ha + turn, hb + turn
    lo = np.searchsorted(hb, a, side="right")  # first held ending past a
    one = np.searchsorted(ha, b, side="left") - lo == 1
    k = np.minimum(lo, len(ha) - 1)
    ca, cfa = np.maximum(ha[k], a), np.where(ha[k] > a, hfa[k], fa)
    cb, cfb = np.minimum(hb[k], b), np.where(hb[k] < b, hfb[k], fb)
    use = one & ((cfa > 0) != (cfb > 0))
    return (np.where(use, ca, a), np.where(use, cb, b),
            np.where(use, cfa, fa), np.where(use, cfb, fb))


def _cell_crossings(read, v, m, cells, mirrored, held=None):
    """(x, brackets): the crossing x of g = 0 in each of the cells
    (increasing indices j, cell j from offset angle j to j + 1) whose two
    readings v lie on opposite sides of 0, by _crossings from
    _start_brackets, and the final brackets of the search, for the next
    pass.  For a mirrored g (v even about the real axis), the search runs
    on the upper half's cells, j < m/2, and the crossing in cell m - 2 - j
    is 2 pi minus the one in cell j."""
    h = 2.0 * math.pi / m
    up = cells[:len(cells) // 2] if mirrored else cells
    brackets = _crossings(read, *_start_brackets(
        (2.0 * math.pi) * (up + 0.5) / m, h, v[up], v[(up + 1) % m], held),
        h)
    x = 0.5 * (np.array(brackets[0]) + np.array(brackets[1]))
    if mirrored:
        x = np.concatenate([x, 2.0 * math.pi - x[::-1]])
    return x, brackets


def _reject_unc(log_mu: float, n_terms: int) -> float:
    """Half _until_stable's m(r) tolerance at the largest estimate a pass
    can return, U = max(0, ln mu(r) + ln N) for a series of N terms (|f| <=
    N mu(r) on the circle): a pass whose uncertainty exceeds this is
    rejected whatever its estimate."""
    top = max(0.0, log_mu + math.log(n_terms))
    return 0.5 * max(_PROX_REL_TOL * max(1.0, top), _PROX_ABS_TOL)


def _logplus_quadrature(coeff, log_r, m, level, dps, held=None):
    """One pass of m(r, f) at resolution m: (estimate, uncertainty,
    brackets), the _arc_quadrature of ln|f| from its circle, whose
    crossing search starts from the brackets `held` where they fit, the
    floor-driven uncertainty bound, and the search's final brackets.  A
    pass whose uncertainty exceeds _reject_unc returns the plain
    trapezoid mean before any search: _until_stable rejects it either
    way."""
    res = _evalcore.eval_circle(coeff, log_r, m, offset=True,
                                level=level, dps=dps)
    v = res.logabs
    trust = res.floor_ln + _TRUST_GUARD
    # Points reading below the trust line have unknown true value in
    # (-inf, trust]; when trust <= 0 their log+ contribution is exactly 0.
    unc = float(np.count_nonzero(v < trust)) / m * max(trust, 0.0)
    if unc > _reject_unc(res.log_mu, coeff.n_terms):
        return float(np.mean(np.maximum(v, 0.0))), unc, None
    est, brackets = _arc_quadrature(v, m, lambda t: _evalcore.eval_points(
        coeff, log_r, t, level=level, dps=dps).logabs, res.mirrored, held)
    return est, unc, brackets


def _arc_quadrature(v, m, read, mirrored=False, held=None):
    """((1/2pi) int g+ over the circle, brackets) from g's readings v at
    the m offset angles; read(thetas) gives g anywhere, and brackets are
    the crossing search's final ones (None without a search), which a
    later pass hands back as `held` (_start_brackets).  g (ln|f|, or
    ln|num| - ln|den|) is analytic along the circle away from zeros, and
    g+ has kinks only where g crosses 0.  Without crossings (or with over m
    / 4 crossing cells) this is the periodic trapezoid rule on v,
    spectrally accurate in the first case.  Otherwise `_crossings` locates
    them, and each positive arc [c1, c2] is integrated in three parts: the
    mesh nodes x_0 .. x_n strictly inside it by the trapezoid rule with
    Gregory end corrections of order _GREGORY_K (Fornberg, SIAM Rev. 63(1),
    2021), exact for polynomials of degree <= _GREGORY_K and so
    O(h^(_GREGORY_K + 1)) on smooth g, from v; and the partial cells [c1,
    x_0] and [x_n, c2] by 4-node Gauss.  An arc with fewer than _GREGORY_K
    + 1 interior nodes takes composite 4-node Gauss panels of width <= h
    across it instead.  All Gauss nodes go into one read.  The rule's rate
    near a zero is set by that zero's distance from the circle (Trefethen &
    Weideman, SIAM Rev. 56, 2014).

    A `mirrored` g is even in theta (v from a mirrored EvalResult, g(-theta)
    = g(theta)), and is read only on the upper half circle.  Cell j and
    cell m - 2 - j are mirror images, and no crossing cell straddles 0 or
    pi, where a cell's two ends are mirrors; so the search runs on the
    cells j < m/2, and a lower crossing is 2 pi minus its mirror's
    (_cell_crossings).  The Gauss panels then come in mirror pairs, or are
    their own mirror image (centred on 0 or pi): the nodes in (pi, 2 pi)
    are dropped, and those in [0, pi] count twice."""
    pos = v > 0.0
    cells = np.nonzero(pos != np.roll(pos, -1))[0]
    if len(cells) == 0 or len(cells) > m // 4:
        return float(np.mean(np.maximum(v, 0.0))), None

    h = 2.0 * math.pi / m
    a = (2.0 * math.pi) * (cells + 0.5) / m
    x, brackets = _cell_crossings(read, v, m, cells, mirrored, held)
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
    pts = (mids[:, None] + halfw[:, None] * _GL_NODES[None, :]) % (
        2.0 * math.pi)
    wts = halfw[:, None] * _GL_WTS[None, :]
    if mirrored:
        upper = pts <= math.pi
        pts, wts = pts[upper], 2.0 * wts[upper]
    gv = read(pts.ravel()).reshape(pts.shape)
    total += float(np.sum(wts * np.maximum(gv, 0.0)))
    return float(total) / (2.0 * math.pi), brackets


def _until_stable(estimate):
    """Run estimate(m, held) -> (value, uncertainty, brackets) at m =
    _PROX_START, 2m, 4m, ... until two successive values agree to tol =
    max(_PROX_REL_TOL max(1, |value|), _PROX_ABS_TOL) or m reaches
    _PROX_MAX_ANGLES, handing each pass's final crossing brackets to the
    next as `held` (None to the first).  Returns (value, m, converged,
    uncertainty), or None once the uncertainty exceeds tol / 2 (the caller
    escalates, and the next level's loop starts without brackets)."""
    prev, m, held = None, _PROX_START, None
    while True:
        est, unc, held = estimate(m, held)
        tol = max(_PROX_REL_TOL * max(1.0, abs(est)), _PROX_ABS_TOL)
        if unc > 0.5 * tol:
            return None
        converged = prev is not None and abs(est - prev) <= tol
        if converged or m >= _PROX_MAX_ANGLES:
            return est, m, converged, unc
        prev = est
        m *= 2


def _mp_dps(coeff, log_r: float, target_ln: float, what: str) -> int:
    """dps_for_floor(target_ln), or PrecisionBudgetError past _DPS_BUDGET."""
    dps = _evalcore.dps_for_floor(coeff, log_r, target_ln)
    if dps > _DPS_BUDGET:
        raise PrecisionBudgetError(
            f"{what} at ln r = {log_r:.4g} needs ~{dps} digits, "
            f"budget is {_DPS_BUDGET}")
    return dps


def proximity_detailed(f: PowerSeries, log_r: float) -> ProximityResult:
    """m(r, f): the log+ quadrature of _logplus_quadrature with the angles
    doubled until two estimates agree (_until_stable), climbing the
    precision levels; with convergence and precision-escalation
    diagnostics."""
    f.check_radius(log_r)
    coeff = f.coeff
    for level in _evalcore.LEVELS:
        # at mp, choose dps so untrusted readings certainly sit below
        # log+ = 0
        dps = (_mp_dps(coeff, log_r, -2.0 * _TRUST_GUARD, "m(r)")
               if level == "mp" else None)
        out = _until_stable(lambda m, held: _logplus_quadrature(
            coeff, log_r, m, level, dps, held))
        if out is not None:
            est, m, converged, unc = out
            return ProximityResult(est, m, converged, level, unc)
    raise PrecisionBudgetError("proximity could not reach the noise target")


def characteristic_entire(f: PowerSeries, log_r: float) -> float:
    """T(r, f) for entire f: equals m(r, f) since N(r, f) = 0, the value
    of proximity_detailed."""
    return proximity_detailed(f, log_r).value


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

    def estimate(m, held):
        nonlocal trimmed
        rn = _evalcore.eval_circle(num.coeff, log_r, m, offset=True, level="dd")
        rd = _evalcore.eval_circle(den.coeff, log_r, m, offset=True, level="dd")
        v = rn.logabs - rd.logabs
        ok = rd.logabs >= rd.floor_ln + _TRUST_GUARD
        trimmed = not ok.all()
        if not trimmed:
            est, brackets = _arc_quadrature(
                v, m, read, rn.mirrored and rd.mirrored, held)
            return est, 0.0, brackets
        return (float(np.mean(np.where(ok, np.maximum(v, 0.0), 0.0))), 0.0,
                None)

    est, m, converged, unc = _until_stable(estimate)
    return ProximityResult(est, m, converged, "dd", unc, trimmed)


def winding_dps(coeff: _evalcore.CoeffData, log_r: float) -> int:
    """Digits the mp winding on |z| = e^{log_r} needs: enough to put the
    noise floor 45 nats below min(1, r).  Raises PrecisionBudgetError past
    _DPS_BUDGET.  Choosing an ODE solution's march depth by the same rule
    lets one mp march serve every count up to that radius."""
    return _mp_dps(coeff, log_r, min(0.0, log_r) - 45.0, "winding")


def zero_count(f: PowerSeries, log_r: float) -> int:
    """n(r, 1/f): zeros in |z| <= r, by the winding number of f.

    The argument increments of f along an adaptive angular mesh are
    accumulated, all read at mp at winding_dps digits (PrecisionBudgetError
    past _DPS_BUDGET), from a start circle of 2^8 .. 2^12 angles, about 8
    (nu(r) + 4).  A sampled increment alone cannot rule out a hidden full
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
    crossover (_evalcore._circle_cost, _points_cost) or past
    _FFT_MAX_ANGLES; a round's margin check reads only its midpoints.  If
    ln|f| anywhere on the mesh falls below 9 nats above the mp floor, the
    least the arithmetic resolves, a zero is too close to the circle and
    RetryPerturbedRadius carries the suggested replacement radii.
    """
    from .series import derivative  # local import avoids cycle at load

    f.check_radius(log_r)
    coeff = f.coeff
    fp = derivative(f)

    def with_velocity(evaluate):
        """evaluate(coeff) for f and f', and the rotation bound |z f'/f|."""
        rf, rd = evaluate(coeff), evaluate(fp.coeff)
        with np.errstate(over="ignore"):
            vel = np.exp(np.minimum(rd.logabs - rf.logabs + log_r, 700.0))
        return rf, vel

    dps = winding_dps(coeff, log_r)
    nu = max_term(f, log_r).nu
    m_start = 1 << max(8, min(12, math.ceil(math.log2(8.0 * (nu + 4)))))
    # the start circle, then each round's midpoints, are read, checked and
    # merged into the mesh by one loop body
    res, mvel = with_velocity(lambda c: _evalcore.eval_circle(
        c, log_r, m_start, offset=True, level="mp", dps=dps))
    margin_ln = res.floor_ln + 9.0
    mids = (2.0 * math.pi) * (np.arange(m_start) + 0.5) / m_start
    thetas, phases, vels = np.zeros(0), np.zeros(0), np.zeros(0)
    for k in range(49):
        vmin = float(np.min(res.logabs))
        if vmin < margin_ln:
            raise RetryPerturbedRadius(
                log_r, detail=f"min ln|f| = {vmin:.4g} below margin "
                f"{margin_ln:.4g}")
        order = np.argsort(np.concatenate([thetas, mids]))
        thetas = np.concatenate([thetas, mids])[order]
        phases = np.concatenate([phases, res.phase])[order]
        vels = np.concatenate([vels, mvel])[order]
        if k == 48:
            raise RetryPerturbedRadius(log_r, detail="refinement stalled")
        dphi = _wrap_pi(np.diff(np.concatenate([phases, [phases[0]]])))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * math.pi]]))
        vmax = np.maximum(vels, np.roll(vels, -1))
        bad = np.nonzero((np.abs(dphi) > 0.5 * math.pi)
                         | (gaps * vmax > 1.0))[0]
        if len(bad) == 0:
            d = _wrap_pi(np.diff(phases))
            total = float(np.sum(d) + _wrap_pi(phases[0] - phases[-1]))
            w = total / (2.0 * math.pi)
            if abs(w - round(w)) > 1e-6:
                raise RetryPerturbedRadius(
                    log_r, detail=f"winding {w:.8f} not close to an integer")
            return int(round(w))
        if len(thetas) + len(bad) > _MAX_MESH:
            raise RetryPerturbedRadius(
                log_r, detail="mesh budget exhausted (zero on circle?)")
        nxt = np.concatenate([thetas[1:], [thetas[0] + 2.0 * math.pi]])
        mids = 0.5 * (thetas[bad] + nxt[bad])
        # round k's midpoints lie on the circle of m_start 2^k angles
        size, offset = m_start << k, k > 0
        idx = np.rint(mids * (size / (2.0 * math.pi)) - 0.5 * offset)
        idx = idx.astype(np.int64) % size
        res, mvel = with_velocity(lambda c: _evalcore.eval_circle_at(
            c, log_r, size, idx, dps, offset=offset))


def _retry_log_radii(log_r: float) -> list:
    """ln r, then the ln of each radius count_zeros_grid retries r at, in
    its order: r(1 + s), r(1 - s), r(1 + 2s), ... with s = _RETRY_STEP,
    _MAX_RETRIES of them."""
    steps = [(a // 2 + 1) * _RETRY_STEP for a in range(_MAX_RETRIES)]
    return [log_r] + [log_r + math.log1p(-s if a % 2 else s)
                      for a, s in enumerate(steps)]


def count_zeros_grid(f: PowerSeries, radii: Sequence[float]) -> CountingData:
    """Counts over a radius grid, applying the perturbed-radius retry rule.

    A radius r that raises RetryPerturbedRadius is retried at each radius
    of _retry_log_radii in turn.  Candidates at or below the last radius
    used are skipped, so the recorded radii (the ones actually used, after
    perturbation) stay increasing on a tight grid; with no candidate left
    the radius raises RetryPerturbedRadius.  The nominal radii must be
    strictly increasing.
    """
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    used, counts = [], []
    m0 = valuation(f)
    for r in radii:
        cands = [lr for lr in _retry_log_radii(math.log(r))
                 if not used or math.exp(lr) > used[-1]]
        if not cands:
            raise RetryPerturbedRadius(
                math.log(r), detail=f"no retry radius above {used[-1]:.6g}")
        for i, log_r in enumerate(cands):
            try:
                n = zero_count(f, log_r)
            except RetryPerturbedRadius:
                if i == len(cands) - 1:
                    raise
                continue
            used.append(math.exp(log_r))
            counts.append(n)
            break
    return CountingData(tuple(used), tuple(counts), m0)

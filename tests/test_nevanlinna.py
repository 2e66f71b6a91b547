"""Proximity/characteristic quadrature and argument-principle counting."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from growthlab import harness, ode
from growthlab import nevanlinna as nev
from growthlab import series


def brute_proximity(fn, r, n=4096, dps=30):
    """Independent oracle: plain trapezoid of log+|fn| via mpmath."""
    with mp.workdps(dps):
        total = 0.0
        for j in range(n):
            th = 2 * math.pi * (j + 0.5) / n
            v = abs(fn(r * mp.exp(1j * mp.mpf(th))))
            total += max(float(mp.log(v)) if v != 0 else -1e9, 0.0)
        return total / n


def adaptive_proximity(fn, r, n=2048, dps=30):
    """Independent oracle for m(r, fn) to about 1e-20: the crossings of
    ln|fn| = 0, bracketed on an n-point grid and refined by mpmath's
    root finder, split [0, 2pi] into arcs, and each positive arc is
    integrated by mpmath's tanh-sinh quadrature."""
    with mp.workdps(dps):
        def g(th):
            return mp.log(abs(fn(r * mp.expj(th))))

        grid = [2 * mp.pi * j / n for j in range(n + 1)]
        vals = [g(th) for th in grid]
        cuts = [mp.findroot(g, (grid[j], grid[j + 1]), solver="anderson")
                for j in range(n) if (vals[j] > 0) != (vals[j + 1] > 0)]
        edges = [mp.mpf(0)] + cuts + [2 * mp.pi]
        total = mp.mpf(0)
        for a, b in zip(edges, edges[1:]):
            if g((a + b) / 2) > 0:
                total += mp.quad(g, [a, b])
        return float(total / (2 * mp.pi))


def m(f, log_r):
    """m(r, f), the value of proximity_detailed."""
    return nev.proximity_detailed(f, log_r).value


class TestProximity:
    def test_exp_closed_form(self):
        # m(r, e^z) = (1/2pi) int_{-pi/2}^{pi/2} r cos = r/pi
        f = series.builtin("exp", 400)
        for r in [math.pi, 10.0]:
            assert m(f, math.log(r)) == pytest.approx(
                r / math.pi, abs=1e-9 * r)

    def test_small_constant_gives_zero(self):
        c = series.builtin("poly", coeffs=[0.5])
        assert m(c, math.log(7.0)) == 0.0

    def test_big_constant(self):
        c = series.builtin("poly", coeffs=[3.0])
        assert m(c, math.log(7.0)) == pytest.approx(math.log(3.0))

    def test_exp_at_100_needs_mp(self):
        f = series.builtin("exp", 400)
        det = nev.proximity_detailed(f, math.log(100.0))
        assert det.level == "mp"
        assert det.value == pytest.approx(100.0 / math.pi, abs=1e-6 * 100)

    def test_cos_against_brute_oracle(self):
        f = series.builtin("cos", 300)
        want = brute_proximity(mp.cos, 6.0)
        assert m(f, math.log(6.0)) == pytest.approx(want, abs=2e-6)

    def test_characteristic_is_proximity_for_entire(self):
        f = series.builtin("exp", 300)
        lr = math.log(8.0)
        assert nev.characteristic_entire(f, lr) == m(f, lr)

    def test_poly_characteristic_asymptotics(self):
        # T(r, poly deg d) ~ d log r for large r
        f = series.builtin("poly", coeffs=[2.0, 0.0, 0.0, 1.0])
        r = 1000.0
        t = nev.characteristic_entire(f, math.log(r))
        assert 0.9 <= t / (3 * math.log(r)) <= 1.1

    def test_product_subadditivity(self):
        f = series.builtin("exp", 200)
        g = series.builtin("cos", 200)
        fg = series.combine(f, g, "cauchy_product")
        for r in [2.0, 5.0, 11.0]:
            lr = math.log(r)
            assert m(fg, lr) <= m(f, lr) + m(g, lr) + math.log(2.0) + 1e-6


class TestZeroCount:
    def test_sin_count_formula(self):
        f = series.builtin("sin", 200)
        for r in [4.0, 10.0, 20.0]:
            assert nev.zero_count(f, math.log(r)) == 2 * int(r / math.pi) + 1

    def test_exp_has_no_zeros(self):
        f = series.builtin("exp", 200)
        assert nev.zero_count(f, math.log(7.0)) == 0

    def test_cube_roots_of_unity(self):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        for r in [1.5, 2.0, 10.0]:
            assert nev.zero_count(f, math.log(r)) == 3

    def test_retry_error_when_zero_on_circle(self):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        with pytest.raises(nev.RetryPerturbedRadius) as err:
            nev.zero_count(f, 0.0)  # all three zeros sit on |z| = 1
        assert err.value.log_r == 0.0

    def test_count_grid_applies_retry(self):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        data = nev.count_zeros_grid(f, [0.5, 1.0, 2.0])
        assert data.counts == (0, 3, 3) or data.counts == (0, 0, 3)
        assert data.count_at_zero == 0

    def test_count_grid_retries_around_nominal_radius(self, monkeypatch):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        tried = []

        def flaky(f, log_r):
            tried.append(log_r)
            if len(tried) < 3:
                raise nev.RetryPerturbedRadius(log_r)
            return 3

        monkeypatch.setattr(nev, "zero_count", flaky)
        data = nev.count_zeros_grid(f, [2.0])
        ln2, step = math.log(2.0), nev._RETRY_STEP
        assert tried == [ln2, ln2 + math.log1p(step), ln2 + math.log1p(-step)]
        assert data.radii == (math.exp(tried[-1]),)
        assert data.counts == (3,)

    def test_count_grid_keeps_radii_increasing_on_tight_grid(self,
                                                              monkeypatch):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        tried = []

        def flaky(f, log_r):
            tried.append(log_r)
            if log_r == math.log(2.0):
                raise nev.RetryPerturbedRadius(log_r)
            return 3

        monkeypatch.setattr(nev, "zero_count", flaky)
        data = nev.count_zeros_grid(f, [2.0, 2.001])
        # 2.0 moves up to 2.002, so 2.001 itself is skipped for 2.001 * 1.001
        step = math.log1p(1e-3)
        assert tried == [math.log(2.0), math.log(2.0) + step,
                         math.log(2.001) + step]
        assert data.radii == (math.exp(tried[1]), math.exp(tried[2]))
        assert data.counts == (3, 3)

    def test_count_grid_rejects_unsorted_radii(self):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            nev.count_zeros_grid(f, [2.0, 1.5])

    def test_counts_monotone_over_grid(self):
        f = series.builtin("sin", 300)
        data = nev.count_zeros_grid(f, np.geomspace(2.0, 30.0, 10))
        assert all(b >= a for a, b in zip(data.counts, data.counts[1:]))
        assert data.count_at_zero == 1  # simple zero at the origin


class TestCountingData:
    def test_validation(self):
        with pytest.raises(ValueError):
            nev.CountingData((1.0, 2.0), (3, 2))
        with pytest.raises(ValueError):
            nev.CountingData((2.0, 1.0), (1, 2))


def step_sum_big_n(data, log_r):
    """Left-endpoint step sum of N(r) = int_0^r (n(t) - n(0))/t dt
    + n(0) ln r over the counted radii below r: a lower bound on N(r), as
    n is nondecreasing."""
    n0 = data.count_at_zero
    edges = [t for t in data.radii if t < math.exp(log_r)]
    logs = [math.log(t) for t in edges] + [log_r]
    return math.fsum((n - n0) * (b - a) for a, b, n in
                     zip(logs, logs[1:], data.counts)) + n0 * log_r


class TestJensenConsistency:
    @pytest.mark.parametrize("name,n,r_top", [("cos", 300, 25.0),
                                              ("exp", 300, 25.0)])
    def test_t_dominates_n(self, name, n, r_top):
        # for entire f with f(0) = 1: T(r) >= N(r, 1/f) - O(1)
        f = series.builtin(name, n)
        grid = np.geomspace(2.0, r_top, 8)
        data = nev.count_zeros_grid(f, grid)
        for r in grid[3:]:
            lr = math.log(r)
            big_n = step_sum_big_n(data, min(lr, math.log(data.radii[-1])))
            assert nev.characteristic_entire(f, lr) >= big_n - 1.0

    def test_one_plus_z_squared(self):
        f = series.builtin("poly", coeffs=[1.0, 0.0, 1.0])
        data = nev.count_zeros_grid(f, [0.5, 1.5, 4.0, 30.0])
        assert data.counts[-1] == 2
        lr = math.log(30.0)
        assert nev.characteristic_entire(f, lr) >= \
            step_sum_big_n(data, lr) - 1.0


class TestWindingIntegrality:
    def test_winding_is_integer_grade(self):
        # raw winding within 1e-6 of an integer whenever a count returns
        f = series.builtin("sin", 200)
        for r in [5.0, 12.0]:
            n = nev.zero_count(f, math.log(r))
            assert isinstance(n, int)


@pytest.fixture(scope="module")
def mini_solution():
    """f - z for the first solution of theorem_dominant in miniature (r_max
    10, counts at 4.5, 5.6 and 6.3), marched in integers at the depth
    harness._count_solution_zeros picks for it."""
    cfg = harness.shipped_config("theorem_dominant")
    eq = harness.resolve_equation(cfg["equation"])
    g = harness.resolve_subject({"poly": [0.0, 1.0]}, "/oscillation/g")
    got = []
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(nev, "count_zeros_grid",
                       lambda h, radii: got.append(h))
        harness._count_solution_zeros(eq, ode.InitialData.basis(eq.k, 0), g,
                                      [4.5, 5.6, 6.3])
    return got[0]


class _RoundLog:
    """Records each refinement round of zero_count, per series: its circle
    size m, offset, indices, and whether the mp band is real; and the
    level of every eval_circle and eval_points call, in `levels`."""

    def __init__(self, monkeypatch):
        self.rounds, self.levels = [], []
        ev = nev._evalcore
        at, circle, points = ev.eval_circle_at, ev.eval_circle, ev.eval_points

        def at_logged(coeff, log_r, m, idx, dps, offset=True):
            (_, _, _, _, band), _ = ev._fixed_band(coeff, log_r, "mp", dps)
            self.rounds.append(dict(m=m, offset=offset, idx=np.array(idx),
                                    real=ev._is_real(band[2])))
            return at(coeff, log_r, m, idx, dps, offset=offset)

        def circle_logged(*args, level="d", **kw):
            self.levels.append(level)
            return circle(*args, level=level, **kw)

        def points_logged(*args, level="dd", **kw):
            self.levels.append(level)
            return points(*args, level=level, **kw)

        monkeypatch.setattr(ev, "eval_circle_at", at_logged)
        monkeypatch.setattr(ev, "eval_circle", circle_logged)
        monkeypatch.setattr(ev, "eval_points", points_logged)


def count_with(f, log_r):
    """(zero_count(f, log_r) or "retry", its _RoundLog)."""
    with pytest.MonkeyPatch.context() as mpatch:
        log = _RoundLog(mpatch)
        try:
            n = nev.zero_count(f, log_r)
        except nev.RetryPerturbedRadius:
            n = "retry"
    return n, log


def exp_cos():
    return series.combine(series.builtin("exp", 400),
                          series.builtin("cos", 400), "cauchy_product")


class TestDyadicRefinement:
    """zero_count's rounds read their midpoints on dyadic circles (round 0
    the non-offset start circle, round k >= 1 the offset one of m_start
    2^k angles), as scattered mp points."""

    # each circle passes near a zero, so its count refines; sin's zeros
    # k pi sit on the real axis, where round 1 refines the wrap cell (last
    # angle to the first + 2 pi, midpoint angle 0)
    CASES = {
        "sin10": (lambda: series.builtin("sin", 700), 9.45, 7),
        "sin20": (lambda: series.builtin("sin", 700), 18.9, 13),
        "sin40": (lambda: series.builtin("sin", 700), 40.8, 25),
        "sin60": (lambda: series.builtin("sin", 700), 60.0, 39),
        # 0.004 outside cos's zero 7 pi / 2, the nearest below 12.5; cos
        # vanishes at +-pi/2, +-3pi/2, +-5pi/2 and +-7pi/2 inside
        "exp_cos": (exp_cos, 11.0, 8),
        # zeros 0.01 inside the circle at angles 0 and +-2pi/3
        "cube_roots": (lambda: series.builtin(
            "poly", coeffs=[-1.0, 0.0, 0.0, 1.0]), 1.01, 3),
    }

    # every evaluation of a count, start circle and rounds alike, is at
    # this level
    @pytest.mark.parametrize("level", ["mp"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counts_match_scattered(self, case, level):
        make, r, want = self.CASES[case]
        got, log = count_with(make(), math.log(r))
        assert got == want
        assert set(log.levels) == {level}
        assert log.rounds
        assert any(not x["offset"] and 0 in x["idx"] for x in log.rounds)

    @pytest.mark.parametrize("r,want", [(4.5, 7), (5.6, 11), (6.3, 19)])
    def test_mini_solution_counts_match_scattered(self, mini_solution, r,
                                                  want):
        got, log = count_with(mini_solution, math.log(r))
        assert got == want
        assert set(log.levels) == {"mp"}

    def test_rounds_lie_on_dyadic_circles(self):
        # round k's circle has m_start 2^k angles, offset from round 1 on
        _, log = count_with(series.builtin("sin", 700), math.log(40.8))
        per_series = log.rounds[0::2]
        m_start = per_series[0]["m"]
        assert len(per_series) == 4
        for k, x in enumerate(per_series):
            assert (x["m"], x["offset"]) == (m_start << k, k > 0)
            assert x["idx"].tolist() == log.rounds[2 * k + 1]["idx"].tolist()

    def test_call_count_regression(self, monkeypatch, mini_solution):
        # at r = 6.3 each round of the real solution reads its mirror
        # pairs of midpoints once: one eval_points call per series
        log = _RoundLog(monkeypatch)
        assert nev.zero_count(mini_solution, math.log(6.3)) == 19
        assert len(log.rounds) >= 4
        ev = nev._evalcore
        for x in log.rounds:
            assert x["real"]
            p = len(set(ev._mirror_rep(x["idx"], x["m"], x["offset"])
                        .tolist()))
            assert 2 * p >= len(x["idx"])
        # two start circles (f and f'), then one points call a round
        assert len(log.levels) == 2 + len(log.rounds)


@pytest.fixture(scope="module")
def exp_exp_log_derivative():
    """(f', f, radii) of the shipped log_derivative_exp_exp run: f =
    exp(e^z) with 400 terms, on the grid its run keeps."""
    v = harness.validate(harness.shipped_config("log_derivative_exp_exp"))
    f, grid = v["subject"], np.geomspace(*v["grid"])
    return series.derivative(f), f, grid[grid <= f.guaranteed_radius * 0.999]


def noisy_sin():
    """sin 200 claiming coefficients good only to 1e-12, which lifts its dd
    trust line above |sin| near the real axis on |z| = 12."""
    s = series.builtin("sin", 200)
    return series.make_series(s.coeff.lh, s.coeff.ph, math.log(1e-12),
                              "noisy sin")


class TestProximityOfRatio:
    def test_exp_ratio_is_zero(self):
        # f'/f = 1 for exp: log+ |1| = 0
        f = series.builtin("exp", 200)
        fp = series.derivative(f)
        assert nev.proximity_of_ratio(fp, f, math.log(9.0)).value \
            == pytest.approx(0.0, abs=1e-9)

    def test_cot_stays_small(self):
        s = series.builtin("sin", 200)
        c = series.builtin("cos", 200)
        val = nev.proximity_of_ratio(c, s, math.log(12.0)).value
        assert 0.0 <= val < 0.5

    @pytest.mark.parametrize("i", range(8))
    def test_exp_exp_log_derivative_is_r_over_pi(self, exp_exp_log_derivative,
                                                 i):
        # f'/f = e^z for f = exp(e^z), and m(r, e^z) = r/pi; at r = 3.2166
        # most of the circle reads |f| below 1e-8 mu(r), far above dd's floor
        fp, f, radii = exp_exp_log_derivative
        assert len(radii) == 8
        r = float(radii[i])
        got = nev.proximity_of_ratio(fp, f, math.log(r)).value
        assert got == pytest.approx(r / math.pi, rel=1e-9, abs=0.0)

    def test_cot_against_reference(self):
        # the trapezoid mean of (ln|cos| - ln|sin|)+ on 65,536 angles, from
        # numpy's complex cos and sin, is within 3e-11 of the integral
        m = 1 << 16
        z = 12.0 * np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
        ref = float(np.mean(np.maximum(
            np.log(np.abs(np.cos(z))) - np.log(np.abs(np.sin(z))), 0.0)))
        got = nev.proximity_of_ratio(series.builtin("cos", 200),
                                     series.builtin("sin", 200),
                                     math.log(12.0)).value
        tol = max(nev._PROX_REL_TOL * max(1.0, ref), nev._PROX_ABS_TOL)
        assert abs(got - ref) <= tol

    def test_masked_pass_takes_the_trimmed_mean(self, monkeypatch):
        # den reads below its trust line at some angles of every pass: the
        # pass is the trapezoid mean over the other angles, with no search
        num, den, lr = series.builtin("cos", 200), noisy_sin(), math.log(12.0)
        masked = []

        def masked_mean(m, held):
            assert held is None
            rn = nev._evalcore.eval_circle(num.coeff, lr, m, level="dd")
            rd = nev._evalcore.eval_circle(den.coeff, lr, m, level="dd")
            ok = rd.logabs >= rd.floor_ln + nev._TRUST_GUARD
            masked.append(np.count_nonzero(~ok))
            v = np.where(ok, np.maximum(rn.logabs - rd.logabs, 0.0), 0.0)
            return float(np.mean(v)), 0.0, None

        want, m_want, conv_want, _ = nev._until_stable(masked_mean)
        assert all(0 < k < m for k, m in zip(
            masked, nev._PROX_START << np.arange(len(masked))))

        def no_arcs(*args):
            raise AssertionError("a masked pass took the Gregory arcs")

        monkeypatch.setattr(nev, "_arc_quadrature", no_arcs)
        assert nev.proximity_of_ratio(num, den, lr) == nev.ProximityResult(
            want, m_want, conv_want, "dd", 0.0, trimmed=True)

    def test_result_names_level_angles_and_convergence(self):
        res = nev.proximity_of_ratio(series.builtin("cos", 200),
                                     series.builtin("sin", 200),
                                     math.log(12.0))
        assert (res.level, res.converged, res.trimmed, res.uncertainty) \
            == ("dd", True, False, 0.0)
        assert nev._PROX_START <= res.n_angles <= nev._PROX_MAX_ANGLES

    def test_unconverged_at_the_angle_cap(self, monkeypatch):
        monkeypatch.setattr(nev, "_PROX_MAX_ANGLES", nev._PROX_START)
        res = nev.proximity_of_ratio(series.builtin("cos", 200),
                                     series.builtin("sin", 200),
                                     math.log(12.0))
        assert (res.n_angles, res.converged) == (nev._PROX_START, False)

    def test_call_count_regression(self, monkeypatch, exp_exp_log_derivative):
        # the plain trapezoid mean doubled to 2,048 or 4,096 angles (8 or 10
        # dd circles) at every radius; the Gregory arcs stop after 2 passes
        fp, f, radii = exp_exp_log_derivative
        circle = nev._evalcore.eval_circle
        sizes = []

        def circle_logged(coeff, log_r, m, *args, **kw):
            sizes.append(m)
            return circle(coeff, log_r, m, *args, **kw)

        monkeypatch.setattr(nev._evalcore, "eval_circle", circle_logged)
        for r in radii:
            sizes.clear()
            nev.proximity_of_ratio(fp, f, math.log(r))
            assert len(sizes) <= 4 and max(sizes) <= 2 * nev._PROX_START, r


def bisect_crossings(read, a, b, fa, fb, h):
    """Reference crossing search: the fixed bisection rounds the ITP
    search replaced, 42 from a whole cell, with nev._crossings'
    signature."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fa, fb = np.asarray(fa, dtype=float), np.asarray(fb, dtype=float)
    for _ in range(42):
        mid = 0.5 * (a + b)
        fm = read(mid)
        left = (fa > 0) != (fm > 0)
        b, fb = np.where(left, mid, b), np.where(left, fm, fb)
        a, fa = np.where(left, a, mid), np.where(left, fa, fm)
    return [x.tolist() for x in (a, b, fa, fb)]


class _PassLog:
    """Records, per _logplus_quadrature pass, its m and level, the crossings
    it located with its cell width h, and its eval_points calls: all of
    them, those made inside the crossing search, and how many of the
    search's readings were exactly 0.0."""

    def __init__(self, monkeypatch):
        self.passes = []
        quad, cross = nev._logplus_quadrature, nev._crossings
        points = nev._evalcore.eval_points
        searching = [False]

        def quad_logged(coeff, log_r, m, level, dps, held=None):
            self.passes.append(dict(m=m, level=level, calls=0, rounds=0,
                                    zeros=0, crossings=None, h=None,
                                    held=held, start=None, brackets=None))
            return quad(coeff, log_r, m, level, dps, held)

        def cross_logged(read, a, b, fa, fb, h):
            searching[0] = True
            try:
                out = cross(read, a, b, fa, fb, h)
            finally:
                searching[0] = False
            self.passes[-1].update(
                crossings=0.5 * (np.array(out[0]) + np.array(out[1])),
                h=h, start=(np.array(a), np.array(b)), brackets=out)
            return out

        def points_logged(*args, **kw):
            res = points(*args, **kw)
            if self.passes:
                p = self.passes[-1]
                p["calls"] += 1
                if searching[0]:
                    p["rounds"] += 1
                    p["zeros"] += int(np.count_nonzero(res.logabs == 0.0))
            return res

        monkeypatch.setattr(nev, "_logplus_quadrature", quad_logged)
        monkeypatch.setattr(nev, "_crossings", cross_logged)
        monkeypatch.setattr(nev._evalcore, "eval_points", points_logged)


def _with_mirrors(x):
    """The crossings a search on a real g's upper half circle located, and
    their mirror images 2 pi - x, in increasing order."""
    return np.sort(np.concatenate([x, 2.0 * math.pi - x]))


class TestCrossings:
    @pytest.mark.parametrize("r", [20.1, 40.3, 59.3])
    def test_exp_crossings_within_tolerance(self, monkeypatch, r):
        # ln|e^z| = r cos(theta) crosses 0 at pi/2 and 3pi/2; every pass at
        # the level the quadrature returns at locates pi/2 to h 2^-43, and
        # 3pi/2 is its mirror image: e^z is real, so the search runs on the
        # upper half circle alone
        f = series.builtin("exp", 400)
        log = _PassLog(monkeypatch)
        det = nev.proximity_detailed(f, math.log(r))
        done = [p for p in log.passes if p["level"] == det.level]
        assert [p["m"] for p in done][-1] == det.n_angles
        for p in done:
            assert len(p["crossings"]) == 1
            got = _with_mirrors(p["crossings"])
            want = np.array([0.5 * math.pi, 1.5 * math.pi])
            assert np.all(np.abs(got - want) <= p["h"] * 2.0 ** -43)

    @pytest.mark.parametrize("name,r", [("exp", 10.2), ("exp", 20.1),
                                        ("exp", 40.3), ("exp", 59.3),
                                        ("exp_cos", 12.4)])
    def test_values_match_bisection(self, monkeypatch, name, r):
        f = series.builtin("exp", 400)
        if name == "exp_cos":
            f = series.combine(f, series.builtin("cos", 400),
                               "cauchy_product")
        lr = math.log(r)
        got = nev.proximity_detailed(f, lr)
        monkeypatch.setattr(nev, "_crossings", bisect_crossings)
        want = nev.proximity_detailed(f, lr)
        assert (got.level, got.n_angles, got.converged) \
            == (want.level, want.n_angles, want.converged)
        assert got.uncertainty == want.uncertainty
        assert got.value == pytest.approx(want.value, rel=1e-13)

    def test_exact_zero_reading_converges(self, monkeypatch):
        # at r = 20.1, m = 128, dd the search reads ln|f| = 0.0 exactly at
        # pi/2; v > 0 counts it as nonpositive and the search goes on
        f = series.builtin("exp", 400)
        log = _PassLog(monkeypatch)
        nev._logplus_quadrature(f.coeff, math.log(20.1), 128, "dd", None)
        (p,) = log.passes
        assert p["zeros"] >= 1
        assert p["rounds"] <= 8
        got = _with_mirrors(p["crossings"])
        assert np.all(np.abs(got - [0.5 * math.pi, 1.5 * math.pi])
                      <= p["h"] * 2.0 ** -43)

    @pytest.mark.parametrize("seed", range(6))
    def test_noise_keeps_bracket_and_round_cap(self, monkeypatch, seed):
        # readings of pure noise, with some -inf, nan and exact 0.0, give
        # the search no usable slope: it must still stop within 43 rounds
        # and leave every crossing in its starting cell
        rng = np.random.default_rng(seed)
        calls = []

        def noise(coeff, log_r, thetas, level="dd", dps=None):
            calls.append(len(thetas))
            v = rng.standard_normal(len(thetas)) * 10.0 ** rng.integers(
                -12, 3, len(thetas))
            v[rng.random(len(thetas)) < 0.05] = -np.inf
            v[rng.random(len(thetas)) < 0.05] = np.nan
            v[rng.random(len(thetas)) < 0.05] = 0.0
            return nev._evalcore.EvalResult(v, v, 0.0, -np.inf, "d")

        m = 256
        h = 2.0 * math.pi / m
        cells = np.sort(rng.choice(m, 24, replace=False))
        a = (2.0 * math.pi) * (cells + 0.5) / m
        lo, hi, _, _ = nev._crossings(
            lambda t: noise(None, 0.0, t).logabs, a, a + h,
            np.where(cells % 2 == 0, 1.0, -1.0),
            np.where(cells % 2 == 0, -1.0, 1.0), h)
        x = 0.5 * (np.array(lo) + np.array(hi))
        assert 1 <= len(calls) <= 43
        assert np.all((a <= x) & (x <= a + h))

    def test_call_count_regression(self, monkeypatch):
        # the 42 bisection rounds made 43 eval_points calls per pass (plus
        # the one call for the Gauss nodes); the ITP search makes far fewer
        f = series.builtin("exp", 400)
        log = _PassLog(monkeypatch)
        det = nev.proximity_detailed(f, math.log(20.1))
        calls = [p["calls"] for p in log.passes]
        assert sum(calls) <= 12 * len(calls)
        assert all(p["calls"] <= 12 for p in log.passes
                   if p["level"] == det.level)


def panel_quadrature(coeff, log_r, m, level, dps, held=None):
    """Reference log+ quadrature: the composite 4-node Gauss panels, one
    per mesh cell of every positive arc, that the Gregory-corrected arcs
    replaced, with nev._logplus_quadrature's signature."""
    res = nev._evalcore.eval_circle(coeff, log_r, m, level=level, dps=dps)
    v = res.logabs
    trust = res.floor_ln + nev._TRUST_GUARD
    unc = float(np.count_nonzero(v < trust)) / m * max(trust, 0.0)
    pos = v > 0.0
    cells = np.nonzero(pos != np.roll(pos, -1))[0]
    if len(cells) == 0 or len(cells) > m // 4:
        return float(np.mean(np.maximum(v, 0.0))), unc, None
    h = 2.0 * math.pi / m
    thetas = (2.0 * math.pi) * (np.arange(m) + 0.5) / m
    lo, hi, _, _ = nev._crossings(
        lambda t: nev._evalcore.eval_points(coeff, log_r, t, level=level,
                                            dps=dps).logabs,
        thetas[cells], thetas[cells] + h, v[cells], v[(cells + 1) % m], h)
    crossings = np.sort(0.5 * (np.array(lo) + np.array(hi)))
    idx = int(np.searchsorted(thetas, crossings[0]))
    sign_after = bool(pos[idx % m])
    starts = crossings[0::2] if sign_after else crossings[1::2]
    ends_src = crossings[1::2] if sign_after else np.append(
        crossings[2::2], crossings[0] + 2.0 * math.pi)
    total = 0.0
    for s, e in zip(starts, ends_src):
        if e <= s:
            e += 2.0 * math.pi
        n_panel = max(2, int(math.ceil((e - s) / h)))
        edges = np.linspace(s, e, n_panel + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        pts = (mids[:, None] + halfw[:, None] * nev._GL_NODES[None, :]).ravel()
        gv = nev._evalcore.eval_points(
            coeff, log_r, pts % (2.0 * math.pi), level=level,
            dps=dps).logabs.reshape(n_panel, 4)
        total += float(np.sum(halfw[:, None] * nev._GL_WTS[None, :]
                              * np.maximum(gv, 0.0)))
    return total / (2.0 * math.pi), unc, None


def gregory_fractions(k):
    """Exact Gregory end weights of order k: the trapezoid's end weights
    plus the corrections c_i, i <= k, with sum_i c_i i^p equal to the
    Euler-Maclaurin end term B_(p+1)/(p+1) for odd p and 0 for even p."""
    bern = [Fraction(1)]
    for n in range(1, k + 2):
        bern.append(-sum(math.comb(n + 1, j) * bern[j]
                         for j in range(n)) / (n + 1))
    rows = [[Fraction(i) ** p for i in range(k + 1)]
            + [bern[p + 1] / (p + 1) if p % 2 else Fraction(0)]
            for p in range(k + 1)]
    for c in range(k + 1):  # Gauss-Jordan; the Vandermonde pivots are nonzero
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k + 1):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [(Fraction(1, 2) if i == 0 else 1) + rows[i][-1]
            for i in range(k + 1)]


def gregory_rule(weights, n):
    """Weights of the corrected trapezoid over nodes 0 .. n - 1, ends
    overlapping when n < 2 len(weights)."""
    w = [1] * n
    for i, g in enumerate(weights):
        w[i] += g - 1
        w[n - 1 - i] += g - 1
    return w


class TestGregory:
    def test_weights_are_the_rounded_fractions(self):
        exact = gregory_fractions(nev._GREGORY_K)
        assert [float(g) for g in exact] == nev._GREGORY.tolist()

    @pytest.mark.parametrize("n", [nev._GREGORY_K + 1, nev._GREGORY_K + 5,
                                   3 * nev._GREGORY_K])
    def test_exact_to_degree_k(self, n):
        k = nev._GREGORY_K
        w = gregory_rule(gregory_fractions(k), n)
        for p in range(k + 2):
            got = sum(wi * Fraction(i) ** p for i, wi in enumerate(w))
            want = Fraction(n - 1) ** (p + 1) / (p + 1)
            assert (got == want) == (p <= k)
        wf = np.array(gregory_rule(nev._GREGORY.tolist(), n))
        x = np.arange(n) / (n - 1.0)
        for p in range(k + 1):
            assert np.sum(wf * x ** p) / (n - 1) == pytest.approx(
                1.0 / (p + 1), rel=1e-14)


def _exp_cos():
    return series.combine(series.builtin("exp", 400),
                          series.builtin("cos", 400), "cauchy_product")


SUBJECTS = {"exp": lambda: series.builtin("exp", 400),
            "sin": lambda: series.builtin("sin", 400),
            "cos": lambda: series.builtin("cos", 400),
            "exp_cos": _exp_cos,
            "airy_like": lambda: series.builtin("airy_like", 200),
            "const": lambda: series.builtin("poly", coeffs=[3.0])}


class TestGregoryArcs:
    # (subject, r): exp at each level, many-arc sin and cos, e^z cos z,
    # an ODE solution; the oracles workload's subjects at seed 1 carry
    # the 1e-11 bound
    @pytest.mark.parametrize("name,r,rel", [
        ("exp", 9.853745697644959, 1e-11), ("exp", 20.277946989549783, 1e-11),
        ("exp", 40.42203939036258, 1e-11), ("exp", 59.4121656617746, 1e-11),
        ("exp_cos", 12.296929793387116, 1e-11),
        ("cos", 12.296929793387116, 1e-11),
        ("sin", 25.0, None), ("cos", 6.0, None), ("exp_cos", 5.0, None),
        ("airy_like", 6.0, None)])
    def test_agrees_with_panels(self, monkeypatch, name, r, rel):
        f = SUBJECTS[name]()
        lr = math.log(r)
        got = nev.proximity_detailed(f, lr)
        monkeypatch.setattr(nev, "_logplus_quadrature", panel_quadrature)
        want = nev.proximity_detailed(f, lr)
        assert got.level == want.level
        tol = nev._PROX_REL_TOL * max(1.0, abs(want.value))
        if rel is not None:
            tol = min(tol, rel * abs(want.value))
        assert abs(got.value - want.value) <= tol

    def test_sin_25_against_adaptive_oracle(self, monkeypatch):
        # sin at r = 25 has dozens of short arcs near the real axis; the
        # Gregory arcs converge at 1024 angles, 1.2e-10 from the truth, and
        # the panels at 256, 1.0e-11 from it: both well inside the 1e-8
        # tolerance, the panels nearer
        f = series.builtin("sin", 400)
        lr = math.log(25.0)
        got = nev.proximity_detailed(f, lr)
        monkeypatch.setattr(nev, "_logplus_quadrature", panel_quadrature)
        ref = nev.proximity_detailed(f, lr)
        truth = adaptive_proximity(mp.sin, 25.0)
        assert (got.n_angles, ref.n_angles) == (1024, 256)
        assert abs(ref.value - truth) < abs(got.value - truth) \
            <= 1e-9 * truth

    @pytest.mark.parametrize("name,r,level", [
        ("exp", 10.0, "d"), ("exp", 20.1, "dd"), ("exp", 59.3, "mp"),
        ("const", 7.0, "d")])
    def test_value_is_python_float(self, name, r, level):
        det = nev.proximity_detailed(SUBJECTS[name](), math.log(r))
        assert det.level == level
        assert type(det.value) is float
        assert type(det.uncertainty) is float


class TestRejectedPasses:
    def test_rejected_pass_skips_the_search(self, monkeypatch):
        # the dd pass of m(59.3, e^z) reads values under its trust line:
        # it returns before the crossing search and evaluates no point
        f = series.builtin("exp", 400)
        log = _PassLog(monkeypatch)
        det = nev.proximity_detailed(f, math.log(59.3))
        assert det.level == "mp"
        (dd,) = [p for p in log.passes if p["level"] == "dd"]
        assert dd["calls"] == 0 and dd["crossings"] is None

    @pytest.mark.parametrize("name,r", [("exp", 10.2), ("exp", 20.1),
                                        ("exp", 40.3), ("exp", 59.3),
                                        ("exp_cos", 12.4)])
    def test_results_unchanged(self, monkeypatch, name, r):
        f = SUBJECTS[name]()
        lr = math.log(r)
        got = nev.proximity_detailed(f, lr)
        monkeypatch.setattr(nev, "_reject_unc", lambda *a: math.inf)
        assert nev.proximity_detailed(f, lr) == got


def _rotated_exp():
    """exp 400 at e^{0.3 i} z: a complex series with m(r) = r/pi."""
    return series.scale_argument(series.builtin("exp", 400),
                                 complex(math.cos(0.3), math.sin(0.3)))


class TestMirroredQuadrature:
    """_arc_quadrature on a real g: the crossing search and the Gauss
    nodes read the upper half circle only, and the lower crossings are
    the mirror images of the upper ones."""

    @staticmethod
    def logged_crossings(monkeypatch):
        found = []
        search = nev._cell_crossings

        def logged(read, v, m, cells, mirrored, held=None):
            x, brackets = search(read, v, m, cells, mirrored, held)
            found.append((cells, x, mirrored))
            return x, brackets

        monkeypatch.setattr(nev, "_cell_crossings", logged)
        return found

    @pytest.mark.parametrize("name,r,level,m", [
        ("exp", 20.1, "dd", 128), ("exp", 59.3, "mp", 256),
        ("exp_cos", 12.3, "dd", 256), ("sin", 25.0, "dd", 1024),
        ("cos", 6.0, "d", 256), ("airy_like", 6.0, "dd", 256)])
    def test_reads_upper_half_only(self, monkeypatch, name, r, level, m):
        f = SUBJECTS[name]()
        lr = math.log(r)
        dps = (nev._mp_dps(f.coeff, lr, -2.0 * nev._TRUST_GUARD, "m(r)")
               if level == "mp" else None)
        res = nev._evalcore.eval_circle(f.coeff, lr, m, level=level,
                                        dps=dps)
        assert res.mirrored
        sizes, thetas = [], []

        def read(t):
            sizes.append(len(t))
            thetas.extend(np.asarray(t).tolist())
            return nev._evalcore.eval_points(f.coeff, lr, t, level=level,
                                             dps=dps).logabs

        found = self.logged_crossings(monkeypatch)
        got, _ = nev._arc_quadrature(res.logabs, m, read, res.mirrored)
        ((cells, x, mirrored),) = found
        k = len(cells) // 2
        assert mirrored and len(cells) == 2 * k > 0
        assert cells[k:].tolist() == (m - 2 - cells[:k])[::-1].tolist()
        assert np.all(cells[:k] < m // 2 - 1)
        assert np.all(x[k:] == 2.0 * math.pi - x[:k][::-1])
        assert 0.0 <= min(thetas) and max(thetas) <= math.pi
        # each search round reads one angle per upper crossing cell
        assert max(sizes[:-1]) <= k
        whole, _ = nev._arc_quadrature(res.logabs, m, lambda t: (
            nev._evalcore.eval_points(f.coeff, lr, t, level=level,
                                      dps=dps).logabs), False)
        assert abs(got - whole) <= 1e-13 * max(1.0, abs(whole))

    def test_exp_search_reads_one_angle(self, monkeypatch):
        # e^z crosses |f| = 1 at pi/2 and 3pi/2: each search round of
        # m(20.1, e^z) is a 1-angle read where the whole circle read 2
        log = _PassLog(monkeypatch)
        sizes = []
        points = nev._evalcore.eval_points

        def sized(coeff, log_r, thetas, level="dd", dps=None):
            sizes.append(len(thetas))
            return points(coeff, log_r, thetas, level=level, dps=dps)

        monkeypatch.setattr(nev._evalcore, "eval_points", sized)
        nev._logplus_quadrature(series.builtin("exp", 400).coeff,
                                math.log(20.1), 128, "dd", None)
        (p,) = log.passes
        assert p["rounds"] >= 2 and sizes[:p["rounds"]] == [1] * p["rounds"]

    def test_ratio_of_real_series_reads_upper_half(self, monkeypatch,
                                                   exp_exp_log_derivative):
        fp, f, grid = exp_exp_log_derivative
        thetas = []
        points = nev._evalcore.eval_points

        def logged(coeff, log_r, t, level="dd", dps=None):
            thetas.extend(np.asarray(t).tolist())
            return points(coeff, log_r, t, level=level, dps=dps)

        found = self.logged_crossings(monkeypatch)
        monkeypatch.setattr(nev._evalcore, "eval_points", logged)
        nev.proximity_of_ratio(fp, f, math.log(grid[-1]))
        assert found and all(mirrored for _, _, mirrored in found)
        assert thetas and max(thetas) <= math.pi

    @pytest.mark.parametrize("r", [10.2, 20.1, 40.3])
    def test_complex_series_reads_the_whole_circle(self, monkeypatch, r):
        # m(r, f(e^{0.3 i} z)) = m(r, e^z) = r/pi; the crossings at
        # pi/2 - 0.3 and 3pi/2 - 0.3 are both searched
        found = self.logged_crossings(monkeypatch)
        det = nev.proximity_detailed(_rotated_exp(), math.log(r))
        assert abs(det.value - r / math.pi) <= 1e-6 * r
        assert found and not any(mirrored for _, _, mirrored in found)
        for cells, x, _ in found:
            assert len(cells) == 2
            want = np.array([0.5 * math.pi, 1.5 * math.pi]) - 0.3
            assert np.all(np.abs(np.sort(x) - want) <= 1e-10)


class TestInheritedBrackets:
    """Each m(r) pass hands its final crossing brackets to the next pass
    at the same level, whose search starts from them."""

    @pytest.mark.parametrize("r", [20.1, 40.3])
    def test_second_pass_of_exp(self, monkeypatch, r):
        # m(r, e^z) at dd: pass 2 reads at most one angle per inherited
        # crossing, in at most one round, where pass 1 took several; its
        # crossing lies within eps of pi/2, as a fresh search's does
        f = series.builtin("exp", 400)
        lr = math.log(r)
        log = _PassLog(monkeypatch)
        det = nev.proximity_detailed(f, lr)
        first, second = [p for p in log.passes if p["level"] == "dd"]
        assert (det.level, det.n_angles) == ("dd", 2 * nev._PROX_START)
        assert first["held"] is None and first["rounds"] >= 3
        assert second["held"] == first["brackets"]
        assert second["rounds"] <= 1 and second["calls"] <= 2
        eps = second["h"] * 2.0 ** -nev._CROSS_BITS
        assert abs(second["crossings"][0] - 0.5 * math.pi) <= eps
        nev._logplus_quadrature(f.coeff, lr, 2 * nev._PROX_START, "dd", None)
        fresh = log.passes[-1]
        assert fresh["rounds"] >= 3
        assert abs(fresh["crossings"][0] - 0.5 * math.pi) <= eps
        assert abs(fresh["crossings"][0] - second["crossings"][0]) <= 2 * eps

    def test_second_pass_of_log_derivative(self, monkeypatch,
                                           exp_exp_log_derivative):
        # m(r, f'/f) = m(r, e^z) for f = exp(e^z): pass 2 of each radius
        # reads at most one angle per inherited crossing, in one round
        fp, f, radii = exp_exp_log_derivative
        cross = nev._crossings
        searches = []

        def logged(read, a, b, fa, fb, h):
            reads = []
            out = cross(lambda t: reads.append(len(t)) or read(t),
                        a, b, fa, fb, h)
            searches.append(dict(n=len(a), reads=reads, h=h, out=out))
            return out

        monkeypatch.setattr(nev, "_crossings", logged)
        for r in radii:
            searches.clear()
            res = nev.proximity_of_ratio(fp, f, math.log(r))
            assert res.n_angles == 2 * nev._PROX_START
            first, second = searches
            assert len(first["reads"]) >= 3
            assert len(second["reads"]) <= 1
            assert sum(second["reads"]) <= second["n"] == first["n"]
            eps = second["h"] * 2.0 ** -nev._CROSS_BITS
            lo, hi = (np.array(x) for x in second["out"][:2])
            assert np.all(hi - lo <= 2 * eps)
            assert np.all(np.abs(0.5 * (lo + hi) - 0.5 * math.pi) <= eps)

    def test_no_brackets_across_an_escalation(self, monkeypatch):
        # m(10.2, e^z) converges at d in two passes; forcing the second d
        # pass to fail sends the ladder to dd, whose first pass must start
        # without the d pass's brackets
        f = series.builtin("exp", 400)
        quad = nev._logplus_quadrature
        calls = []

        def failing(coeff, log_r, m, level, dps, held=None):
            calls.append((level, m, held))
            est, unc, brackets = quad(coeff, log_r, m, level, dps, held)
            return est, (math.inf if (level, m) == ("d", 256) else unc), \
                brackets

        monkeypatch.setattr(nev, "_logplus_quadrature", failing)
        det = nev.proximity_detailed(f, math.log(10.2))
        assert det.level == "dd"
        assert [(lv, m) for lv, m, _ in calls] == [
            ("d", 128), ("d", 256), ("dd", 128), ("dd", 256)]
        assert calls[1][2] is not None and calls[3][2] is not None
        assert calls[0][2] is None and calls[2][2] is None

    def test_start_brackets(self):
        # cells [k, k + 1/2] whose readings straddle 0; held brackets:
        # none in cell 0, one in cell 1, two in cell 2, one in cell 3 whose
        # ends do not straddle, and one across cell 4's left end, cut there
        # with the cell's reading
        a = np.arange(5.0)
        fa, fb = np.ones(5), -np.ones(5)
        held = [[1.2, 2.1, 2.3, 3.2, 3.995], [1.21, 2.11, 2.31, 3.21, 4.005],
                [1.0, 1.0, -1.0, 1.0, -5.0], [-1.0, -1.0, 1.0, 2.0, -1.0]]
        sa, sb, sfa, sfb = nev._start_brackets(a, 0.5, fa, fb, held)
        assert sa.tolist() == [0.0, 1.2, 2.0, 3.0, 4.0]
        assert sb.tolist() == [0.5, 1.21, 2.5, 3.5, 4.005]
        assert sfa.tolist() == [1.0] * 5 and sfb.tolist() == [-1.0] * 5
        # a bracket a turn above its cell, as a wrapping cell leaves it
        turn = 2.0 * math.pi
        sa, sb, _, _ = nev._start_brackets(
            np.array([0.0]), 1.0, fa[:1], fb[:1],
            [[turn + 0.3], [turn + 0.31], [1.0], [-1.0]])
        assert sa.tolist() == [turn + 0.3 - turn]
        assert sb.tolist() == [turn + 0.31 - turn]
        # nothing held: every cell whole
        sa, sb, _, _ = nev._start_brackets(a, 0.5, fa, fb, None)
        assert sa.tolist() == a.tolist() and sb.tolist() == (a + 0.5).tolist()

    def test_search_rounds_follow_the_start_width(self):
        # a bracket 4 eps wide takes at most 1 + _ITP_N0 rounds, whatever
        # it reads, and keeps the crossing inside it
        h = 2.0 * math.pi / 256
        eps = h * 2.0 ** -nev._CROSS_BITS
        a = np.array([1.0])
        rng = np.random.default_rng(3)
        rounds = []

        def noise(t):
            rounds.append(len(t))
            return rng.standard_normal(len(t))

        lo, hi, _, _ = nev._crossings(noise, a, a + 4 * eps, [1.0], [-1.0],
                                      h)
        assert len(rounds) <= 1 + nev._ITP_N0
        assert a[0] <= lo[0] < hi[0] <= a[0] + 4 * eps
        assert hi[0] - lo[0] <= 2 * eps

"""Power series: builtins, evaluation, max term, jumps, modulus, combine."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import series
from mpref import to_mpc


def coeff_value(f, n):
    """Stored coefficient as an ordinary complex (test helper)."""
    L = f.coeff.lh[n]
    if not math.isfinite(L):
        return 0j
    return math.exp(L) * complex(math.cos(f.coeff.ph[n]),
                                 math.sin(f.coeff.ph[n]))


def _cauchy_loop_over_g(lf, pf, lg, pg, n_out):
    """Reference log-polar convolution: one pass over g's indices,
    whatever the lengths (the loop series._cauchy_logpolar must match)."""
    nf, ng = len(lf), len(lg)
    lmax = np.full(n_out, -np.inf)
    for m in range(min(ng, n_out)):
        if not math.isfinite(lg[m]):
            continue
        span = min(n_out - m, nf)
        np.maximum(lmax[m:m + span], lg[m] + lf[:span], out=lmax[m:m + span])
    acc = np.zeros(n_out, dtype=complex)
    lmax_safe = np.where(np.isfinite(lmax), lmax, 0.0)
    for m in range(min(ng, n_out)):
        if not math.isfinite(lg[m]):
            continue
        span = min(n_out - m, nf)
        with np.errstate(under="ignore"):
            mag = np.exp(lg[m] + lf[:span] - lmax_safe[m:m + span])
        angs = pg[m] + pf[:span]
        acc[m:m + span] += mag * np.cos(angs) + 1j * (mag * np.sin(angs))
    with np.errstate(divide="ignore"):
        lh = np.where(acc != 0, lmax_safe + np.log(np.abs(acc)), -np.inf)
    ph = np.where(acc != 0, np.angle(acc), 0.0)
    return lh, ph


class TestBuiltins:
    def test_exp_first_terms(self):
        f = series.builtin("exp", 4)
        want = [1.0, 1.0, 0.5, 1.0 / 6.0]
        for n, w in enumerate(want):
            assert coeff_value(f, n) == pytest.approx(w, rel=1e-15)

    def test_sin_structure(self):
        f = series.builtin("sin", 4)
        assert coeff_value(f, 0) == 0
        assert coeff_value(f, 1) == pytest.approx(1.0)
        assert coeff_value(f, 2) == 0
        assert coeff_value(f, 3) == pytest.approx(-1.0 / 6.0, rel=1e-15)

    def test_exp_exp_bell_values(self):
        # B_0..B_3 = 1, 1, 2, 5 so a_3 = (5/6) e
        f = series.builtin("exp_exp", 4)
        e = math.e
        for n, b in enumerate([1.0, 1.0, 2.0, 5.0]):
            want = e * b / math.factorial(n)
            assert coeff_value(f, n) == pytest.approx(want, rel=1e-14)

    def test_bell_numbers_match_binomial_recurrence(self):
        bell = [1]
        for m in range(59):
            bell.append(sum(math.comb(m, k) * b for k, b in enumerate(bell)))
        assert series._bell_numbers(60) == tuple(bell)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            series.builtin("gamma", 10)

    def test_poly_needs_coeffs(self):
        with pytest.raises(ValueError):
            series.builtin("poly")

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf,
                                   complex(math.inf, 0.0)])
    def test_poly_needs_finite_coeffs(self, c):
        with pytest.raises(ValueError, match="poly coefficient 2"):
            series.builtin("poly", coeffs=[1.0, 0.0, c])

    def test_airy_like_routes_to_ode(self):
        f = series.builtin("airy_like", 40)
        assert coeff_value(f, 0) == pytest.approx(1.0)
        assert coeff_value(f, 3) == pytest.approx(1.0 / 6.0, rel=1e-13)


def _loggamma_logs(name, n, dps=50):
    """The builtins' logs from -loggamma at 50 digits, as the series once
    generated them: (ln|a_k|, arg a_k) per k, -inf for a zero term."""
    bell = series._bell_numbers(n) if name == "exp_exp" else None
    with mp.workdps(dps):
        out = []
        for k in range(n):
            if name in ("sin", "cos") and k % 2 != (name == "sin"):
                out.append((mp.mpf("-inf"), mp.mpf(0)))
            elif name == "exp_exp":
                out.append((1 + mp.log(bell[k]) - mp.loggamma(k + 1),
                            mp.mpf(0)))
            else:
                out.append((-mp.loggamma(k + 1),
                            mp.pi if name != "exp" and k // 2 % 2 else
                            mp.mpf(0)))
        return out


class TestBuiltinLogs:
    """A builtin's logs, derived from its exact values, against the
    -loggamma generators: ln|a_k| is the nearest double, and the phases
    are exact."""

    @pytest.mark.parametrize("name,n", [("exp", 2000), ("sin", 700),
                                        ("cos", 700), ("exp_exp", 400)])
    def test_matches_loggamma(self, name, n):
        f = series.builtin(name, n)
        with mp.workdps(50):
            for k, (L, p) in enumerate(_loggamma_logs(name, n)):
                if not mp.isfinite(L):
                    assert f.coeff.lh[k] == -np.inf, k
                    continue
                assert f.coeff.lh[k] == float(L), k
                assert f.coeff.ph[k] == float(p), k


class TestEvaluate:
    def test_exp_at_zero_arg(self):
        f = series.builtin("exp", 30)
        ln_abs, _, _ = series.evaluate(f, (0.0, 0.0))  # z = 1
        assert math.exp(ln_abs) == pytest.approx(math.e, rel=1e-12)

    def test_sin_at_pi_is_tiny(self):
        f = series.builtin("sin", 60)
        ln_abs, _, _ = series.evaluate(f, (math.log(math.pi), 0.0))
        assert ln_abs < math.log(1e-10)

    def test_truncation_error_beyond_radius(self):
        f = series.builtin("exp", 20)
        with pytest.raises(series.TruncationError):
            series.evaluate(f, (math.log(1e6), 0.0))

    def test_evaluate_agrees_with_mpmath(self):
        f = series.builtin("cos", 80)
        ln_abs, arg, _ = series.evaluate(f, (math.log(3.0), 1.1))
        with mp.workdps(30):
            z = 3.0 * mp.exp(1j * mp.mpf(1.1))
            want = mp.cos(z)
            assert ln_abs == pytest.approx(float(mp.log(abs(want))),
                                           abs=1e-10)
            assert arg == pytest.approx(float(mp.atan2(want.imag,
                                                       want.real)),
                                        abs=1e-10)

    @pytest.mark.parametrize("name,n,log_z", [
        ("exp", 30, (0.0, 0.0)),
        ("sin", 60, (math.log(math.pi), 0.0)),
        ("cos", 80, (math.log(3.0), 1.1)),
    ])
    def test_floor_is_the_dd_sums_floor(self, name, n, log_z):
        # floor_ln bounds only the fixed-point sum's noise, not the dd
        # output's rounding, so it is compared with eval_points, not with
        # the true value
        f = series.builtin(name, n)
        ln_abs, _, floor_ln = series.evaluate(f, log_z)
        res = series._evalcore.eval_points(f.coeff, log_z[0],
                                           np.array([log_z[1]]), level="dd")
        assert floor_ln == res.floor_ln
        assert floor_ln < ln_abs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,n,coeffs,a0", [
        ("exp", 40, None, 1.0),
        ("sin", 40, None, 0.0),
        ("poly", 400, [0.0, 1.0], 0.0),
    ])
    def test_origin_reads_a0(self, name, n, coeffs, a0):
        # z = 0 is log_z = (-inf, theta): f(0) = a_0 with no sum
        f = series.builtin(name, n, coeffs)
        ln_abs, arg, floor_ln = series.evaluate(f, (-math.inf, 0.7))
        if a0 == 0.0:
            assert (ln_abs, arg, floor_ln) == (-math.inf, 0.0, -math.inf)
            return
        assert (ln_abs, arg) == (math.log(a0), 0.0)
        # the floor of the one-term dd sum, as at a radius where a_1 z is
        # below the band cut
        res = series._evalcore.eval_points(f.coeff, -800.0, np.array([0.7]),
                                           level="dd")
        assert floor_ln == res.floor_ln < ln_abs


class TestMaxTerm:
    def test_poly_cube(self):
        f = series.builtin("poly", coeffs=[0, 0, 0, 1.0])
        mt = series.max_term(f, math.log(10.0))
        assert mt.nu == 3
        assert mt.log_mu == pytest.approx(3 * math.log(10.0))

    def test_exp_central_index_floor_r(self):
        f = series.builtin("exp", 100)
        for r in [3.7, 10.0, 25.2]:
            assert series.max_term(f, math.log(r)).nu == int(r)

    def test_small_radius_constant_wins(self):
        f = series.builtin("exp", 30)
        assert series.max_term(f, math.log(1e-9)).nu == 0

    def test_zero_series_degenerate(self):
        f = series.builtin("poly", coeffs=[0.0])
        with pytest.raises(series.DegenerateSeriesError):
            series.max_term(f, 0.0)

    def test_nu_nondecreasing(self):
        f = series.builtin("exp_exp", 200)
        nus = [series.max_term(f, lr).nu
               for lr in np.linspace(-2.0, 3.0, 120)]
        assert all(b >= a for a, b in zip(nus, nus[1:]))

    def test_largest_index_tie_break(self):
        # 1 + z^2 at r = 1: indices 0 and 2 tie; the largest wins
        f = series.builtin("poly", coeffs=[1.0, 0.0, 1.0])
        assert series.max_term(f, 0.0).nu == 2

    @pytest.mark.filterwarnings("error")
    def test_at_the_origin_is_a0(self):
        # z = 0 (ln r = -inf): the only term is a_0
        assert series.max_term(series.builtin("exp", 40), -math.inf) == \
            series.MaxTermResult(0.0, 0)
        for f in (series.builtin("sin", 40),
                  series.builtin("poly", coeffs=[0.0, 1.0])):
            with pytest.raises(series.DegenerateSeriesError,
                               match="a_0 = 0.*z = 0"):
                series.max_term(f, -math.inf)
        with pytest.raises(series.DegenerateSeriesError,
                           match="all coefficients vanish"):
            series.max_term(series.builtin("poly", coeffs=[0.0]), -math.inf)


class TestJumps:
    def test_one_plus_z(self):
        f = series.builtin("poly", coeffs=[1.0, 1.0])
        assert series.central_index_jumps(f) == [(0.0, 1)]

    def test_exp_jumps_at_integers(self):
        f = series.builtin("exp", 40)
        jumps = series.central_index_jumps(f)
        for i, (t, nu) in enumerate(jumps[:10]):
            assert nu == i + 1
            assert t == pytest.approx(math.log(i + 1.0), abs=1e-12)

    def test_index_one_never_wins(self):
        f = series.builtin("poly", coeffs=[1.0, 0.0, 1.0])
        assert series.central_index_jumps(f) == [(0.0, 2)]

    def test_requires_nonzero_constant_term(self):
        f = series.builtin("sin", 30)
        with pytest.raises(ValueError):
            series.central_index_jumps(f)

    @pytest.mark.parametrize("name,n", [("exp", 200), ("cos", 200),
                                        ("exp_exp", 300)])
    def test_step_integral_identity(self, name, n):
        # ln mu(r) = ln|a0| + sum nu_i d(ln r): exact for the stored series
        f = series.builtin(name, n)
        jumps = series.central_index_jumps(f)
        for r in np.geomspace(1.0, 40.0, 24):
            lr = math.log(r)
            got = series.log_mu_from_jumps(f, lr, jumps)
            want = series.max_term(f, lr).log_mu
            assert abs(got - want) <= 1e-9


class TestLogMaxModulus:
    def test_exp_is_r(self):
        f = series.builtin("exp", 400)
        for r in [2.0, 10.0, 50.0]:
            assert series.log_max_modulus(f, math.log(r)) == pytest.approx(
                r, abs=1e-9 * max(1, r))

    def test_cos_is_log_cosh(self):
        f = series.builtin("cos", 300)
        for r in [3.0, 20.0]:
            want = float(mp.log(mp.cosh(r)))
            assert series.log_max_modulus(f, math.log(r)) == pytest.approx(
                want, abs=1e-9 * max(1, r))

    def test_dominates_point_values(self):
        f = series.builtin("exp_exp", 300)
        lr = math.log(2.5)
        lm = series.log_max_modulus(f, lr)
        rng = np.random.default_rng(5)
        from growthlab import _evalcore
        vals = _evalcore.eval_points(f.coeff, lr,
                                     rng.uniform(0, 2 * np.pi, 256),
                                     level="d").logabs
        assert np.all(vals <= lm + 1e-9)

    def test_wiman_valiron_modulus_bound(self):
        # M(r) < mu(r) (nu(2r) + 2) with the free radius fixed at 2r
        for name in ["exp", "cos", "exp_exp"]:
            f = series.builtin(name, 300)
            r_top = min(20.0, f.guaranteed_radius / 2.05)
            for r in np.geomspace(1.0, r_top, 12):
                lr = math.log(r)
                lhs = series.log_max_modulus(f, lr)
                mt = series.max_term(f, lr)
                nu2 = series.max_term(f, lr + math.log(2.0)).nu
                assert lhs < mt.log_mu + math.log(nu2 + 2.0)


def dense_peak(g, m=1 << 16):
    """max of g (a vectorised function of the angle) over m equispaced
    angles, refined twice on 2,001 angles across the best one's cells: to
    within |g''| (2 pi / m / 1e6)^2 of the true max."""
    step = 2.0 * np.pi / m
    th = step * np.arange(m)
    mid = th[int(np.argmax(g(th)))]
    for _ in range(2):
        th = np.linspace(mid - step, mid + step, 2001)
        mid, step = th[int(np.argmax(g(th)))], th[1] - th[0]
    return float(np.max(g(th)))


def ln_abs_exp_sum(a, b):
    """ln|e^a + e^b| for complex arrays a, b, without overflow."""
    big = np.where(a.real >= b.real, a, b)
    small = np.where(a.real >= b.real, b, a)
    return big.real + np.log(np.abs(1.0 + np.exp(small - big)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMaxModulusSearch:
    """The safeguarded Newton search of series._max_modulus."""

    @pytest.mark.parametrize("r", [0.7, 3.0, 11.0, 40.0])
    def test_exp_cz_at_off_grid_argument(self, r):
        # ln M(r, e^{cz}) = |c| r, attained at theta = -arg c, between the
        # seed circle's angles
        c = 1.3 + 0.7j
        f = series.scale_argument(series.builtin("exp", 400), c)
        got = series.log_max_modulus(f, math.log(r))
        assert abs(got - abs(c) * r) <= 1e-13 * abs(c) * r

    @pytest.mark.parametrize("r", [0.5, 3.0, 20.0, 50.0])
    def test_cos_is_log_cosh(self, r):
        f = series.builtin("cos", 400)
        want = float(mp.log(mp.cosh(r)))
        got = series.log_max_modulus(f, math.log(r))
        assert abs(got - want) <= 1e-13 * max(1.0, want)

    @pytest.mark.parametrize("coeffs,ln_a,k", [([0.0, 0.0, 0.0, 2.5], 2.5, 3),
                                               ([-4.0], 4.0, 0)])
    def test_monomial_and_constant(self, coeffs, ln_a, k):
        # |f| is constant on the circle: every angle is stationary
        f = series.builtin("poly", coeffs=coeffs)
        for r in (0.3, 2.0, 100.0):
            want = math.log(ln_a) + k * math.log(r)
            got, angle = series._max_modulus(f, math.log(r))
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
            assert math.isfinite(angle)

    @pytest.mark.parametrize("r", [2.0, 10.0, 30.0])
    def test_conjugate_maxima_of_a_real_series(self, r):
        # e^{cz} + e^{conj(c) z} has real coefficients, so |f| is symmetric
        # in the real axis, with two equal maxima near theta = -+ arg c
        c = 1.2 * np.exp(0.9j)
        e = series.builtin("exp", 400)
        f = series.combine(series.scale_argument(e, c),
                           series.scale_argument(e, c.conjugate()), "add")
        assert np.all(np.abs(np.sin(f.coeff.ph)) < 1e-12)

        def g(th):
            z = r * np.exp(1j * th)
            return ln_abs_exp_sum(c * z, c.conjugate() * z)

        want = dense_peak(g)
        got, angle = series._max_modulus(f, math.log(r))
        assert abs(got - want) <= 1e-13 * want
        assert abs(abs(angle) - 0.9) < 0.1 or abs(abs(angle - 2 * np.pi)
                                                  - 0.9) < 0.1
        assert g(np.array([angle]))[0] == pytest.approx(want, rel=1e-13)


    @pytest.mark.parametrize("r", [1.0, 1.3])
    def test_steps_stay_in_their_brackets(self, monkeypatch, r):
        # p(w) = sum_{j<8} w^j / j! at w = (e^{0.047 i} z)^32: 32 equal
        # peaks two seed steps apart, so Newton steps from the seed's
        # local maxima overshoot; every angle read stays within one seed
        # step of its pick, and ln M is ln p(r^32)
        coeffs = np.zeros(32 * 7 + 1, dtype=complex)
        for j in range(8):
            coeffs[32 * j] = np.exp(0.047j * 32 * j) / math.factorial(j)
        f = series.builtin("poly", coeffs=list(coeffs))
        reads, sums = [], series._evalcore._poly_at_points_d

        def logged(t, x):
            reads.append(np.angle(x))
            return sums(t, x)

        monkeypatch.setattr(series._evalcore, "_poly_at_points_d", logged)
        got = series.log_max_modulus(f, math.log(r))
        want = math.log(sum(r ** (32 * j) / math.factorial(j)
                            for j in range(8)))
        assert abs(got - want) <= 1e-13 * max(1.0, want)
        h = 2.0 * np.pi / series._PEAK_SEED
        picks = reads[0]
        for angles in reads[1:]:
            apart = np.abs(np.angle(np.exp(1j * (angles[:, None]
                                                 - picks[None, :]))))
            assert np.all(apart.min(axis=1) <= h * (1.0 + 1e-9))

def order_ten_series():
    """16,384 terms with ln|a_n| = -ln Gamma(n/10 + 1) and random phases:
    an order-10 series whose d bands widen from 62 to 4,993 terms over
    radii 0.42 .. 1.87 (its trusted radius is 1.877)."""
    lh = -np.array([math.lgamma(k / 10 + 1) for k in range(1 << 14)])
    ph = np.random.default_rng(3).uniform(-np.pi, np.pi, len(lh))
    return series.make_series(lh, ph, math.log(3e-16), "order 10")


def exp_cz_sum():
    c = 1.2 * np.exp(0.9j)
    e = series.builtin("exp", 400)
    return series.combine(series.scale_argument(e, c),
                          series.scale_argument(e, c.conjugate()), "add")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridSearch:
    """log_max_modulus over a grid of radii in one pass."""

    @pytest.mark.parametrize("make,lo,hi,k", [
        pytest.param(lambda: series.builtin("exp", 400), 0.5, 50.0, 24,
                     id="exp"),
        pytest.param(lambda: series.scale_argument(series.builtin("exp", 220),
                                                   2.0), 1.0, 40.0, 24,
                     id="exp_2z"),
        pytest.param(lambda: series.builtin("cos", 400), 0.2, 45.0, 17,
                     id="cos"),
        pytest.param(exp_cz_sum, 1.0, 30.0, 9, id="conjugate_maxima"),
        pytest.param(order_ten_series, 0.42, 1.87, 20, id="order_ten")])
    def test_each_radius_reads_alike_alone_and_in_the_grid(self, make, lo,
                                                           hi, k):
        f = make()
        grid = np.log(np.geomspace(lo, hi, k))
        ln_m, theta = series._max_modulus(f, grid)
        assert ln_m.shape == theta.shape == (k,)
        assert series.log_max_modulus(f, grid).tobytes() == ln_m.tobytes()
        for lr, got_m, got_theta in zip(grid.tolist(), ln_m, theta):
            alone = series._max_modulus(f, lr)
            assert isinstance(alone[0], float)
            assert (alone[0], alone[1]) == (got_m, got_theta)
            assert series.log_max_modulus(f, lr) == got_m
        # and in any sub-grid, here every other radius
        sub = series._max_modulus(f, grid[1::2])
        assert sub[0].tobytes() == ln_m[1::2].tobytes()
        assert sub[1].tobytes() == theta[1::2].tobytes()

    def test_grid_bands_span_60_to_4840_terms(self):
        f = order_ten_series()
        lo, hi, _, _ = series._evalcore._bands_d(
            f.coeff, np.log(np.geomspace(0.42, 1.87, 20)))
        width = hi - lo
        assert width.min() <= 62 and width.max() >= 4840

    def test_zero_radius_is_ln_abs_a0(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp = series.builtin("exp", 400)
            assert series.log_max_modulus(exp, -math.inf) == 0.0
            p = series.builtin("poly", coeffs=[-2.5, 1.0, 3.0])
            assert series._max_modulus(p, -math.inf) == (math.log(2.5), 0.0)
            grid = np.array([-math.inf, 0.0, math.log(7.0)])
            got = series.log_max_modulus(exp, grid)
            assert got[0] == 0.0
            assert got[1:].tolist() == [series.log_max_modulus(exp, lr)
                                        for lr in grid[1:].tolist()]

    @pytest.mark.parametrize("name,coeffs", [("sin", None),
                                             ("poly", [0.0, 1.0])])
    def test_zero_radius_with_a0_zero_raises(self, name, coeffs):
        f = series.builtin(name, 400, coeffs=coeffs)
        with pytest.raises(series.DegenerateSeriesError, match="a_0 = 0"):
            series.log_max_modulus(f, -math.inf)

    @pytest.mark.parametrize("grid,bad", [
        ([math.nan], "nan"), ([0.0, math.nan, 1.0], "nan"),
        ([0.0, math.inf], "inf"), ([1.0, 0.5, 2.0], "0.5"),
        ([0.0, 0.0], "index 1"), ([-math.inf, -math.inf], "-inf")])
    def test_bad_grid_raises_before_any_search(self, monkeypatch, grid,
                                               bad):
        def no_search(*args):
            raise AssertionError("searched a bad grid")

        monkeypatch.setattr(series, "_search", no_search)
        f = series.builtin("exp", 400)
        with pytest.raises(ValueError, match="radius ln r = .*" + bad):
            series.log_max_modulus(f, np.array(grid))

    def test_zero_series_raises(self):
        f = series.builtin("poly", coeffs=[0.0, 0.0])
        with pytest.raises(series.DegenerateSeriesError, match="vanish"):
            series.log_max_modulus(f, np.log([1.0, 2.0]))

    def test_nan_radius_fails_check_radius(self):
        with pytest.raises(ValueError, match="nan"):
            series.builtin("exp", 400).check_radius(math.nan)


class TestDerivative:
    def test_derivative_of_exp(self):
        f = series.builtin("exp", 50)
        d = series.derivative(f)
        for n in range(45):
            assert coeff_value(d, n) == pytest.approx(coeff_value(f, n),
                                                      rel=1e-13)

    def test_derivative_of_sin_is_cos(self):
        d = series.derivative(series.builtin("sin", 50))
        c = series.builtin("cos", 49)
        for n in range(49):
            assert coeff_value(d, n) == pytest.approx(coeff_value(c, n),
                                                      rel=1e-13, abs=1e-300)

    def test_derivative_of_cube(self):
        d = series.derivative(series.builtin("poly", coeffs=[0, 0, 0, 2.0]))
        assert coeff_value(d, 2) == pytest.approx(6.0)
        assert d.n_terms == 3


class TestCombine:
    def test_exp_minus_exp_is_zero(self):
        f = series.builtin("exp", 30)
        g = series.combine(f, f, "sub")
        assert not np.any(np.isfinite(g.coeff.lh))

    def test_exp_times_exp(self):
        f = series.builtin("exp", 40)
        g = series.combine(f, f, "cauchy_product")
        for n in range(40):
            want = 2.0 ** n / math.factorial(n)
            assert coeff_value(g, n) == pytest.approx(want, rel=1e-12)

    def test_pythagorean_identity(self):
        s = series.builtin("sin", 40)
        c = series.builtin("cos", 40)
        s2 = series.combine(s, s, "cauchy_product")
        c2 = series.combine(c, c, "cauchy_product")
        one = series.combine(s2, c2, "add")
        assert coeff_value(one, 0) == pytest.approx(1.0, rel=1e-14)
        mags = np.exp(one.coeff.lh[1:], where=np.isfinite(one.coeff.lh[1:]),
                      out=np.zeros(39))
        assert np.all(mags < 1e-12)

    def test_product_truncates_to_min_length(self):
        f = series.builtin("exp", 100)
        g = series.builtin("poly", coeffs=[1.0, 2.0])
        assert series.combine(f, g, "cauchy_product").n_terms == 2

    def test_sub_keeps_union_length(self):
        f = series.builtin("exp", 100)
        g = series.builtin("poly", coeffs=[0.0, 1.0])
        h = series.combine(f, g, "sub")
        assert h.n_terms == 100
        assert coeff_value(h, 1) == pytest.approx(0.0, abs=1e-15)
        assert coeff_value(h, 2) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("nf,ng,n_out", [
        (7, 40, 46), (40, 7, 46), (25, 25, 49),     # full convolutions
        (7, 40, 20), (40, 7, 5), (25, 25, 25),      # truncated
        (1, 30, 30), (30, 1, 30), (60, 900, 959), (900, 60, 959)])
    def test_cauchy_logpolar_bytes_match_loop_over_g(self, nf, ng, n_out):
        """Looping over f's indices from the top down gives the same bytes
        as a loop over g's indices, whichever factor is shorter."""
        rng = np.random.default_rng(1000 * nf + ng + n_out)

        def logpolar(n):
            logs = rng.normal(scale=30.0, size=n)
            logs[rng.random(n) < 0.3] = -np.inf
            return logs, rng.uniform(-np.pi, np.pi, size=n)

        lf, pf = logpolar(nf)
        lg, pg = logpolar(ng)
        got = series._cauchy_logpolar(lf, pf, lg, pg, n_out)
        want = _cauchy_loop_over_g(lf, pf, lg, pg, n_out)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_scale_argument(self):
        f = series.builtin("exp", 30)
        g = series.scale_argument(f, 2.0)  # e^{2z}
        for n in range(30):
            assert coeff_value(g, n) == pytest.approx(
                2.0 ** n / math.factorial(n), rel=1e-12)


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("nf,ng,n_out", [(7, 40, 46), (40, 7, 20),
                                         (25, 25, 25), (1, 30, 30),
                                         (0, 5, 5)])
def test_max_plus_is_the_pair_maximum(nf, ng, n_out, integer):
    """_max_plus against the maximum over every pair k + m = i, on floats
    and on integer exponents (the integer Cauchy product's case), with
    absent terms at -inf."""
    rng = np.random.default_rng(100 * nf + ng + integer)

    def logs(n):
        v = rng.normal(scale=3000.0, size=n)
        v = np.round(v) if integer else v
        v[rng.random(n) < 0.3] = -np.inf
        return v

    lf, lg = logs(nf), logs(ng)
    want = np.full(n_out, -np.inf)
    for k in range(nf):
        for m in range(ng):
            if k + m < n_out:
                want[k + m] = max(want[k + m], lf[k] + lg[m])
    got, outer = series._max_plus(lf, lg, n_out)
    assert np.array_equal(got, want)
    assert outer == [k for k in range(min(nf, n_out) - 1, -1, -1)
                     if np.isfinite(lf[k])]


class TestCauchyFixed:
    """The integer Cauchy product against an mpc fsum at dps + 20 digits
    on the same inputs, to the bound of its docstring: the final rounding
    to P + 1 bits, 2^-P (1 + 2^-P) of each product's modulus for the
    inputs' rounding to P + 1 bits, and 2^(-2P-13) of the largest product
    per product and component for the sum."""

    CASES = {
        "exp_cos": (lambda: (series.builtin("exp", 300),
                             series.builtin("cos", 300)), 38),
        "sin_sin": (lambda: (series.builtin("sin", 120),
                             series.builtin("sin", 120)), 57),
        "complex": (lambda: (series.scale_argument(series.builtin("exp", 80),
                                                   0.5 - 1.5j),
                             series.builtin("cos", 60)), 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_fsum(self, case):
        make, dps = self.CASES[case]
        f, g = make()
        raw = series._cauchy_fixed(f.coeff.mp_logs(dps), g.coeff.mp_logs(dps),
                                   dps)
        a, b = to_mpc(f.coeff.mp_logs(dps)), to_mpc(g.coeff.mp_logs(dps))
        got = to_mpc(raw)
        assert len(got) == min(len(a), len(b))
        bits = series._evalcore._exact_bits(dps)
        rounding = mp.mpf(2) ** -bits
        inputs = mp.mpf(2) ** -bits * (1 + mp.mpf(2) ** -bits)
        summing = 2 * mp.mpf(2) ** (-2 * bits - 13)
        with mp.workdps(dps + 20):
            for i, v in enumerate(got):
                terms = [a[k] * b[i - k] for k in range(i + 1)
                         if a[k] != 0 and b[i - k] != 0]
                if not terms:
                    assert raw[i] is None, i
                    continue
                ref = mp.fsum(terms)
                mods = [abs(t) for t in terms]
                assert abs(v - ref) <= (rounding * abs(ref)
                                        + inputs * mp.fsum(mods)
                                        + summing * len(mods) * max(mods)), i

    def test_is_the_product_factory(self):
        f, g = series.builtin("exp", 50), series.builtin("cos", 40)
        h = series.combine(f, g, "cauchy_product")
        want = series._cauchy_fixed(f.coeff.mp_logs(30), g.coeff.mp_logs(30),
                                    30)
        assert h.coeff.mp_logs(30) == want

    def test_band_read_forms_only_its_pairs(self, monkeypatch):
        # m(12.5, e^z cos z) reads the product's dd band, which ends at
        # index 126: no pair at index 128 or above is formed
        from growthlab import nevanlinna as nev
        lengths, product = [], series._cauchy_fixed

        def recorded(a, b, dps):
            lengths.append(min(len(a), len(b)))
            return product(a, b, dps)

        monkeypatch.setattr(series, "_cauchy_fixed", recorded)
        fg = series.combine(series.builtin("exp", 400),
                            series.builtin("cos", 400), "cauchy_product")
        res = nev.proximity_detailed(fg, math.log(12.5))
        assert (res.value, res.level) == (9.10063973796944, "dd")
        assert lengths and max(lengths) <= 128


class TestExactValues:
    """mp_logs(dps) of derived series against mpmath sums of the parents'
    exact coefficients, to 10^-(dps-5) of the summands' magnitudes."""

    DPS = 40

    @staticmethod
    def exact(name, n):
        with mp.workdps(TestExactValues.DPS + 20):
            inv = [1 / mp.factorial(k) for k in range(n)]
            if name == "exp":
                return [mp.mpc(v) for v in inv]
            # cos
            return [mp.mpc(0) if k % 2 else mp.mpc((-1) ** (k // 2) * v)
                    for k, v in enumerate(inv)]

    def check(self, f, want, scale=None):
        got = to_mpc(f.coeff.mp_logs(self.DPS))
        assert len(got) == len(want) == f.n_terms
        tol = mp.mpf(10) ** -(self.DPS - 5)
        with mp.workdps(self.DPS + 20):
            for i, (g, w) in enumerate(zip(got, want)):
                ref = abs(w) if scale is None else scale[i]
                assert abs(g - w) <= tol * ref, (i, g, w)

    def test_derivative(self):
        e = self.exact("exp", 60)
        with mp.workdps(self.DPS + 20):
            want = [(i + 1) * e[i + 1] for i in range(59)]
        self.check(series.derivative(series.builtin("exp", 60)), want)

    def test_scale_argument(self):
        c = mp.mpc(0.5, -1.5)
        cos = self.exact("cos", 60)
        with mp.workdps(self.DPS + 20):
            want = [v * c ** i for i, v in enumerate(cos)]
        self.check(series.scale_argument(series.builtin("cos", 60),
                                         complex(c)), want)

    @pytest.mark.parametrize("op", ["add", "sub", "cauchy_product"])
    def test_combine(self, op):
        a, b = self.exact("exp", 60), self.exact("cos", 45)
        h = series.combine(series.builtin("exp", 60),
                           series.builtin("cos", 45), op)
        with mp.workdps(self.DPS + 20):
            if op == "cauchy_product":
                terms = [[a[k] * b[i - k] for k in range(i + 1)]
                         for i in range(45)]
            else:
                sign = -1 if op == "sub" else 1
                terms = [[a[i], sign * (b[i] if i < 45 else 0)]
                         for i in range(60)]
            want = [mp.fsum(t) for t in terms]
            scale = [mp.fsum(abs(x) for x in t) for t in terms]
        self.check(h, want, scale)

    def test_poly_values_are_exact(self):
        cs = [1.0, -2.5j, 0.0, 3 + 4j]
        got = series.builtin("poly", coeffs=cs).coeff.mp_logs(self.DPS)
        assert to_mpc(got) == [mp.mpc(c) for c in cs]

    def test_ode_solution(self):
        from growthlab import ode
        e = self.exact("exp", 80)
        eq = ode.LinearODE(2, (series.builtin("exp", 80),
                               series.builtin("poly", coeffs=[0.0])))
        init = (0.3 + 0.1j, -0.7)
        sol = ode.solve_series(eq, ode.InitialData(init), 80)
        # f'' + e^z f = 0: c_{n+2} (n+1)(n+2) = -sum_m e_m c_{n-m}
        with mp.workdps(self.DPS + 20):
            c = [mp.mpc(init[0]), mp.mpc(init[1])]
            for n in range(78):
                s = mp.fsum(e[m] * c[n - m] for m in range(n + 1))
                c.append(-s / ((n + 1) * (n + 2)))
        self.check(sol, c)

    def test_one_cache_entry_serves_lower_dps(self):
        f = series.builtin("poly", coeffs=[1.0, 2.0, 3.0])
        calls = []
        factory = f.coeff.mp_factory
        f.coeff.mp_factory = lambda dps, n: (calls.append((dps, n))
                                             or factory(dps, n))
        vals = f.coeff.mp_logs(50)
        assert f.coeff.mp_logs(30) is vals
        assert f.coeff.mp_logs(50, 2) == vals[:2]
        # derived series read their parent through the same cache
        series.derivative(f).coeff.mp_logs(45)
        series.scale_argument(f, 2.0).coeff.mp_logs(50, 1)
        assert calls == [(50, 3)]
        f.coeff.mp_logs(60)
        assert calls == [(50, 3), (60, 3)]

    def test_entry_keeps_its_depth_and_length(self):
        # a request outside the entry replaces it by one that also holds
        # the entry's own depth and length
        from growthlab import ode
        eq = ode.LinearODE(2, (series.builtin("exp", 80),
                               series.builtin("poly", coeffs=[0.0])))
        sol = ode.solve_series(eq, ode.InitialData((1.0, 0.5)), 80)
        calls = []
        factory = sol.coeff.mp_factory
        sol.coeff.mp_factory = lambda dps, n: (calls.append((dps, n))
                                               or factory(dps, n))
        sol.coeff.mp_logs(40, 30)
        sol.coeff.mp_logs(30, 20)
        sol.coeff.mp_logs(30, 50)
        sol.coeff.mp_logs(45, 10)
        sol.coeff.mp_logs(45, 50)
        assert calls == [(40, 30), (40, 50), (45, 50)]
        assert sol.coeff.mp_logs(45, 50) == factory(45, 50)


def _exact_value_kinds():
    """One fresh series per kind of mp_factory, by name."""
    from growthlab import ode

    def exp(n=60):
        return series.builtin("exp", n)

    def march(init=(0.3 + 0.1j, -0.7)):
        eq = ode.LinearODE(2, (series.builtin("exp", 80),
                               series.builtin("poly", coeffs=[0.0])))
        return ode.solve_series(eq, ode.InitialData(init), 80)

    def combination():
        eq = ode.LinearODE(2, (series.builtin("exp", 80),
                               series.builtin("poly", coeffs=[0.0])))
        basis = [ode.solve_series(eq, ode.InitialData.basis(2, i), 80)
                 for i in range(2)]
        return ode.basis_combination(eq, basis,
                                     ode.InitialData((0.3 + 0.1j, -0.7)))

    return {
        "exp": exp,
        "sin": lambda: series.builtin("sin", 60),
        "cos": lambda: series.builtin("cos", 60),
        "exp_exp": lambda: series.builtin("exp_exp", 60),
        "poly": lambda: series.builtin("poly", coeffs=[1.0, -2.5j, 0.0,
                                                       3 + 4j, 0.5]),
        "derivative": lambda: series.derivative(exp()),
        "scale_argument": lambda: series.scale_argument(exp(), 0.3 - 0.7j),
        "add": lambda: series.combine(exp(), series.builtin("cos", 45),
                                      "add"),
        "sub": lambda: series.combine(exp(45), series.builtin("cos", 60),
                                      "sub"),
        "cauchy_product": lambda: series.combine(
            exp(), series.builtin("cos", 45), "cauchy_product"),
        "integer_march": march,
        "basis_combination": combination,
        "logs": lambda: series.make_series(exp().coeff.lh, exp().coeff.ph,
                                           -30.0, "no factory"),
    }


@pytest.mark.parametrize("kind", sorted(_exact_value_kinds()))
@pytest.mark.parametrize("n", [1, 3, 23])
def test_prefix_read_is_the_full_reads_prefix(kind, n):
    # each factory is prefix-exact: the first n values, read alone from an
    # empty entry, are the bytes of a full read's first n, at a depth past
    # the builtins' own entry (50 digits)
    f = _exact_value_kinds()[kind]()
    f.coeff._mp_entry = None
    prefix = f.coeff.mp_logs(60, n)
    assert len(prefix) == min(n, f.n_terms)
    f.coeff._mp_entry = None
    assert prefix == f.coeff.mp_logs(60)[:n]


class TestCertifiedRadius:
    def test_polynomials_certified_everywhere(self):
        f = series.builtin("poly", coeffs=[1.0, 0.0, 3.0])
        assert f.guaranteed_radius == math.inf

    @pytest.mark.parametrize("coeffs", [[1, 1, 1, 1], [1, 2, 3, 4, 5]])
    def test_polynomials_read_at_r_100(self, coeffs):
        # no tail extrapolation: the trusted radius is inf, and ln M(100)
        # is ln p(100), all coefficients being positive
        f = series.builtin("poly", coeffs=coeffs)
        assert f.guaranteed_radius == math.inf
        want = math.log(sum(c * 100.0 ** n for n, c in enumerate(coeffs)))
        lr = math.log(100.0)
        assert series.log_max_modulus(f, lr) == pytest.approx(want,
                                                               rel=1e-15)
        assert series.evaluate(f, (lr, 0.0))[0] == pytest.approx(want,
                                                                 rel=1e-15)

    def test_sums_of_polynomials_skip_extrapolation(self, monkeypatch):
        p = series.builtin("poly", coeffs=[1, 2, 3, 4, 5])
        q = series.builtin("poly", coeffs=[0, 1, 0, 0, 0, 0, 7])

        def refuse(lh):
            raise AssertionError("extrapolated the radius of a polynomial")

        monkeypatch.setattr(series, "_certify_radius", refuse)
        for op in ("add", "sub"):
            assert series.combine(p, q, op).guaranteed_radius == math.inf
        with pytest.raises(AssertionError):
            series.combine(p, q, "cauchy_product")

    def test_exp_400_covers_100(self):
        f = series.builtin("exp", 400)
        assert f.guaranteed_radius > 100.0

    @pytest.mark.parametrize("name,n_terms", [("cos", 200), ("sin", 201),
                                              ("cos", 201), ("sin", 200)])
    def test_lacunary_builtin_ending_on_a_zero_is_not_a_polynomial(
            self, name, n_terms):
        # cos 200 and sin 201 store a structural zero last; they take the
        # radius their last nonzero terms give, as at the other parity
        f = series.builtin(name, n_terms)
        assert 90.0 < f.guaranteed_radius < 100.0

    @pytest.mark.parametrize("n_terms", [16, 17, 18, 64, 65, 66, 400])
    def test_every_airy_like_length_has_a_finite_radius(self, n_terms):
        f = series.builtin("airy_like", n_terms)
        assert 0.0 < f.guaranteed_radius < math.inf

    def test_residue_class_solution_is_not_trusted_everywhere(self):
        # f'' + z f = 0 from (0, 1) keeps only the indices = 1 mod 3, so its
        # 256 terms end on two zeros; ln M(100) read from them would be
        # 396.4, against 665.1 from 8,192 terms
        from growthlab import ode
        eq = ode.LinearODE(2, (series.builtin("poly", coeffs=[0.0, 1.0]),
                               series.builtin("poly", coeffs=[0.0])))
        sol = ode.solve_series(eq, ode.InitialData((0.0, 1.0)), 256)
        assert not math.isfinite(sol.coeff.lh[-1])
        assert 0.0 < sol.guaranteed_radius < 100.0
        with pytest.raises(series.TruncationError):
            series.log_max_modulus(sol, math.log(100.0))

    def test_solve_airy_from_zero_value_reports_a_finite_radius(self):
        from growthlab import harness
        cfg = harness.shipped_config("solve_airy")
        cfg["init"] = [0.0, 1.0]
        got = {c.name: c.measured for c in harness.run_config(cfg).checks}
        assert got["n_terms"] == 64
        assert 0.0 < got["certified_radius"] < math.inf

    def test_tail_certificate_honest(self):
        # at the certified radius the dropped tail is below _TAIL_TOL * mu
        f = series.builtin("exp", 60)
        r = f.guaranteed_radius
        with mp.workdps(40):
            tail = sum(mp.mpf(r) ** n / mp.factorial(n)
                       for n in range(60, 200))
        mu = math.exp(series.max_term(f, math.log(r)).log_mu)
        assert float(tail) < 10.0 * series._TAIL_TOL * mu


class TestDumpCsv:
    def test_csv_round_trip(self, tmp_path):
        f = series.builtin("sin", 8)
        path = tmp_path / "sin.csv"
        series.dump_csv(f, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,ln_abs,arg"
        assert len(lines) == 9
        n, ln_abs, arg = lines[2].split(",")
        assert n == "1" and float(ln_abs) == 0.0

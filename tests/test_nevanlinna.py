"""Proximity/characteristic quadrature and argument-principle counting."""

import math

import mpmath as mp
import numpy as np
import pytest

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


class TestProximity:
    def test_exp_closed_form(self):
        # m(r, e^z) = (1/2pi) int_{-pi/2}^{pi/2} r cos = r/pi
        f = series.builtin("exp", 400)
        for r in [math.pi, 10.0]:
            assert nev.proximity(f, math.log(r)) == pytest.approx(
                r / math.pi, abs=1e-9 * r)

    def test_small_constant_gives_zero(self):
        c = series.builtin("poly", coeffs=[0.5])
        assert nev.proximity(c, math.log(7.0)) == 0.0

    def test_big_constant(self):
        c = series.builtin("poly", coeffs=[3.0])
        assert nev.proximity(c, math.log(7.0)) == pytest.approx(math.log(3.0))

    def test_exp_at_100_needs_mp(self):
        f = series.builtin("exp", 400)
        det = nev.proximity_detailed(f, math.log(100.0))
        assert det.level == "mp"
        assert det.value == pytest.approx(100.0 / math.pi, abs=1e-6 * 100)

    def test_cos_against_brute_oracle(self):
        f = series.builtin("cos", 300)
        want = brute_proximity(mp.cos, 6.0)
        assert nev.proximity(f, math.log(6.0)) == pytest.approx(want,
                                                               abs=2e-6)

    def test_characteristic_is_proximity_for_entire(self):
        f = series.builtin("exp", 300)
        lr = math.log(8.0)
        assert nev.characteristic_entire(f, lr) == nev.proximity(f, lr)

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
            assert nev.proximity(fg, lr) <= nev.proximity(f, lr) \
                + nev.proximity(g, lr) + math.log(2.0) + 1e-6


class TestZeroCount:
    def test_sin_count_formula(self):
        f = series.builtin("sin", 200)
        for r in [4.0, 10.0, 20.0]:
            assert nev.zero_count(f, math.log(r), zero_margin="auto") \
                == 2 * int(r / math.pi) + 1

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
        lo, hi = sorted(err.value.suggested_log_radii)
        assert lo < 0.0 < hi

    def test_count_grid_applies_retry(self):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        data = nev.count_zeros_grid(f, [0.5, 1.0, 2.0])
        assert data.counts == (0, 3, 3) or data.counts == (0, 0, 3)
        assert data.count_at_zero == 0

    def test_count_grid_retries_around_nominal_radius(self, monkeypatch):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        tried = []

        def flaky(f, log_r, **kw):
            tried.append(log_r)
            if len(tried) < 3:
                raise nev.RetryPerturbedRadius(log_r)
            return 3

        monkeypatch.setattr(nev, "zero_count", flaky)
        data = nev.count_zeros_grid(f, [2.0], retry_step=2e-3)
        ln2 = math.log(2.0)
        assert tried == [ln2, ln2 + math.log1p(2e-3), ln2 + math.log1p(-2e-3)]
        assert data.radii == (math.exp(tried[-1]),)
        assert data.counts == (3,)

    def test_count_grid_keeps_radii_increasing_on_tight_grid(self,
                                                              monkeypatch):
        f = series.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
        tried = []

        def flaky(f, log_r, **kw):
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

    def test_integrated_count_zero_function(self):
        data = nev.CountingData((1.0, 10.0), (0, 0))
        assert nev.integrated_count(data, math.log(5.0)) == 0.0

    def test_single_zero_log_growth(self):
        a = 2.0
        data = nev.CountingData((a, 50.0), (1, 1))
        for r in [3.0, 10.0, 49.0]:
            assert nev.integrated_count(data, math.log(r)) == pytest.approx(
                math.log(r / a))

    def test_beyond_data_is_error(self):
        data = nev.CountingData((1.0, 2.0), (0, 1))
        with pytest.raises(ValueError):
            nev.integrated_count(data, math.log(5.0))

    def test_sin_jensen_sum_oracle(self):
        # data built at the true zero radii k*pi: N(20) must equal
        # sum log(20/(k pi)) over |k| <= 6, plus log 20 for the origin
        radii, counts = [], []
        n = 1
        for k in range(1, 7):
            radii.append(k * math.pi)
            n += 2
            counts.append(n)
        radii.append(20.0)
        counts.append(n)  # no further zeros until r = 20
        data = nev.CountingData(tuple(radii), tuple(counts), count_at_zero=1)
        want = sum(2 * math.log(20.0 / (k * math.pi)) for k in range(1, 7)) \
            + math.log(20.0)
        got = nev.integrated_count(data, math.log(20.0))
        assert got == pytest.approx(want, abs=1e-9)

    def test_csv(self, tmp_path):
        data = nev.CountingData((1.0, 2.0, 4.0), (0, 1, 3))
        p = tmp_path / "counts.csv"
        data.to_csv(str(p))
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "r,n,N"
        assert len(lines) == 4


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
            big_n = nev.integrated_count(data, min(lr, math.log(
                data.radii[-1])))
            assert nev.characteristic_entire(f, lr) >= big_n - 1.0

    def test_one_plus_z_squared(self):
        f = series.builtin("poly", coeffs=[1.0, 0.0, 1.0])
        data = nev.count_zeros_grid(f, [0.5, 1.5, 4.0, 30.0])
        assert data.counts[-1] == 2
        lr = math.log(30.0)
        assert nev.characteristic_entire(f, lr) >= \
            nev.integrated_count(data, lr) - 1.0


class TestWindingIntegrality:
    def test_winding_is_integer_grade(self):
        # raw winding within 1e-6 of an integer whenever a count returns
        f = series.builtin("sin", 200)
        for r in [5.0, 12.0]:
            n = nev.zero_count(f, math.log(r), zero_margin="auto")
            assert isinstance(n, int)


class TestProximityOfRatio:
    def test_exp_ratio_is_zero(self):
        # f'/f = 1 for exp: log+ |1| = 0
        f = series.builtin("exp", 200)
        fp = series.derivative(f)
        assert nev.proximity_of_ratio(fp, f, math.log(9.0)) \
            == pytest.approx(0.0, abs=1e-9)

    def test_cot_stays_small(self):
        s = series.builtin("sin", 200)
        c = series.builtin("cos", 200)
        val = nev.proximity_of_ratio(c, s, math.log(12.0))
        assert 0.0 <= val < 0.5

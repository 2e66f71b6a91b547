"""Growth estimators, calibrated on closed-form profiles and real series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import growth, nevanlinna as nev, scale, series


def idt():
    return scale.ScaleTriple(scale.identity(), scale.identity(),
                             scale.identity())


def hyper():
    return scale.ScaleTriple(scale.log_plus(), scale.identity(),
                             scale.identity())


def exp_profile():
    return growth.profile_from_descriptor(
        {"name": "exp", "log_T": {"form": "ln_c_rp", "c": 1 / math.pi,
                                  "p": 1.0},
         "log2_M": {"form": "ln_c_rp", "c": 1.0, "p": 1.0}})


class TestSampling:
    def test_profile_log_t(self):
        s = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 100, 8))
        assert s.values[0] == pytest.approx(math.log(5 / math.pi))

    def test_series_log2_m_exp(self):
        f = series.builtin("exp", 400)
        s = growth.sample(f, "log2_M", growth.make_grid(5, 50, 8))
        assert np.allclose(s.values, np.log(s.radii), atol=1e-9)

    def test_too_few_radii_rejected(self):
        p = exp_profile()
        with pytest.raises(ValueError):
            growth.sample(p, "log_T", np.array([0.1, 0.2]))

    def test_series_log2_m_is_one_grid_search(self, monkeypatch):
        grids, search = [], series.log_max_modulus

        def logged(f, log_r):
            grids.append(np.array(log_r))
            return search(f, log_r)

        monkeypatch.setattr(growth, "log_max_modulus", logged)
        f = series.builtin("exp", 400)
        grid = growth.make_grid(5, 50, 8)
        s = growth.sample(f, "log2_M", grid)
        (searched,) = grids
        assert searched.tolist() == [math.log(r) for r in grid]
        assert s.values.tolist() == [math.log(series.log_max_modulus(
            f, math.log(r))) for r in grid]

    @pytest.mark.parametrize("quantity", ["log2_M", "log_T"])
    @pytest.mark.parametrize("grid,bad", [
        ([1.0, math.nan, 3.0], "nan"), ([1.0, 2.0, math.inf], "inf"),
        ([-1.0, 2.0, 3.0], "-1.0"), ([0.0, 1.0, 2.0], "0.0"),
        ([3.0, 2.0, 4.0], "2.0")])
    def test_bad_series_grid_raises_before_any_evaluation(
            self, monkeypatch, quantity, grid, bad):
        def no_evaluation(*args):
            raise AssertionError("evaluated a bad grid")

        monkeypatch.setattr(growth, "log_max_modulus", no_evaluation)
        monkeypatch.setattr(growth, "characteristic_entire", no_evaluation)
        with pytest.raises(ValueError, match=f"radius {bad} "):
            growth.sample(series.builtin("exp", 400), quantity,
                          np.array(grid))


class TestOrderCalibration:
    def test_exp_order_is_one(self):
        s = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 1e3, 48))
        up = growth.estimate_order(s, idt(), "upper")
        lo = growth.estimate_order(s, idt(), "lower")
        assert 0.95 <= lo.value <= up.value <= 1.05

    def test_polynomial_order_near_zero(self):
        p = growth.profile_from_descriptor(
            {"name": "z3", "log_T": {"form": "ln_c_lnr", "c": 3.0}})
        s = growth.sample(p, "log_T", growth.make_grid(10, 1e6, 48))
        assert growth.estimate_order(s, idt(), "upper").value < 0.1

    def test_exp_exp_hyper_order(self):
        p = growth.profile_from_descriptor(
            {"name": "ee", "log2_M": {"form": "r"}})
        s = growth.sample(p, "log2_M", growth.make_grid(4, 50, 48))
        est = growth.estimate_order(s, hyper(), "upper")
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_classical_recovery_from_series(self):
        # (id,id,id) = classical order; (log_plus,id,id) = hyper-order
        f = series.builtin("exp", 400)
        s = growth.sample(f, "log2_M", growth.make_grid(5, 100, 32))
        assert growth.estimate_order(s, idt(), "upper").value \
            == pytest.approx(1.0, abs=0.02)
        # the hyper-order of a finite-order function is 0; at desk radii the
        # estimate decays like 1/log r, so only smallness is asserted
        assert growth.estimate_order(s, hyper(), "upper").value < 0.3

    @pytest.mark.parametrize("name", ["exp", "cos"])
    def test_m_form_and_t_form_agree(self, name):
        # both routes of the order definition, within 0.1
        f = series.builtin(name, 400)
        grid = growth.make_grid(10, 80, 10)
        s_m = growth.sample(f, "log2_M", grid)
        s_t = growth.sample(f, "log_T", grid)
        v_m = growth.estimate_order(s_m, idt(), "upper").value
        v_t = growth.estimate_order(s_t, idt(), "upper").value
        assert abs(v_m - v_t) < 0.1

    def test_wrapped_routes_agree_for_exp_exp_profile(self):
        # doubly exponential calibration profile: the log-wrapped order from
        # the characteristic route matches the max-modulus route within 0.1
        p = growth.profile_from_descriptor(
            {"name": "ee", "log2_M": {"form": "r"},
             "log_T": {"form": "r_adj"}})
        grid = growth.make_grid(4, 40, 32)
        w = idt().wrapped()
        v_m = growth.estimate_order(growth.sample(p, "log2_M", grid),
                                    w, "upper").value
        v_t = growth.estimate_order(growth.sample(p, "log_T", grid),
                                    w, "upper").value
        assert abs(v_m - 1.0) < 0.05 and abs(v_t - v_m) < 0.1

    def test_upper_ge_lower_always(self):
        rng = np.random.default_rng(11)
        radii = np.geomspace(5, 500, 24)
        for _ in range(20):
            vals = np.cumsum(rng.uniform(0.01, 1.0, 24))  # increasing
            s = growth.GrowthSample("log_T", radii, vals)
            up = growth.estimate_order(s, idt(), "upper").value
            lo = growth.estimate_order(s, idt(), "lower").value
            assert up >= lo - 1e-12

    def test_degenerate_denominator(self):
        s = growth.GrowthSample("log_T", np.array([0.1, 0.2, 0.3]),
                                np.array([1.0, 2.0, 3.0]))
        with pytest.raises(growth.DegenerateScaleError):
            growth.estimate_order(s, idt(), "upper")


class TestTypeCalibration:
    def test_exp_m_form_type_one(self):
        s = growth.sample(exp_profile(), "log2_M", growth.make_grid(5, 1e3, 48))
        t = growth.estimate_type(s, idt(), 1.0, "upper")
        assert t.value == pytest.approx(1.0, abs=1e-9)

    def test_exp_t_form_type_inv_pi(self):
        s = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 1e3, 48))
        t = growth.estimate_type(s, idt(), 1.0, "upper")
        assert t.value == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_type_separates_doubled_scale(self):
        p1 = growth.profile_from_descriptor(
            {"name": "T=e^r", "log_T": {"form": "c_rp", "c": 1.0, "p": 1.0}})
        p2 = growth.profile_from_descriptor(
            {"name": "T=e^2r", "log_T": {"form": "c_rp", "c": 2.0, "p": 1.0}})
        grid = growth.make_grid(5, 60, 32)
        t1 = growth.estimate_type(growth.sample(p1, "log_T", grid),
                                  hyper(), 1.0, "upper")
        t2 = growth.estimate_type(growth.sample(p2, "log_T", grid),
                                  hyper(), 1.0, "upper")
        assert t1.value == pytest.approx(1.0, abs=1e-9)
        assert t2.value == pytest.approx(2.0, abs=1e-9)

    def test_type_needs_finite_positive_order(self):
        s = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 50, 8))
        with pytest.raises(ValueError):
            growth.estimate_type(s, idt(), 0.0, "upper")


class TestLambda:
    def test_no_zeros_degenerate(self):
        data = nev.CountingData((1.0, 5.0, 25.0), (0, 0, 0))
        est = growth.estimate_lambda(data, idt())
        assert est.value == 0.0 and est.trend == "degenerate"

    def test_bounded_count_gives_zero(self):
        data = nev.CountingData(tuple(np.geomspace(2, 2000, 24)),
                                (3,) * 24)
        est = growth.estimate_lambda(data, idt(), mode="upper")
        assert abs(est.value) < 1e-12

    def test_sin_lambda_n_and_big_n(self):
        radii = np.geomspace(5, 200, 16)
        counts = tuple(2 * int(r / math.pi) + 1 for r in radii)
        data = nev.CountingData(tuple(radii), counts, 1)
        up = growth.estimate_lambda(data, idt(), mode="upper")
        lo = growth.estimate_lambda(data, idt(), mode="lower")
        assert 0.85 <= lo.value <= up.value <= 1.1

    def test_options_after_the_triple_are_keyword_only(self):
        # a positional third argument (once the n/N form) must not bind to
        # log_wrap
        data = nev.CountingData((1.0, 5.0, 25.0), (1, 2, 4))
        with pytest.raises(TypeError):
            growth.estimate_lambda(data, idt(), "n_based")


class TestCompare:
    def test_identical_samples(self):
        s = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 100, 16))
        assert growth.compare_characteristics(s, s) == pytest.approx(1.0)

    def test_grid_mismatch(self):
        s1 = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 100, 16))
        s2 = growth.sample(exp_profile(), "log_T", growth.make_grid(5, 90, 16))
        with pytest.raises(ValueError):
            growth.compare_characteristics(s1, s2)

    def test_equal_order_ratio_half(self):
        grid = growth.make_grid(100, 1e5, 32)
        p2 = growth.profile_from_descriptor(
            {"name": "2exp", "log_T": {"form": "ln_c_rp", "c": 2 / math.pi,
                                       "p": 1.0}})
        ratio = growth.compare_characteristics(
            growth.sample(exp_profile(), "log_T", grid),
            growth.sample(p2, "log_T", grid))
        assert 0.45 <= ratio <= 0.55


class TestSlopeInvariance:
    @given(st.floats(min_value=-0.4, max_value=50.0))
    @settings(max_examples=50)
    def test_constant_shift_in_alpha_space_cancels(self, c):
        # the tail-slope statistic is exactly invariant under v -> v + c
        # (as long as the shift keeps values above the identity freeze point)
        radii = np.geomspace(5, 500, 24)
        vals = np.log(radii / math.pi)
        s1 = growth.GrowthSample("log_T", radii, vals)
        s2 = growth.GrowthSample("log_T", radii, vals + c)
        v1 = growth.estimate_order(s1, idt(), "upper").value
        v2 = growth.estimate_order(s2, idt(), "upper").value
        assert v1 == pytest.approx(v2, abs=1e-12)

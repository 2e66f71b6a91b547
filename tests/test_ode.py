"""Series solver: recurrence correctness, linearity, residual certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import ode
from growthlab import series as ps


def coeff_value(f, n):
    L = f.coeff.lh[n]
    if not math.isfinite(L):
        return 0j
    return math.exp(L) * complex(math.cos(f.coeff.ph[n]),
                                 math.sin(f.coeff.ph[n]))


def exp_equation():
    # f' - f = 0
    return ode.LinearODE(1, (ps.builtin("poly", coeffs=[-1.0]),))


def oscillator():
    # f'' + f = 0
    return ode.LinearODE(2, (ps.builtin("poly", coeffs=[1.0]),
                             ps.builtin("poly", coeffs=[0.0])))


def airy_equation():
    # f'' - z f = 0
    return ode.LinearODE(2, (ps.builtin("poly", coeffs=[0.0, -1.0]),
                             ps.builtin("poly", coeffs=[0.0])))


def bessel_type_equation(n_a=200):
    # f'' + e^z f = 0
    return ode.LinearODE(2, (ps.builtin("exp", n_a),
                             ps.builtin("poly", coeffs=[0.0])))


class TestValidation:
    def test_order_and_coeff_count(self):
        with pytest.raises(ValueError):
            ode.LinearODE(0, ())
        with pytest.raises(ValueError):
            ode.LinearODE(2, (ps.builtin("poly", coeffs=[1.0]),))

    def test_trivial_solution_rejected(self):
        with pytest.raises(ValueError):
            ode.solve_series(oscillator(), ode.InitialData((0.0, 0.0)), 20)

    def test_init_length(self):
        with pytest.raises(ValueError):
            ode.solve_series(oscillator(), ode.InitialData((1.0,)), 20)


class TestRecurrence:
    def test_exp_defining_property(self):
        sol = ode.solve_series(exp_equation(), ode.InitialData((1.0,)), 30)
        for n in range(30):
            assert coeff_value(sol, n) == pytest.approx(
                1.0 / math.factorial(n), rel=1e-13)

    def test_sin_cos_reproduction_to_1e12(self):
        eq = oscillator()
        sin_sol = ode.solve_series(eq, ode.InitialData((0.0, 1.0)), 42)
        cos_sol = ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 42)
        sin_ref = ps.builtin("sin", 42)
        cos_ref = ps.builtin("cos", 42)
        for n in range(40):
            for sol, ref in ((sin_sol, sin_ref), (cos_sol, cos_ref)):
                a, b = coeff_value(sol, n), coeff_value(ref, n)
                if b == 0:
                    assert a == 0
                else:
                    assert abs(a - b) <= 1e-12 * abs(b)

    def test_airy_hand_recurrence(self):
        # c_{n+2} (n+2)(n+1) = c_{n-1}: c0=1, c2=0, c3=1/6, c6=1/180
        sol = ode.solve_series(airy_equation(), ode.InitialData((1.0, 0.0)),
                               40)
        assert coeff_value(sol, 0) == pytest.approx(1.0)
        assert coeff_value(sol, 2) == 0
        assert coeff_value(sol, 3) == pytest.approx(1 / 6, rel=1e-13)
        assert coeff_value(sol, 6) == pytest.approx(1 / 180, rel=1e-13)

    def test_inhomogeneous_rhs(self):
        # f' = 1 (A_0 = 0, F = 1): f = f(0) + z
        eq = ode.LinearODE(1, (ps.builtin("poly", coeffs=[0.0]),),
                           rhs=ps.builtin("poly", coeffs=[1.0]))
        sol = ode.solve_series(eq, ode.InitialData((2.0,)), 10)
        assert coeff_value(sol, 0) == pytest.approx(2.0)
        assert coeff_value(sol, 1) == pytest.approx(1.0)
        assert coeff_value(sol, 2) == 0

    def test_mp_march_matches_double(self):
        eq = bessel_type_equation(60)
        a = ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 300)
        b = ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 300, dps=40)
        both = np.isfinite(a.coeff.lh) & np.isfinite(b.coeff.lh)
        assert np.max(np.abs(a.coeff.lh[both] - b.coeff.lh[both])) < 1e-9


class TestLinearity:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_solution_map_is_linear(self, seed):
        rng = np.random.default_rng(seed)
        v1 = rng.normal(size=4)
        v2 = rng.normal(size=4)
        eq = oscillator()
        i1 = ode.InitialData((complex(v1[0], v1[1]), complex(v1[2], v1[3])))
        i2 = ode.InitialData((complex(v2[0], v2[1]), complex(v2[2], v2[3])))
        i12 = ode.InitialData((i1.values[0] + i2.values[0],
                               i1.values[1] + i2.values[1]))
        if all(v == 0 for v in i12.values):
            return
        s1 = ode.solve_series(eq, i1, 30)
        s2 = ode.solve_series(eq, i2, 30)
        s12 = ode.solve_series(eq, i12, 30)
        su = ps.combine(s1, s2, "add")
        for n in range(30):
            a, b = coeff_value(su, n), coeff_value(s12, n)
            scale = max(abs(coeff_value(s1, n)), abs(coeff_value(s2, n)),
                        abs(b), 1e-280)
            assert abs(a - b) <= 1e-12 * scale


class TestFundamentalSystem:
    def test_oscillator_basis(self):
        sols = ode.fundamental_system(oscillator(), 40)
        assert coeff_value(sols[0], 0) == pytest.approx(1.0)  # cos-like
        assert coeff_value(sols[1], 1) == pytest.approx(1.0)  # sin-like

    def test_wronskian_at_origin(self):
        # f1 f2' - f1' f2 = 1 at z = 0 by construction of the basis
        sols = ode.fundamental_system(
            ode.LinearODE(2, (ps.builtin("exp", 60),
                              ps.builtin("poly", coeffs=[0.0]))), 60)
        f1_0 = coeff_value(sols[0], 0)
        f2p_0 = coeff_value(sols[1], 1)
        f1p_0 = coeff_value(sols[0], 1)
        f2_0 = coeff_value(sols[1], 0)
        assert f1_0 * f2p_0 - f1p_0 * f2_0 == pytest.approx(1.0, rel=1e-14)

    def test_needs_homogeneous(self):
        eq = ode.LinearODE(1, (ps.builtin("poly", coeffs=[0.0]),),
                           rhs=ps.builtin("poly", coeffs=[1.0]))
        with pytest.raises(ValueError):
            ode.fundamental_system(eq, 10)


class TestResidual:
    def test_exact_exp_solution(self):
        sol = ode.solve_series(exp_equation(), ode.InitialData((1.0,)), 60)
        assert ode.residual_norm(exp_equation(), sol, math.log(5.0)) < 1e-12

    def test_truncated_sin_is_bad(self):
        bad = ps.builtin("sin", 5)
        assert ode.residual_norm(oscillator(), bad, math.log(3.0)) > 1e-2

    def test_airy_200_terms(self):
        sol = ode.airy_like(200)
        assert ode.residual_norm(airy_equation(), sol, math.log(5.0)) < 1e-9

    def test_bessel_type_certificate(self):
        eq = bessel_type_equation()
        sol, info = ode.auto_solve(eq, ode.InitialData((1.0, 0.0)), 10.0,
                                   n_start=1 << 10, n_cap=1 << 13)
        assert info["residual"] < 1e-8
        assert info["certified_radius"] >= 10.0


class TestAutoSolve:
    def test_cap_binds_honestly(self):
        eq = bessel_type_equation()
        sol, info = ode.auto_solve(eq, ode.InitialData((1.0, 0.0)), 14.0,
                                   n_cap=1 << 12)
        assert info["capped"]
        assert info["certified_radius"] < 14.0

    def test_hyper_order_oracle(self):
        # the closed form through Bessel functions forces
        # log log M(r) / (r/2) -> 1 on the tail
        eq = bessel_type_equation()
        sol, info = ode.auto_solve(eq, ode.InitialData((1.0, 0.0)), 12.5,
                                   n_cap=1 << 14)
        r = min(12.5, info["certified_radius"] * 0.99)
        ratio = math.log(ps.log_max_modulus(sol, math.log(r))) / (r / 2.0)
        assert abs(ratio - 1.0) < 0.12

    # (r_max, n_cap, capped): certified at 512 terms, or capped at 1024
    CASES = [(6.0, 1 << 13, False), (14.0, 1 << 10, True)]

    @pytest.mark.parametrize("r_max,n_cap,capped", CASES)
    def test_result_is_the_fresh_march_of_its_length(self, r_max, n_cap,
                                                     capped):
        eq, init = bessel_type_equation(), ode.InitialData((1.0, 0.0))
        sol, info = ode.auto_solve(eq, init, r_max, n_start=64, n_cap=n_cap)
        assert info["capped"] == capped and info["n_terms"] > 64
        fresh = ode.solve_series(eq, init, info["n_terms"])
        assert sol.coeff.lh.tobytes() == fresh.coeff.lh.tobytes()
        assert sol.coeff.ph.tobytes() == fresh.coeff.ph.tobytes()

    @pytest.mark.parametrize("r_max,n_cap,capped", CASES)
    def test_residual_is_computed_once(self, monkeypatch, r_max, n_cap,
                                       capped):
        calls = []
        residual = ode.residual_norm

        def counted(eq, f, log_r):
            calls.append(f.n_terms)
            return residual(eq, f, log_r)

        monkeypatch.setattr(ode, "residual_norm", counted)
        eq, init = bessel_type_equation(), ode.InitialData((1.0, 0.0))
        sol, info = ode.auto_solve(eq, init, r_max, n_start=64, n_cap=n_cap)
        assert calls == [info["n_terms"]]

    @pytest.mark.parametrize("r_max,n_cap,capped", CASES)
    def test_each_index_is_marched_once(self, monkeypatch, r_max, n_cap,
                                        capped):
        spans = []
        march = ode._march_d

        def recorded(eq, init, n_terms, prev):
            spans.append((prev.n_terms if prev is not None else 0, n_terms))
            return march(eq, init, n_terms, prev)

        monkeypatch.setattr(ode, "_march_d", recorded)
        eq, init = bessel_type_equation(), ode.InitialData((1.0, 0.0))
        sol, info = ode.auto_solve(eq, init, r_max, n_start=64, n_cap=n_cap)
        assert len(spans) > 1
        assert spans[0][0] == 0 and spans[-1][1] == info["n_terms"]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


class TestResume:
    @pytest.mark.parametrize("n_prev", [4, 50, 200, 300])
    def test_resumed_march_matches_fresh(self, n_prev):
        eq = ode.LinearODE(3, (ps.builtin("exp", 40), ps.builtin("sin", 30),
                               ps.builtin("poly", coeffs=[0.0, 0.5])),
                           rhs=ps.builtin("cos", 20))
        init = ode.InitialData((0.3 + 0.1j, 0.0, -1.0))
        fresh = ode.solve_series(eq, init, 200)
        prev = ode.solve_series(eq, init, n_prev)
        got = ode.solve_series(eq, init, 200, _resume=prev)
        for a, b in ((got.coeff.lh, fresh.coeff.lh),
                     (got.coeff.ph, fresh.coeff.ph)):
            assert a.tobytes() == b.tobytes()
        assert got.guaranteed_radius == fresh.guaranteed_radius

    def test_resume_continues_from_the_given_coefficients(self):
        """Only the indices past prev are marched: a change to prev's last
        coefficient is kept and carries into the extension."""
        eq, init = bessel_type_equation(), ode.InitialData((1.0, 0.0))
        prev = ode.solve_series(eq, init, 100)
        lh = prev.coeff.lh.copy()
        lh[99] += 1.0
        bent = ps.make_series(lh, np.zeros(100), prev.coeff.ph, 0.0, "bent")
        got = ode.solve_series(eq, init, 200, _resume=bent)
        fresh = ode.solve_series(eq, init, 200)
        assert np.array_equal(got.coeff.lh[:100], lh)
        assert not np.array_equal(got.coeff.lh[100:], fresh.coeff.lh[100:])

"""Series solver: recurrence correctness, linearity, residual certificates."""

import cmath
import inspect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthlab import _evalcore, harness, ode
from growthlab import series as ps
from marchref import reference_march
from mpref import to_mpc


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


def forced_equation():
    # f'' + e^z f = cos z
    return ode.LinearODE(2, (ps.builtin("exp", 200),
                             ps.builtin("poly", coeffs=[0.0])),
                         ps.builtin("cos", 200))


def exact_circle(f, log_r, j=0, bits=300, cut=100.0):
    """(ln mu(r), f^(j)(r w_k) for the 64 offsets w_k = e^(i pi (2k + 1)
    / 64)) from f's stored coefficients, as mpc: the terms of f^(j) within
    e^-cut of mu(r), a_{n+j} (n+1)...(n+j) r^n, are formed in mpmath,
    rounded to integers at scale 2^bits and folded mod 128 (where the
    offset mesh repeats) exactly, and the 128 bins are summed against each
    angle at bits + 64 bits."""
    n_all = np.arange(f.n_terms - j)
    x = f.coeff.lh[j:] + n_all * log_r
    for s in range(1, j + 1):
        x = x + np.log(n_all + s)
    log_mu = float(np.max(x))
    bins_re, bins_im = [0] * 128, [0] * 128
    with mp.workprec(bits + 64):
        lr, lmu = mp.mpf(log_r), mp.mpf(log_mu)
        for n in np.nonzero(x >= log_mu - cut)[0].tolist():
            t = mp.exp(mp.mpf(f.coeff.lh[n + j])
                       + mp.log(mp.mpf(math.prod(range(n + 1, n + j + 1))))
                       + n * lr - lmu) * mp.expj(mp.mpf(f.coeff.ph[n + j]))
            bins_re[n % 128] += int(mp.nint(mp.ldexp(t.real, bits)))
            bins_im[n % 128] += int(mp.nint(mp.ldexp(t.imag, bits)))
        bins = [mp.mpc(mp.ldexp(a, -bits), mp.ldexp(b, -bits))
                for a, b in zip(bins_re, bins_im)]
        mu = mp.exp(lmu)
        return log_mu, [mu * mp.fsum(v * mp.expjpi(mp.mpf((2 * j + 1) * k)
                                                    / 64)
                                     for k, v in enumerate(bins))
                        for j in range(64)]


def reference_residual(eq, f, log_r):
    """residual_norm of the stored coefficients at 60 digits: the residual
    from exact_circle values (each f^(j) formed from f's logs in mpmath),
    over a scale whose products come from direct (non-FFT) convolutions
    of the double bands of the derivative series."""
    derivs = [f]
    for _ in range(eq.k):
        derivs.append(ps.derivative(derivs[-1]))
    with mp.workdps(60):
        scale, total = exact_circle(f, log_r, eq.k)
        for j, (a, d) in enumerate(zip(eq.coeffs, derivs)):
            if not (np.isfinite(a.coeff.lh).any()
                    and np.isfinite(d.coeff.lh).any()):
                continue
            la, va = exact_circle(a, log_r)
            ld, vd = exact_circle(f, log_r, j)
            total = [s + p * q for s, p, q in zip(total, va, vd)]
            bands = []
            for g, lmu in ((a, la), (d, ld)):
                x = g.coeff.lh + np.arange(g.n_terms) * log_r - lmu
                bands.append(np.exp(x) * np.exp(1j * g.coeff.ph))
            c = np.convolve(*bands)
            scale = max(scale, la + ld + math.log(float(np.max(np.abs(c)))))
        if eq.rhs is not None:
            _, vf = exact_circle(eq.rhs, log_r)
            total = [s - v for s, v in zip(total, vf)]
        return float(max(abs(v) for v in total) / mp.exp(scale))


_REFERENCES = {}


def cached_reference(case, eq, f, log_r):
    """reference_residual(eq, f, log_r) for a module fixture's solution,
    computed once per case."""
    if case not in _REFERENCES:
        _REFERENCES[case] = reference_residual(eq, f, log_r)
    return _REFERENCES[case]


def fft_product_bound(a, b):
    """The 2-norm error bound residual_norm's docstring states for
    ode._fft_product(a, b), relative to the bands' scale."""
    u = 2.0 ** -53
    size = 1 << (len(a) + len(b) - 2).bit_length()
    t = size.bit_length() - 1
    mu = 2 * u
    eta = mu + 4 * u / (1 - 4 * u) * (math.sqrt(2) + mu)
    eps = t * eta / (1 - t * eta)
    norms = (np.sum(np.abs(a)) * np.linalg.norm(b)
             + np.linalg.norm(a) * np.sum(np.abs(b)))
    return (2 * eps + 3 * u) * (1 + eps * math.sqrt(size)) ** 2 * norms


@pytest.fixture(scope="module")
def bessel_solution():
    """TestResidual's Bessel case: 4096 terms checked at r = 10."""
    eq = bessel_type_equation()
    sol, info = ode.auto_solve(eq, ode.InitialData((1.0, 0.0)), 10.0,
                               n_start=1 << 10, n_cap=1 << 13)
    return eq, sol, info


@pytest.fixture(scope="module")
def theorem_type_solution():
    """sol0 of the shipped theorem_type experiment: 16,384 terms checked
    at r = 7.03."""
    from growthlab import harness
    cfg = harness.shipped_config("theorem_type")
    eq = harness.resolve_equation(cfg["equation"])
    sol, info = ode.auto_solve(eq, ode.InitialData.basis(2, 0),
                               cfg["r_max"], n_cap=cfg["max_terms"])
    return eq, sol, info


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

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf,
                                   complex(0.0, math.nan)])
    def test_nonfinite_init_rejected(self, v):
        with pytest.raises(ValueError, match="initial value 1"):
            ode.InitialData((1.0, v))


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
    """The canonical solutions: solve_series on the basis initial data, as
    harness.run_theorem_experiment builds them."""

    @staticmethod
    def basis(eq, n_terms):
        return [ode.solve_series(eq, ode.InitialData.basis(eq.k, i), n_terms)
                for i in range(eq.k)]

    def test_oscillator_basis(self):
        sols = self.basis(oscillator(), 40)
        assert coeff_value(sols[0], 0) == pytest.approx(1.0)  # cos-like
        assert coeff_value(sols[1], 1) == pytest.approx(1.0)  # sin-like

    def test_wronskian_at_origin(self):
        # f1 f2' - f1' f2 = 1 at z = 0 by construction of the basis
        sols = self.basis(
            ode.LinearODE(2, (ps.builtin("exp", 60),
                              ps.builtin("poly", coeffs=[0.0]))), 60)
        f1_0 = coeff_value(sols[0], 0)
        f2p_0 = coeff_value(sols[1], 1)
        f1p_0 = coeff_value(sols[0], 1)
        f2_0 = coeff_value(sols[1], 0)
        assert f1_0 * f2p_0 - f1p_0 * f2_0 == pytest.approx(1.0, rel=1e-14)


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

    def test_bessel_type_certificate(self, bessel_solution):
        eq, sol, info = bessel_solution
        assert info["residual"] < 1e-8
        assert info["certified_radius"] >= 10.0

    def test_zero_coefficient_is_skipped(self):
        # the oscillator's A_1 is poly [0], a series without a nonzero term
        assert not np.isfinite(oscillator().coeffs[1].coeff.lh).any()
        sin = ps.builtin("sin", 60)
        assert ode.residual_norm(oscillator(), sin, math.log(3.0)) < 1e-14

    def test_forced_solution_is_small(self):
        sol = ode.solve_series(forced_equation(), ode.InitialData((0.0, 0.0)),
                               200)
        assert ode.residual_norm(forced_equation(), sol,
                                 math.log(3.0)) < 1e-13

    def test_forced_solution_fails_the_homogeneous_equation(self):
        eq = forced_equation()
        sol = ode.solve_series(eq, ode.InitialData((0.0, 0.0)), 200)
        homogeneous = ode.LinearODE(2, eq.coeffs)
        assert ode.residual_norm(homogeneous, sol, math.log(3.0)) >= 1e-2

    def test_runs_no_radius_extrapolation(self, monkeypatch):
        # every series residual_norm builds or combines is a polynomial in
        # w, trusted everywhere without series._certify_radius
        eq = exp_equation()
        sol = ode.solve_series(eq, ode.InitialData((1.0,)), 60)

        def refuse(lh):
            raise AssertionError("residual_norm extrapolated a radius")

        monkeypatch.setattr(ps, "_certify_radius", refuse)
        assert ode.residual_norm(eq, sol, math.log(5.0)) < 1e-12

    @pytest.mark.parametrize("case", ["bessel_solution",
                                      "theorem_type_solution"])
    def test_matches_a_60_digit_reference(self, case, request):
        eq, sol, info = request.getfixturevalue(case)
        log_r = math.log(info["checked_radius"])
        got = ode.residual_norm(eq, sol, log_r)
        assert got == info["residual"]
        want = cached_reference(case, eq, sol, log_r)
        assert abs(got - want) <= 1e-2 * want

    @pytest.mark.parametrize("case", ["bessel_solution",
                                      "theorem_type_solution"])
    def test_builds_no_fixed_point_band(self, case, request, monkeypatch):
        """residual_norm sums and reads in double: with the dd and mp band
        builder refused, it gives the residual auto_solve recorded, and
        that agrees with the 60-digit reference."""
        eq, sol, info = request.getfixturevalue(case)

        def refuse(*args):
            raise AssertionError("residual_norm built a dd or mp band")

        monkeypatch.setattr(_evalcore, "_fixed_band", refuse)
        log_r = math.log(info["checked_radius"])
        got = ode.residual_norm(eq, sol, log_r)
        assert got == info["residual"]
        want = cached_reference(case, eq, sol, log_r)
        assert abs(got - want) <= 1e-2 * want

    @pytest.mark.parametrize("case", ["bessel_solution",
                                      "theorem_type_solution"])
    def test_fft_product_within_stated_bound(self, case, request):
        eq, sol, info = request.getfixturevalue(case)
        log_r = math.log(info["checked_radius"])
        a = ode._scaled_band(eq.coeffs[0], log_r)[3]
        b = ode._scaled_band(sol, log_r)[3]
        bits = 300

        def fixed(x, scale):
            return (np.array([int(v) for v in np.ldexp(x.real, scale)],
                             dtype=object),
                    np.array([int(v) for v in np.ldexp(x.imag, scale)],
                             dtype=object))

        # exact products of the bands' doubles, at scale 2^(2 bits)
        (ar, ai), (br, bi) = fixed(a, bits), fixed(b, bits)
        exact_re = np.convolve(ar, br) - np.convolve(ai, bi)
        exact_im = np.convolve(ar, bi) + np.convolve(ai, br)
        got_re, got_im = fixed(ode._fft_product(a, b), 2 * bits)
        err2 = sum((int(x) ** 2 for x in got_re - exact_re), 0) \
            + sum((int(x) ** 2 for x in got_im - exact_im), 0)
        err = math.sqrt(err2 >> 4 * bits - 200) * 2.0 ** -100
        assert 0 < err <= fft_product_bound(a, b)


    @pytest.mark.parametrize("case", ["bessel_solution",
                                      "theorem_type_solution"])
    def test_derived_bands_match_derivative_series(self, case, request):
        """Each f^(j) band (lo, h, l, t) residual_norm forms from f's band
        (lo, h, 0, t) holds l = e ln 2 - j ln r to a few ulps, and t
        agrees to a few ulps with f^(j)'s terms a_{n+j} (n+1)...(n+j)
        r^(n+j) / (e^h 2^e) formed from f's logs at 120 bits, on the
        indices it and the band of the j-th derivative series both hold;
        each band holds past the other's ends only terms below e^-120 of
        its largest.  (The derivative series' logs are ln|a_{n+j}| +
        ln((n+1)...(n+j)) rounded to doubles, a few 1e-13 off at these
        sizes, so its band only sets the indices.)"""
        eq, sol, info = request.getfixturevalue(case)
        log_r = math.log(info["checked_radius"])
        fb = ode._scaled_band(sol, log_r)
        d = sol
        for j in range(1, eq.k + 1):
            d = ps.derivative(d)
            lo_r, _, _, tr = ode._scaled_band(d, log_r)
            lo_d, h, l, td = ode._derivative_band(fb, j, log_r)
            lo = max(lo_r, lo_d)
            hi = min(lo_r + len(tr), lo_d + len(td))
            assert hi - lo > 0.99 * len(tr)
            assert fb[2] == 0.0 and h == fb[1]
            e = round((l + j * log_r) / math.log(2.0))
            got = td[lo - lo_d:hi - lo_d]
            with mp.workprec(120):
                lr = mp.mpf(log_r)
                assert abs(mp.mpf(l) - (e * mp.ln2 - j * lr)) \
                    <= 4 * 2.0 ** -52 * abs(l)
                scale = mp.mpf(h) + e * mp.ln2
                want = np.array([complex(
                    mp.exp(mp.mpf(sol.coeff.lh[n + j]) + (n + j) * lr - scale
                           + mp.log(math.prod(range(n + 1, n + j + 1))))
                    * mp.expj(mp.mpf(sol.coeff.ph[n + j])))
                    for n in range(lo, hi)])
            assert np.array_equal(got == 0, want == 0)
            assert np.all(np.abs(got - want) <= 5 * 2.0 ** -52 * np.abs(want))
            for t, a, b in ((tr, lo - lo_r, hi - lo_r),
                            (td, lo - lo_d, hi - lo_d)):
                rest = np.concatenate([t[:a], t[b:]])
                assert np.all(np.abs(rest) <= math.exp(-120.0))

    def test_derived_band_of_a_short_series(self):
        """A band holding no term at or above z^j has no f^(j) band, and
        the weights n(n-1)...(n-j+1) drop the terms below z^j."""
        band = (0, 0.0, 0.0, np.array([1.0, 0.5j, 0.25]))
        assert ode._derivative_band(band, 3, 0.0) is None
        lo, h, l, t = ode._derivative_band(band, 1, math.log(2.0))
        # 0.5j + 0.5 w, rescaled by 2^-0 and ln mu = ln 1/2
        assert lo == 0 and h == 0.0
        assert l == pytest.approx(-math.log(2.0), rel=1e-15)
        assert t.tolist() == [0.5j, 0.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMaxModulus:
    @pytest.mark.parametrize("r", [1.0, 2.3, 4.0, 7.0])
    def test_against_a_dense_circle(self, theorem_type_solution, r):
        # the 16,384-term theorem_type solution: the best of a 65,536-angle
        # d circle, refined twice on 2,001 d points across its two cells
        _, sol, _ = theorem_type_solution
        lr = math.log(r)
        m = 1 << 16
        v = _evalcore.eval_circle(sol.coeff, lr, m, offset=False,
                                  level="d").logabs
        mid, step = 2.0 * math.pi * int(np.argmax(v)) / m, 2.0 * math.pi / m
        for _ in range(2):
            th = np.linspace(mid - step, mid + step, 2001)
            v = _evalcore.eval_points(sol.coeff, lr, th, level="d").logabs
            mid, step = th[int(np.argmax(v))], th[1] - th[0]
        want = float(np.max(v))
        got = ps.log_max_modulus(sol, lr)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

class TestPrefixReads:
    def test_dd_read_marches_only_its_band(self, monkeypatch,
                                           theorem_type_solution):
        # m(3, f) of the 16,384-term theorem_type solution finishes at dd,
        # on terms 0-422: the integer march runs on those, not on all
        from growthlab import nevanlinna as nev
        _, sol, _ = theorem_type_solution
        fresh = ps.make_series(sol.coeff.lh, sol.coeff.ph,
                               sol.coeff.rel_err_ln, sol.provenance,
                               mp_factory=sol.coeff.mp_factory)
        marches, march = [], ode._solve_series_mp

        def recorded(eq, init, n_terms, dps):
            marches.append(n_terms)
            return march(eq, init, n_terms, dps)

        monkeypatch.setattr(ode, "_solve_series_mp", recorded)
        res = nev.proximity_detailed(fresh, math.log(3.0))
        assert (res.value, res.level) == (2.210235627520492, "dd")
        assert marches and max(marches) <= 512


class TestAutoSolve:
    def test_cap_binds_honestly(self):
        eq = bessel_type_equation()
        sol, info = ode.auto_solve(eq, ode.InitialData((1.0, 0.0)), 14.0,
                                   n_cap=1 << 12)
        assert info["capped"]
        assert info["certified_radius"] < 14.0

    def test_cap_below_first_length_rejected(self):
        with pytest.raises(ValueError, match="n_cap"):
            ode.auto_solve(oscillator(), ode.InitialData((1.0, 0.0)), 5.0,
                           n_start=256, n_cap=1)

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
        """Only the indices past prev are marched: prev's coefficients (a
        march with its last one changed, or a basis combination, which
        differs from the march in its last bits) are kept and carry into
        the extension, with prev's error."""
        eq = bessel_type_equation()
        init = ode.InitialData((1.0, 0.0))
        march = ode.solve_series(eq, init, 100)
        lh = march.coeff.lh.copy()
        lh[99] += 1.0
        mixed = ode.InitialData((0.3 + 0.7j, -1.1 + 0.2j))
        cases = [(init, ps.make_series(lh, march.coeff.ph, 0.0, "bent")),
                 (mixed, ode.basis_combination(eq, [
                     ode.solve_series(eq, ode.InitialData.basis(2, i), 100)
                     for i in range(2)], mixed))]
        for init, prev in cases:
            got = ode.solve_series(eq, init, 200, _resume=prev)
            fresh = ode.solve_series(eq, init, 200)
            assert got.coeff.lh[:100].tobytes() == prev.coeff.lh.tobytes()
            assert got.coeff.ph[:100].tobytes() == prev.coeff.ph.tobytes()
            assert not np.array_equal(got.coeff.lh[100:],
                                      fresh.coeff.lh[100:])
            assert got.coeff.rel_err_ln >= prev.coeff.rel_err_ln


def mpc_march(eq, init, n_terms, dps, work_dps):
    """Reference for ode._solve_series_mp: the recurrence on the inputs at
    dps digits, marched in mpc arithmetic at work_dps digits, each product
    and sum rounded."""
    k = eq.k
    bits = _evalcore._exact_bits(dps)

    def inputs(s):  # rounded to P + 1 bits, as the march takes them
        return to_mpc([None if v is None else _evalcore._fixed_round(v, bits)
                       for v in s.coeff.mp_logs(dps)])

    with mp.workdps(work_dps):
        a_nz = [[(m, v) for m, v in enumerate(inputs(a)) if v != 0]
                for a in eq.coeffs]
        f_vals = inputs(eq.rhs) if eq.rhs is not None else None
        c = [mp.mpc(0)] * n_terms
        fact = mp.mpf(1)
        for i, v in enumerate(init.values):
            if i:
                fact *= i
            c[i] = mp.mpc(complex(v)) / fact
        for n in range(n_terms - k):
            s = mp.mpc(0)
            for j in range(k):
                for m, av in a_nz[j]:
                    if m > n:
                        break
                    term = av * c[n - m + j]
                    if j:  # factorial ratio (n-m+j)!/(n-m)!; 1 for j = 0
                        term *= math.prod(range(n - m + 1, n - m + j + 1))
                    s += term
            num = -s
            if f_vals is not None and n < len(f_vals):
                num += f_vals[n]
            c[n + k] = num / math.prod(range(n + 1, n + k + 1))
    return c


class TestIntegerMarch:
    """The fixed-point march against the mpc march at dps + 20 digits on the
    same inputs, rounded to P + 1 bits as the march reads them, so what is
    checked is the march's own arithmetic; and, on the theorem solution,
    the march with its input rounding against a march 20 digits deeper."""

    CASES = {
        "theorem": (lambda: bessel_type_equation(220), (1.0, 0.0), 2048, 52),
        "k3_ratio": (lambda: ode.LinearODE(
            3, (ps.builtin("exp", 40), ps.builtin("sin", 30),
                ps.builtin("poly", coeffs=[0.0, 0.5 + 0.25j]))),
            (1.0, 0.0, -1.0), 300, 40),
        "rhs": (lambda: ode.LinearODE(
            2, (ps.builtin("poly", coeffs=[1.0, -0.5]),
                ps.builtin("poly", coeffs=[0.0])),
            rhs=ps.builtin("cos", 40)), (0.0, 0.0), 300, 40),
        "complex_init": (lambda: bessel_type_equation(60),
                         (0.3 + 0.7j, -1.1 + 0.2j), 400, 75),
        "oscillator_cos": (oscillator, (1.0, 0.0), 200, 40),
        "oscillator_sin": (oscillator, (0.0, 1.0), 200, 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_mpc_march_to_data_floor(self, case):
        make_eq, init, n_terms, dps = self.CASES[case]
        eq, init = make_eq(), ode.InitialData(init)
        sol = ode.solve_series(eq, init, n_terms, dps=dps)
        raw = sol.coeff.mp_logs(dps)
        got = to_mpc(raw)
        ref = mpc_march(eq, init, n_terms, dps, dps + 20)
        tol = mp.exp(sol.coeff.data_floor_ln(dps))
        assert len(got) == n_terms
        for n, (a, b) in enumerate(zip(got, ref)):
            if b == 0:
                assert raw[n] is None, n
            else:
                assert abs(a - b) <= tol * abs(b), n

    def test_theorem_inputs_within_data_floor(self):
        """A_j enter at P + 1 bits, so on f'' + e^z f = 0 the whole dps-52
        march stays within the data floor of a march 20 digits deeper
        (5.4e-59 at coefficient 1097 against 4.0e-50)."""
        make_eq, init, n_terms, dps = self.CASES["theorem"]
        eq, init = make_eq(), ode.InitialData(init)
        got = to_mpc(ode._solve_series_mp(eq, init, n_terms, dps))
        ref = to_mpc(ode._solve_series_mp(eq, init, n_terms, dps + 20))
        tol = mp.exp(ps.builtin("exp", 220).coeff.data_floor_ln(dps))
        with mp.workdps(dps + 20):
            for n, (a, b) in enumerate(zip(got, ref)):
                assert abs(a - b) <= tol * abs(b), n

    @pytest.mark.parametrize("parity", [0, 1])
    def test_oscillator_keeps_exact_zeros(self, parity):
        init = (1.0, 0.0) if parity == 0 else (0.0, 1.0)
        got = ode._solve_series_mp(oscillator(), ode.InitialData(init), 60,
                                   30)
        assert all(v is None for v in got[1 - parity::2])
        assert all(v is not None for v in got[parity::2])

    def test_tracer_contract(self):
        """perfbench's tracer binds these parameters by name."""
        params = inspect.signature(ode._solve_series_mp).parameters
        assert "n_terms" in params and "dps" in params


def theorem_dominant_init(i):
    """InitialData of theorem_dominant's solution i: the basis vectors, then
    the complex random combination."""
    cfg = harness.shipped_config("theorem_dominant")
    return harness._initial_vectors(2, cfg["seed"], cfg["n_random"])[i]


class TestAlignedMarch:
    """The integer march's aligned dots against reference_march, the loop
    over every product that they replaced (tests/marchref.py): on these
    cases each coefficient is the same triple, which the restated bound of
    _solve_series_mp allows and does not require."""

    CASES = dict(TestIntegerMarch.CASES,
                 dominant_sol0=(lambda: bessel_type_equation(220),
                                (1.0, 0.0), 1657, 75),
                 dominant_sol2=(lambda: bessel_type_equation(220),
                                theorem_dominant_init(2).values, 1654, 75))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference_march(self, case):
        make_eq, init, n_terms, dps = self.CASES[case]
        eq, init = make_eq(), ode.InitialData(init)
        got = ode._solve_series_mp(eq, init, n_terms, dps)
        want = reference_march(eq, init, n_terms, dps)
        assert len(got) == n_terms
        for n, (a, b) in enumerate(zip(got, want)):
            assert a == b, n

    @pytest.mark.parametrize("make_eq,n_terms", [(oscillator, 600),
                                                 (bessel_type_equation, 160)])
    def test_falling_coefficients_stay_exact(self, make_eq, n_terms):
        """Coefficients that fall ever faster (1/n! for f'' + f = 0, and
        the first terms of f'' + e^z f = 0) put values in a block's
        window far below its largest, and new ones below its guard.
        Holding C' from the window's largest value, or keeping a new C'
        below the guard in place of ending the block, loses low bits (or
        cannot hold them), and the march leaves the reference."""
        eq, init = make_eq(), ode.InitialData((1.0, 0.0))
        got = ode._solve_series_mp(eq, init, n_terms, 60)
        assert got == reference_march(eq, init, n_terms, 60)


def theorem_type_equation(n_a=300):
    # f'' + e^z f' + e^{2z} f = 0, as in the theorem_type experiment
    return ode.LinearODE(2, (ps.scale_argument(ps.builtin("exp", n_a), 2.0),
                             ps.builtin("exp", n_a)))


def k3_equation():
    # the k = 3 equation with a right-hand side of TestResume
    return ode.LinearODE(3, (ps.builtin("exp", 40), ps.builtin("sin", 30),
                             ps.builtin("poly", coeffs=[0.0, 0.5])),
                         rhs=ps.builtin("cos", 20))


def step_top_ln(eq, ref_ln, n):
    """ln of the largest term of step n of the recurrence, computed from
    the reference coefficients' logs: max |a_{j,m} c_{n-m+j}| (n-m+1)...
    (n-m+j) over j and m, and |F_n|."""
    top = -math.inf
    for j, a in enumerate(eq.coeffs):
        mn = min(n, a.n_terms - 1)
        t = np.arange(n - mn, n + 1)
        rising = sum(np.log(t + s) for s in range(1, j + 1))
        terms = a.coeff.lh[mn::-1] + ref_ln[n - mn + j:n + j + 1] + rising
        top = max(top, float(np.max(terms)))
    if eq.rhs is not None and n < eq.rhs.n_terms:
        top = max(top, float(eq.rhs.coeff.lh[n]))
    return top


def fallback_steps(monkeypatch):
    """The steps the double march sums in log-polar form, recorded from
    now on."""
    calls = []
    step = ode._logpolar_step

    def counted(n, *args):
        calls.append(n)
        return step(n, *args)

    monkeypatch.setattr(ode, "_logpolar_step", counted)
    return calls


def dot_lengths(monkeypatch):
    """The length of every dot product the double march sums, recorded
    from now on: each step sums its kept rows, and a step whose dropped
    rows could reach its sum sums the whole window again."""
    lengths = []
    dotter = ode._dotter

    def counted(a):
        dot = dotter(a)

        def recorded(b):
            lengths.append(len(a))
            return dot(b)
        return recorded

    monkeypatch.setattr(ode, "_dotter", counted)
    return lengths


def perj_march(eq, init, n_terms, block=64):
    """Reference for ode._march_d: the double march as it was before its
    one-dot step, fresh from index 0.  Each live A_j keeps its own scaled
    arrays, a step sums one dot product per j (over a shorter window while
    n is below A_j's length), and the scale is picked every `block` steps
    from a slope over the last 64 coefficients."""
    k = eq.k
    n_steps = n_terms - k
    lc = np.full(n_terms, -np.inf)
    pc = np.zeros(n_terms)
    lgam = 0.0
    for i, v in enumerate(init.values):
        if i:
            lgam += math.log(i)
        v = complex(v)
        if v != 0:
            lc[i] = math.log(abs(v)) - lgam
            pc[i] = math.atan2(v.imag, v.real)
    ln_table = np.concatenate([[0.0], np.log(np.arange(1, n_terms + k + 1,
                                                       dtype=float))])
    rising = [np.zeros(n_terms)]
    for j in range(1, k + 1):
        rising.append(rising[-1] + ln_table[j:j + n_terms])
    live = [(j, a.coeff.lh, a.coeff.ph) for j, a in enumerate(eq.coeffs)
            if np.isfinite(a.coeff.lh).any()]
    f_l = eq.rhs.coeff.lh if eq.rhs is not None else np.zeros(0)
    f_p = eq.rhs.coeff.ph if eq.rhs is not None else np.zeros(0)
    ah = [None] * len(live)
    dh = {j: np.zeros(n_terms, dtype=complex) for j, _, _ in live}

    def pick_scale(n):
        top = n + k - 1
        w = min(32, (top + 1) // 2)
        mu = 0.0
        if w:
            old = float(np.max(lc[top + 1 - 2 * w:top + 1 - w]))
            new = float(np.max(lc[top + 1 - w:top + 1]))
            if math.isfinite(old) and math.isfinite(new):
                mu = max(-1023.0, min(1023.0, (old - new) / w))
                mu = math.ldexp(round(math.ldexp(mu, ode._MU_BITS)),
                                -ode._MU_BITS)
        xs_a, xs_d = [], []
        for j, al, _ in live:
            xs_a.append(al + np.arange(len(al)) * mu)
            lo, hi = max(0, n - len(al) + 1), top - j
            t = np.arange(lo, hi + 1)
            xs_d.append((lo, (lc[lo + j:hi + j + 1] + t * mu)
                         + rising[j][lo:hi + 1]))
        alpha = max((float(np.max(x)) for x in xs_a), default=-math.inf)
        beta = max((float(np.max(x)) for _, x in xs_d), default=-math.inf)
        alpha = float(math.ceil(alpha)) if alpha > -math.inf else 0.0
        beta = float(math.ceil(beta)) if beta > -math.inf else 0.0
        for i, ((j, al, ap), xa, (lo, xd)) in enumerate(zip(live, xs_a,
                                                            xs_d)):
            z = np.empty(len(al), dtype=complex)
            z.real, z.imag = xa - alpha, ap
            ah[i] = np.exp(z)[::-1].copy()
            z = np.empty(len(xd), dtype=complex)
            z.real, z.imag = xd - beta, pc[lo + j:lo + j + len(xd)]
            dh[j][lo:lo + len(xd)] = np.exp(z)
        return mu, alpha + beta, beta

    rows = [(len(al), dh[j]) for j, al, _ in live]
    floor = math.exp(-ode._SAFE_LN)
    rescale = True
    with np.errstate(under="ignore"):
        for n in range(n_steps):
            if rescale or n % block == 0:
                mu, ab, beta = pick_scale(n)
                rescale = False
            off = n * mu - ab
            s = 0j
            for ahj, (la, drow) in zip(ah, rows):
                if n >= la - 1:
                    s -= ahj.dot(drow[n + 1 - la:n + 1])
                else:
                    s -= ahj[la - 1 - n:].dot(drow[:n + 1])
            if n < len(f_l):
                xf = f_l.item(n) + off
                s = s + cmath.exp(complex(xf, f_p[n])) \
                    if xf <= ode._SAFE_LN else math.nan
            size = abs(s)
            if floor <= size < math.inf:
                lc[n + k] = (math.log(size) - off) - rising[k][n]
                pc[n + k] = math.atan2(s.imag, s.real)
            else:
                step = ode._logpolar_step(n, k, live, f_l, f_p, lc, pc,
                                          rising)
                if step is not None:
                    lc[n + k], pc[n + k] = step
            L = float(lc[n + k])
            if L == -math.inf:
                continue
            p = float(pc[n + k])
            for j, _, _ in live:
                t = n + k - j
                x = (L + t * mu + rising[j][t]) - beta
                if -ode._SAFE_LN <= x <= ode._SAFE_LN:
                    dh[j][t] = cmath.exp(complex(x, p))
                else:
                    rescale = True
    return lc, pc


@pytest.mark.filterwarnings("error")
def test_forcing_too_large_to_scale_is_summed_in_logpolar(monkeypatch):
    # f' = 1e174 z^2: F_2 is past e^_SAFE_LN, so its step is summed in
    # log-polar form, and f = 2 + 1e174 z^3 / 3 exactly
    steps = []
    logpolar = ode._logpolar_step

    def spy(n, *args):
        out = logpolar(n, *args)
        steps.append((n, out))
        return out

    monkeypatch.setattr(ode, "_logpolar_step", spy)
    eq = ode.LinearODE(1, (ps.builtin("poly", coeffs=[0.0]),),
                       rhs=ps.builtin("poly", coeffs=[0.0, 0.0, 1e174]))
    sol = ode.solve_series(eq, ode.InitialData((2.0,)), 8)
    assert [n for n, out in steps if out is not None] == [2]
    assert sol.coeff.lh[3] == pytest.approx(math.log(1e174 / 3.0),
                                            rel=1e-15)
    assert sol.coeff.ph[3] == 0.0
    assert sol.coeff.lh[0] == math.log(2.0)
    assert np.all(sol.coeff.lh[[1, 2, 4, 5, 6, 7]] == -np.inf)


def assert_matches_integer_march(eq, init, sol):
    """Each coefficient of the double solution sol lies within
    e^rel_err_ln of the integer march at dps 30, relative to the larger of
    |c_ref| and the largest term of its step divided by (n+1)...(n+k)."""
    dps = 30
    ref = to_mpc(ode._solve_series_mp(eq, init, sol.n_terms, dps))
    with mp.workdps(dps):
        ref_ln = np.array([float(mp.log(abs(v))) if v != 0 else -np.inf
                           for v in ref])
        tol = mp.exp(sol.coeff.rel_err_ln)
        for i, v in enumerate(ref):
            if v == 0:
                assert sol.coeff.lh[i] == -np.inf, i
                continue
            scale_ln = ref_ln[i]
            if i >= eq.k:
                n = i - eq.k
                scale_ln = max(scale_ln, step_top_ln(eq, ref_ln, n)
                               - sum(math.log(n + s)
                                     for s in range(1, eq.k + 1)))
            got = mp.exp(mp.mpc(sol.coeff.lh[i], sol.coeff.ph[i]))
            assert abs(got - v) <= tol * mp.exp(scale_ln), i


class TestDoubleMarch:
    """The block-scaled double march against the integer march at dps 30.

    Each coefficient must lie within e^rel_err_ln of the reference,
    relative to the larger of |c_ref| and the largest term of its step
    divided by (n+1)...(n+k): a coefficient far below its step's largest
    term (a cancelling one) carries the error of that term, in any
    double march."""

    CASES = {
        "theorem_type_basis": (theorem_type_equation, (1.0, 0.0), 2048),
        "theorem_type_complex": (theorem_type_equation,
                                 (0.3 + 0.7j, -1.1 + 0.2j), 2048),
        "theorem_dominant_basis1": (lambda: bessel_type_equation(220),
                                    (0.0, 1.0), 2048),
        "k3_rhs": (k3_equation, (0.3 + 0.1j, 0.0, -1.0), 300),
        "airy": (airy_equation, (1.0, 0.0), 200),
        "oscillator": (oscillator, (1.0, 0.0), 200),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_integer_march(self, case):
        make_eq, init, n_terms = self.CASES[case]
        eq, init = make_eq(), ode.InitialData(init)
        assert_matches_integer_march(eq, init,
                                     ode.solve_series(eq, init, n_terms))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_perj_reference(self, case):
        """The one-dot march against the per-j march it replaced, within
        rel_err_ln on the same scale as test_matches_integer_march (taken
        from the reference's logs); both keep the same exact zeros."""
        make_eq, init, n_terms = self.CASES[case]
        eq, init = make_eq(), ode.InitialData(init)
        sol = ode.solve_series(eq, init, n_terms)
        lc, pc = perj_march(eq, init, n_terms)
        assert np.array_equal(np.isfinite(lc), np.isfinite(sol.coeff.lh))
        tol = math.exp(sol.coeff.rel_err_ln)
        for i in np.nonzero(np.isfinite(lc))[0].tolist():
            scale_ln = lc[i]
            if i >= eq.k:
                n = i - eq.k
                scale_ln = max(scale_ln, step_top_ln(eq, lc, n)
                               - sum(math.log(n + s)
                                     for s in range(1, eq.k + 1)))
            got = cmath.exp(complex(sol.coeff.lh[i] - scale_ln,
                                    sol.coeff.ph[i]))
            want = cmath.exp(complex(lc[i] - scale_ln, pc[i]))
            assert abs(got - want) <= tol, i

    @pytest.mark.parametrize("parity", [0, 1])
    def test_oscillator_keeps_exact_zeros(self, parity):
        init = (1.0, 0.0) if parity == 0 else (0.0, 1.0)
        sol = ode.solve_series(oscillator(), ode.InitialData(init), 400)
        assert np.all(sol.coeff.lh[1 - parity::2] == -np.inf)
        assert np.all(np.isfinite(sol.coeff.lh[parity::2]))

    @pytest.mark.parametrize("make_eq,init", [
        (exp_equation, (1.0,)),
        (theorem_type_equation, (0.3 + 0.7j, -1.1 + 0.2j)),
    ])
    def test_one_long_block_renormalises(self, monkeypatch, make_eq, init):
        """With one block for the whole march the first scale cannot hold:
        the coefficients fall like 1/n!, so a fixed scale would underflow.
        The march renormalises instead, and every step keeps the scaled
        sum: none falls back to the log-polar step."""
        eq, init = make_eq(), ode.InitialData(init)
        fresh = ode.solve_series(eq, init, 1500)
        calls = fallback_steps(monkeypatch)
        monkeypatch.setattr(ode, "_BLOCK", 1 << 14)
        long = ode.solve_series(eq, init, 1500)
        assert calls == []
        both = np.isfinite(fresh.coeff.lh)
        assert np.array_equal(both, np.isfinite(long.coeff.lh))
        assert np.max(np.abs(long.coeff.lh[both] - fresh.coeff.lh[both])) \
            < 1e-9

    @pytest.mark.parametrize("n_prev", [3, 65, 66, 67, 130, 257, 258, 259,
                                        500, 513, 514, 515])
    def test_resume_at_block_edges_matches_fresh(self, n_prev):
        """Resumes just before, at and just after a block start (step
        n_prev - 2 = 256 or 512) replay the block's scale and keep the
        fresh bytes, as do resumes inside a block."""
        eq = theorem_type_equation()
        init = ode.InitialData((0.3 + 0.7j, -1.1 + 0.2j))
        fresh = ode.solve_series(eq, init, 600)
        prev = ode.solve_series(eq, init, n_prev)
        got = ode.solve_series(eq, init, 600, _resume=prev)
        assert got.coeff.lh.tobytes() == fresh.coeff.lh.tobytes()
        assert got.coeff.ph.tobytes() == fresh.coeff.ph.tobytes()

    def test_every_step_keeps_the_scaled_sum(self, monkeypatch):
        """On the theorem equations no step of a 4096-term march falls back
        to the log-polar step."""
        calls = fallback_steps(monkeypatch)
        for eq in (theorem_type_equation(), bessel_type_equation(220)):
            ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 4096)
        assert calls == []

    def test_each_pick_keeps_at_most_half_the_rows(self, monkeypatch):
        """On theorem_type's 16,384-term basis marches each scale pick
        keeps at most 150 of the 300 Ah rows, every step sums those rows,
        and fewer than one block of steps takes the full dot."""
        kept = []
        rows = ode._kept_rows

        def recorded(ah):
            out = rows(ah)
            kept.append(out[0])
            return out

        monkeypatch.setattr(ode, "_kept_rows", recorded)
        lengths = dot_lengths(monkeypatch)
        eq = theorem_type_equation()
        for i in range(2):
            kept.clear()
            lengths.clear()
            ode.solve_series(eq, ode.InitialData.basis(2, i), 1 << 14)
            assert len(kept) >= (1 << 14) // ode._BLOCK
            assert max(kept) <= 150
            full = lengths.count(600)
            assert len(lengths) - full == (1 << 14) - 2
            assert all(n <= 2 * 150 for n in lengths if n != 600)
            assert full < ode._BLOCK

    def test_full_dot_steps_match_integer_march(self, monkeypatch):
        """The first block of theorem_type's basis march starts at mu = 0,
        so its later sums fall far below the rows it drops and take the
        full dot; the march still matches the integer march."""
        eq, init = theorem_type_equation(), ode.InitialData((1.0, 0.0))
        lengths = dot_lengths(monkeypatch)
        sol = ode.solve_series(eq, init, 600)
        assert lengths.count(600) > 0
        assert_matches_integer_march(eq, init, sol)

    def test_kept_rows_and_their_tail(self):
        """The trailing rows from the first row within e^-_ROW_CUT of the
        largest are kept, a small row among them too, and the tail is the
        sum of |Ah| over every dropped entry, not of each row's largest."""
        cut = ode._ROW_CUT
        logs = [[-cut - 8.0, -cut - 10.0], [-cut - 5.0, -math.inf],
                [-cut + 1.0, -900.0], [-0.5, -2.0], [-300.0, -math.inf],
                [-1.0, 0.0]]
        ah = np.exp(np.array(logs) + 0.3j)
        assert ode._kept_rows(ah) == (4, pytest.approx(
            math.exp(-cut - 8.0) + math.exp(-cut - 10.0)
            + math.exp(-cut - 5.0), rel=1e-15, abs=0.0))
        assert ode._kept_rows(ah[3:]) == (3, 0.0)
        assert ode._kept_rows(np.zeros((0, 0), dtype=complex)) == (0, 0.0)


def first_order_equation():
    # f'' + z f' + e^z f = 0, as in the theorem_dominant_first_order
    # experiment
    return ode.LinearODE(2, (ps.builtin("exp", 220),
                             ps.builtin("poly", coeffs=[0.0, 1.0])))


class TestBasisCombination:
    """Solutions formed from the two basis marches at 2048 terms."""

    CASES = {"theorem_type": theorem_type_equation,
             "first_order": first_order_equation}
    INIT = ode.InitialData((0.3 + 0.7j, -1.1 + 0.2j))

    @staticmethod
    def basis(eq, *lengths):
        return [ode.solve_series(eq, ode.InitialData.basis(eq.k, i), n)
                for i, n in enumerate(lengths)]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_direct_march(self, case):
        """Within e^rel_err_ln of the direct march of the same initial
        data, relative to sum |v_i c_{i,n}|; rel_err_ln is the basis error
        plus ln of the largest sum |v_i c_{i,n}| / |c_n|."""
        eq = self.CASES[case]()
        basis = self.basis(eq, 2048, 2048)
        got = ode.basis_combination(eq, basis, self.INIT)
        direct = ode.solve_series(eq, self.INIT, 2048)
        size_ln = np.logaddexp(*(math.log(abs(v)) + f.coeff.lh for v, f
                                 in zip(self.INIT.values, basis)))
        amp_ln = float(np.max(size_ln - got.coeff.lh))
        assert got.coeff.rel_err_ln == pytest.approx(
            basis[0].coeff.rel_err_ln + amp_ln, abs=1e-12)
        assert 0.0 < amp_ln < 5.0
        diff = (np.exp(got.coeff.lh - size_ln + 1j * got.coeff.ph)
                - np.exp(direct.coeff.lh - size_ln + 1j * direct.coeff.ph))
        assert np.max(np.abs(diff)) <= math.exp(got.coeff.rel_err_ln)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_integer_march(self, case):
        eq = self.CASES[case]()
        assert_matches_integer_march(eq, self.INIT, ode.basis_combination(
            eq, self.basis(eq, 2048, 2048), self.INIT))

    def test_shorter_basis_march_is_extended(self):
        eq = first_order_equation()
        got = ode.basis_combination(eq, self.basis(eq, 1024, 2048),
                                    self.INIT)
        want = ode.basis_combination(eq, self.basis(eq, 2048, 2048),
                                     self.INIT)
        assert got.n_terms == 2048
        assert got.coeff.lh.tobytes() == want.coeff.lh.tobytes()
        assert got.coeff.ph.tobytes() == want.coeff.ph.tobytes()

    def test_exact_values_are_the_integer_march(self):
        eq = first_order_equation()
        got = ode.basis_combination(eq, self.basis(eq, 256, 256), self.INIT)
        assert got.coeff.mp_logs(30) \
            == ode._solve_series_mp(eq, self.INIT, 256, 30)

    def test_inhomogeneous_equation_refused(self):
        eq = forced_equation()
        with pytest.raises(ValueError, match="homogeneous"):
            ode.basis_combination(eq, self.basis(eq, 64, 64), self.INIT)

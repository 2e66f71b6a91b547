"""Acceptance suite: the package's exit criteria, run at stated tolerances.

One test per criterion; each prints a single PASS line when it holds (run
pytest with -s to watch them stream).  Expensive artifacts (the dominant-
coefficient theorem experiment) are shared through session fixtures.
"""

import math
import time

import numpy as np
import pytest

from growthlab import growth, harness, nevanlinna as nev, ode, scale
from growthlab import series as ps
from marchref import assert_march_holds_bands, recording_marches


def _announce(num, label, t0):
    print(f"\ncriterion {num} ({label}): PASS in {time.time() - t0:.1f}s")


@pytest.fixture(scope="session")
def identity_triple():
    return scale.ScaleTriple(scale.identity(), scale.identity(),
                             scale.identity())


@pytest.fixture(scope="session")
def hyper_triple():
    return scale.ScaleTriple(scale.log_plus(), scale.identity(),
                             scale.identity())


@pytest.fixture(scope="session")
def theorem_run():
    """The shipped theorem_dominant report, and the march record of each
    counted solution (marchref.recording_marches)."""
    with recording_marches() as recs:
        rep = harness.run_config(harness.shipped_config("theorem_dominant"))
    return rep, recs


@pytest.fixture(scope="session")
def theorem_report(theorem_run):
    return theorem_run[0]


def test_criterion_1_wiman_valiron_identity():
    t0 = time.time()
    subjects = [ps.builtin("exp", 400), ps.builtin("cos", 400),
                ps.builtin("poly", coeffs=[1.0, 0.0, 1.0]),
                ps.builtin("exp_exp", 400)]
    grid = np.geomspace(1.0, 50.0, 24)
    for f in subjects:
        jumps = ps.central_index_jumps(f)
        worst = max(abs(ps.log_mu_from_jumps(f, math.log(r), jumps)
                        - ps.max_term(f, math.log(r)).log_mu)
                    for r in grid)
        assert worst <= 1e-9, f"{f.provenance}: identity residual {worst}"
    assert time.time() - t0 < 10.0
    _announce(1, "max-term identity", t0)


def test_criterion_2_wv_bound_and_ratio():
    t0 = time.time()
    subjects = [ps.builtin("exp", 400), ps.builtin("cos", 400),
                ps.builtin("poly", coeffs=[1.0, 0.0, 1.0]),
                ps.builtin("exp_exp", 400)]
    for f in subjects:
        r_top = 50.0
        if math.isfinite(f.guaranteed_radius):
            r_top = min(r_top, f.guaranteed_radius / 2.01)
        for r in np.geomspace(1.0, r_top, 16):
            lr = math.log(r)
            lhs = ps.log_max_modulus(f, lr)
            mt = ps.max_term(f, lr)
            nu2 = ps.max_term(f, lr + math.log(2.0)).nu
            assert lhs < mt.log_mu + math.log(nu2 + 2.0), \
                f"{f.provenance} bound fails at r={r:.4g}"
    # derivative-quotient ratio for exp, orders 1 and 2, tail r in [20, 50]
    rep = harness.check_wiman_valiron(ps.builtin("exp", 400),
                                      np.geomspace(20.0, 50.0, 10),
                                      ratio_orders=(1, 2))
    for c in rep.checks:
        if "wv_ratio" in c.name:
            assert c.verdict == "pass", c.name
            assert c.measured < 0.1
    assert time.time() - t0 < 30.0
    _announce(2, "modulus bound + derivative ratio", t0)


def test_criterion_3_characteristic_oracle():
    t0 = time.time()
    f = ps.builtin("exp", 400)
    for r in [1.0, math.pi, 10.0, 100.0]:
        got = nev.characteristic_entire(f, math.log(r))
        assert abs(got - r / math.pi) <= 1e-6 * r, f"T({r}) = {got}"
    assert time.time() - t0 < 5.0
    _announce(3, "characteristic oracle", t0)


def test_criterion_4_zero_counting():
    t0 = time.time()
    s = ps.builtin("sin", 700)
    radii = np.geomspace(1.0, 50.0, 20)
    data = nev.count_zeros_grid(s, radii)
    for r_used, n in zip(data.radii, data.counts):
        assert n == 2 * int(r_used / math.pi) + 1, \
            f"n({r_used:.6g}, 1/sin) = {n}"
    z3 = ps.builtin("poly", coeffs=[-1.0, 0.0, 0.0, 1.0])
    for r in [1.5, 2.0, 10.0]:
        assert nev.zero_count(z3, math.log(r)) == 3
    assert time.time() - t0 < 20.0
    _announce(4, "zero counting", t0)


def test_criterion_5_order_type_calibration(identity_triple, hyper_triple):
    t0 = time.time()
    # e^z through its closed-form characteristic profile
    pe = growth.profile_from_descriptor(
        {"name": "exp", "log_T": {"form": "ln_c_rp", "c": 1 / math.pi,
                                  "p": 1.0}})
    s_t = growth.sample(pe, "log_T", growth.make_grid(5.0, 1e3, 48))
    rho = growth.estimate_order(s_t, identity_triple, "upper").value
    assert 0.95 <= rho <= 1.05
    t_form = growth.estimate_type(s_t, identity_triple, 1.0, "upper").value
    assert 0.30 <= t_form <= 0.34
    # M-form type from the actual series
    f = ps.builtin("exp", 400)
    s_m = growth.sample(f, "log2_M", growth.make_grid(5.0, 100.0, 32))
    tau_m = growth.estimate_type(s_m, identity_triple, 1.0, "upper").value
    assert 0.9 <= tau_m <= 1.1
    # polynomial order below 0.1 (series-based, huge radii are free)
    z3 = ps.builtin("poly", coeffs=[0.0, 0.0, 0.0, 1.0])
    s_p = growth.sample(z3, "log2_M", growth.make_grid(10.0, 1e6, 48))
    assert growth.estimate_order(s_p, identity_triple, "upper").value < 0.1
    # doubly exponential growth under the log-wrapped first scale
    pee = growth.profile_from_descriptor(
        {"name": "exp_exp", "log2_M": {"form": "r"}})
    s_e = growth.sample(pee, "log2_M", growth.make_grid(4.0, 40.0, 48))
    rho_ee = growth.estimate_order(s_e, hyper_triple, "upper").value
    assert 0.95 <= rho_ee <= 1.05
    assert time.time() - t0 < 10.0
    _announce(5, "order/type calibration", t0)


def test_criterion_6_zero_exponent_calibration(identity_triple):
    t0 = time.time()
    s = ps.builtin("sin", 700)
    data = nev.count_zeros_grid(s, growth.make_grid(5.0, 200.0, 16))
    up = growth.estimate_lambda(data, identity_triple, mode="upper").value
    lo = growth.estimate_lambda(data, identity_triple, mode="lower").value
    assert 0.85 <= lo <= 1.1, f"lambda lower = {lo}"
    assert 0.85 <= up <= 1.1, f"lambda upper = {up}"
    assert time.time() - t0 < 60.0
    _announce(6, "zero-exponent calibration", t0)


def test_criterion_7_ode_solver():
    t0 = time.time()
    # linearity to 1e-12 (fixed draws)
    eq = ode.LinearODE(2, (ps.builtin("poly", coeffs=[1.0]),
                           ps.builtin("poly", coeffs=[0.0])))
    rng = np.random.default_rng(12345)
    for _ in range(4):
        v = rng.normal(size=8)
        i1 = ode.InitialData((complex(v[0], v[1]), complex(v[2], v[3])))
        i2 = ode.InitialData((complex(v[4], v[5]), complex(v[6], v[7])))
        i12 = ode.InitialData((i1.values[0] + i2.values[0],
                               i1.values[1] + i2.values[1]))
        su = ps.combine(ode.solve_series(eq, i1, 40),
                        ode.solve_series(eq, i2, 40), "add")
        ref = ode.solve_series(eq, i12, 40)
        for n in range(40):
            a = su.coeff.lh[n]; b = ref.coeff.lh[n]
            if math.isfinite(b):
                assert abs(a - b) < 1e-12 or b < -600
    # sin/cos reproduction to 1e-12 relative through n = 40
    sin_sol = ode.solve_series(eq, ode.InitialData((0.0, 1.0)), 42)
    cos_sol = ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 42)
    for sol, ref, start in ((sin_sol, ps.builtin("sin", 42), 1),
                            (cos_sol, ps.builtin("cos", 42), 0)):
        for n in range(start, 41, 2):
            assert abs(sol.coeff.lh[n] - ref.coeff.lh[n]) < 1e-12
            assert abs(math.cos(sol.coeff.ph[n])
                       - math.cos(ref.coeff.ph[n])) < 1e-12
    # residual certificates for the shipped equations at experiment radii
    airy_eq = ode.LinearODE(2, (ps.builtin("poly", coeffs=[0.0, -1.0]),
                                ps.builtin("poly", coeffs=[0.0])))
    _, info = ode.auto_solve(airy_eq, ode.InitialData((1.0, 0.0)), 5.0,
                             n_start=1 << 8)
    assert info["residual"] < 1e-8 and not info["capped"]
    bessel = ode.LinearODE(2, (ps.builtin("exp", 220),
                               ps.builtin("poly", coeffs=[0.0])))
    _, info_b = ode.auto_solve(bessel, ode.InitialData((1.0, 0.0)), 14.0,
                               n_cap=1 << 14)
    assert info_b["residual"] < 1e-8
    two_exp = ode.LinearODE(2, (ps.scale_argument(ps.builtin("exp", 300),
                                                  2.0),
                                ps.builtin("exp", 300)))
    _, info_t = ode.auto_solve(two_exp, ode.InitialData((1.0, 0.0)), 8.0,
                               n_cap=1 << 14)
    assert info_t["residual"] < 1e-8
    first_order = ode.LinearODE(2, (ps.builtin("exp", 220),
                                    ps.builtin("poly", coeffs=[0.0, 1.0])))
    _, info_f = ode.auto_solve(first_order, ode.InitialData((1.0, 0.0)),
                               10.0, n_cap=1 << 13)
    assert info_f["residual"] < 1e-8
    assert time.time() - t0 < 30.0
    _announce(7, "ode solver", t0)


def test_criterion_8_theorem_experiment(theorem_report):
    t0 = time.time()
    rep = theorem_report
    assert rep.verdict == "pass"
    elapsed = rep.environment["elapsed_s"]
    assert elapsed < 300.0, f"experiment took {elapsed}s"
    by_name = {c.name: c for c in rep.checks}
    sol_tags = sorted({c.name.split("[")[1].rstrip("]")
                       for c in rep.checks if c.name.startswith("wrapped_mu")})
    assert len(sol_tags) == 3  # two canonical + one random combination
    for tag in sol_tags:
        for prefix in ("wrapped_mu", "wrapped_rho"):
            rec = by_name[f"{prefix}[{tag}]"]
            assert rec.verdict == "pass"
            assert 0.8 <= rec.measured <= 1.1
        assert by_name[f"classical_diverges[{tag}]"].verdict == "pass"
        assert by_name[f"zeros_beyond_8[{tag}]"].verdict == "pass"
        assert by_name[f"lambda_trend[{tag}]"].verdict == "pass"
        assert by_name[f"lambda_wrapped[{tag}]"].verdict == "pass"
        assert by_name[f"residual[{tag}]"].measured < 1e-8
    print(f"\ncriterion 8 (dominant-coefficient theorem): PASS "
          f"(experiment {elapsed:.0f}s, asserts {time.time() - t0:.1f}s)")


def test_theorem_marches_hold_every_band_read(theorem_run):
    # each solution's integer march ends past every mp band its counts
    # read, and short of the 2,048-term probe it was sized from
    recs = theorem_run[1]
    assert len(recs) == 3
    for rec in recs:
        assert_march_holds_bands(rec)


def test_criterion_9_negative_control():
    t0 = time.time()
    rep = harness.run_config(
        harness.shipped_config("theorem_dominant_negative"))
    assert rep.verdict == "hypotheses-not-met"
    assert not any(c.name.startswith(("wrapped_", "lambda_", "zeros_"))
                   for c in rep.checks)
    assert time.time() - t0 < 60.0
    _announce(9, "negative control gates conclusions", t0)


def test_criterion_10_proposition_suite():
    t0 = time.time()
    rep = harness.run_config(harness.shipped_config("propositions"))
    assert rep.verdict == "pass"
    by_name = {c.name: c for c in rep.checks}
    assert by_name["domination_positive"].measured < 0.01
    assert 0.45 <= by_name["domination_negative_control"].measured <= 0.55
    assert time.time() - t0 < 5.0
    _announce(10, "proposition suite", t0)


def test_criterion_11_determinism():
    t0 = time.time()
    names = ["analyze_exp", "propositions", "scales_default",
             "theorem_dominant_first_order"]
    first, second = [], []
    for round_out in (first, second):
        for name in names:
            rep = harness.run_config(harness.shipped_config(name))
            doc = rep.as_dict()
            doc.pop("environment")
            round_out.append(doc)
    assert first == second
    _announce(11, "determinism", t0)

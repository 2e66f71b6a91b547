"""The set-up paths around the kernels equal their references in
tests/setupref.py byte for byte: the top-down trusted-radius scan, the
written-out power chain and band build, the plain read-out of few sums
and the phase table.  Also: one derivative per coefficient set, and a
scale triple constant on a grid fails before any march."""

import json
import math
import random
import struct

import numpy as np
import pytest

import setupref
from growthlab import _evalcore, cli, harness, ode
from growthlab import series as ps
from growthlab.harness import ConfigError


def same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def same_band(got, want) -> bool:
    (g_head, g_floor), (w_head, w_floor) = got, want
    *g_ends, (g_ns, g_tr, g_ti) = g_head
    *w_ends, (w_ns, w_tr, w_ti) = w_head
    return (g_ends == w_ends and same_float(g_floor, w_floor)
            and g_ns.tobytes() == w_ns.tobytes()
            and g_tr.dtype == w_tr.dtype == object
            and g_tr.tolist() == w_tr.tolist()
            and g_ti.tolist() == w_ti.tolist()
            and all(type(v) is int for v in g_tr.tolist() + g_ti.tolist()))


class _CountingNumpy:
    """numpy for series, with np.max calls counted: one per radius
    _certify_radius tests."""

    def __init__(self):
        self.calls = 0

    def max(self, *args, **kw):
        self.calls += 1
        return np.max(*args, **kw)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def radius_log(monkeypatch):
    """Every _certify_radius call from here on, as (lh, radius, radii
    tested), after checking its radius against the bottom-up scan."""
    counting, log = _CountingNumpy(), []
    scan = ps._certify_radius

    def logged(lh):
        counting.calls = 0
        got = scan(lh)
        log.append((lh, got, counting.calls))
        assert same_float(got, setupref.certify_radius(lh)), lh
        return got

    monkeypatch.setattr(ps, "np", counting)
    monkeypatch.setattr(ps, "_certify_radius", logged)
    return log


# lengths that end on a structural zero: cos at even n (its last index
# odd), sin at odd n
_BUILTINS = [("exp", 400), ("exp", 60), ("sin", 700), ("sin", 201),
             ("cos", 200), ("cos", 201), ("exp_exp", 400), ("exp_exp", 40)]


@pytest.mark.parametrize("name,n", _BUILTINS)
def test_builtin_radius_bytes(name, n):
    f = ps.builtin(name, n)
    assert same_float(ps._certify_radius(f.coeff.lh),
                      setupref.certify_radius(f.coeff.lh))


@pytest.mark.parametrize("n", [64, 200, 203, 256, 1000])
def test_airy_like_radius_bytes(n):
    # airy_like's nonzero indices are 0 mod 3: 200 and 203 end on a zero
    lh = ode.airy_like(n).coeff.lh
    assert same_float(ps._certify_radius(lh), setupref.certify_radius(lh))


def test_solutions_radius_bytes(radius_log):
    """Every series theorem_dominant builds (its basis and combined
    solutions, probes, h = f - g and derivatives) and theorem_type's
    16,384-term basis solutions take the radius of the bottom-up scan,
    each after testing at most 6 of the 64 radii."""
    harness.run_config(harness.shipped_config("theorem_dominant"))
    cfg = harness.validate(harness.shipped_config("theorem_type"))
    eq = cfg["equation"]
    solved = harness._theorem_solutions(
        eq, harness._initial_vectors(eq.k, cfg["seed"])[:eq.k], cfg["r_max"],
        harness._THEOREM_RESIDUAL_TOL, cfg["max_terms"])
    assert max(sol.n_terms for sol, _ in solved) == 1 << 14
    assert len(radius_log) > 20
    assert max(tested for _, _, tested in radius_log) <= 6


def test_exp_400_scan_stops_early(radius_log):
    """The scan starts at the top radius: exp 400's answer is found
    after testing a few of the 64 radii (3 today), not all of them."""
    lh = ps.builtin("exp", 400).coeff.lh.copy()
    ps._certify_radius(lh)
    (_, radius, tested), = radius_log
    assert 0 < radius < math.inf
    assert tested <= 6


def test_non_adjacent_passes_give_the_largest(monkeypatch):
    """With the tail test made to pass at scattered radii (log mu lifted
    at every other radius, by the radius alone), the scan still returns
    the bottom-up scan's float: the largest passing radius."""
    passed = []

    class Lifted:
        def max(self, x):
            lift = 1e3 if int(abs(float(x[1] - x[0])) * 50) % 2 else 0.0
            if lift:
                passed.append(float(x[1] - x[0]))
            return np.max(x) + lift

        def __getattr__(self, name):
            return getattr(np, name)

    lh = ps.builtin("exp", 30).coeff.lh.copy()
    lh[12:] -= 40.0  # no radius passes unlifted near the top
    monkeypatch.setattr(ps, "np", Lifted())
    monkeypatch.setattr(setupref, "np", Lifted())
    want = setupref.certify_radius(lh)
    assert len(passed) >= 2 and 0 < want < math.inf
    assert same_float(ps._certify_radius(lh), want)


def _band_cases():
    yield "exp 400", ps.builtin("exp", 400), [5.0, 40.0, 90.0]
    yield "sin 201", ps.builtin("sin", 201), [3.0, 30.0]
    yield "cos 200", ps.builtin("cos", 200), [30.0]
    yield "exp_exp", ps.builtin("exp_exp", 400), [1.0, 3.0]
    yield "airy", ode.airy_like(256), [4.0, 12.0]
    yield "rotated", ps.scale_argument(ps.builtin("exp", 300),
                                       0.5 - 1.5j), [10.0]
    yield "halved", ps.scale_argument(ps.builtin("exp", 300), -0.5), [40.0]


@pytest.mark.parametrize("case", list(_band_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("level,dps", [("dd", None), ("mp", 40), ("mp", 90)])
def test_band_bytes(case, level, dps):
    _, f, radii = case
    for r in radii:
        f.coeff._a_cache.clear()
        got = _evalcore._fixed_band(f.coeff, math.log(r), level, dps)
        want = setupref.fixed_band(f.coeff, math.log(r), level, dps)
        assert same_band(got, want), r


def test_theorem_dominant_band_bytes():
    """dd and mp bands of theorem_dominant's basis solutions, whose exact
    values come from the integer march."""
    cfg = harness.validate(harness.shipped_config("theorem_dominant"))
    for i in range(2):
        f = ode.solve_series(cfg["equation"], ode.InitialData.basis(2, i),
                             700)
        for r, level, dps in ((6.0, "dd", None), (6.0, "mp", 50),
                              (9.0, "mp", 75)):
            f.coeff._a_cache.clear()
            got = _evalcore._fixed_band(f.coeff, math.log(r), level, dps)
            assert same_band(got, setupref.fixed_band(f.coeff, math.log(r),
                                                      level, dps))


@pytest.mark.parametrize("seed", range(6))
def test_power_chain_bytes(seed):
    rng = random.Random(seed)
    bits = rng.choice([40, 128, 300])

    def triple(real):
        v = complex(rng.uniform(-3, 3), 0.0 if real else rng.uniform(-3, 3))
        return _evalcore._fixed_round(_evalcore._fixed_of_complex(v), bits)

    for real_x, real_w in ((True, True), (True, False), (False, True),
                           (False, False)):
        x0, w = triple(real_x), triple(real_w)
        assert (_evalcore._fixed_powers(x0, w, 300, bits)
                == setupref.fixed_powers(x0, w, 300, bits))
    unit = (1, 0, 0)
    assert (_evalcore._fixed_powers(unit, triple(True), 1, bits)
            == setupref.fixed_powers(unit, triple(True), 1, bits) == [unit])


def test_twiddle_bytes():
    """The twiddle tables, built by the complex chain, hold the integers
    the _fixed_mul chain gives."""
    bits, m = 200, 64
    g = bits + 16 + m.bit_length()
    lib = _evalcore.mp.libmp
    arg = lib.mpf_div(lib.mpf_pi(g + 8), lib.from_int(m), g + 8)
    w = (*(_evalcore._to_fixed(v, g + 4) for v in lib.mpf_cos_sin(arg, g + 8)),
         -g - 4)
    assert (_evalcore._fixed_powers((1, 0, 0), w, m // 4 + 1, g)
            == setupref.fixed_powers((1, 0, 0), w, m // 4 + 1, g))


def _random_sums(rng, count, bits):
    sizes = [0, 1, 2, 40, 63, 64, 65, 120, bits - 1, bits, bits + 9, 700]
    ar = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice(sizes))
          for _ in range(count)]
    ai = [rng.choice((-1, 1)) * rng.getrandbits(rng.choice(sizes))
          for _ in range(count)]
    for j in range(count):
        if rng.random() < 0.15:
            ar[j] = ai[j] = 0
    return ar, ai


@pytest.mark.parametrize("turned", [False, True])
def test_few_values_bytes(turned):
    """Sums of 1 to 8 values, and every size up to the object-array
    threshold and past it, read the bytes of the object-array path."""
    rng = random.Random(39 + turned)
    counts = [1 + k % 8 for k in range(400)] + list(
        range(1, _evalcore._FEW_VALUES + 3))
    for count in counts:
        bits = rng.choice([110, 230, 400])
        ar, ai = _random_sums(rng, count, bits)
        turn = None
        if turned:
            cs = [_evalcore._fixed_cis(rng.randrange(1, 900),
                                       rng.uniform(0.0, 6.3), bits)
                  for _ in ar]
            tab = tuple(np.array(t, dtype=object) for t in zip(*cs))

            def turn(js, tab=tab):
                return tab[0][js], tab[1][js]
        log_mu, floor = rng.uniform(-50, 900), rng.uniform(-90, 0)
        got = _evalcore._result_fixed(ar, ai, bits, log_mu, floor, "mp",
                                      turn)
        want = setupref.result_fixed(ar, ai, bits, log_mu, floor, "mp", turn)
        assert got.logabs.tobytes() == want.logabs.tobytes(), (ar, ai)
        assert got.phase.tobytes() == want.phase.tobytes(), (ar, ai)
        assert (got.floor_ln, got.log_mu, got.level, got.mirrored) == (
            floor, log_mu, "mp", False)


def test_points_read_the_bytes_of_the_object_arrays(monkeypatch):
    """eval_points at dd and mp, 1 to 40 angles, equals its read-out
    through object arrays."""
    f = ps.builtin("exp", 400)
    rng = np.random.default_rng(5)
    thetas = [rng.uniform(0, 2 * np.pi, k) for k in (1, 2, 3, 8, 33, 40)]
    got = [_evalcore.eval_points(f.coeff, math.log(40.0), th, level=lv,
                                 dps=60) for th in thetas
           for lv in ("dd", "mp")]
    monkeypatch.setattr(_evalcore, "_result_fixed", setupref.result_fixed)
    want = [_evalcore.eval_points(f.coeff, math.log(40.0), th, level=lv,
                                  dps=60) for th in thetas
            for lv in ("dd", "mp")]
    for a, b in zip(got, want):
        assert a.logabs.tobytes() == b.logabs.tobytes()
        assert a.phase.tobytes() == b.phase.tobytes()


def test_coeff_cis_bytes():
    rng = np.random.default_rng(8)
    grid = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1.5 * np.pi,
            -1.5 * np.pi, 2 * np.pi, np.nextafter(np.pi, 0.0), np.nan,
            np.inf, -np.inf]
    for n in (0, 1, 7, 400, 5000):
        ph = np.concatenate([rng.uniform(-np.pi, np.pi, n),
                             rng.choice(grid, n)])
        rng.shuffle(ph)
        with np.errstate(invalid="ignore"):
            got, want = _evalcore._coeff_cis(ph), setupref.coeff_cis(ph)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestDerivativeCache:
    def test_second_call_shares_the_coefficients(self):
        f = ps.builtin("exp", 300)
        a, b = ps.derivative(f), ps.derivative(f)
        assert a.coeff is b.coeff
        assert a.guaranteed_radius == b.guaranteed_radius

    def test_provenance_follows_the_wrapper(self):
        air = ode.airy_like(200)
        sol = ps.PowerSeries(air.coeff, "a solution", air.guaranteed_radius)
        assert ps.derivative(air).provenance == "airy_like'"
        assert ps.derivative(sol).provenance == "a solution'"
        assert ps.derivative(air).coeff is ps.derivative(sol).coeff

    def test_bytes_equal_a_fresh_build(self):
        f = ps.builtin("sin", 700)
        log_r = math.log(30.0)
        cached = ps.derivative(f)
        first = _evalcore.eval_circle(cached.coeff, log_r, 256, "mp", 40)
        again = ps.derivative(f)
        assert again.coeff is cached.coeff
        fresh = ps._derive(f.coeff)[0]
        assert fresh is not cached.coeff
        assert fresh.lh.tobytes() == again.coeff.lh.tobytes()
        assert fresh.ph.tobytes() == again.coeff.ph.tobytes()
        assert fresh.mp_logs(40) == again.coeff.mp_logs(40)
        for coeff in (again.coeff, fresh):
            res = _evalcore.eval_circle(coeff, log_r, 256, "mp", 40)
            assert res.logabs.tobytes() == first.logabs.tobytes()
            assert res.phase.tobytes() == first.phase.tobytes()

    def test_rebuilt_once_the_parent_values_change(self):
        f = ps.builtin("exp", 200)
        a = ps.derivative(f)
        a.coeff.mp_logs(30, 50)  # derived from the builtin's own entry
        assert ps.derivative(f).coeff is a.coeff
        f.coeff.mp_logs(f.coeff._mp_entry[0] + 20)  # a deeper entry
        b = ps.derivative(f)
        assert b.coeff is not a.coeff
        assert b.coeff.mp_logs(30, 50) == ps._derive(f.coeff)[0].mp_logs(
            30, 50)

    def test_short_series(self):
        f = ps.builtin("poly", coeffs=[2.0])
        d = ps.derivative(f)
        assert d.n_terms == 1 and d.coeff.lh[0] == -np.inf
        assert ps.derivative(f).coeff is d.coeff


def _flat_tail_config(**over):
    # beta(log gamma(r)) = log_plus(ln r) is 1 wherever ln r <= e (r <=
    # 15.15): on the whole shipped solution grid (4 to 14)
    cfg = harness.shipped_config("theorem_dominant")
    cfg["scales"] = {"alpha": {"kind": "log_plus"},
                     "beta": {"kind": "log_plus"},
                     "gamma": {"kind": "identity"}}
    cfg.update(over)
    return cfg


@pytest.fixture
def no_march(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("marched before the grids were checked")

    monkeypatch.setattr(ode, "auto_solve", refuse)


class TestConstantTriple:
    def test_flat_solution_grid_fails_before_any_march(self, no_march):
        with pytest.raises(ConfigError, match="no denominator spread") as err:
            harness.run_config(_flat_tail_config())
        assert err.value.path == "/solution_grid"

    def test_flat_solution_grid_exits_two(self, no_march, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_flat_tail_config()))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "config error: /solution_grid: " in capsys.readouterr().err

    def test_flat_count_radii_fail_before_any_march(self, no_march):
        cfg = _flat_tail_config(
            solution_grid={"r_min": 4.0, "r_max": 40.0, "points": 20})
        cfg["oscillation"]["radii"] = [5.0, 6.3, 7.1, 8.05]
        with pytest.raises(ConfigError, match="no denominator spread") as err:
            harness.run_config(cfg)
        assert err.value.path == "/oscillation/radii"

    def test_partly_flat_grid_fails_after_the_marches(self, monkeypatch):
        """Nominally 4 to 40, cut at r_max = 14 to its flat part: the
        estimate finds that after marching, as before."""
        marched = []
        solve = ode.auto_solve

        def logged(*args, **kw):
            marched.append(1)
            return solve(*args, **kw)

        monkeypatch.setattr(ode, "auto_solve", logged)
        cfg = _flat_tail_config(
            solution_grid={"r_min": 4.0, "r_max": 40.0, "points": 20})
        cfg["oscillation"]["n_subjects"] = 0
        with pytest.raises(ConfigError, match="no denominator spread") as err:
            harness.run_config(cfg)
        assert err.value.path == "/solution_grid"
        assert marched

"""The mp points kernel and the dd/mp circle FFT against a direct mpmath
evaluation of the series, and the bytes of the d kernel and the double
ODE march across BLAS thread counts."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import growthlab
from growthlab import _evalcore
from growthlab import series
from mpref import to_mpc


def direct_sum(coeff, log_r, thetas, dps, log_mu):
    """f(r e^{i theta}) / mu(r) summed over every stored term at dps + 40.

    Uses the same coefficient data the kernel reads (mp_logs(dps)), so any
    difference is the kernel's arithmetic and band cut, not the data.  An
    angle given as a Fraction is a number of turns, taken exactly: theta =
    2 pi t.
    """
    values = to_mpc(coeff.mp_logs(dps))
    with mp.workdps(dps + 40):
        lr = mp.mpf(log_r)
        lmu = mp.mpf(log_mu)
        terms = [values[n] * mp.exp(n * lr - lmu)
                 if math.isfinite(coeff.lh[n]) else mp.mpc(0)
                 for n in range(coeff.n_terms)]
        out = []
        for th in thetas:
            if isinstance(th, Fraction):
                x = mp.expj(2 * mp.pi * th.numerator / th.denominator)
            else:
                x = mp.expj(mp.mpf(float(th)))
            acc = mp.mpc(0)
            for t in reversed(terms):
                acc = acc * x + t
            out.append(acc)
    return out


def _angles_near_axis():
    eps = [1e-3, 1e-6, 1e-9]
    return np.array([0.0, math.pi, 0.5 * math.pi, 2.0]
                    + eps + [2.0 * math.pi - e for e in eps]
                    + [math.pi - e for e in eps] + [math.pi + e for e in eps])


CASES = [
    # sin: the real axis is where the circle passes nearest a zero
    ("sin", 700, 200.0, _angles_near_axis()),
    # a circle passing 1e-7 from the zero 64 pi
    ("sin", 700, 64.0 * math.pi - 1e-7, _angles_near_axis()),
    # e^z: cancellation deepens towards theta = pi; acos(-0.68) puts
    # ln|f| about 5 nats above the floor
    ("exp", 400, 100.0, np.concatenate([
        _angles_near_axis(), np.arccos([-0.3, -0.55, -0.68, -0.72])])),
]


@pytest.mark.parametrize("level", ["dd", "mp"])
@pytest.mark.parametrize("name,n_terms,r,thetas", CASES)
def test_points_kernel_matches_direct_sum(name, n_terms, r, thetas, level):
    """The fixed-point Horner at scattered float angles.

    The mp sum must sit e^20 under its floor; the dd sum reads the
    double-double terms, so only its floor is promised."""
    f = series.builtin(name, n_terms)
    log_r = math.log(r)
    # the reference needs these digits at either level to resolve the
    # deepest cancellation
    dps = _evalcore.dps_for_floor(f.coeff, log_r, min(0.0, log_r) - 45.0)
    res = _evalcore.eval_points(f.coeff, log_r, thetas, level=level,
                                dps=dps if level == "mp" else None)
    assert res.level == level
    ref = direct_sum(f.coeff, log_r, thetas, dps, res.log_mu)
    depth = _assert_matches(res, ref, range(len(thetas)),
                            20.0 if level == "mp" else 0.0)
    # the case reaches deep cancellation: at least 180 nats below mu(r)
    assert depth < -180.0


def _assert_matches(res, ref, picks, margin):
    """res at the angles `picks` is within e^(floor_ln - margin) of ref, plus
    the float rounding of the returned (ln|f|, arg f) pair."""
    floor_rel = mp.exp(res.floor_ln - res.log_mu - margin)
    depth = []
    with mp.workdps(60):
        for j, want in zip(picks, ref):
            got = mp.exp(mp.mpc(res.logabs[j] - res.log_mu, res.phase[j]))
            err = abs(got - want)
            assert err <= floor_rel + 1e-12 * abs(want), (
                f"j={j}: ln|err/mu| = {float(mp.log(err))}, "
                f"floor {res.floor_ln - res.log_mu}")
            depth.append(float(mp.log(abs(want))))
    return min(depth)


# (builtin, n_terms, r, m, level): m in {64, 512, 1024}, with band widths
# N = hi - lo above m (the fold) and below it
CIRCLES = [
    ("exp", 4000, 3000.0, 64, "dd"),   # N ~ 1.8k, like the ODE residual
    ("sin", 700, 200.0, 64, "dd"),
    ("sin", 700, 58.5, 512, "dd"),     # N < m
    ("exp", 400, 40.0, 1024, "dd"),    # N < m
    ("sin", 700, 200.0, 64, "mp"),
    ("exp", 400, 100.0, 512, "mp"),
    ("sin", 700, 58.5, 1024, "mp"),    # N < m
]


@pytest.mark.parametrize("offset", [True, False])
@pytest.mark.parametrize("name,n_terms,r,m,level", CIRCLES)
def test_fft_circle_matches_direct_sum(name, n_terms, r, m, level, offset):
    """dd and mp circles at the exact angles 2 pi (j + offset/2) / m.

    The mp circle must sit e^20 under its floor, as the points kernel does;
    the dd circle reads double-double terms, so only its floor is promised.
    The picks include the deepest sample, where a wrong fold, twist or scale
    shows first."""
    f = series.builtin(name, n_terms)
    log_r = math.log(r)
    dps = (_evalcore.dps_for_floor(f.coeff, log_r, min(0.0, log_r) - 45.0)
           if level == "mp" else None)
    res = _evalcore.eval_circle(f.coeff, log_r, m, offset=offset,
                                level=level, dps=dps)
    lo, hi, _ = (_evalcore._mp_band(f.coeff, log_r, dps) if dps else
                 _evalcore._band(f.coeff, log_r, _evalcore._BAND_CUT["dd"]))
    assert (hi - lo > m) == (m == 64)
    picks = sorted(set(range(0, m, m // 8)) | {int(np.argmin(res.logabs)),
                                                m - 1})
    turns = [Fraction(2 * j + offset, 2 * m) for j in picks]
    ref = direct_sum(f.coeff, log_r, turns, dps or 50, res.log_mu)
    depth = _assert_matches(res, ref, picks, 20.0 if level == "mp" else 0.0)
    # the circle reaches cancellation deeper than double precision
    assert depth < -40.0


@pytest.mark.parametrize("level,dps", [("dd", None), ("mp", 40)])
def test_circle_of_other_size_is_refused(level, dps):
    # dd and mp circles take a power of two up to _FFT_MAX_ANGLES; d any m
    f = series.builtin("sin", 700)
    log_r = math.log(58.5)
    for m in (96, 0, 2 * _evalcore._FFT_MAX_ANGLES):
        with pytest.raises(ValueError, match="power of two"):
            _evalcore.eval_circle(f.coeff, log_r, m, level=level, dps=dps)
    assert len(_evalcore.eval_circle(f.coeff, log_r, 96).logabs) == 96


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize("m", [512, 1024])
@pytest.mark.parametrize("level", ["mp"])  # the one level eval_circle_at reads
def test_circle_at_indices_matches_points(monkeypatch, level, m, offset):
    """eval_circle_at's FFT values at picked indices against eval_points at
    the float angles theta_j = 2 pi (j + offset/2) / m.

    Both read one band, and each is within its floor of the band's sum at
    its own angle; the float angle is off the exact one by d_j < 2^-50,
    which moves f by about d_j |z f'(z)|, taken here with a factor 2 to
    spare.  So at a trusted value |f| the two agree to delta = 2 e^floor +
    2 d_j |z f'|: ln|f| within -ln(1 - delta / |f|), the phase within
    asin(delta / |f|), plus the float rounding of the returned pair.  A
    neighbouring index moves the phase by about
    2 pi r / m > 0.3 here, so a wrong index shows.
    """
    monkeypatch.setattr(_evalcore, "_POINTS_CALL_STEPS", math.inf)
    f = series.builtin("sin", 700)
    log_r = math.log(58.5)
    dps = _evalcore.dps_for_floor(f.coeff, log_r, min(0.0, log_r) - 45.0)
    idx = np.array(sorted(set(range(0, m, m // 16)) | {1, m // 2 + 1,
                                                        m - 1}))
    a = _evalcore.eval_circle_at(f.coeff, log_r, m, idx, dps, offset=offset)
    thetas = (2.0 * np.pi) * (idx + (0.5 if offset else 0.0)) / m
    b = _evalcore.eval_points(f.coeff, log_r, thetas, level=level, dps=dps)
    assert a.floor_ln == b.floor_ln and a.log_mu == b.log_mu
    zfp = log_r + _evalcore.eval_points(series.derivative(f).coeff, log_r,
                                        thetas, level="dd").logabs
    with mp.workdps(40):
        off = [abs(mp.mpf(float(t)) - 2 * mp.pi * (int(j) + offset / 2) / m)
               for t, j in zip(thetas, idx)]
    trusted = 0
    for k, d in enumerate(off):
        low = min(a.logabs[k], b.logabs[k])
        if low < a.floor_ln + 14.0:
            continue
        trusted += 1
        rel = (2.0 * math.exp(a.floor_ln - low)
               + 2.0 * float(d) * math.exp(zfp[k] - low))
        assert rel < 1e-5
        assert abs(a.logabs[k] - b.logabs[k]) <= (-math.log1p(-rel)
                                                  + 1e-13 * abs(low))
        dphi = (a.phase[k] - b.phase[k] + math.pi) % (2 * math.pi) - math.pi
        assert abs(dphi) <= math.asin(rel) + 1e-13
    assert trusted >= len(idx) // 2


def _rotated_exp():
    """exp 400 at e^{0.3 i} z: a complex series, |f| as e^z's rotated."""
    return series.scale_argument(series.builtin("exp", 400),
                                 complex(math.cos(0.3), math.sin(0.3)))


def _expanded(ar, ai, m, offset, mirrored):
    """_circle_fixed's sums at every angle of the circle."""
    if not mirrored:
        return list(ar), list(ai)
    src, flip = _evalcore._mirror_map(m, offset)
    return ([ar[s] for s in src],
            [-ai[s] if f else ai[s] for s, f in zip(src, flip)])


# the error bound of _circle_fixed in units of 2^-bits, without the
# band's own rounding: (per term, constant) by band kind and mesh
_CIRCLE_BOUND = {(False, True): (0.36, 2.2), (False, False): (0.36, 2.2),
                 (True, True): (0.18, 1.1), (True, False): (0.54, 1.1)}


@pytest.mark.parametrize("offset", [True, False])
@pytest.mark.parametrize("m", [2, 4, 8, 16, 128, 1024, 4096])
@pytest.mark.parametrize("make", [lambda: series.builtin("exp", 400),
                                  lambda: series.builtin("sin", 700),
                                  _rotated_exp],
                         ids=["exp", "sin", "rotated_exp"])
def test_circle_kernel_within_its_bound(make, m, offset):
    """_circle_fixed against the band's integer terms summed exactly by
    mpmath at the exact angles, within the bound its docstring states.
    A real band (exp, sin) takes the half-size transform and comes back
    mirrored; a complex one (rotated exp) takes the m-point FFT.  The
    picks cover both halves of the circle, both parities, and the angles
    on the axis."""
    f = make()
    log_r = math.log(40.0)
    (_, _, _, bits, band), _ = _evalcore._fixed_band(f.coeff, log_r, "dd",
                                                     None)
    real = _evalcore._is_real(band[2])
    assert real == (make is not _rotated_exp)
    ar, ai, q, mirrored = _evalcore._circle_fixed(*band, bits, m, offset)
    assert mirrored == real
    assert len(ar) == (m if not real else m // 2 + (not offset))
    ar, ai = _expanded(ar, ai, m, offset, mirrored)
    picks = sorted({j % m for j in (0, 1, 2, 3, m // 4, m // 2 - 1, m // 2,
                                    m // 2 + 1, m - 3, m - 2, m - 1)}
                   | set(range(0, m, max(1, m // 16))))
    ns, tr, ti = (v.tolist() for v in band)
    per_term, const = _CIRCLE_BOUND[real, offset]
    with mp.workprec(bits + 80):
        scale = mp.mpf(2) ** -bits
        for j in picks:
            x = mp.expjpi(mp.mpf(2 * j + offset) / m)
            acc, prev = mp.mpc(0), ns[0]
            for n, a, b in zip(ns, tr, ti):
                acc = acc * x ** (prev - n) + mp.mpc(a, b)
                prev = n
            want = acc * x ** ns[-1] * scale
            got = mp.mpc(ar[j], ai[j]) * mp.mpf(2) ** -q
            err = abs(got - want) / scale
            assert err <= per_term * len(ns) + const, (j, float(err))


@pytest.mark.parametrize("m,offset", [(1, True), (1, False), (2, True),
                                      (2, False), (64, True), (64, False),
                                      (512, True)])
@pytest.mark.parametrize("level,dps", [("d", None), ("dd", None),
                                       ("mp", 60)])
def test_real_band_circle_is_mirror_symmetric(level, dps, m, offset):
    """Every level's circle of a real series holds exact conjugates at
    theta and -theta: equal logabs, negated phase, and the angles on the
    axis real; each half is within the floor of the direct sum.  A complex
    series' circle is not mirrored."""
    log_r = math.log(40.0)
    for f, real in ((series.builtin("sin", 700), True),
                    (series.builtin("exp", 400), True),
                    (_rotated_exp(), False)):
        res = _evalcore.eval_circle(f.coeff, log_r, m, offset=offset,
                                    level=level, dps=dps)
        assert res.mirrored == real
        if not real:
            continue
        picks = sorted({j % m for j in (0, m // 4 + 1, m // 2, m - 1)})
        turns = [Fraction(2 * j + offset, 2 * m) for j in picks]
        _assert_matches(res, direct_sum(f.coeff, log_r, turns, dps or 50,
                                        res.log_mu), picks, 0.0)
        j = np.arange(m)
        mir = (m - 1 - j) if offset else (-j) % m
        pair = j != mir
        assert res.logabs[mir].tobytes() == res.logabs.tobytes()
        assert np.all(res.phase[mir][pair] == -res.phase[pair])
        assert np.all(np.isin(np.abs(res.phase[~pair]), [0.0, math.pi]))


@pytest.mark.parametrize("m", [96, 97])
def test_d_circle_of_any_size_is_mirrored(m):
    # d takes any m; on an odd offset circle angle (m - 1)/2 is pi itself
    f = series.builtin("exp", 400)
    for offset in (True, False):
        res = _evalcore.eval_circle(f.coeff, math.log(20.0), m, offset=offset)
        j = np.arange(m)
        mir = (m - 1 - j) if offset else (-j) % m
        assert res.mirrored
        assert res.logabs[mir].tobytes() == res.logabs.tobytes()
        assert np.all(res.phase[mir][j != mir] == -res.phase[j != mir])
        assert np.all(np.isin(np.abs(res.phase[j == mir]), [0.0, math.pi]))


@pytest.mark.parametrize("level,dps", [("dd", None), ("mp", 45)])
@pytest.mark.parametrize("offset", [True, False])
def test_complex_series_takes_the_full_circle(level, dps, offset):
    """A complex series reads its whole circle, unmirrored, within the
    floor of the direct sum at the exact angles, as before the half-size
    transform (its complex FFT is unchanged)."""
    f = _rotated_exp()
    log_r = math.log(40.0)
    m = 256
    res = _evalcore.eval_circle(f.coeff, log_r, m, offset=offset,
                                level=level, dps=dps)
    assert not res.mirrored
    picks = sorted({0, 1, m // 4, m // 2 - 1, m // 2, m - 2, m - 1,
                    int(np.argmin(res.logabs))})
    turns = [Fraction(2 * j + offset, 2 * m) for j in picks]
    ref = direct_sum(f.coeff, log_r, turns, dps or 50, res.log_mu)
    _assert_matches(res, ref, picks, 20.0 if level == "mp" else 0.0)
    # not conjugate-symmetric: the mirror angles read different values
    j = np.array(picks)
    mir = (m - 1 - j) if offset else (-j) % m
    assert np.max(np.abs(res.logabs[j] - res.logabs[mir])) > 1.0


@pytest.mark.parametrize("offset", [True, False])
def test_circle_at_reads_each_mirror_pair_once(monkeypatch, offset):
    """On a real band, eval_circle_at's scattered read takes one angle per
    mirror pair of indices, in the upper half circle, and conjugates it
    for the other: the values equal those of reading every index."""
    monkeypatch.setattr(_evalcore, "_POINTS_CALL_STEPS", -math.inf)
    f = series.builtin("sin", 700)
    log_r = math.log(58.5)
    dps = _evalcore.dps_for_floor(f.coeff, log_r, min(0.0, log_r) - 45.0)
    m = 1024
    up = np.array([0, 3, 100, 511])
    idx = np.concatenate([up, (m - 1 - up) if offset else (-up) % m, [7]])
    read = []
    points = _evalcore.eval_points

    def points_logged(coeff, lr, thetas, level="dd", dps=None):
        read.extend(np.asarray(thetas).tolist())
        return points(coeff, lr, thetas, level=level, dps=dps)

    monkeypatch.setattr(_evalcore, "eval_points", points_logged)
    got = _evalcore.eval_circle_at(f.coeff, log_r, m, idx, dps,
                                   offset=offset)
    assert len(read) == len(set(_evalcore._mirror_rep(idx, m, offset)
                                .tolist())) == 5
    assert max(read) <= math.pi
    rep = np.minimum(idx, (m - 1 - idx) if offset else (-idx) % m)
    one = [points(f.coeff, log_r, np.array([t]), level="mp", dps=dps)
           for t in (2.0 * np.pi) * (rep + 0.5 * offset) / m]
    assert got.logabs.tolist() == [r.logabs[0] for r in one]
    sign = np.where(rep != idx, -1.0, 1.0)
    assert got.phase.tolist() == [s * r.phase[0] for s, r in zip(sign, one)]


def test_twiddles_shifted_down_match_fresh():
    f = series.builtin("exp", 400)
    log_r = math.log(100.0)
    # the exact values at the deepest dps first, so that both dps-60
    # circles read the same band integers whatever ran before
    f.coeff.mp_logs(200)

    def circle():
        res = _evalcore.eval_circle(f.coeff, log_r, 512, level="mp", dps=60)
        return res.logabs.tobytes() + res.phase.tobytes()

    _evalcore._TWIDDLES.clear()
    fresh_table = _evalcore._twiddles(512, 300)
    fresh = circle()
    # a deeper request replaces the table; shallower ones shift it down
    _evalcore.eval_circle(f.coeff, log_r, 512, level="mp", dps=200)
    assert _evalcore._TWIDDLES[512][0] > 700
    shifted_table = _evalcore._twiddles(512, 300)
    assert all(list(a) == list(b) for a, b in zip(fresh_table, shifted_table))
    assert circle() == fresh


@pytest.mark.parametrize("m", [1, 2, 4, 64, 1024])
def test_twiddles_are_correctly_rounded(monkeypatch, m):
    """_twiddles(m, bits) against e^{i pi k / m} 2^bits, computed by
    mpmath 64 bits past the scale and rounded to nearest.  Deep tables of
    zeros cached for the sizes m / 2 and 2 m must not be read; a request a
    few bits deeper reads the cached table."""
    monkeypatch.setattr(_evalcore, "_TWIDDLES", {})
    for other in {m // 2, 2 * m} - {0}:
        zeros = np.zeros(other, dtype=object)
        _evalcore._TWIDDLES[other] = (1 << 12, zeros, zeros)
    bits = 300
    re, im = _evalcore._twiddles(m, bits)
    table = _evalcore._TWIDDLES[m]
    _evalcore._twiddles(m, bits + 2)
    assert _evalcore._TWIDDLES[m] is table
    assert len(re) == len(im) == m
    with mp.workprec(bits + 64):
        for k in range(m):
            w = mp.expjpi(mp.mpf(k) / m) * mp.mpf(2) ** bits
            assert (re[k], im[k]) == (int(mp.nint(w.real)),
                                      int(mp.nint(w.imag))), k


def objarray_horner(band, bits, ths):
    """The fixed-point Horner vectorised over the angles with object
    arrays, one numpy pass per term: an independent reference for the
    points kernel, within (N + 1)^2 2^-bits of the exact sum for a band of
    N terms (the bound of the scalar Horner the recurrence replaced)."""
    ns, trs, tis = band
    gaps = (ns[:-1] - ns[1:]).tolist()

    def cis_arrays(g):
        cs = [_evalcore._fixed_cis(g, th, bits) for th in ths]
        return (np.array([c for c, _ in cs], dtype=object),
                np.array([s for _, s in cs], dtype=object))

    powers = {g: cis_arrays(g) for g in set(gaps)}
    ar = np.full(len(ths), trs[0], dtype=object)
    ai = np.full(len(ths), tis[0], dtype=object)
    for g, tr, ti in zip(gaps, trs[1:], tis[1:]):
        xr, xi = powers[g]
        ar, ai = (((ar * xr - ai * xi) >> bits) + tr,
                  ((ar * xi + ai * xr) >> bits) + ti)
    return list(zip(ar, ai))


def _gappy_exp():
    """exp 400 with every coefficient at n divisible by 3 or 5 removed:
    a band with gaps 1, 2 and 3, valued from the stored logs."""
    c = series.builtin("exp", 400).coeff
    n = np.arange(c.n_terms)
    lh = np.where((n % 3 == 0) | (n % 5 == 0), -np.inf, c.lh)
    return _evalcore.CoeffData(lh, c.ph.copy(), c.rel_err_ln)


@pytest.mark.parametrize("n_angles", [1, 2, 8, 513])
@pytest.mark.parametrize("level", ["dd", "mp"])
@pytest.mark.parametrize("make,gaps", [
    (lambda: series.builtin("exp", 400).coeff, {1}),
    (lambda: series.builtin("sin", 700).coeff, {2}),
    (_gappy_exp, {1, 2, 3}),
])
def test_scalar_horner_matches_objarray_horner(make, gaps, level, n_angles):
    """The points kernel (the scalar recurrence, at scale 2^W) against the
    object-array Horner (at scale 2^P) on many angles: within the sum of
    their bounds, (N + 1)^2 2^-P + 2^-(P+3).  The tight check is
    test_points_kernel_within_its_bound."""
    coeff = make()
    (_, _, _, bits, band), _ = _evalcore._fixed_band(
        coeff, math.log(20.0), level, 40 if level == "mp" else None)
    assert set((band[0][:-1] - band[0][1:]).tolist()) == gaps
    thetas = np.random.default_rng(n_angles).uniform(-7.0, 7.0, n_angles)
    terms = _evalcore._reinsch_terms(band, bits)
    got = _evalcore._reinsch_fixed(terms, thetas.tolist())
    ref = objarray_horner(band, bits, thetas.tolist())
    shift = terms[1] - bits
    tol = ((len(band[0]) + 1) ** 2 << shift) + (1 << (shift - 3))
    assert all(abs(g - (h << shift)) <= tol
               for pair, hpair in zip(got, ref) for g, h in zip(pair, hpair))


def _scaled_series():
    return series.scale_argument(series.builtin("exp", 300), 0.5 - 1.5j)


KERNEL_ANGLES = [0.0, 1e-9, 0.5 * math.pi, math.pi - 1e-9, math.pi,
                 *np.random.default_rng(7).uniform(-7.0, 7.0, 3).tolist()]


@pytest.mark.parametrize("level", ["dd", "mp"])
@pytest.mark.parametrize("make,r,stride,real", [
    (lambda: series.builtin("exp", 400).coeff, 20.0, 1, True),
    (lambda: series.builtin("sin", 700).coeff, 60.0, 2, True),
    (_gappy_exp, 20.0, 1, True),
    (lambda: _scaled_series().coeff, 20.0, 1, False),
    # 2,000 equal terms: the flattest band, on which an angle error near
    # the real axis costs most
    (lambda: series.builtin("poly", coeffs=[1.0] * 2000).coeff, 1.0, 1,
     True),
    # one term, z^2, and two terms three apart
    (lambda: series.builtin("poly", coeffs=[0.0, 0.0, 2.5]).coeff, 1.0, 1,
     True),
    (lambda: series.builtin("poly", coeffs=[0.5, 0.0, 0.0, -1.25]).coeff,
     1.0, 3, True),
])
def test_points_kernel_within_its_bound(make, r, stride, real, level):
    """_reinsch_fixed against the exact sum of the band's rounded terms
    (mpref), at the float angles taken exactly: each component within
    eval_points' bound 2^-(P+3), near the real axis too, where the
    recurrence needs its small-angle branch and extra bits."""
    coeff = make()
    (_, _, _, bits, band), _ = _evalcore._fixed_band(
        coeff, math.log(r), level, 45 if level == "mp" else None)
    ns, tr, ti = band
    terms = _evalcore._reinsch_terms(band, bits)
    assert terms[0] == stride and (terms[3] is None) == real
    w = terms[1]
    exact = to_mpc([(int(a), int(b), -bits) for a, b in zip(tr, ti)])
    got = _evalcore._reinsch_fixed(terms, KERNEL_ANGLES)
    with mp.workprec(w + 64):
        for th, (re, im) in zip(KERNEL_ANGLES, got):
            x = mp.mpf(th)
            want = mp.fsum(t * mp.expj((int(n) - int(ns[-1])) * x)
                           for t, n in zip(exact, ns))
            bound = mp.mpf(2) ** (w - bits - 3)
            assert abs(re - want.real * 2 ** w) <= bound, (th, "re")
            assert abs(im - want.imag * 2 ** w) <= bound, (th, "im")


def _ode_solution():
    from growthlab import ode
    eq = ode.LinearODE(2, (series.builtin("exp", 220),
                           series.builtin("poly", coeffs=[0.0])))
    return ode.solve_series(eq, ode.InitialData((1.0, 0.0)), 1024, dps=50)


# (series, r, dps): a band in the middle of exp's stored range, sin's
# zero terms, a complex series, an ODE solution and a derivative
BANDS = [
    (lambda: series.builtin("exp", 400), 40.0, 50),
    (lambda: series.builtin("sin", 700), 200.0, 120),
    (_scaled_series, 20.0, 45),
    (_ode_solution, 6.0, 60),
    (lambda: series.derivative(series.builtin("cos", 400)), 30.0, 40),
]


@pytest.mark.parametrize("make,r,dps", BANDS)
def test_mp_band_matches_mpmath_product(make, r, dps):
    """Each mp band integer against the stored value times r^n / mu(r),
    taken in mpmath with 100 bits to spare, within the bound of
    _fixed_band: (1/2 + 2^-23 |t_n|) 2^-P per component."""
    f = make()
    log_r = math.log(r)
    f.coeff._a_cache.clear()
    (lo, hi, log_mu, bits, (ns, tr, ti)), _ = _evalcore._fixed_band(
        f.coeff, log_r, "mp", dps)
    assert list(ns) == [n for n in range(hi - 1, lo - 1, -1)
                        if math.isfinite(f.coeff.lh[n])]
    values = to_mpc(f.coeff.mp_logs(dps))
    with mp.workprec(bits + 100):
        lr, lmu = mp.mpf(log_r), mp.mpf(log_mu)
        for n, re, im in zip(ns.tolist(), tr, ti):
            t = values[n] * mp.exp(n * lr - lmu) * mp.mpf(2) ** bits
            bound = 0.5 + mp.mpf(2) ** -23 * abs(t) / mp.mpf(2) ** bits
            assert abs(re - t.real) <= bound, n
            assert abs(im - t.imag) <= bound, n


def test_dd_band_cache_keeps_bytes():
    """Scattered dd values from a cached band equal those from a fresh one,
    also after a circle has read the band."""
    f = series.builtin("exp", 400)
    log_r = math.log(40.0)
    thetas = np.linspace(0.0, 6.0, 13)

    def points():
        res = _evalcore.eval_points(f.coeff, log_r, thetas, level="dd")
        return res.logabs.tobytes() + res.phase.tobytes()

    f.coeff._a_cache.clear()
    fresh = points()
    _evalcore.eval_circle(f.coeff, log_r, 256, level="dd")
    assert points() == fresh


def test_dd_reads_the_exact_values():
    """The dd band comes from the exact values (mp_logs), not from the
    stored logs: exp 400 with its logs moved by 1e-12 reads ln|e^z| at
    dd, at points and on a circle, as exp 400 does, to 1e-14."""
    f = series.builtin("exp", 400)
    bent = series.make_series(f.coeff.lh + 1e-12, f.coeff.ph,
                              f.coeff.rel_err_ln, "bent exp",
                              mp_factory=f.coeff.mp_factory)
    log_r = math.log(10.0)
    thetas = np.append(np.linspace(-3.0, 3.0, 9), math.pi)
    for read in (lambda c: _evalcore.eval_points(c, log_r, thetas,
                                                 level="dd"),
                 lambda c: _evalcore.eval_circle(c, log_r, 64, level="dd")):
        want, got = read(f.coeff).logabs, read(bent.coeff).logabs
        assert np.max(np.abs(got - want)) <= 1e-14


def test_d_band_is_built_once_per_radius():
    """The d band is cached per (series, radius) like the dd and mp bands:
    a circle and later points at one radius read the band the first
    points built, with the bytes of a fresh build."""
    f = series.builtin("exp", 400)
    log_r = math.log(40.0)
    thetas = np.linspace(0.0, 6.0, 13)

    def points():
        res = _evalcore.eval_points(f.coeff, log_r, thetas, level="d")
        return res.logabs.tobytes() + res.phase.tobytes()

    f.coeff._a_cache.clear()
    fresh = points()
    band = f.coeff._a_cache["d"]
    _evalcore.eval_circle(f.coeff, log_r, 256, level="d")
    assert points() == fresh
    assert f.coeff._a_cache["d"] is band
    _evalcore.eval_points(f.coeff, log_r + 0.1, thetas, level="d")
    assert f.coeff._a_cache["d"][0] == ("d", log_r + 0.1)


def band_like(rng, n):
    """n terms shaped like a d band: random phases, |t_n| 1 at the middle
    and e^-60 at the ends (the d cut)."""
    u = (np.arange(n) - 0.5 * (n - 1)) / max(0.5 * (n - 1), 1.0)
    return np.exp(-60.0 * u * u + 1j * rng.uniform(-math.pi, math.pi, n))


@pytest.mark.parametrize("n,p", [(1, 1), (1, 64), (2, 3), (60, 64),
                                 (401, 1), (401, 64), (1442, 17),
                                 (4840, 64), (4993, 1)])
def test_power_table_kernel_matches_mpmath(n, p):
    """_poly_at_points_d on a band of n terms at p points agrees with the
    sum of the same doubles at 30 digits within the d floor, 3e-16 3 n
    relative to the largest term (_evalcore._floor_ln)."""
    rng = np.random.default_rng(7 * n + p)
    t = band_like(rng, n)
    x = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, p))
    got = _evalcore._poly_at_points_d(t, x)
    with mp.workdps(30):
        coeffs = [mp.mpc(c) for c in t[::-1]]
        want = [complex(mp.polyval(coeffs, mp.mpc(z))) for z in x]
    floor = math.exp(_evalcore._floor_ln(0.0, _evalcore._EPS_LN_D, -math.inf,
                                         n))
    assert np.max(np.abs(got - np.array(want))) <= floor


@pytest.mark.parametrize("n", [1, 17, 401, 7300])
@pytest.mark.parametrize("p", [1, 3, 64])
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_band_rows_match_one_band_calls(n, p, k):
    """Each row of a stacked (k, N) _poly_at_points_d call is bit for bit
    the 1-D call on that band (series._max_modulus reads its S_0, S_1, S_2
    from one call)."""
    rng = np.random.default_rng(1000 * n + 10 * p + k)
    t = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    x = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, p))
    got = _evalcore._poly_at_points_d(t, x)
    assert got.shape == (k, p)
    for row, band in zip(got, t):
        assert row.tobytes() == _evalcore._poly_at_points_d(band, x).tobytes()

def loop_result(ar, ai, bits, log_mu, turn=None):
    """(logabs, phase) by the per-point loop that _result_fixed vectorises:
    the reference its bytes must equal."""
    logabs = np.full(len(ar), -np.inf)
    phase = np.zeros(len(ar))
    for j, (vr, vi) in enumerate(zip(ar, ai)):
        if vr == 0 and vi == 0:
            continue
        a2 = vr * vr + vi * vi
        s = max(0, a2.bit_length() - 64)
        logabs[j] = log_mu + 0.5 * (math.log(a2 >> s)
                                    + (s - 2 * bits) * math.log(2.0))
        if turn is not None:
            cr, ci = turn[0][j], turn[1][j]
            vr, vi = vr * cr - vi * ci, vr * ci + vi * cr
        s = max(0, max(abs(vr), abs(vi)).bit_length() - 64)
        phase[j] = math.atan2(float(vi >> s), float(vr >> s))
    return logabs, phase


@pytest.mark.parametrize("turned", [False, True])
def test_result_builder_bytes_match_loop(turned):
    rng = random.Random(7)
    bits = 230
    sizes = [0, 1, 40, 63, 64, 65, 200, 231, 240, 700]
    ar = [rng.choice((-1, 1)) * rng.getrandbits(b) for b in sizes * 4]
    ai = [rng.choice((-1, 1)) * rng.getrandbits(b) for b in sizes[::-1] * 4]
    ar[:3], ai[:3] = [0, 0, 5], [0, 7, 0]
    turn = None
    if turned:
        cs = [_evalcore._fixed_cis(37, rng.uniform(0.0, 6.3), bits)
              for _ in ar]
        turn = tuple(np.array(t, dtype=object) for t in zip(*cs))
    res = _evalcore._result_fixed(
        ar, ai, bits, 12.5, 0.0, "mp",
        (lambda js: (turn[0][js], turn[1][js])) if turned else None)
    logabs, phase = loop_result(ar, ai, bits, 12.5, turn)
    assert res.logabs.tobytes() == logabs.tobytes()
    assert res.phase.tobytes() == phase.tobytes()


_D_DIGEST = """
import hashlib, math
import numpy as np
from growthlab import _evalcore, ode, series
f = series.builtin("sin", 700)
res = _evalcore.eval_points(f.coeff, math.log(200.0),
                            np.linspace(0.0, 2.0 * math.pi, 4096), level="d")
eq = ode.LinearODE(2, (series.scale_argument(series.builtin("exp", 300), 2.0),
                       series.builtin("exp", 300)))
sol = ode.solve_series(eq, ode.InitialData((0.3 + 0.7j, -1.1 + 0.2j)), 2048)
rng = np.random.default_rng(30)
wide = ode.LinearODE(2, tuple(
    series.builtin("poly", coeffs=list(rng.normal(size=6000)
                                       + 1j * rng.normal(size=6000)))
    for _ in range(2)))
long = ode.solve_series(wide, ode.InitialData((1.0, 0.5j)), 8192)
peaks = [series._max_modulus(g, np.log(np.geomspace(0.5, hi, 12)))
         for g, hi in ((f, 200.0), (sol, 0.99 * sol.guaranteed_radius))]
print(hashlib.sha256(res.logabs.tobytes() + res.phase.tobytes()
                     + sol.coeff.lh.tobytes() + sol.coeff.ph.tobytes()
                     + long.coeff.lh.tobytes() + long.coeff.ph.tobytes()
                     + b"".join(v.tobytes() for p in peaks for v in p))
      .hexdigest())
"""


def _d_digest(threads):
    """Digest of a level-d eval_points (the d kernel's dots), of two double
    ODE marches (BLAS dot products; the second sums 12,000-term windows,
    past OpenBLAS's threading threshold) and of grid max-modulus searches
    on the first two series in a fresh process, with the BLAS thread count
    pinned, or left to the library (None)."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(growthlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env.pop(var, None)
        if threads is not None:
            env[var] = str(threads)
    out = subprocess.run([sys.executable, "-c", _D_DIGEST], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_d_kernel_bytes_independent_of_blas_threads():
    single = _d_digest(1)
    assert len(single) == 64
    assert single == _d_digest(None)

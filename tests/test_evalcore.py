"""The mp circle kernel against a direct mpmath evaluation of the series."""

import math

import mpmath as mp
import numpy as np
import pytest

from growthlab import _evalcore
from growthlab import series


def direct_sum(coeff, log_r, thetas, dps, log_mu):
    """f(r e^{i theta}) / mu(r) summed over every stored term at dps + 40.

    Uses the same coefficient data the kernel reads (mp_logs(dps)), so any
    difference is the kernel's arithmetic and band cut, not the data.
    """
    values = coeff.mp_logs(dps)
    with mp.workdps(dps + 40):
        lr = mp.mpf(log_r)
        lmu = mp.mpf(log_mu)
        terms = [values[n] * mp.exp(n * lr - lmu)
                 if math.isfinite(coeff.lh[n]) else mp.mpc(0)
                 for n in range(coeff.n_terms)]
        out = []
        for th in thetas:
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


@pytest.mark.parametrize("name,n_terms,r,thetas", CASES)
def test_mp_kernel_matches_direct_sum(name, n_terms, r, thetas):
    f = series.builtin(name, n_terms)
    log_r = math.log(r)
    dps = _evalcore.dps_for_floor(f.coeff, log_r, min(0.0, log_r) - 45.0)
    res = _evalcore.eval_points(f.coeff, log_r, thetas, level="mp", dps=dps)
    ref = direct_sum(f.coeff, log_r, thetas, dps, res.log_mu)
    # absolute error allowed: e^-20 below the floor, plus the float
    # rounding of the returned (ln|f|, arg f) pair
    floor_rel = mp.exp(res.floor_ln - res.log_mu - 20.0)
    depth = []
    with mp.workdps(dps + 40):
        for j, want in enumerate(ref):
            got = mp.exp(mp.mpc(res.logabs[j] - res.log_mu, res.phase[j]))
            err = abs(got - want)
            assert err <= floor_rel + 1e-12 * abs(want), (
                f"theta={thetas[j]!r}: ln|err/mu| = {float(mp.log(err))}, "
                f"floor {res.floor_ln - res.log_mu}")
            depth.append(float(mp.log(abs(want))))
    # the case reaches deep cancellation: at least 180 nats below mu(r)
    assert min(depth) < -180.0

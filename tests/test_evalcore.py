"""The mp circle kernel against a direct mpmath evaluation of the series,
and the d kernel's bytes across BLAS thread counts."""

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import growthlab
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


_D_DIGEST = """
import hashlib, math
import numpy as np
from growthlab import _evalcore, series
f = series.builtin("sin", 700)
res = _evalcore.eval_points(f.coeff, math.log(200.0),
                            np.linspace(0.0, 2.0 * math.pi, 4096), level="d")
print(hashlib.sha256(res.logabs.tobytes() + res.phase.tobytes()).hexdigest())
"""


def _d_digest(threads):
    """Digest of a level-d eval_points (a BLAS matmul) in a fresh process,
    with the BLAS thread count pinned, or left to the library (None)."""
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

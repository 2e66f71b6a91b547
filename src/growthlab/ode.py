"""Power-series solutions of linear ODEs with entire coefficients.

For f^(k) + A_{k-1} f^(k-1) + ... + A_0 f = F the Taylor coefficients obey

    c_{n+k} (n+k)!/n! = F_n - sum_j sum_m a_{j,m} c_{n-m+j} (n-m+j)!/(n-m)!

which is marched in log-polar form: factorial ratios are short sums of
ln(i) (never a difference of two large lgammas, which would leak absolute
error into every coefficient), and each right-hand side is accumulated as
a max-rescaled complex sum, so the wide dynamic range costs nothing and
subtractive cancellation only spends the ~15 digits a double significand
carries.  A second, mpmath-backed march produces the same solution at
arbitrary precision when downstream consumers (deep zero counting) need
coefficients better than 1e-13 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp
import numpy as np

from . import series as ps
from . import _evalcore

__all__ = ["LinearODE", "InitialData", "solve_series", "fundamental_system",
           "residual_norm", "auto_solve", "airy_like"]


@dataclass(frozen=True)
class LinearODE:
    """f^(k) + A_{k-1} f^(k-1) + ... + A_0 f = rhs (None = homogeneous)."""

    k: int
    coeffs: tuple  # (A_0, ..., A_{k-1}) as PowerSeries
    rhs: Optional[ps.PowerSeries] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("order k must be >= 1")
        if len(self.coeffs) != self.k:
            raise ValueError(f"need exactly k = {self.k} coefficient series")
        if any(a.n_terms == 0 for a in self.coeffs):
            raise ValueError("coefficient series must be nonempty")

    @property
    def homogeneous(self) -> bool:
        return self.rhs is None


@dataclass(frozen=True)
class InitialData:
    """f(0), f'(0), ..., f^(k-1)(0)."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("initial data cannot be empty")

    @classmethod
    def basis(cls, k: int, i: int) -> "InitialData":
        return cls(tuple(1.0 if j == i else 0.0 for j in range(k)))


def _ln_rising(idx: np.ndarray, j: int, ln_table: np.ndarray) -> np.ndarray:
    """ln((idx+j)! / idx!) as a short exact-ish sum of ln(idx+t)."""
    out = np.zeros_like(idx, dtype=float)
    for t in range(1, j + 1):
        out = out + ln_table[idx + t]
    return out


def solve_series(eq: LinearODE, init: InitialData, n_terms: int,
                 dps: Optional[int] = None) -> ps.PowerSeries:
    """March the coefficient recurrence out to n_terms.

    dps switches to the mpmath march (same recurrence, arbitrary
    precision), whose values seed the result's mp cache.  Either way the
    result carries the mpmath march as its regeneration hook, so deep
    evaluation can ask for more digits later.
    """
    if n_terms <= eq.k:
        raise ValueError("n_terms must exceed the equation order")
    if len(init.values) != eq.k:
        raise ValueError(f"initial data must have length k = {eq.k}")
    if eq.homogeneous and all(v == 0 for v in init.values):
        raise ValueError("zero initial data makes the trivial solution")

    def factory(dps_req):
        return _solve_series_mp(eq, init, n_terms, dps_req)

    if dps is not None:
        values = _solve_series_mp(eq, init, n_terms, dps)
        lh = np.full(n_terms, -np.inf)
        ll = np.zeros(n_terms)
        ph = np.zeros(n_terms)
        with mp.workdps(dps):
            for i, v in enumerate(values):
                if v == 0:
                    continue
                L = mp.log(abs(v))
                hi = float(L)
                lh[i], ll[i] = hi, float(L - hi)
                ph[i] = float(mp.atan2(v.imag, v.real))
        out = ps.make_series(lh, ll, ph, math.log(3e-16), "ode solution",
                             mp_factory=factory)
        out.coeff._mp_entry = (dps, values)
        return out

    k = eq.k
    n_steps = n_terms - k
    ln_table = np.concatenate([[0.0], np.log(np.arange(1, n_terms + k + 1,
                                                       dtype=float))])
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

    a_l = [a.coeff.lh for a in eq.coeffs]
    a_p = [a.coeff.ph for a in eq.coeffs]
    f_l = eq.rhs.coeff.lh if eq.rhs is not None else None
    f_p = eq.rhs.coeff.ph if eq.rhs is not None else None

    for n in range(n_steps):
        parts_l, parts_c = [], []
        for j in range(k):
            mn = min(n, len(a_l[j]) - 1)
            sl_a = a_l[j][:mn + 1]
            if not np.any(np.isfinite(sl_a)):
                continue
            cidx_hi = n + j
            sl_c_l = lc[cidx_hi - mn:cidx_hi + 1][::-1]
            sl_c_p = pc[cidx_hi - mn:cidx_hi + 1][::-1]
            idx = np.arange(n, n - mn - 1, -1)
            ll = sl_a + sl_c_l + _ln_rising(idx, j, ln_table)
            parts_l.append(ll)
            parts_c.append(a_p[j][:mn + 1] + sl_c_p)
        f_term = None
        if f_l is not None and n < len(f_l) and math.isfinite(f_l[n]):
            f_term = (f_l[n], f_p[n])
        if parts_l:
            all_l = np.concatenate(parts_l)
            all_p = np.concatenate(parts_c)
            lmax = float(np.max(all_l))
        else:
            all_l = all_p = None
            lmax = -np.inf
        if f_term is not None:
            lmax = max(lmax, f_term[0])
        if not math.isfinite(lmax):
            continue  # c_{n+k} = 0 (stays -inf)
        num = 0j
        if all_l is not None:
            with np.errstate(under="ignore"):
                mags = np.exp(all_l - lmax)
            num -= complex(np.sum(mags * np.cos(all_p)),
                           np.sum(mags * np.sin(all_p)))
        if f_term is not None:
            num += math.exp(f_term[0] - lmax) * complex(math.cos(f_term[1]),
                                                        math.sin(f_term[1]))
        if num == 0:
            continue
        g_k = float(np.sum(ln_table[n + 1:n + k + 1]))
        lc[n + k] = lmax + math.log(abs(num)) - g_k
        pc[n + k] = math.atan2(num.imag, num.real)

    # observed drift of the log-space march is ~n * 5e-13 at worst
    out = ps.make_series(lc, np.zeros(n_terms), pc,
                         math.log(max(64.0, n_terms) * 2e-12),
                         "ode solution", mp_factory=factory)
    return out


def _solve_series_mp(eq: LinearODE, init: InitialData, n_terms: int,
                     dps: int) -> list:
    """The recurrence marched in mpmath at dps digits: the solution's
    coefficients as a list of mpc (exact zeros as mpc(0))."""
    k = eq.k
    with mp.workdps(dps):
        # each coefficient's nonzero terms (m, a_m), listed once per march
        a_nz = [[(m, v) for m, v in enumerate(a.coeff.mp_logs(dps)) if v != 0]
                for a in eq.coeffs]
        f_vals = eq.rhs.coeff.mp_logs(dps) if eq.rhs is not None else None
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


def fundamental_system(eq: LinearODE, n_terms: int) -> list:
    """The k canonical solutions (basis initial vectors)."""
    if not eq.homogeneous:
        raise ValueError("fundamental systems are for homogeneous equations")
    return [solve_series(eq, InitialData.basis(eq.k, i), n_terms)
            for i in range(eq.k)]


def _cauchy_full(f: ps.PowerSeries, g: ps.PowerSeries) -> ps.PowerSeries:
    """Polynomial-exact product (full convolution), for residuals.

    The public combine() truncates products to the shorter factor, which is
    right for series approximation but would amputate exactly the boundary
    terms a residual is made of.
    """
    lh, ph = ps._cauchy_logpolar(f.coeff.lh, f.coeff.ph, g.coeff.lh,
                                 g.coeff.ph, f.n_terms + g.n_terms - 1)
    out = ps.make_series(lh, np.zeros_like(lh), ph,
                         float(np.logaddexp(f.coeff.rel_err_ln,
                                            g.coeff.rel_err_ln)),
                         f"({f.provenance}*{g.provenance})")
    return out


def residual_norm(eq: LinearODE, f: ps.PowerSeries, log_r: float) -> float:
    """max over 64 equispaced angles of |f^(k) + sum A_j f^(j) - F| relative
    to the maximum term of the dominant contribution at that radius."""
    derivs = [f]
    for _ in range(eq.k):
        derivs.append(ps.derivative(derivs[-1]))
    terms = [derivs[eq.k]]
    for j in range(eq.k):
        terms.append(_cauchy_full(eq.coeffs[j], derivs[j]))
    total = terms[0]
    for t in terms[1:]:
        total = ps.combine(total, t, "add")
    if eq.rhs is not None:
        total = ps.combine(total, eq.rhs, "sub")
    scale_ln = -math.inf
    for t in terms:
        try:
            scale_ln = max(scale_ln, ps.max_term(t, log_r).log_mu)
        except ps.DegenerateSeriesError:
            pass
    if not math.isfinite(scale_ln):
        return 0.0
    res = _evalcore.eval_circle(total.coeff, log_r, 64, offset=True,
                                level="dd")
    top = float(np.max(res.logabs))
    if not math.isfinite(top):
        return 0.0
    return math.exp(top - scale_ln)


def auto_solve(eq: LinearODE, init: InitialData, r_max: float,
               residual_tol: float = 1e-8, n_start: int = 1 << 10,
               n_cap: int = 1 << 16, dps: Optional[int] = None) -> tuple:
    """Double n_terms until the certified radius covers r_max and the
    residual there passes; cap at n_cap.

    Returns (solution, info) where info records the certified radius, the
    radius actually checked, the residual, and whether the cap bound.
    """
    n = n_start
    while True:
        sol = solve_series(eq, init, n, dps=dps)
        r_cert = min(sol.guaranteed_radius,
                     *(a.guaranteed_radius for a in eq.coeffs))
        r_check = min(r_max, r_cert)
        resid = residual_norm(eq, sol, math.log(r_check)) \
            if r_check > 0 else math.inf
        ok = r_cert >= r_max and resid < residual_tol
        if ok or n >= n_cap:
            return sol, {"n_terms": n, "certified_radius": r_cert,
                         "checked_radius": r_check, "residual": resid,
                         "capped": not ok}
        n *= 2


def airy_like(n_terms: int = 200) -> ps.PowerSeries:
    """Solution of f'' - z f = 0 with f(0) = 1, f'(0) = 0."""
    eq = LinearODE(2, (ps.builtin("poly", coeffs=[0.0, -1.0]),
                       ps.builtin("poly", coeffs=[0.0])))
    out = solve_series(eq, InitialData((1.0, 0.0)), n_terms)
    return ps.PowerSeries(out.coeff, "airy_like", out.guaranteed_radius,
                          out.tail_tol)

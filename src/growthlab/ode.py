"""Power-series solutions of linear ODEs with entire coefficients.

For f^(k) + A_{k-1} f^(k-1) + ... + A_0 f = F the Taylor coefficients obey

    c_{n+k} (n+k)!/n! = F_n - sum_j sum_m a_{j,m} c_{n-m+j} (n-m+j)!/(n-m)!

which is marched in log-polar form: factorial ratios are short sums of
ln(i) (never a difference of two large lgammas, which would leak absolute
error into every coefficient), and each right-hand side is accumulated as
a max-rescaled complex sum, so the wide dynamic range costs nothing and
subtractive cancellation only spends the ~15 digits a double significand
carries.  Each coefficient depends only on those below it, so a longer
march resumes a shorter one instead of starting again at index 0: the
doublings of auto_solve march every index once, and its residual is
checked only where it decides the answer (usually once, on the candidate
it returns).  A second march, in fixed-point Python integers, produces the
same solution at arbitrary precision when downstream consumers (deep zero
counting) need coefficients better than 1e-13 relative: each step adds its
exact products at one common exponent and rounds once, within a stated
bound of the exact step (see _solve_series_mp).
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


def solve_series(eq: LinearODE, init: InitialData, n_terms: int,
                 dps: Optional[int] = None,
                 _resume: Optional[ps.PowerSeries] = None) -> ps.PowerSeries:
    """March the coefficient recurrence out to n_terms.

    dps switches to the fixed-point integer march (same recurrence, dps
    digits, error bound in _solve_series_mp), whose values seed the
    result's mp cache.  Either way the result carries the integer march as
    its regeneration hook, so deep evaluation can ask for more digits
    later.  _resume, an earlier double march of the same equation and
    initial data, is extended or cut rather than marched again (see
    _march_d); the integer march ignores it.
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

    lc, pc = _march_d(eq, init, n_terms, _resume)
    # observed drift of the log-space march is ~n * 5e-13 at worst
    out = ps.make_series(lc, np.zeros(n_terms), pc,
                         math.log(max(64.0, n_terms) * 2e-12),
                         "ode solution", mp_factory=factory)
    return out


def _march_d(eq: LinearODE, init: InitialData, n_terms: int,
             prev: Optional[ps.PowerSeries]) -> tuple:
    """The recurrence marched in log-polar double: (ln|c_i|, arg c_i).

    Coefficient i is computed from the coefficients below it only, so a
    march does not depend on its length.  prev, an earlier march of the same
    equation and initial data (or None), is kept as it stands and only the
    indices past it are marched; a shorter request is prev's prefix.  Either
    way the arrays are byte-identical to a march from index 0.
    """
    k = eq.k
    n_steps = n_terms - k
    ln_table = np.concatenate([[0.0], np.log(np.arange(1, n_terms + k + 1,
                                                       dtype=float))])
    lc = np.full(n_terms, -np.inf)
    pc = np.zeros(n_terms)
    if prev is None:
        start = 0
        lgam = 0.0
        for i, v in enumerate(init.values):
            if i:
                lgam += math.log(i)
            v = complex(v)
            if v != 0:
                lc[i] = math.log(abs(v)) - lgam
                pc[i] = math.atan2(v.imag, v.real)
    else:
        kept = min(prev.n_terms, n_terms)
        lc[:kept] = prev.coeff.lh[:kept]
        pc[:kept] = prev.coeff.ph[:kept]
        start = kept - k

    a_l = [a.coeff.lh for a in eq.coeffs]
    a_p = [a.coeff.ph for a in eq.coeffs]
    f_l = eq.rhs.coeff.lh if eq.rhs is not None else None
    f_p = eq.rhs.coeff.ph if eq.rhs is not None else None
    # step invariants: ln((i+j)!/i!) for every step index i, one table per j
    # (summed over t = 1..j in that order), and each coefficient's first
    # finite index (its length if it has none)
    rising = []
    for j in range(k):
        acc = np.zeros(n_steps)
        for t in range(1, j + 1):
            acc = acc + ln_table[t:t + n_steps]
        rising.append(acc)
    first = []
    for lj in a_l:
        fin = np.flatnonzero(np.isfinite(lj))
        first.append(int(fin[0]) if len(fin) else len(lj))

    with np.errstate(under="ignore"):
        for n in range(start, n_steps):
            parts_l, parts_c = [], []
            for j in range(k):
                mn = min(n, len(a_l[j]) - 1)
                if first[j] > mn:
                    continue
                cidx_hi = n + j
                sl_c_l = lc[cidx_hi - mn:cidx_hi + 1][::-1]
                sl_c_p = pc[cidx_hi - mn:cidx_hi + 1][::-1]
                ll = (a_l[j][:mn + 1] + sl_c_l
                      + rising[j][n - mn:n + 1][::-1])
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
                mags = np.exp(all_l - lmax)
                num -= complex(np.sum(mags * np.cos(all_p)),
                               np.sum(mags * np.sin(all_p)))
            if f_term is not None:
                num += math.exp(f_term[0] - lmax) * complex(
                    math.cos(f_term[1]), math.sin(f_term[1]))
            if num == 0:
                continue
            g_k = float(np.sum(ln_table[n + 1:n + k + 1]))
            lc[n + k] = lmax + math.log(abs(num)) - g_k
            pc[n + k] = math.atan2(num.imag, num.real)
    return lc, pc


# bits kept beyond dps log2(10) in the integer march
_MARCH_GUARD_BITS = 32


def _solve_series_mp(eq: LinearODE, init: InitialData, n_terms: int,
                     dps: int) -> list:
    """The recurrence marched in fixed-point integers for dps digits: the
    solution's coefficients as a list of mpc (exact zeros as mpc(0)).

    Every value is a triple (re, im, e) standing for (re + i im) 2^e with
    P + 1 or P + 2 significant bits, P = ceil(dps log2 10) + 32.  A_j and F
    come from their mp_logs(dps) and the initial data from its floats, each
    rounded once to P + 1 bits.  Step n forms every product
    a_{j,m} c_{n-m+j} (n-m+j)!/(n-m)! exactly and adds these and F_n, M
    terms in all, at one exponent E = T - 2P - 16, where T bounds the top
    bit of the largest term: each is floored to a multiple of 2^E, so the
    sum is within M 2^E per component of the exact step on the stored
    inputs.  Dividing by (n+1)...(n+k) is one floor division to P + 1 bits,
    a further 2^-P relative.  The values become mpc at dps digits once, at
    the end.
    """
    k = eq.k
    bits = math.ceil(dps * math.log2(10)) + _MARCH_GUARD_BITS
    # each coefficient's nonzero terms (m, re, im, e), converted once, and
    # -F_n, so that a step's sum is -(c_{n+k} (n+1)...(n+k))
    a_nz = [[(m,) + _fixed_of(v, bits)
             for m, v in enumerate(a.coeff.mp_logs(dps)) if v != 0]
            for a in eq.coeffs]
    neg_f = {}
    if eq.rhs is not None:
        for n, v in enumerate(eq.rhs.coeff.mp_logs(dps)):
            if v != 0:
                re, im, e = _fixed_of(v, bits)
                neg_f[n] = (-re, -im, e)
    c = [None] * n_terms  # None is an exact zero
    for i, v in enumerate(init.values):
        if v != 0:
            c[i] = _fixed_div(*_fixed_of(mp.mpc(complex(v)), bits),
                              math.factorial(i), bits)
    n_steps = n_terms - k
    # per j, the factorial ratio (i+1)...(i+j) of step index i = n - m and
    # its bit length; a product's components are below 2^(e + 2P + 5 + that)
    ratio = [[math.prod(range(i + 1, i + j + 1)) for i in range(n_steps)]
             for j in range(k)]
    ratio_bits = [[r.bit_length() for r in rj] for rj in ratio]
    for n in range(n_steps):
        terms = []
        top = -math.inf  # T - 2P - 5
        for j in range(k):
            rj, bj = ratio[j], ratio_bits[j]
            for m, ar, ai, ea in a_nz[j]:
                if m > n:
                    break
                cv = c[n - m + j]
                if cv is None:
                    continue
                cr, ci, ec = cv
                re = ar * cr - ai * ci
                im = ar * ci + ai * cr
                e = t = ea + ec
                if j:
                    r = rj[n - m]
                    re *= r
                    im *= r
                    t += bj[n - m]
                terms.append((re, im, e))
                if t > top:
                    top = t
        fn = neg_f.get(n)
        if fn is not None:
            terms.append(fn)
            # F_n's components are below 2^(e + P + 2)
            top = max(top, fn[2] - bits - 3)
        if not terms:
            continue  # c_{n+k} = 0 exactly
        base = top - 11  # E = T - 2P - 16
        sr = si = 0
        for re, im, e in terms:
            s = e - base
            if s >= 0:
                sr += re << s
                si += im << s
            else:
                sr += re >> -s
                si += im >> -s
        if sr or si:
            c[n + k] = _fixed_div(-sr, -si, base,
                                  math.prod(range(n + 1, n + k + 1)), bits)
    with mp.workdps(dps):
        prec, rnd = mp.mp.prec, mp.libmp.round_nearest
        fme = mp.libmp.from_man_exp
        zero = mp.mpc(0)
        return [zero if cv is None else
                mp.mp.make_mpc((fme(cv[0], cv[2], prec, rnd),
                                fme(cv[1], cv[2], prec, rnd)))
                for cv in c]


def _fixed_of(v, bits: int) -> tuple:
    """An mpc as (re, im, e) with bits + 1 significant bits, rounded to
    nearest: v ~ (re + i im) 2^e."""
    xr, xi = v.real._mpf_, v.imag._mpf_
    e = max(x[2] + x[3] for x in (xr, xi) if x[1]) - bits - 1
    return _evalcore._to_fixed(xr, -e), _evalcore._to_fixed(xi, -e), e


def _fixed_div(re: int, im: int, e: int, d: int, bits: int) -> tuple:
    """(re + i im) 2^e / d for a positive int d, as (re, im, e) with bits + 1
    or bits + 2 significant bits: one floor division per component, so each
    component is within 2^-bits |quotient| of the exact one."""
    sh = bits + 1 - max(abs(re), abs(im)).bit_length() + d.bit_length()
    if sh >= 0:
        return (re << sh) // d, (im << sh) // d, e - sh
    d <<= -sh
    return re // d, im // d, e - sh


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
    residual there passes; cap at n_cap.  Each doubling resumes the last
    march, and the residual is computed only where it decides the answer.

    Returns (solution, info) where info records the certified radius, the
    radius actually checked, the residual, and whether the cap bound.
    """
    n, sol = n_start, None
    while True:
        sol = solve_series(eq, init, n, dps=dps, _resume=sol)
        r_cert = min(sol.guaranteed_radius,
                     *(a.guaranteed_radius for a in eq.coeffs))
        # short of r_max and of the cap the answer is to double, whatever
        # the residual, so it is computed only when it can decide
        if r_cert >= r_max or n >= n_cap:
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

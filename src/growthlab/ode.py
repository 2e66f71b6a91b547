"""Power-series solutions of linear ODEs with entire coefficients.

For f^(k) + A_{k-1} f^(k-1) + ... + A_0 f = F the Taylor coefficients obey

    c_{n+k} (n+k)!/n! = F_n - sum_j sum_m a_{j,m} c_{n-m+j} (n-m+j)!/(n-m)!

The double march stores each coefficient in log-polar form (ln|c|, arg c),
so the wide dynamic range costs nothing, and sums each step as one complex
dot product over block-scaled values, the histories of every A_j
interleaved in one array: each block of steps rescales the coefficients by
e^(t mu), mu being their recent decay rate, so the values it multiplies
stay near 1, and puts the step's e^(-n mu) back in the logs.  The dot
reads only the scaled A_j terms within e^-120 of the largest, and the
whole window when the rest could reach 2^-60 of its sum; a dot of more
than 8,192 terms is summed in chunks, so that its bytes do not depend on
the BLAS thread count (see _march_d).  Factorial ratios are short sums
of ln(i), never a difference of two large lgammas, which would leak
absolute error into every coefficient, and subtractive cancellation only
spends the ~15 digits a double significand carries.  Each coefficient
depends only on those below it, so a longer march resumes a shorter one
instead of starting again at index 0: the doublings of auto_solve march
every index once, and its residual is checked only where it decides the
answer (usually once, on the candidate it returns).  A second march, in
fixed-point Python integers, produces the same solution at arbitrary
precision when downstream consumers (deep zero counting) need
coefficients better than 1e-13 relative: each block of steps rescales
by an exact power of two per index, sums each step as C-level integer
dots aligned at one exponent per side, and rounds once, within a stated
bound of the exact step (see _solve_series_mp).

The solutions of a homogeneous equation are linear in their initial data,
so basis_combination forms the solution with initial data v as
sum_i v_i f_i from double marches of the k basis solutions, summed
termwise in log-polar form; its rel_err_ln adds the sum's largest
cancellation to the basis error, and its exact values are still the
integer march of v.  final_check, auto_solve's rule for accepting a
candidate (its residual measured where it decides), accepts or refuses a
combination the same way.

The residual certificate (residual_norm) is computed at its radius r in
the scaled variable w = z / r: every series enters as its band
a_n r^n / mu(r), formed from the stored logs by error-free transforms
(each derivative f^(j) as f's band times exact integer weights, see
_derivative_band), each product A_j f^(j) is one numpy FFT product of two
bands, and the sum is kept relative to the largest ln mu in play and read
on a 64-angle double circle.  So no logarithm of the size of ln mu(r) is
rounded, and the FFTs' error, bounded after Higham in residual_norm's
docstring, is the arithmetic that limits it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import series as ps
from . import _dd, _evalcore

__all__ = ["LinearODE", "InitialData", "solve_series", "residual_norm",
           "final_check", "auto_solve", "basis_combination", "airy_like"]


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

    def check_init(self, init: InitialData) -> None:
        """ValueError unless init is k values, not all 0 if homogeneous."""
        if len(init.values) != self.k:
            raise ValueError(f"initial data must have length k = {self.k}")
        if self.homogeneous and all(v == 0 for v in init.values):
            raise ValueError("zero initial data makes the trivial solution")


@dataclass(frozen=True)
class InitialData:
    """f(0), f'(0), ..., f^(k-1)(0), each finite."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("initial data cannot be empty")
        for i, v in enumerate(self.values):
            if not cmath.isfinite(complex(v)):
                raise ValueError(f"initial value {i} is not finite: {v}")

    @classmethod
    def basis(cls, k: int, i: int) -> "InitialData":
        return cls(tuple(1.0 if j == i else 0.0 for j in range(k)))


def solve_series(eq: LinearODE, init: InitialData, n_terms: int,
                 dps: Optional[int] = None,
                 _resume: Optional[ps.PowerSeries] = None) -> ps.PowerSeries:
    """March the coefficient recurrence out to n_terms.

    dps switches to the fixed-point integer march (same recurrence, dps
    digits, error bound in _solve_series_mp), whose values seed the
    result's mp cache and give its logs, the nearest doubles
    (_evalcore._logs_of).  Either way the result carries the integer
    march as its mp_factory, so dd and mp evaluation read its exact
    values, at any depth; a read of the first n values marches n terms,
    the same integers as any longer march.  _resume, a double solution of
    the same equation and initial data (a march, or a basis_combination),
    is extended or cut rather than marched again (see _march_d), and the
    result's rel_err_ln is no less than its; the integer march ignores
    it.
    """
    if n_terms <= eq.k:
        raise ValueError("n_terms must exceed the equation order")
    eq.check_init(init)

    def factory(dps, n):
        return _solve_series_mp(eq, init, n, dps)

    if dps is not None:
        values = _solve_series_mp(eq, init, n_terms, dps)
        out = ps.make_series(*_evalcore._logs_of(values), math.log(3e-16),
                             "ode solution", mp_factory=factory)
        out.coeff._mp_entry = (dps, values)
        return out

    lc, pc = _march_d(eq, init, n_terms, _resume)
    # rel_err_ln, n 2e-12, is an observed bound relative to the larger of
    # |c_i| and the largest term of its step over (n+1)...(n+k), i = n + k:
    # at 2048 terms the cases of tests/test_ode.py::TestDoubleMarch reach
    # 5.4e-12 of its 4.1e-9.  Relative to |c_i| alone a cancelling step
    # can exceed it: index 4 of the theorem_type solution, an exact zero,
    # is stored as e^-39.
    rel = math.log(max(64.0, n_terms) * 2e-12)
    if _resume is not None:  # its error reaches the indices marched from it
        rel = max(rel, _resume.coeff.rel_err_ln)
    return ps.make_series(lc, pc, rel, "ode solution", mp_factory=factory)


# steps in a block of the double march; each block picks its scale afresh
# from the coefficients below it
_BLOCK = 256
# coefficients on each side of a scale pick's slope estimate
_SLOPE = 32
# the scaled values of the double march stay within e^(+-_SAFE_LN)
_SAFE_LN = 300.0
# the scale's slope mu is a multiple of 2^-_MU_BITS below 2^10, so that
# t mu is exact for every index t < 2^22
_MU_BITS = 20
# a step sums the Ah rows within e^-_ROW_CUT of the largest row, and the
# rest only when their bound exceeds 2^-_TAIL_BITS of that sum
_ROW_CUT = 120.0
_TAIL_BITS = 60
# a dot product of more terms is summed as dots of _CHUNK terms added in
# index order: OpenBLAS splits a dot of over 10,000 terms across its
# threads, and its rounding with them
_CHUNK = 8192


def _dotter(a: np.ndarray):
    """The function b -> sum a_i b_i over len(a) terms, with the same bytes
    at any BLAS thread count: a's dot method, or dots of _CHUNK terms added
    in index order."""
    if len(a) <= _CHUNK:
        return a.dot
    chunks = [(i, a[i:i + _CHUNK]) for i in range(0, len(a), _CHUNK)]
    return lambda b: sum(c.dot(b[i:i + _CHUNK]) for i, c in chunks)


def _kept_rows(ah: np.ndarray) -> tuple:
    """(r, tail) for the reversed scaled coefficients ah of _march_d: the
    trailing r rows hold every row whose largest |Ah| is within
    e^-_ROW_CUT of the largest row's, and tail is the sum of |Ah| over the
    rows above them."""
    size = np.abs(ah).reshape(-1)
    near = np.flatnonzero(size >= size.max(initial=0.0)
                          * math.exp(-_ROW_CUT))
    first = int(near[0]) // ah.shape[1] if len(near) else len(ah)
    return len(ah) - first, float(size[:first * ah.shape[1]].sum())


def _march_d(eq: LinearODE, init: InitialData, n_terms: int,
             prev: Optional[ps.PowerSeries]) -> tuple:
    """The recurrence marched in double: (ln|c_i|, arg c_i).

    With D_j[t] = c_{t+j} (t+1)...(t+j), the coefficients of f^(j), step n
    is c_{n+k} = (F_n - sum_j sum_m a_{j,m} D_j[n-m]) / ((n+1)...(n+k)).
    The sum runs over scaled values

        Ah_j[m] = a_{j,m} e^(m mu - alpha),   Dh_j[t] = D_j[t] e^(t mu - beta),

    whose products are a_{j,m} D_j[n-m] e^(n mu - alpha - beta).  The Dh_j
    of the K coefficients A_j with a nonzero term are held in one array,
    row W + t holding Dh_j[t] for each such j, W being the longest A_j and
    the W rows below index 0 zero; the Ah_j are held reversed in a W-row
    array of the same layout, zero past A_j's end.  So each step's sum is
    one complex dot product of W K values over a contiguous window.  mu is
    the recent decay rate of ln|c_t| (its slope over the last 2 _SLOPE
    coefficients), so the window of Dh a step reads is nearly flat; alpha
    and beta make |Ah| <= 1 and the window's largest |Dh| <= 1.  The scale
    is picked at every _BLOCK-th step n, from the coefficients that step
    reads (those below index n + k), and again after any new Dh entry
    leaves [e^-_SAFE_LN, e^_SAFE_LN].  So |Dh| <= e^_SAFE_LN throughout,
    and a factor or product lost to underflow (below e^-745) costs under
    e^(_SAFE_LN - 745) per term.  A scaled sum is used only if its modulus
    is at least e^-_SAFE_LN, so that loss is below M e^-145 of it for a
    step of M terms.  A step whose sum is smaller (or zero, or whose F_n
    is too large to scale) is summed in log-polar form instead
    (_logpolar_step), as the march always did: a coefficient is an exact
    zero only when every term of its step is, or its rescaled sum cancels
    exactly.

    Scaled, an A_j of an entire function falls off fast in m: on the
    theorem_type equation 52 to 115 of the 300 rows of Ah lie within
    e^-_ROW_CUT of its largest row, and the rest reach down into subnormal
    doubles, which make a dot several times slower.  So at each pick the
    march keeps the trailing rows of ah (m < R) that hold every row within
    e^-_ROW_CUT of the largest (_kept_rows), and each step sums those R K
    terms only.  The dropped terms sum to at most T max(1, e^xmax) in
    modulus, T the sum of |Ah| over the dropped rows and xmax the largest
    Dh exponent written since the pick (the entries the pick wrote are at
    most 1).  A step takes the narrowed sum when that bound is at most
    2^-_TAIL_BITS of its modulus (F_n included), far below the sum's own
    rounding; otherwise it sums the whole window.  A dot of more than
    _CHUNK terms is summed as dots of _CHUNK terms added in index order
    (_dotter), since OpenBLAS splits a longer one across its threads, and
    its rounding with them: a march has the same bytes at any BLAS thread
    count.

    Each coefficient is stored as (ln|c|, arg c), and its Dh entries are
    formed from those stored doubles.  So the march at every index depends
    only on the stored coefficients below it: a march does not depend on
    its length.  prev, a double solution of the same equation and initial
    data (or None), is kept as it stands; the march replays the Dh entries,
    scale picks, kept rows and xmax of prev's last block from its stored
    coefficients and marches only the indices past it.  A shorter request
    is prev's prefix.  Either way the arrays are byte-identical to a march
    from index 0 with prev's coefficients.
    """
    k = eq.k
    n_steps = n_terms - k
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
    if start >= n_steps:
        return lc, pc

    ln_table = np.concatenate([[0.0], np.log(np.arange(1, n_terms + k + 1,
                                                       dtype=float))])
    # rising[j][t] = ln((t+1)...(t+j)), summed over s = 1..j in that order
    rising = [np.zeros(n_terms)]
    for j in range(1, k + 1):
        rising.append(rising[-1] + ln_table[j:j + n_terms])
    # the coefficients A_j with a nonzero term, as (j, ln|a|, arg a)
    live = [(j, a.coeff.lh, a.coeff.ph) for j, a in enumerate(eq.coeffs)
            if np.isfinite(a.coeff.lh).any()]
    f_l = eq.rhs.coeff.lh if eq.rhs is not None else np.zeros(0)
    f_p = eq.rhs.coeff.ph if eq.rhs is not None else np.zeros(0)
    n_live = len(live)
    width = max((len(al) for _, al, _ in live), default=0)
    # ah[width - 1 - m, i] = Ah_j[m] and dh[width + t, i] = Dh_j[t] for the
    # i-th live j; step n reads dh's rows n + 1 ... n + width
    ah = np.zeros((width, n_live), dtype=complex)
    dh = np.zeros((width + n_terms, n_live), dtype=complex)
    ah_flat, dh_flat = ah.reshape(-1), dh.reshape(-1)

    def pick_scale(n):
        """mu, alpha + beta and beta for the steps from n on, with Ah and
        the Dh window they read rewritten under them."""
        top = n + k - 1
        w = min(_SLOPE, (top + 1) // 2)
        mu = 0.0
        if w:
            old = float(np.max(lc[top + 1 - 2 * w:top + 1 - w]))
            new = float(np.max(lc[top + 1 - w:top + 1]))
            if math.isfinite(old) and math.isfinite(new):
                mu = max(-1023.0, min(1023.0, (old - new) / w))
                mu = math.ldexp(round(math.ldexp(mu, _MU_BITS)), -_MU_BITS)
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
            ah[width - len(al):, i] = np.exp(z)[::-1]
            z = np.empty(len(xd), dtype=complex)
            z.real, z.imag = xd - beta, pc[lo + j:lo + j + len(xd)]
            dh[width + lo:width + lo + len(xd), i] = np.exp(z)
        return mu, alpha + beta, beta

    # the loop reads scalars from lists of floats
    r_k = rising[k].tolist()
    # per live j: its column i, its lag k - j and its rising values
    writes = [(i, k - j, rising[j].tolist())
              for i, (j, _, _) in enumerate(live)]
    span = width * n_live
    # step n reads dh_flat[n n_live + n_live:n n_live + hi], its kept rows
    # from n n_live + near_lo
    hi = span + n_live
    full = _dotter(ah_flat)
    n_f = len(f_l)
    floor = math.exp(-_SAFE_LN)
    tail_scale = math.ldexp(1.0, _TAIL_BITS)
    rescale = True
    with np.errstate(under="ignore"):
        for n in range(start - start % _BLOCK, n_steps):
            if rescale or n % _BLOCK == 0:
                mu, ab, beta = pick_scale(n)
                rescale = False
                rows, tail = _kept_rows(ah)
                near_lo = hi - rows * n_live
                near = _dotter(ah_flat[span - rows * n_live:])
                # the dropped rows' bound, over 2^-_TAIL_BITS; |Dh| <= e^xmax
                # for every entry written since the pick, and <= 1 before
                xmax = 0.0
                bound = tail * tail_scale
            if n < start:
                c_l, p = lc.item(n + k), pc.item(n + k)
            else:
                off = n * mu - ab
                at = n * n_live
                s = -complex(near(dh_flat[at + near_lo:at + hi]))
                fn = 0.0
                if n < n_f:
                    xf = f_l.item(n) + off
                    fn = cmath.exp(complex(xf, f_p.item(n))) \
                        if xf <= _SAFE_LN else math.nan
                    s += fn
                size = abs(s)
                if size < bound:
                    s = fn - complex(full(dh_flat[at + n_live:at + hi]))
                    size = abs(s)
                if floor <= size < math.inf:
                    c_l = (math.log(size) - off) - r_k[n]
                    p = math.atan2(s.imag, s.real)
                else:
                    c_l, p = _logpolar_step(n, k, live, f_l, f_p, lc, pc,
                                            rising) or (-math.inf, 0.0)
                lc[n + k] = c_l
                pc[n + k] = p
            if c_l == -math.inf:
                continue
            for i, lag, r_j in writes:
                t = n + lag
                x = (c_l + t * mu + r_j[t]) - beta
                if -_SAFE_LN <= x <= _SAFE_LN:
                    dh_flat[(width + t) * n_live + i] = \
                        cmath.exp(complex(x, p))
                    if x > xmax:
                        xmax = x
                        bound = tail * tail_scale * math.exp(x)
                else:
                    rescale = True
    return lc, pc


def _logpolar_step(n: int, k: int, live: list, f_l, f_p, lc, pc,
                   rising: list) -> Optional[tuple]:
    """Step n of _march_d summed in log-polar form, every term rescaled by
    the largest: (ln|c_{n+k}|, arg c_{n+k}), or None when every term is
    zero or the sum cancels exactly."""
    parts_l, parts_p = [], []
    for j, al, ap in live:
        mn = min(n, len(al) - 1)
        parts_l.append(al[:mn + 1] + lc[n + j - mn:n + j + 1][::-1]
                       + rising[j][n - mn:n + 1][::-1])
        parts_p.append(ap[:mn + 1] + pc[n + j - mn:n + j + 1][::-1])
    all_l = np.concatenate(parts_l) if parts_l else np.zeros(0)
    all_p = np.concatenate(parts_p) if parts_p else np.zeros(0)
    f_n = f_l[n] if n < len(f_l) else -math.inf
    lmax = max(float(np.max(all_l)) if len(all_l) else -math.inf, f_n)
    if lmax == -math.inf:
        return None
    mags = np.exp(all_l - lmax)
    num = -complex(np.sum(mags * np.cos(all_p)), np.sum(mags * np.sin(all_p)))
    if f_n > -math.inf:
        num += math.exp(f_n - lmax) * complex(math.cos(f_p[n]),
                                              math.sin(f_p[n]))
    if num == 0:
        return None
    return (lmax + math.log(abs(num)) - rising[k][n],
            math.atan2(num.imag, num.real))


# the integer march's longest block and its guard bits (_solve_series_mp)
_MP_BLOCK = 64
_MP_GUARD = 32


def _with_top(v: tuple) -> tuple:
    """(re, im, e, top), 2^(top-1) <= max(|re|, |im|) 2^e < 2^top."""
    return v + (max(abs(v[0]), abs(v[1])).bit_length() + v[2],)


def _solve_series_mp(eq: LinearODE, init: InitialData, n_terms: int,
                     dps: int) -> list:
    """The recurrence marched in fixed-point integers for dps digits: the
    solution's coefficients in the format of CoeffData.mp_logs.

    Every value is a triple (re, im, e) standing for (re + i im) 2^e with
    P + 1 or P + 2 significant bits, P = _evalcore._exact_bits(dps), and
    an exact zero is None.  A_j and F come from their mp_logs(dps),
    rounded once to P + 1 bits (_fixed_round), and the initial data from
    its floats, exactly.  Step n is c_{n+k} (n+1)...(n+k) = F_n - S_n,
    S_n = sum_j sum_m a_{j,m} D_j[n-m], D_j[t] = c_{t+j} (t+1)...(t+j).

    S_n is an aligned fixed-point dot, after Arb's arb_dot (Johansson,
    ARITH 26, 2019).  A block of min(_MP_BLOCK, n0 / 4) steps from n0 (at
    least one) takes s, the rounded slope of log2|c_i| below index n0 + k:
    a_{j,m} D_j[n-m] = A'_m D'_{n-m} 2^sn, A'_m = a_{j,m} 2^-sm and D'_t =
    D_j[t] 2^-st.  It holds each D' exactly at 2^eC, _MP_GUARD bits below
    the least exponent of its window at n0, ending after a step whose new
    D' falls below that, and rounds each A' to 2^eA, sigma + P + _MP_GUARD
    bits below the top of its largest A', sigma being the C' spread (the
    top bits of the window's largest and least D' apart); the A' that
    round to zero at either end drop out.  So S_n is one C-level
    sum(map(mul, ...)) per j and component (real ones only for real A, F
    and initial data), with F_n at 2^(eA + eC + sn), or alone.  Picks and
    block ends depend only on the index and the coefficients below it.

    On its inputs, step n is within 2^(eA + sn) sum |D'_{n-m}| / sqrt2 <=
    M 2^(2 - P - _MP_GUARD) rho max|A'| min|D'| 2^sn of S_n for M terms,
    min and max over the window at n0 and rho the largest |D'| step n
    reads over the largest there (plus 2^(eA + eC + sn) / sqrt2 for F_n):
    M 2^(2 - P - _MP_GUARD) rho of S_n's largest term when the largest A'
    meets a D' no less than the least.  The division by (n+1)...(n+k) is
    one floor to P + 1 bits (_fixed_div), a further 2^-P relative.
    """
    k = eq.k
    bits = _evalcore._exact_bits(dps)
    # A_j up to every index a block reads; -F_n, as a step sums S_n - F_n
    a_fix = [[v and _with_top(_evalcore._fixed_round(v, bits))
              for v in a.coeff.mp_logs(dps, n_terms + _MP_BLOCK)]
             for a in eq.coeffs]
    live = [j for j in range(k) if any(a_fix[j])]
    neg_f = {n: _evalcore._fixed_round((-v[0], -v[1], v[2]), bits)
             for n, v in enumerate(eq.rhs.coeff.mp_logs(dps, n_terms)
                                   if eq.rhs is not None else ()) if v}
    real = (all(v[1] == 0 for a in a_fix for v in a if v)
            and all(v[1] == 0 for v in neg_f.values())
            and all(complex(v).imag == 0 for v in init.values))
    c, top = [None] * n_terms, [None] * n_terms  # None is an exact zero
    dx = {j: [None] * n_terms for j in live}  # D_j[t], with its top

    def put(i, v):
        c[i], top[i] = v, _with_top(v)[3]
        for j in (j for j in live if j <= i):
            r = math.prod(range(i - j + 1, i + 1))
            dx[j][i - j] = _with_top((v[0] * r, v[1] * r, v[2]))

    def held(v, t):  # D'_t at 2^eC, or None below it
        d = v[2] - s * t - e_c if v else 0
        return None if d < 0 else (v[0] << d, v[1] << d) if v else (0, 0)

    for i, v in enumerate(init.values[:n_terms]):
        if v != 0:
            put(i, _evalcore._fixed_div(*_evalcore._fixed_of_complex(v),
                                        math.factorial(i), bits))
    n_steps, n = n_terms - k, 0
    while n < n_steps:
        n1 = n + max(1, min(_MP_BLOCK, n // 4))
        w = min(_SLOPE, (n + k) // 2)
        old = [x for x in top[n + k - 2 * w:n + k - w] if x is not None]
        new = [x for x in top[n + k - w:n + k] if x is not None]
        s = round((max(new) - max(old)) / w) if old and new else 0
        d_win, a_top, rows = [], [], []  # D' (top, exponent), A' tops
        for j in live:
            t0 = max(0, n + 1 - len(a_fix[j][:n1]))
            d_win += [(v[3] - s * t, v[2] - s * t)
                      for t, v in enumerate(dx[j][t0:n + k - j], t0) if v]
            a_top += [v[3] - s * m for m, v in enumerate(a_fix[j][:n1]) if v]
        if d_win and a_top:
            e_c = min(e for _, e in d_win) - _MP_GUARD
            e_a = max(a_top) - max(d_win)[0] + min(d_win)[0] - bits \
                - _MP_GUARD
        for j in live if d_win and a_top else ():
            fl = [v and _evalcore._shift_round(v[0], v[1], e_a + s * m - v[2])
                  or (0, 0) for m, v in enumerate(a_fix[j][:n1])]
            nz = [m for m, x in enumerate(fl) if x != (0, 0)]
            if nz:  # A'_hi ... A'_lo, read against D'_{n-hi} ... D'_{n-lo}
                hi, t0 = nz[-1], max(0, n - nz[-1])
                a_r, a_i = zip(*fl[nz[0]:hi + 1][::-1])
                d_r, d_i = map(list, zip(*[held(v, t) for t, v in enumerate(
                    dx[j][t0:n + k - j], t0)]))
                rows.append((j, hi, a_r, any(a_i) and a_i, t0, d_r, d_i))
        while n < min(n1, n_steps):
            sr = si = 0
            for j, hi, a_r, a_i, t0, d_r, d_i in rows:
                xa = slice(hi - min(hi, n), None)  # from A'_min(hi,n)
                xd = slice(n - min(hi, n) - t0, None)  # from D'_{n-min(hi,n)}
                sr += sum(map(operator.mul, a_r[xa], d_r[xd]))
                si += 0 if real else sum(map(operator.mul, a_r[xa], d_i[xd]))
                if a_i:
                    si += sum(map(operator.mul, a_i[xa], d_r[xd]))
                    sr -= sum(map(operator.mul, a_i[xa], d_i[xd]))
            e, fn = e_a + e_c + s * n if rows else None, neg_f.get(n)
            if fn and (sr or si):
                x, y = _evalcore._shift_round(fn[0], fn[1], e - fn[2])
                sr, si = sr + x, si + y
            elif fn:
                sr, si, e = fn
            if sr or si:
                put(n + k, _evalcore._fixed_div(
                    -sr, -si, e, math.prod(range(n + 1, n + k + 1)), bits))
            news = [held(dx[r[0]][n + k - r[0]], n + k - r[0]) for r in rows]
            n += 1
            if None in news or not rows:  # a D' below 2^eC ends the block
                break
            for (*_, d_r, d_i), (x, y) in zip(rows, news):
                d_r.append(x)
                d_i.append(y)
    return c


def _scaled_band(f: ps.PowerSeries, log_r: float) -> Optional[tuple]:
    """f's band at radius r in the scaled variable w = z / r: (lo, h, l, t)
    with t[i] = a_{lo+i} r^(lo+i) / mu(r) as complex128, not cached on f,
    and ln mu(r) = h + l; None for the zero series.

    The band keeps the terms within _BAND_CUT['dd'] nats of mu(r).  Its
    exponent ln|a_n| - ln mu + n ln r is formed exactly as x + y by
    two_sum and two_prod (up to the rounding of y, a few ulps of x), and
    t_n is e^x (1 + y) times the cis of arg a_n: no rounding of a
    logarithm of the size of ln mu(r) reaches it."""
    if not np.isfinite(f.coeff.lh).any():
        return None
    lo, hi, log_mu = _evalcore._band(f.coeff, log_r, _evalcore._BAND_CUT["dd"])
    lh = f.coeff.lh[lo:hi]
    gone = ~np.isfinite(lh)
    s, e = _dd.two_sum(np.where(gone, log_mu, lh), -log_mu)
    p, q = _dd.two_prod(np.arange(lo, hi, dtype=float), log_r)
    x, y = _dd.two_sum(s, p)
    t = _evalcore._rescaled(np.where(gone, -np.inf, x), f.coeff.ph[lo:hi])
    return lo, log_mu, 0.0, t * (1.0 + (y + (e + q)))


def _derivative_band(band: tuple, j: int, log_r: float) -> Optional[tuple]:
    """The band of f^(j) at the radius of f's band (lo, h, l, t), formed
    from it: f^(j)(r w) = r^-j e^(h + l) sum_n t_n n(n-1)...(n-j+1) w^(n-j),
    so coefficient n - j carries t_n times its weight, an integer held
    exactly while below 2^53, rescaled by the power of two 2^-e that puts
    the largest in [1/2, 1); ln of the band's scale is h + (l - j ln r +
    e ln 2).  It holds the terms of f's band, so it drops the terms of
    f^(j) whose parent term lies below f's band cut.  None when no term of
    f's band survives j derivatives."""
    lo, h, l, t = band
    first = max(lo, j)  # the terms below z^j vanish
    if first >= lo + len(t):
        return None
    n = np.arange(first, lo + len(t), dtype=float)
    weight = n.copy()
    for s in range(1, j):
        weight *= n - s
    tj = t[first - lo:] * weight
    top = float(np.max(np.abs(tj)))
    if top == 0.0:
        return None
    e = math.frexp(top)[1]
    return first - j, h, l + (e * math.log(2.0) - j * log_r), \
        tj * math.ldexp(1.0, -e)


def _fft_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full product of two coefficient arrays, by one numpy FFT of
    length L = 2^t >= len(a) + len(b) - 1 (error bound in residual_norm)."""
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:n]


def _band_series(band: tuple, shift: float) -> ps.PowerSeries:
    """The series sum_i t[i] e^(h + l - shift) w^(lo+i) of a band (lo, h,
    l, t).  shift is the largest h in play, so h - shift is exact where it
    matters (Sterbenz) and every stored log is of the size of ln|t|.  Its
    rel_err_ln, the rounding of one double, is not read by residual_norm.
    A band is a polynomial in w, trusted everywhere without
    series._certify_radius."""
    lo, h, l, t = band
    lh, ph = _evalcore._logpolar((h - shift) + l, t)
    lh = np.concatenate((np.full(lo, -np.inf), lh))
    ph = np.concatenate((np.zeros(lo), ph))
    return ps.make_series(lh, ph, math.log(3e-16), "residual term",
                          polynomial=True)


def residual_norm(eq: LinearODE, f: ps.PowerSeries, log_r: float) -> float:
    """max over 64 equispaced angles of |f^(k) + sum A_j f^(j) - F| at
    |z| = r, relative to the largest maximum term of the contributions
    f^(k) and A_j f^(j).

    It is computed in the scaled variable w = z / r, on each series' band
    t_n = a_n r^n / mu(r) (|t_n| <= 1; terms under e^-130 dropped), formed
    from the stored logs by error-free transforms (_scaled_band): no
    logarithm of the size of ln mu(r), 1e4 and more for the theorem
    solutions, is ever rounded.
    f's band is built once, and each f^(j)'s band is formed from it
    (_derivative_band): coefficient n - j carries t_n n(n-1)...(n-j+1),
    its exact integer weight, rescaled by a power of two.  No derivative
    series is built.
    Each A_j(rw) f^(j)(rw) / (mu_A mu_j) is the full product c = a * b of
    the two bands, by one FFT (_fft_product).  The contributions, as
    series in w relative to the largest ln mu in play, are summed by
    series.combine and evaluated on the 64-angle offset mesh by the double
    circle (_evalcore.eval_circle at 'd').

    FFT error (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 24.2 and Lemma 3.5): a radix-2 FFT of length L = 2^t
    computed with twiddles in error by mu is within eps = t eta /
    (1 - t eta), eta = mu + gamma_4 (sqrt2 + mu), of the exact transform
    in relative 2-norm.  numpy's pocketfft runs radix-4 passes, two
    radix-2 levels whose inner twiddles +-i are exact; mu is taken as 2u,
    u = 2^-53.  Through both transforms, the pointwise products (error
    sqrt2 gamma_2 < 3u) and the inverse, with ||F x||_inf <= ||x||_1,

        ||c_computed - c||_2 <= (2 eps + 3u) (1 + eps sqrt L)^2
                                (||a||_1 ||b||_2 + ||a||_2 ||b||_1)

    relative to mu_A mu_j, and at an angle the product is off by at most
    sqrt(len c) times that.  The double circle then re-forms the summed
    series' N terms c_n from their logs (each within a few u), twists and
    folds them into 64 bins (each bin within gamma_{ceil(N/64) + 2} of the
    sum of its terms' moduli) and runs one numpy FFT of length 64, t = 6:
    within eps_64 ||bins||_2 in 2-norm by the same theorem, so at an angle
    within 8 eps_64 ||c||_1.  So the circle reads each angle within
    (gamma_{ceil(N/64) + 6} + 8 eps_64) ||c||_1, about (N/64 + 380) u
    ||c||_1, relative to the summed series' maximum term.  This worst case
    is loose: on the theorem_type solutions (bands of 7,300 terms, L =
    8192) the product's bound is 2e-11 in 2-norm and 2e-9 at an angle,
    while the residuals, near 2e-11, agree with a 60-digit evaluation of
    the stored coefficients to 1e-4 relative (tests/test_ode.py checks the
    product's bound and the agreement).
    """
    # f's band once, and each f^(j)'s band from it
    fb = _scaled_band(f, log_r)
    bands = [fb] + [None if fb is None else _derivative_band(fb, j, log_r)
                    for j in range(1, eq.k + 1)]
    # the bands of f^(k) and of each nonzero A_j f^(j)
    lhs = [bands[eq.k]]
    for a, bd in zip(eq.coeffs, bands):
        ba = _scaled_band(a, log_r)
        if ba is not None and bd is not None:
            h, l = _dd.two_sum(ba[1], bd[1])
            lhs.append((ba[0] + bd[0], h, l + (ba[2] + bd[2]),
                        _fft_product(ba[3], bd[3])))
    lhs = [b for b in lhs if b is not None]
    rhs = [] if eq.rhs is None else [_scaled_band(eq.rhs, log_r)]
    rhs = [b for b in rhs if b is not None]
    if not lhs:
        return 0.0
    shift = max(b[1] for b in lhs + rhs)
    terms = [_band_series(b, shift) for b in lhs]
    total = terms[0]
    for t in terms[1:]:
        total = ps.combine(total, t, "add")
    for b in rhs:
        total = ps.combine(total, _band_series(b, shift), "sub")
    if not np.isfinite(total.coeff.lh).any():
        return 0.0
    scale_ln = max(ps.max_term(t, 0.0).log_mu for t in terms)
    res = _evalcore.eval_circle(total.coeff, 0.0, 64, offset=True)
    return math.exp(float(np.max(res.logabs)) - scale_ln)


def final_check(eq: LinearODE, sol: ps.PowerSeries, r_max: float,
                residual_tol: float, n_cap: int) -> Optional[dict]:
    """auto_solve's rule for a candidate solution: its info when it is an
    answer, None when the answer is to march further.

    sol is an answer when its trusted radius (and every A_j's) covers r_max
    and the residual at r_max is below residual_tol, or when its length
    has reached n_cap; it is then capped, and the residual is read at the
    smaller radius.  Short of r_max and of the cap the answer is to march
    further, whatever the residual, so the residual is computed only when
    it can decide.  info records the length, the certified radius, the
    radius actually checked, the residual, and whether the cap bound.
    """
    n = sol.n_terms
    r_cert = min(sol.guaranteed_radius,
                 *(a.guaranteed_radius for a in eq.coeffs))
    if r_cert < r_max and n < n_cap:
        return None
    r_check = min(r_max, r_cert)
    resid = residual_norm(eq, sol, math.log(r_check)) \
        if r_check > 0 else math.inf
    ok = r_cert >= r_max and resid < residual_tol
    if not ok and n < n_cap:
        return None
    return {"n_terms": n, "certified_radius": r_cert,
            "checked_radius": r_check, "residual": resid, "capped": not ok}


def auto_solve(eq: LinearODE, init: InitialData, r_max: float,
               residual_tol: float = 1e-8, n_start: int = 1 << 10,
               n_cap: int = 1 << 16, dps: Optional[int] = None) -> tuple:
    """Double n_terms until final_check answers: the certified radius
    covers r_max and the residual there passes, or the length is n_cap.
    Each doubling resumes the last march, and the residual is computed
    only where it decides the answer.

    Returns (solution, info), info as final_check gives it.  A solution
    of a homogeneous equation can instead be formed from marched basis
    solutions (basis_combination) and accepted when final_check passes
    its residual.  A cap below n_start is a ValueError: the first march
    would ignore it.
    """
    if n_cap < n_start:
        raise ValueError(f"n_cap = {n_cap} is below n_start = {n_start}")
    n, sol = n_start, None
    while True:
        sol = solve_series(eq, init, n, dps=dps, _resume=sol)
        info = final_check(eq, sol, r_max, residual_tol, n_cap)
        if info is not None:
            return sol, info
        n *= 2


def basis_combination(eq: LinearODE, basis: list,
                      init: InitialData) -> ps.PowerSeries:
    """The solution with initial data init formed as sum_i v_i f_i, v =
    init.values, from double marches basis[i] of InitialData.basis(k, i):
    the solutions of a homogeneous equation are linear in their initial
    data.

    It has the longest basis march's length; a shorter one is extended
    (solve_series with _resume), with the bytes of a fresh march of that
    length.  Each coefficient sum_i v_i c_{i,n} is summed in log-polar
    form relative to its largest term, as series.combine's add is; a sum
    that cancels exactly is stored as an exact zero, as in _march_d.  Its
    rel_err_ln is the largest basis rel_err_ln plus ln of the
    amplification max_n sum_i |v_i c_{i,n}| / |sum_i v_i c_{i,n}| over
    the nonzero sums, read from the same logs.  Its exact values are the
    integer march of init, the mp_factory solve_series gives, so a dd or
    mp read of it is that of a direct march.
    """
    if not eq.homogeneous:
        raise ValueError("basis combinations solve only homogeneous "
                         "equations")
    if len(basis) != eq.k:
        raise ValueError(f"need exactly k = {eq.k} basis solutions")
    eq.check_init(init)
    n = max(f.n_terms for f in basis)
    basis = [f if f.n_terms == n else
             solve_series(eq, InitialData.basis(eq.k, i), n, _resume=f)
             for i, f in enumerate(basis)]
    # ln|v_i c_{i,n}| and arg(v_i c_{i,n}), one row per nonzero v_i
    weights = [complex(v) for v in init.values]
    tl = np.array([math.log(abs(v)) + f.coeff.lh
                   for v, f in zip(weights, basis) if v != 0])
    tp = np.array([cmath.phase(v) + f.coeff.ph
                   for v, f in zip(weights, basis) if v != 0])
    lmax = np.max(tl, axis=0)
    lmax_safe = np.where(np.isfinite(lmax), lmax, 0.0)
    total = _evalcore._rescaled(tl - lmax_safe, tp).sum(axis=0)
    with np.errstate(under="ignore"):
        size = np.exp(tl - lmax_safe).sum(axis=0)
    nz = total != 0
    amp_ln = float(np.max(np.log(size[nz]) - np.log(np.abs(total[nz])),
                          initial=0.0))
    lh, ph = _evalcore._logpolar(lmax_safe, total)
    return ps.make_series(
        lh, ph, max(f.coeff.rel_err_ln for f in basis) + amp_ln,
        "ode combination",
        mp_factory=lambda dps, n: _solve_series_mp(eq, init, n, dps))


def airy_like(n_terms: int = 200) -> ps.PowerSeries:
    """Solution of f'' - z f = 0 with f(0) = 1, f'(0) = 0."""
    eq = LinearODE(2, (ps.builtin("poly", coeffs=[0.0, -1.0]),
                       ps.builtin("poly", coeffs=[0.0])))
    out = solve_series(eq, InitialData((1.0, 0.0)), n_terms)
    return ps.PowerSeries(out.coeff, "airy_like", out.guaranteed_radius)

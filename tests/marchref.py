"""Shared test helpers: the integer marches harness._count_solution_zeros
makes, the check that one march holds every mp band that counting reads,
and reference_march, the integer march as one loop over every product."""

import math
from contextlib import contextmanager

import pytest

from growthlab import _evalcore, nevanlinna as nev, ode
from growthlab import series as ps


@contextmanager
def recording_marches(count: bool = True):
    """Yields a list that gains one dict per count_zeros_grid call: the
    series h = f - g it counts, its radii and dps budget, and under
    "marches" the (n_terms, dps) of every ode._solve_series_mp call made
    since the previous count, so the march that filled h's exact values
    and any made while counting.  With count=False the counting is
    skipped and the call returns None."""
    records, marches = [], []
    march, grid = ode._solve_series_mp, nev.count_zeros_grid

    def marched(eq, init, n_terms, dps):
        marches.append((n_terms, dps))
        return march(eq, init, n_terms, dps)

    def counted(h, radii, **kw):
        nonlocal marches
        records.append(dict(h=h, radii=list(radii), marches=marches,
                            dps_budget=kw.get("dps_budget", 600)))
        try:
            return grid(h, radii, **kw) if count else None
        finally:
            marches = []

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(ode, "_solve_series_mp", marched)
        mpatch.setattr(nev, "count_zeros_grid", counted)
        yield records


def bands_read(rec):
    """(ln r, dps) of every mp band count_zeros_grid(h, radii) can read:
    at each radius and its perturbed retries (as count_zeros_grid forms
    them), at the dps zero_count picks there (nev.winding_dps)."""
    out = []
    for r in rec["radii"]:
        log_rs = [math.log(r)]
        for a in range(nev._MAX_RETRIES):
            step = (a // 2 + 1) * nev._RETRY_STEP
            log_rs.append(math.log(r) + math.log1p(-step if a % 2 else step))
        out += [(log_r, nev.winding_dps(rec["h"].coeff, log_r,
                                        rec["dps_budget"]))
                for log_r in log_rs]
    return out


def assert_march_holds_bands(rec) -> None:
    """h's values come from one integer march, at the depth winding_dps
    gives at the top radius, and every band of bands_read lies inside
    it: at most that depth, and ending within the march, for h and for
    h', whose index i reads h at i + 1."""
    h, ((n, dps),) = rec["h"], rec["marches"]
    assert dps == nev.winding_dps(h.coeff, math.log(max(rec["radii"])),
                                  rec["dps_budget"])
    assert n < h.n_terms
    for log_r, band_dps in bands_read(rec):
        assert band_dps <= dps, (math.exp(log_r), band_dps, dps)
        for series, held in ((h, n), (ps.derivative(h), n - 1)):
            hi = _evalcore._mp_band(series.coeff, log_r, band_dps)[1]
            assert hi <= held, (math.exp(log_r), band_dps, hi, held)


def reference_march(eq: ode.LinearODE, init: ode.InitialData, n_terms: int,
                    dps: int) -> list:
    """Reference for ode._solve_series_mp, in its format: step n forms every
    product a_{j,m} c_{n-m+j} (n-m+j)!/(n-m)! exactly, floors each to one
    exponent E = T - 2P - 16, T bounding the top bit of the largest term,
    and adds them and -F_n, so the sum is within M 2^E per component of
    the exact step for M terms; one _fixed_div then gives c_{n+k}.  The
    inputs are read and rounded as the march reads them."""
    k = eq.k
    bits = _evalcore._exact_bits(dps)
    a_nz = [[(m,) + _evalcore._fixed_round(v, bits)
             for m, v in enumerate(a.coeff.mp_logs(dps, n_terms))
             if v is not None]
            for a in eq.coeffs]
    rhs = [] if eq.rhs is None else eq.rhs.coeff.mp_logs(dps, n_terms)
    neg_f = {n: _evalcore._fixed_round((-v[0], -v[1], v[2]), bits)
             for n, v in enumerate(rhs) if v is not None}
    c = [None] * n_terms
    for i, v in enumerate(init.values[:n_terms]):
        if v != 0:
            c[i] = _evalcore._fixed_div(*_evalcore._fixed_of_complex(v),
                                        math.factorial(i), bits)
    real = (all(v[2] == 0 for a in a_nz for v in a)
            and all(v[1] == 0 for v in neg_f.values())
            and all(complex(v).imag == 0 for v in init.values))
    n_steps = n_terms - k
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
                if real:
                    re, im = ar * cr, 0
                else:
                    re, im = ar * cr - ai * ci, ar * ci + ai * cr
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
            top = max(top, fn[2] - bits - 3)
        if not terms:
            continue
        base = top - 11
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
            c[n + k] = _evalcore._fixed_div(
                -sr, -si, base, math.prod(range(n + 1, n + k + 1)), bits)
    return c

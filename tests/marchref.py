"""Shared test helper: the integer marches harness._count_solution_zeros
makes, and the check that one march holds every mp band that counting
reads."""

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

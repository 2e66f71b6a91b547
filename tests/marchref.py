"""Shared test helper: what harness._count_solution_zeros sized its integer
march from, and the check that the march holds every mp band that
counting reads."""

import math
from contextlib import contextmanager

import pytest

from growthlab import _evalcore, harness, nevanlinna as nev
from growthlab import series as ps


@contextmanager
def recording_marches(count: bool = True):
    """Yields a list that gains one dict per _count_solution_zeros call:
    the double probe of f - g (h_probe), the top radius and dps the march
    was sized at, its length n, and the series h = f - g handed to
    count_zeros_grid with its radii.  With count=False the counting is
    skipped and the call returns None."""
    records = []
    size, grid = harness._march_length, nev.count_zeros_grid

    def sized(probe, h_probe, r_top, dps):
        n = size(probe, h_probe, r_top, dps)
        records.append(dict(h_probe=h_probe, r_top=r_top, dps=dps, n=n))
        return n

    def counted(h, radii, **kw):
        records[-1].update(h=h, radii=list(radii),
                           dps_budget=kw.get("dps_budget", 600))
        return grid(h, radii, **kw) if count else None

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(harness, "_march_length", sized)
        mpatch.setattr(nev, "count_zeros_grid", counted)
        yield records


def bands_read(rec):
    """(ln r, dps) of every mp band count_zeros_grid(h, radii) can read:
    at each radius and its perturbed retries (as count_zeros_grid forms
    them), the dps zero_count picks there (nev.winding_dps), one digit
    more, and one digit more than the march's, which mp_logs would march
    anew."""
    out = []
    for r in rec["radii"]:
        log_rs = [math.log(r)]
        for a in range(nev._MAX_RETRIES):
            step = (a // 2 + 1) * nev._RETRY_STEP
            log_rs.append(math.log(r) + math.log1p(-step if a % 2 else step))
        for log_r in log_rs:
            dps = nev.winding_dps(rec["h"].coeff, log_r, rec["dps_budget"])
            out += [(log_r, d) for d in {dps, dps + 1, rec["dps"] + 1}]
    return out


def assert_march_holds_bands(rec) -> None:
    """Every band of bands_read, of h and of h', ends strictly inside the
    n marched terms: one past its last index is below n for h, and below
    n - 1 for h', whose index i reads h at i + 1, so no band reaches the
    last marched term.  Each band is taken on the marched series and on
    the double probe, which runs past the march's end."""
    h, ref, n = rec["h"], rec["h_probe"], rec["n"]
    assert h.n_terms == n < ref.n_terms
    pairs = ((h, ref, n), (ps.derivative(h), ps.derivative(ref), n - 1))
    for log_r, dps in bands_read(rec):
        for series, reference, held in pairs:
            for s in (series, reference):
                hi = _evalcore._mp_band(s.coeff, log_r, dps)[1]
                assert hi < held, (math.exp(log_r), dps, hi, held)

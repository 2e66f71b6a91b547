"""Shared test helper: exact values in the format of CoeffData.mp_logs as
mpmath numbers, so mpmath references can be compared with them."""

import mpmath as mp


def to_mpc(values):
    """(re, im, e) triples as exact mpc (re + i im) 2^e, None as mpc(0)."""
    fme = mp.libmp.from_man_exp
    return [mp.mpc(0) if v is None else
            mp.mp.make_mpc((fme(v[0], v[2]), fme(v[1], v[2])))
            for v in values]

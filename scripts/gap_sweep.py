#!/usr/bin/env python3
"""Tabulate orbit lengths against the certified spectral-gap bound."""

import argparse

from hamca.encoding import anchored_configuration, scattered_m_sites
from hamca.hamiltonian import OrbitSpectrum, energy_gap_bound, min_distinct_gap
from hamca.machine import run_stats
from hamca.staged import build_staged_machine


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,5,8,12,20,40")
    ap.add_argument("--inner", default="halt_now")
    args = ap.parse_args()
    spec = build_staged_machine(args.inner, "one-way-amp")
    print("L,J,terminal,gap_bound,min_gap,ratio")
    for L in (int(s) for s in args.sizes.split(",")):
        m = max(1, L // 8)
        cfg = anchored_configuration(spec, L, scattered_m_sites(L, m))
        # J and the terminal from one streaming pass, as `hamca gap` reads them;
        # the bound refuses a truncated orbit
        stats = run_stats(spec, cfg, 10**6)
        spectrum = OrbitSpectrum.of(stats.terminal, stats.length)
        bound = float(energy_gap_bound(spectrum))
        gap = min_distinct_gap(spectrum.eigenvalues)
        print(f"{L},{stats.length},{stats.terminal},{bound:.3e},{gap:.3e},{gap/bound:.2f}")


if __name__ == "__main__":
    main()

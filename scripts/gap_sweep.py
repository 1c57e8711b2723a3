#!/usr/bin/env python3
"""Tabulate orbit lengths against the certified spectral-gap bound."""

import argparse

from hamca.encoding import anchored_configuration, scattered_m_sites
from hamca.hamiltonian import compile_machine, energy_gap_bound, min_distinct_gap, orbit_spectrum
from hamca.dynamics import run_orbit_cached
from hamca.staged import build_staged_machine


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,5,8,12,20,40")
    ap.add_argument("--inner", default="halt_now")
    args = ap.parse_args()
    spec = build_staged_machine(args.inner, "one-way-amp")
    h = compile_machine(spec)
    print("L,J,terminal,gap_bound,min_gap,ratio")
    for L in (int(s) for s in args.sizes.split(",")):
        m = max(1, L // 8)
        cfg = anchored_configuration(spec, L, scattered_m_sites(L, m))
        orbit = run_orbit_cached(cfg, h, 10**6)
        bound = float(energy_gap_bound(orbit))
        gap = min_distinct_gap(orbit_spectrum(orbit).eigenvalues)
        print(f"{L},{orbit.length},{orbit.kind},{bound:.3e},{gap:.3e},{gap/bound:.2f}")


if __name__ == "__main__":
    main()

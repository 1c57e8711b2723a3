#!/usr/bin/env python3
"""Run the decision pipeline on a halting and a non-halting fixture instance
and show the full certified verdicts next to the exact long-term distances."""

import argparse
import json
from fractions import Fraction

import numpy as np

from hamca.dynamics import dense_space, trace_distance
from hamca.encoding import EnsembleParams, build_initial_ensemble, encode_input
from hamca.hamiltonian import compile_machine
from hamca.staged import build_staged_machine
from hamca.verifier import DecisionInstance, decide_finite, fixture_gap_floor


def build(inner, L, eta, eps1, t0):
    spec = build_staged_machine(inner, "one-way-amp", include_decode=False)
    enc = encode_input("1", Fraction(0))
    ens = build_initial_ensemble(spec, EnsembleParams("anchored", L, Fraction(0)), enc)
    inst = DecisionInstance(machine=spec, ensemble=ens, eta=eta, eps1=eps1,
                            t0_override=t0)
    inst.gap_floor = fixture_gap_floor(inst)
    return inst


def longterm_distance(inst):
    h = compile_machine(inst.machine)
    d = h.site_dim
    lt = np.zeros((d, d), complex)
    for cfg, w in inst.ensemble.members:
        ds = dense_space(h, [cfg])
        lt += float(w) * ds.longterm_site_average(ds.state_vector(cfg))
    e1 = np.zeros((d, d), complex)
    i1 = h.value_index(("A", "a1"))
    e1[i1, i1] = 1.0
    return trace_distance(lt, e1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--L", type=int, default=4)
    args = ap.parse_args()
    for inner in ("halt_now", "ping_pong"):
        inst = build(inner, args.L, eta=0.846, eps1=0.35, t0=200)
        verdict = decide_finite(inst)
        print(f"fixture {inner}:")
        print(f"  exact long-term distance to the all-a1 state: "
              f"{longterm_distance(inst):.4f}")
        print(f"  verdict: {json.dumps(verdict.to_json(), indent=2)}")


if __name__ == "__main__":
    main()

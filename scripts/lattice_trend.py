#!/usr/bin/env python3
"""Verdict, fired_at, time and peak RSS of ``hamca decide`` as the lattice grows.

The instances are those of the decide benchmark (anchored one-way-amp with
decode, alpha = 1/8, input "1"): ``halting`` (halt_now, eta 0.74, eps1 0.30,
t0 200) and ``nonhalting`` (ping_pong, eta 0.846, eps1 0.35, t0 40), both
with the fixture gap floor, with only L changed.  Their ensembles hold 3^L
members.  Each (instance, L) runs in a fresh interpreter, so the peak RSS
printed is that run's own.

    PYTHONPATH=src python scripts/lattice_trend.py --sizes 5,6,7,8,9,10,11,12
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

INSTANCES = {
    "halting": dict(inner="halt_now", variant="one-way-amp", decode=True, mode="anchored",
                    alpha=[1, 8], v="1", eta=0.74, eps1=0.30, t0_override=200,
                    gap_floor_from_fixture=True),
    "nonhalting": dict(inner="ping_pong", variant="one-way-amp", decode=True, mode="anchored",
                       alpha=[1, 8], v="1", eta=0.846, eps1=0.35, t0_override=40,
                       gap_floor_from_fixture=True),
}


def run_one(path: str) -> None:
    """Decide one instance file in this interpreter and print the result."""
    from hamca.cli import main

    out = path + ".verdict"
    t0 = time.perf_counter()
    rc = main(["decide", path, "--override-params", "--out", out])
    seconds = time.perf_counter() - t0
    verdict = {}
    if rc == 0:
        with open(out) as fh:
            verdict = json.load(fh)
    print(json.dumps({"rc": rc, "verdict": verdict.get("verdict"),
                      "fired_at": verdict.get("fired_at_grid_size"), "seconds": seconds,
                      "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", default="5,6,7,8,9,10")
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        run_one(args.one)
        return
    print("instance,L,members,verdict,fired_at,seconds,peak_rss_mb")
    with tempfile.TemporaryDirectory() as tmp:
        for L in (int(s) for s in args.sizes.split(",")):
            for name, inst in INSTANCES.items():
                path = os.path.join(tmp, f"{name}_L{L}.json")
                with open(path, "w") as fh:
                    json.dump(dict(inst, L=L), fh)
                p = subprocess.run([sys.executable, __file__, "--one", path],
                                   capture_output=True, text=True, check=True)
                r = json.loads(p.stdout.splitlines()[-1])
                if r["rc"] != 0:
                    sys.exit(f"{name} at L={L} exited {r['rc']}: {p.stderr.strip()}")
                print(f"{name},{L},{3**L},{r['verdict']},{r['fired_at'] or ''},"
                      f"{r['seconds']:.2f},{r['peak_mb']:.0f}")


if __name__ == "__main__":
    main()

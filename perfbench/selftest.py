"""Self-test of the output checks: true outputs pass, corrupted copies fail.

``failures(workload, op, out, ref)`` hands ``checks.check`` the true output
and corrupted copies of it (J off by one, a perturbed diagonal or
off-diagonal entry, a flipped verdict, a shifted firing grid size, a skipped
grid point, a run_stats total off by one) and returns what went wrong: a true
output rejected, or a corrupted copy accepted.  run.py runs it on every run's
own outputs.
"""

from __future__ import annotations

import copy
import json

import checks


def _stream(op, out, ref):
    s = json.loads(out)
    longer = dict(s, length=s["length"] + 1)
    yield "J off by one", longer, ref
    off = copy.deepcopy(s)
    tag = sorted(off["total_steps_by_value"])[0]
    off["total_steps_by_value"][tag] += 1
    yield "run_stats total off by one", off, ref
    small = copy.deepcopy(ref)
    tag = sorted(small["small_program"]["total_steps_by_value"])[0]
    small["small_program"]["total_steps_by_value"][tag] += 1
    yield "small-size run_stats total off by one", s, small


def _timeavg(op, out, ref):
    p = json.loads(out)
    yield "J off by one", dict(p, J=p["J"] + 1), ref
    diag = copy.deepcopy(p)
    diag["state"][0][0][0] += 1e-9
    diag["state"][1][1][0] -= 1e-9  # keeps the trace at one
    yield "perturbed diagonal entry", diag, ref
    v1, v2 = 0, 1
    off = copy.deepcopy(p)
    off["state"][v1][v2][0] += 1e-9
    off["state"][v2][v1][0] += 1e-9  # keeps the state Hermitian
    yield "perturbed off-diagonal entry", off, ref


def _evolve(op, out, ref):
    lines = out.decode().splitlines()
    cfg = json.loads(lines[1][len("# config: "):])
    header = lines[1][:len("# config: ")] + json.dumps(dict(cfg, J=cfg["J"] + 1),
                                                      sort_keys=True)
    yield "J off by one", "\n".join(lines[:1] + [header] + lines[2:]) + "\n", ref
    rows = [i for i, ln in enumerate(lines) if ln[:1].isdigit()]
    skipped = lines[:rows[5]] + lines[rows[5] + 1:]
    yield "skipped grid point", "\n".join(skipped) + "\n", ref
    k = rows[7]
    cells = lines[k].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    yield "perturbed diagonal entry", "\n".join(lines[:k] + [",".join(cells)] + lines[k + 1:]) + "\n", ref
    cells = lines[k].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    yield "perturbed off-diagonal entry", "\n".join(lines[:k] + [",".join(cells)] + lines[k + 1:]) + "\n", ref


def _decide(op, out, ref):
    v = json.loads(out)
    flipped = {"yes": "no", "no": "yes", "budget_exhausted": "yes"}[v["verdict"]]
    yield "flipped verdict", dict(v, verdict=flipped,
                                  fired_at_grid_size=v["fired_at_grid_size"] or 1), ref
    if v["fired_at_grid_size"] is not None:
        k = v["fired_at_grid_size"]
        yield "firing grid size shifted up", dict(v, fired_at_grid_size=k + 1), ref
        yield "skipped grid point", dict(v, fired_at_grid_size=k - 1), ref
    elif not ref["inst"].get("semi"):
        yield "firing after the last grid point", dict(v, verdict="yes",
                                                       fired_at_grid_size=ref["K"]), ref
        ledger = copy.deepcopy(v)
        for e in ledger["error_ledger"]:
            if e["term"] == "state_rounding":
                e["mechanism"] = f"entries rounded to {ref['places'] - 1} binary places"
        yield "coarser rounding stated", ledger, ref


def corruptions(workload, op, out, ref):
    if workload == "stream":
        gen = _stream(op, out, ref)
    elif workload == "orbit_quantum":
        gen = _timeavg(op, out, ref) if "law" in ref else _evolve(op, out, ref)
    else:
        gen = _decide(op, out, ref)
    for label, bad, bad_ref in gen:
        if not isinstance(bad, (bytes, str)):
            bad = json.dumps(bad, indent=1, sort_keys=True)
        if isinstance(bad, str):
            bad = bad.encode()
        yield label, bad, bad_ref


def failures(workload, op, out, ref) -> list:
    found = []
    problems = checks.check(workload, op, out, ref)
    if problems:
        found.append(f"{workload}/{op}: true output rejected: {problems}")
    n = 0
    for label, bad, bad_ref in corruptions(workload, op, out, ref):
        n += 1
        if not checks.check(workload, op, bad, bad_ref):
            found.append(f"{workload}/{op}: corrupted copy accepted ({label})")
    if n == 0:
        found.append(f"{workload}/{op}: no corrupted copy made")
    return found


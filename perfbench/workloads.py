"""Workloads, their operations and the instances behind them.

An operation is one call into hamca that a fresh worker interpreter makes
(worker.py).  The tables below are the make-up of every instance; README.md
lists them with their orbit lengths and grid sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Streaming fixtures.  ``m`` simulation cells are placed by
# ``scattered_m_sites`` with the workload seed; the length witness sits on the
# ``witness_at``-th of them.  ``small_L`` / ``small_m`` / ``small_witness`` is
# the size at which the two-route check rebuilds every RunStats field from the
# reference stepper.
STREAM = {
    "two_way": dict(inner="halt_now", variant="two-way-amp", decode=False,
                    L=600, m=0, witness_at=1, boundary="periodic", track=("a2",),
                    small_L=14, small_m=0, small_witness=1),
    "counter": dict(inner="counter", variant="one-way-amp", decode=True,
                    L=754, m=251, witness_at=251, boundary="periodic", track=(),
                    small_L=22, small_m=7, small_witness=7),
}
STREAM_MAX_STEPS = 10**7

# Quantum verbs on two-way-amp without decode (J = L^2 + L + 5).
ORBIT = {
    "timeavg_L40": dict(verb="timeavg", L=40),
    "timeavg_L60": dict(verb="timeavg", L=60),
    "evolve_L16": dict(verb="evolve", L=16, t_max=20.0, t_steps=41),
}
ORBIT_MACHINE = dict(inner="halt_now", variant="two-way-amp", decode=False)

# Decision instances (hamca decide instance files).
_A11_NO = dict(inner="ping_pong", variant="one-way-amp", decode=True,
               mode="anchored", L=5, alpha=[1, 8], v="1", eta=0.846, eps1=0.35,
               t0_override=40, gap_floor_from_fixture=True)
DECIDE = {
    "decide_ensemble": {
        "halting": dict(inner="halt_now", variant="one-way-amp", decode=True,
                        mode="anchored", L=5, alpha=[1, 8], v="1", eta=0.74,
                        eps1=0.30, t0_override=200, gap_floor_from_fixture=True),
        "nonhalting": dict(_A11_NO),
        "pair_sweep": dict(_A11_NO, semi=True, budget=20),
    },
    "decide_scan": {
        "scan": dict(inner="ping_pong", variant="one-way-amp", decode=False,
                     mode="anchored", L=3, alpha=[0, 1], v="1", eta=0.988,
                     eps1=0.48, t0_override=2000, gap_floor_from_fixture=True),
    },
}

WORKLOADS = {
    "stream": list(STREAM),
    "orbit_quantum": list(ORBIT),
    "decide_ensemble": list(DECIDE["decide_ensemble"]),
    "decide_scan": list(DECIDE["decide_scan"]),
}


def grid_step(eta, eps1) -> float:
    """Grid step of the decision procedure: the state drifts at most
    ||H|| dt with ||H|| <= 2, and each interval may use a quarter of the
    margin eta - eps1."""
    return (float(eta) - float(eps1)) / 8.0


def grid_size(inst) -> int:
    return math.ceil(inst["t0_override"] / grid_step(inst["eta"], inst["eps1"]))


def stream_config(fx, seed, small=False):
    """Machine and initial configuration of a streaming fixture."""
    from hamca.encoding import anchored_configuration, scattered_m_sites
    from hamca.staged import build_staged_machine

    spec = build_staged_machine(fx["inner"], fx["variant"], include_decode=fx["decode"])
    L = fx["small_L"] if small else fx["L"]
    m = fx["small_m"] if small else fx["m"]
    w = fx["small_witness"] if small else fx["witness_at"]
    sites = scattered_m_sites(L, m, witness_at=w, seed=seed) if m else {}
    return spec, anchored_configuration(spec, L, sites, boundary=fx["boundary"])


def orbit_argv(op, seed, out):
    p = ORBIT[op]
    argv = ["--seed", str(seed), p["verb"], "--inner", ORBIT_MACHINE["inner"],
            "--variant", ORBIT_MACHINE["variant"], "--no-decode", "--L", str(p["L"])]
    if p["verb"] == "evolve":
        argv += ["--t-max", repr(p["t_max"]), "--t-steps", str(p["t_steps"])]
    return argv + ["--out", out]


# ---------------------------------------------------------------------------
# Output serialization shared by the worker and the checks
# ---------------------------------------------------------------------------


def stats_to_json(stats) -> dict:
    from hamca.machine import cell_to_tag

    def tagged(d):
        return {cell_to_tag(k): v for k, v in sorted(d.items(), key=lambda kv: cell_to_tag(kv[0]))}

    return {
        "length": stats.length,
        "terminal": stats.terminal,
        "total_steps_by_value": tagged(stats.total_steps_by_value),
        "first_hist": tagged(stats.first_hist),
        "last_hist": tagged(stats.last_hist),
        "change_steps": {k: list(v) for k, v in sorted(stats.change_steps.items())},
        "stage_entry_steps": dict(sorted(stats.stage_entry_steps.items())),
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_counts(workload, op, out: bytes) -> dict:
    """Work counts read off an operation's output; they must repeat exactly."""
    if workload == "stream":
        return {"steps": json.loads(out)["length"]}
    if workload == "orbit_quantum":
        if ORBIT[op]["verb"] == "timeavg":
            J = json.loads(out)["J"]
            # pair_weight_matrix holds J x J float64 for a dead-end orbit
            return {"orbit_states": J, "dense_mb_computed": J * J * 8 / 2**20}
        text = out.decode()
        cfg = json.loads(text.split("\n")[1][len("# config: "):])
        rows = [ln for ln in text.splitlines() if ln and ln[0].isdigit()]
        return {"orbit_states": cfg["J"], "time_points": len(rows)}
    verdict = json.loads(out)
    inst = DECIDE[workload][op]
    if verdict["verdict"] == "yes":
        points = verdict["fired_at_grid_size"]
    elif inst.get("semi"):
        points = inst["budget"]  # pairs spent by an exhausted sweep
    else:
        points = grid_size(inst)
    return {"grid_points": points}


def work_dir(root, workload):
    d = os.path.join(root, "perfbench", "_work", workload)
    os.makedirs(d, exist_ok=True)
    return d

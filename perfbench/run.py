"""Layered benchmark of hamca: streaming, orbit dynamics and the decide verb.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: stream, orbit_quantum, decide_ensemble, decide_scan (see
README.md).  The run is a closed loop with one caller: it repeats whole
passes over the workload's operations until ``--seconds`` have gone, each
operation in a fresh worker interpreter (perfbench/worker.py), one worker at
a time.  It then checks every operation's output against an independent
computation (checks.py), runs the self-test of those checks (selftest.py),
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  An operation fails when its worker
fails, or when its work counts or output digest differ from its first
sample's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WORKER_TIMEOUT_S = 60


def pin_environment():
    """Re-execute under the pinned thread counts and hash seed."""
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        env = dict(os.environ, **PINNED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def import_checkout():
    """Import hamca from this checkout's src/ or exit with code 2."""
    from worker import import_hamca

    try:
        import_hamca(ROOT)
        import hamca.cli  # noqa: F401  (compiles every module once, untimed)
    except (ImportError, SystemExit) as exc:
        print(f"perfbench: cannot import hamca from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)


def run_worker(workload, op, seed, trace):
    job = {"root": ROOT, "workload": workload, "op": op, "seed": seed, "trace": trace}
    job["t_spawn"] = time.perf_counter()
    try:
        p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if p.returncode != 0:
        return None, (p.stderr.strip().splitlines() or ["no message"])[-1]
    return json.loads(p.stdout.strip().splitlines()[-1]), None


class OpSamples:
    """Samples of one operation, and its failures against its first sample."""

    def __init__(self):
        self.plain = []
        self.traced = []
        self.layers = []
        self.baseline = None
        self.failed = 0
        self.errors = []

    def add(self, sample, error, traced, layers=None):
        if sample is None:
            self.failed += 1
            self.errors.append(error)
            return
        key = (sample["digest"], sample["counts"])
        if self.baseline is None:
            self.baseline = key
        if key != self.baseline:
            self.failed += 1
            self.errors.append("output digest or work counts differ from the first sample")
            return
        if traced:
            layer_counts = {n: {k: v for k, v in m.items() if k != "s"}
                            for n, m in layers.items()}
            if self.layers and layer_counts != self.layers[0][1]:
                self.failed += 1
                self.errors.append("traced layer counts differ from the first traced sample")
                return
            self.traced.append(sample)
            self.layers.append((layers, layer_counts))
        else:
            self.plain.append(sample)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(workload, ops, seed, seconds, trace):
    import tracing

    samples = {op: OpSamples() for op in ops}
    modes = (0, 1) if trace else (0,)
    start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for traced in modes:
            for op in ops:
                sample, error = run_worker(workload, op, seed, traced)
                layers = None
                if sample is not None and traced:
                    spans = os.path.join(ROOT, "perfbench", "_work", workload,
                                         f"{op}.spans.jsonl")
                    layers = tracing.aggregate(spans)
                samples[op].add(sample, error, traced, layers)
        rounds += 1
        now = time.perf_counter()
        # whole rounds only; start another only if it should end in time
        if now + (now - t_round) > start + seconds:
            break
    attempted = rounds * len(ops) * len(modes)
    return samples, attempted


def end_to_end(samples, refs, ops):
    wall = sum(median([s["wall_s"] for s in samples[op].plain]) for op in ops)
    # machine steps: run_stats steps on stream, orbit states elsewhere
    steps = sum(samples[op].baseline[1].get("steps") or refs[op]["counts"]["orbit_states"]
                for op in ops)
    return {
        "setup_s": {"value": median([s["setup_s"] for op in ops for s in samples[op].plain]),
                    "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": max(
            median([s["peak_rss_mb"] for s in samples[op].plain]) for op in ops), "unit": "MB"},
        "steps_per_s": {"value": steps / wall, "unit": "steps/s"},
    }


def per_layer(samples, refs, ops):
    import tracing

    names = tracing.layer_metric_names()
    out = {name: {"value": 0.0 if name.endswith(".s") else 0, "unit": unit}
           for name, unit in names.items()}
    for op in ops:
        runs = [layers for layers, _ in samples[op].layers]
        for name, unit in names.items():
            layer, _, field = name.rpartition(".")
            vals = [r.get(layer, {}).get(field, 0) for r in runs]
            out[name]["value"] += median(vals) if field == "s" else vals[0]
    plain = sum(median([s["wall_s"] for s in samples[op].plain]) for op in ops)
    # wrapped calls x measured cost of one wrapped call: the difference of
    # traced and untraced wall times is noisier than the overhead itself
    overhead = sum(median([s["spans"] * s["span_cost_s"] for s in samples[op].traced])
                   for op in ops)
    points = sum(refs[op].get("counts", {}).get("grid_points", 0) for op in ops)
    out["cli.output_bytes"] = {
        "value": sum(samples[op].plain[0]["output_bytes"] for op in ops), "unit": "bytes"}
    out["grid_points_per_s"] = {"value": points / plain, "unit": "points/s"}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def check_outputs(workload, ops, seed, samples):
    """Run every check and the self-test; return (references, problems)."""
    import checks
    import selftest

    refs, problems = {}, []
    for op in ops:
        refs[op] = checks.reference(workload, op, seed)
        if samples[op].baseline is None:
            continue
        with open(os.path.join(ROOT, "perfbench", "_work", workload, f"{op}.out"), "rb") as fh:
            out = fh.read()
        problems += selftest.failures(workload, op, out, refs[op])
    return refs, problems


def report(workload, ops, samples, refs):
    for op in ops:
        s = samples[op]
        line = f"{workload}/{op}: {len(s.plain)} samples"
        if s.plain:
            line += (f", wall median {median([x['wall_s'] for x in s.plain]):.4f} s"
                     f", setup median {median([x['setup_s'] for x in s.plain]):.4f} s"
                     f", peak RSS {median([x['peak_rss_mb'] for x in s.plain]):.1f} MB")
        if s.traced:
            line += f", {len(s.traced)} traced samples"
        if s.failed:
            line += f", {s.failed} failed ({s.errors[0]})"
        print(line)
        counts = dict(refs[op].get("counts", {}))
        if s.baseline is not None:
            counts.update(s.baseline[1])
        print(f"  counts: {json.dumps(counts, sort_keys=True)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_environment()
    import_checkout()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**32
    samples, attempted = measure(args.workload, ops, seed, args.seconds, args.trace)
    refs, problems = check_outputs(args.workload, ops, seed, samples)
    report(args.workload, ops, samples, refs)
    for p in problems:
        print(f"check failed: {p}")
    complete = all(samples[op].plain and (samples[op].traced or not args.trace) for op in ops)
    if not complete:
        print("no successful sample of some operation; its metrics are missing")
        metrics = {}
    elif args.trace:
        metrics = per_layer(samples, refs, ops)
    else:
        metrics = end_to_end(samples, refs, ops)
    print(json.dumps({
        "correct": not problems and complete,
        "attempted": attempted,
        "failed": sum(samples[op].failed for op in ops),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

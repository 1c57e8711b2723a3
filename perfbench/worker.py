"""One operation in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job json>'

The job names the checkout root, workload, operation, seed, trace flag and
the parent's clock reading at spawn.  The worker imports hamca from the
checkout's ``src/`` (and fails if another copy is imported), builds the
operation's inputs, runs the timed call, and prints one JSON line: set-up and
wall seconds, peak RSS, output digest and work counts; a traced worker adds
its number of spans and the measured cost of one wrapped call.  The output
itself goes to ``<op>.out`` in the workload's work directory, the spans of a
traced run to ``<op>.spans.jsonl``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def import_hamca(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hamca

    where = os.path.realpath(hamca.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hamca imported from {where}, not from {src}")
    return hamca


def main(job):
    root = job["root"]
    import_hamca(root)
    import workloads as wl

    recorder = None
    if job["trace"]:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    workload, op, seed = job["workload"], job["op"], job["seed"]
    wdir = wl.work_dir(root, workload)
    out_path = os.path.join(wdir, f"{op}.out")

    # set-up: the operation's machine spec, configuration or instance file
    if workload == "stream":
        import hamca.machine as machine

        fx = wl.STREAM[op]
        spec, cfg = wl.stream_config(fx, seed)
    elif workload == "orbit_quantum":
        import hamca.cli as cli

        argv = wl.orbit_argv(op, seed, out_path)
    else:
        import hamca.cli as cli

        inst_path = os.path.join(wdir, f"{op}.instance.json")
        with open(inst_path, "w") as fh:
            json.dump(wl.DECIDE[workload][op], fh, indent=1, sort_keys=True)
        argv = ["--seed", str(seed), "decide", inst_path, "--out", out_path]

    t_ready = time.perf_counter()
    if workload == "stream":
        stats = machine.run_stats(spec, cfg, wl.STREAM_MAX_STEPS,
                                  track_increments=fx["track"])
        t_end = time.perf_counter()
        out = json.dumps(wl.stats_to_json(stats), sort_keys=True).encode()
        with open(out_path, "wb") as fh:
            fh.write(out)
    else:
        rc = cli.main(argv)
        t_end = time.perf_counter()
        if rc != 0:
            raise SystemExit(f"hamca {' '.join(argv)} exited with {rc}")
        with open(out_path, "rb") as fh:
            out = fh.read()

    result = {
        "setup_s": t_ready - job["t_spawn"],
        "wall_s": t_end - t_ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": wl.digest(out),
        "output_bytes": len(out) if workload != "stream" else 0,
        "counts": wl.output_counts(workload, op, out),
    }
    if recorder is not None:
        recorder.write(os.path.join(wdir, f"{op}.spans.jsonl"))
        result["spans"] = len(recorder.spans)
        result["span_cost_s"] = tracing.span_cost()
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

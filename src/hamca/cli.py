"""Command-line front end: build machines, run orbits and dynamics, decide.

Verbs: build-machine, orbit, evolve, timeavg, gap, decide, sample-good,
phase-decode.  Artifacts are CSV or JSON; every artifact embeds the resolved
configuration and the library version, and identical seeds give byte-equal
output.  Exit codes: 0 verdict produced, 2 input error, 3 resource guard,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .dynamics import (
    basis_state,
    coded_orbit,
    longterm_site_average,
    orbit_site_average,
    trace_distance,
)
from .encoding import (
    EnsembleParams,
    NoValidCodeword,
    OraclePromiseViolated,
    ParamsViolation,
    PromiseViolated,
    anchored_configuration,
    build_initial_ensemble,
    encode_input,
    estimate_bad_rate_anchored,
    estimate_bad_rate_iid,
    good_rate_bounds,
    phase_decode,
    scattered_m_sites,
)
from .hamiltonian import (
    DimensionGuard,
    OrbitSpectrum,
    TruncatedOrbit,
    compile_machine,
    energy_gap_bound,
    min_distinct_gap,
)
from .machine import (
    MalformedConfiguration,
    NotReversible,
    a_cell,
    cell_to_tag,
    cell_track2,
    load_spec,
    orbit_to_jsonl,
    run_orbit,
    run_stats,
    save_spec,
)
from .staged import FIXTURES, VARIANTS, build_staged_machine
from .verifier import (
    DecisionInstance,
    GapViolation,
    InvalidThresholds,
    PromiseViolation,
    decide_finite,
    fixture_gap_floor,
    semi_decide,
)


class InputError(ValueError):
    pass


def fraction(text: str) -> Fraction:
    """A rational written p/q or as a decimal; ValueError otherwise."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def _above(low, kind=int):
    """An argparse type: a finite ``kind`` greater than ``low``."""

    def parse(text):
        x = kind(text)
        if not low < x < math.inf:  # NaN fails both
            raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind.__name__} > {low}")
        return x

    parse.__name__ = kind.__name__  # text that is no number keeps argparse's message
    return parse


def rate(text: str) -> Fraction:
    """An argparse type: a fraction in [0, 1), as a cell rate alpha is."""
    x = fraction(text)
    if not 0 <= x < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a rate in [0, 1)")
    return x


def _load_machine(path):
    """A spec file that loads and validates; InputError otherwise."""
    try:
        return load_spec(path)
    except FileNotFoundError:
        raise InputError(f"machine spec not found: {path}")
    except (KeyError, ValueError) as exc:
        raise InputError(f"malformed machine spec: {exc}")


def _machine_from_args(args):
    if getattr(args, "machine", None):
        return _load_machine(args.machine)
    return build_staged_machine(
        args.inner, args.variant, include_decode=not args.no_decode
    )


def _config_from_args(spec, args):
    if args.alpha and args.m_count is None:
        m_count = round(float(args.alpha) * args.L)
    else:
        m_count = args.m_count or 0
    if not 0 <= m_count <= args.L - 1:
        raise InputError(f"{m_count} simulation cells do not fit sites 2..{args.L}")
    sites = scattered_m_sites(args.L, m_count, seed=args.seed) if m_count else {}
    return anchored_configuration(spec, args.L, sites, boundary=args.boundary)


def _header_lines(args, extra=None):
    skip = ("func", "out", "stats_out")
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    if extra:
        cfg.update(extra)
    return [
        f"# version: hamca {__version__}",
        f"# config: {json.dumps(cfg, sort_keys=True, default=str)}",
    ]


def _dumps_with_state(payload: dict, rho: np.ndarray) -> str:
    """``json.dumps({**payload, "state": [[[re, im], ...], ...]}, indent=1,
    sort_keys=True)`` for a complex matrix ``rho`` of finite entries, byte
    for byte.

    ``indent`` sends ``json`` to its pure-Python encoder, which is slow on
    the d x d x 2 floats of the state; their text, the reprs json writes
    for finite floats, is joined here instead.  The other fields are small
    and go through ``json``, one level in.
    """
    rows = (
        ",\n   ".join(f"[\n    {re!r},\n    {im!r}\n   ]" for re, im in zip(*row))
        for row in zip(rho.real.tolist(), rho.imag.tolist())
    )
    fields = {
        k: json.dumps(v, indent=1, sort_keys=True).replace("\n", "\n ")
        for k, v in payload.items()
    }
    fields["state"] = "[\n  " + ",\n  ".join(f"[\n   {row}\n  ]" for row in rows) + "\n ]"
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {fields[k]}" for k in sorted(fields)) + "\n}"


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_build_machine(args):
    spec = build_staged_machine(
        args.inner, args.variant, include_decode=not args.no_decode
    )
    save_spec(spec, args.out)
    print(f"wrote {args.out}: {len(spec.rules)} rules, {len(spec.control.states)} states")
    return 0


def cmd_orbit(args):
    spec = _machine_from_args(args)
    config = _config_from_args(spec, args)
    orbit = run_orbit(spec, config, args.max_steps)
    _write(args.out, orbit_to_jsonl(orbit))
    lines = _header_lines(args, {"terminal": orbit.terminal[0], "J": orbit.length})
    lines.append("j,n_a1,n_a2,n_a3")
    series = {
        sym: [
            sum(1 for x in c.cells if not x[0] == "Q" and cell_track2(x) == sym)
            for c in orbit.states
        ]
        for sym in ("a1", "a2", "a3")
    }
    for j in range(orbit.length):
        lines.append(
            f"{j + 1},{series['a1'][j]},{series['a2'][j]},{series['a3'][j]}"
        )
    _write(args.stats_out, "\n".join(lines) + "\n")
    print(f"terminal={orbit.terminal[0]} J={orbit.length}")
    return 0


def cmd_gap(args):
    spec = _machine_from_args(args)
    config = _config_from_args(spec, args)
    stats = run_stats(spec, config, args.max_steps)
    if stats.terminal == "truncated":
        raise TruncatedOrbit("orbit did not close within the step budget")
    spectrum = OrbitSpectrum.of(stats.terminal, stats.length)
    # the closed forms are good to about 1e-15, so a repeat (a cycle's k and
    # -k) differs by far less than 1e-12, while every gap of an orbit within
    # reach is far more: the smallest is about 3 pi^2 / (J+1)^2, 7.9e-10 at
    # J = 194,045
    gap = min_distinct_gap(spectrum.eigenvalues, tol=1e-12)
    bound = energy_gap_bound(spectrum)
    result = {
        "version": __version__,
        "J": stats.length,
        "terminal": stats.terminal,
        "gap_bound": [bound.numerator, bound.denominator],
        "min_distinct_gap": gap,
        "satisfied": bool(gap >= float(bound) - 1e-12),
    }
    _write(args.out, json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_evolve(args):
    spec = _machine_from_args(args)
    h = compile_machine(spec, args.boundary)
    config = _config_from_args(spec, args)
    orbit = coded_orbit(h, config, args.max_steps)
    if orbit.kind == "truncated":
        raise TruncatedOrbit("orbit did not close within the step budget")
    i1 = h.value_index(a_cell("a1"))
    i2 = h.value_index(a_cell("a2"))
    ts = np.linspace(0.0, args.t_max, args.t_steps)
    lines = _header_lines(args, {"J": orbit.length})
    lines.append(
        "# trace distances use the unhalved convention (orthogonal pure states at 2)"
    )
    lines.append("t,p_a1,p_a2,re_rho_a1_a2,im_rho_a1_a2,dist_to_a1,dist_to_half_mix")
    # states on the block of occupied values plus a1 and a2: the targets are
    # diagonal there, so each difference is zero off the block and its trace
    # norm is that of the block
    values, rhos = orbit_site_average(orbit, h, ts, keep=(i1, i2))
    b1, b2 = np.searchsorted(values, (i1, i2))
    e1 = np.diag(values == i1).astype(complex)
    mix = 0.5 * (e1 + np.diag(values == i2))
    # one batched eigvalsh per column; LAPACK still solves matrix by matrix,
    # so every digit is the per-matrix one
    to_a1, to_mix = trace_distance(rhos, e1), trace_distance(rhos, mix)
    for t, rho, d1, dm in zip(ts, rhos, to_a1, to_mix):
        lines.append(
            ",".join(
                [
                    f"{t:.12g}",
                    f"{rho[b1, b1].real:.12g}",
                    f"{rho[b2, b2].real:.12g}",
                    f"{rho[b1, b2].real:.12g}",
                    f"{rho[b1, b2].imag:.12g}",
                    f"{d1:.12g}",
                    f"{dm:.12g}",
                ]
            )
        )
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_timeavg(args):
    spec = _machine_from_args(args)
    h = compile_machine(spec, args.boundary)
    config = _config_from_args(spec, args)
    rho, stats = longterm_site_average(spec, h, config, args.max_steps)
    e1 = basis_state(h, a_cell("a1"))
    payload = {
        "version": __version__,
        "J": stats.length,
        "terminal": stats.terminal,
        "basis": [cell_to_tag(v) for v in h.site_values],
        "dist_to_a1": trace_distance(rho, e1),
    }
    _write(args.out, _dumps_with_state(payload, rho) + "\n")
    return 0


def _instance_from_file(path, t0_override=None):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"instance file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed instance JSON: {exc}")
    try:
        if "machine_ref" in data:
            spec = _load_machine(data["machine_ref"])
        else:
            spec = build_staged_machine(
                data["inner"], data["variant"], include_decode=data.get("decode", True)
            )
        alpha = Fraction(*data.get("alpha", [0, 1]))
        enc = encode_input(data.get("v", "1"), alpha)
        params = EnsembleParams(
            mode=data.get("mode", "anchored"),
            L=data["L"],
            alpha=alpha,
            l=data.get("l", 0),
            boundary=data.get("boundary", "periodic"),
        )
        ensemble = build_initial_ensemble(spec, params, enc)
        t0 = t0_override if t0_override is not None else data.get("t0_override")
        if t0 is not None and not 0 < float(t0) < math.inf:
            raise InputError(f"t0_override must be positive and finite, not {t0!r}")
        inst = DecisionInstance(
            machine=spec,
            ensemble=ensemble,
            eta=float(data["eta"]),
            eps1=float(data["eps1"]),
            gamma=data.get("gamma", 1),
            t0_override=None if t0 is None else float(t0),
            label=data.get("label", ""),
        )
    except KeyError as exc:
        raise InputError(f"instance file missing field {exc}")
    except InputError:
        raise
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed instance field: {exc}")
    if data.get("gap_floor_from_fixture"):
        inst.gap_floor = fixture_gap_floor(inst)
    return inst, data


def cmd_decide(args):
    inst, data = _instance_from_file(args.instance, t0_override=args.t0_override)
    violations = inst.ensemble.metadata.get("violations", [])
    if violations and not args.override_params:
        print(
            "note: parameter thresholds not met (pass --override-params to "
            f"silence): {'; '.join(violations)}",
            file=sys.stderr,
        )
    if data.get("semi"):
        budget = data.get("budget", 64)
        verdict = semi_decide(lambda m: inst if m == 1 else None, budget)
    else:
        verdict = decide_finite(inst)
    payload = verdict.to_json()
    payload["version"] = __version__
    payload["instance"] = {k: v for k, v in sorted(data.items())}
    _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_sample_good(args):
    if args.mode == "anchored":
        rate = estimate_bad_rate_anchored(
            args.n, args.alpha, args.L, args.samples, args.seed
        )
        bound = good_rate_bounds(EnsembleParams("anchored", args.L, args.alpha), args.n)
    else:
        rate = estimate_bad_rate_iid(args.n, args.l, args.L, args.samples, args.seed)
        bound = good_rate_bounds(
            EnsembleParams("iid", args.L, args.alpha, l=args.l), args.n
        )
    payload = {
        "version": __version__,
        "mode": args.mode,
        "bad_rate": rate,
        "bound": float(bound),
        "within_bound": bool(rate <= float(bound)),
        "samples": args.samples,
        "seed": args.seed,
    }
    _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_phase_decode(args):
    if args.v is not None:
        beta = encode_input(args.v).beta
    else:
        beta = args.beta
    n, v = phase_decode(beta, args.n_prime)
    payload = {
        "version": __version__,
        "length": n,
        "bits": v,
        "beta": [beta.numerator, beta.denominator],
    }
    _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_machine_opts(p):
    p.add_argument("--machine", help="machine spec JSON file")
    p.add_argument("--inner", default="halt_now", choices=FIXTURES, help="inner fixture name")
    p.add_argument("--variant", default="one-way-amp", choices=VARIANTS)
    p.add_argument("--no-decode", action="store_true", help="skip the decode stage")


def _add_config_opts(p):
    p.add_argument("--L", type=_above(0), default=8, help="tape length (cells)")
    p.add_argument("--alpha", type=fraction, default=None,
                   help="simulation-cell rate (fraction)")
    p.add_argument("--m-count", type=int, default=None, help="simulation cells, explicit count")
    p.add_argument("--boundary", default="periodic", choices=("periodic", "open"))
    p.add_argument("--max-steps", type=int, default=200000)


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line on stderr and exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _opts_build_machine(p):
    _add_machine_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_machine)


def _opts_orbit(p):
    _add_machine_opts(p)
    _add_config_opts(p)
    p.add_argument("--out", default="-")
    p.add_argument("--stats-out", default="orbit_stats.csv")
    p.set_defaults(func=cmd_orbit)


def _opts_gap(p):
    _add_machine_opts(p)
    _add_config_opts(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gap)


def _opts_evolve(p):
    _add_machine_opts(p)
    _add_config_opts(p)
    p.add_argument("--t-max", type=_above(-math.inf, float), default=20.0)
    p.add_argument("--t-steps", type=_above(0), default=41)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evolve)


def _opts_timeavg(p):
    _add_machine_opts(p)
    _add_config_opts(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_timeavg)


def _opts_decide(p):
    p.add_argument("instance")
    p.add_argument("--t0-override", type=float, default=None,
                   help="replace the instance's cutoff time")
    p.add_argument("--override-params", action="store_true",
                   help="acknowledge desk-scale parameter-threshold violations")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decide)


def _opts_sample_good(p):
    p.add_argument("--mode", default="anchored", choices=("anchored", "iid"))
    p.add_argument("--n", type=_above(0), default=64)
    p.add_argument("--alpha", type=rate, default="1/8")
    p.add_argument("--l", type=_above(0), default=2)
    p.add_argument("--L", type=_above(0), default=2**18)
    p.add_argument("--samples", type=_above(0), default=100000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample_good)


def _opts_phase_decode(p):
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--v", help="bit string (for round-trip use)")
    given.add_argument("--beta", type=fraction, help="angle as a fraction p/q")
    p.add_argument("--n-prime", type=int, default=12)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_phase_decode)


# verb -> (help line, function adding its options), in the order of --help
VERBS = {
    "build-machine": ("emit a machine spec JSON", _opts_build_machine),
    "orbit": ("run an orbit; emit JSONL and count CSV", _opts_orbit),
    "gap": ("orbit spectrum gap versus the certified bound", _opts_gap),
    "evolve": ("time series of the averaged site state", _opts_evolve),
    "timeavg": ("long-term averaged site state", _opts_timeavg),
    "decide": ("run the decision procedure on an instance file", _opts_decide),
    "sample-good": ("Monte Carlo bad-rate versus the bound", _opts_sample_good),
    "phase-decode": ("recover bits from the rotation angle", _opts_phase_decode),
}


def build_parser(verb=None):
    """The parser of every verb; with ``verb``, of that verb only, which
    parses that verb's command lines alike at a fraction of the cost."""
    ap = _Parser(prog="hamca", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="verb", required=True)
    for name, (help_line, add_opts) in VERBS.items():
        if verb in (None, name):
            add_opts(sub.add_parser(name, help=help_line))
    return ap


def _named_verb(argv):
    """The verb of a command line that names it first or after
    ``--seed N``; None for any other line, which the full parser then reads
    (and reports on, for help, an unknown verb or a bad option)."""
    k = 2 if argv[:1] == ["--seed"] else 0
    return argv[k] if k < len(argv) and argv[k] in VERBS else None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(_named_verb(argv)).parse_args(argv)
        return args.func(args)
    except (InputError, PromiseViolated, ParamsViolation, NoValidCodeword,
            OraclePromiseViolated, NotReversible, MalformedConfiguration,
            InvalidThresholds, GapViolation, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionGuard, TruncatedOrbit, PromiseViolation) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy names the allocation; Python leaves it blank
        print(f"resource guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except AssertionError as exc:  # pragma: no cover
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

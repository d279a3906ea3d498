"""Command-line front end.

Subcommands: ``generate`` (stream to CSV), ``run`` (experiment spec to
traces + summary), ``audit`` (sensitivity report; nonzero exit on any
failed bound), ``sweep`` (grid of runs).  Spec files are flat JSON objects
whose keys match estimator-config / experiment field names.  The default
output directory comes from ``CONTMEAN_OUTDIR`` (falling back to ``.``).

Exit codes: 0 success, 1 usage error, 2 precondition violation, 3 audit
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from contmean.estimators import EstimatorConfig
from contmean.harness import _CONFIG_FIELDS, ExperimentSpec, audit_sensitivity, run, sweep
from contmean.streams import ORDERING_KINDS, OrderingSpec, generate, read_stream, write_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_AUDIT_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for
    # precondition violations, so remap through an exception
    def error(self, message):
        raise _UsageError(message)


def _default_outdir() -> Path:
    return Path(os.environ.get("CONTMEAN_OUTDIR", "."))


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: spec file must hold one JSON object")
    return spec


def _split_config(spec: dict) -> tuple[EstimatorConfig, dict]:
    config_kwargs = {k: v for k, v in spec.items() if k in _CONFIG_FIELDS}
    rest = {k: v for k, v in spec.items() if k not in _CONFIG_FIELDS}
    return EstimatorConfig(**config_kwargs), rest


def _ordering_from(spec: dict) -> OrderingSpec:
    kind = spec.pop("ordering", "round_robin")
    return OrderingSpec(
        kind=kind,
        prefix_len=spec.pop("prefix_len", None),
        path=spec.pop("ordering_file", None),
    )


def _experiment_from(spec: dict) -> ExperimentSpec:
    config, rest = _split_config(spec)
    ordering = _ordering_from(rest)
    known = {"mu", "trials", "checkpoints", "stream_len"}
    extra = set(rest) - known
    if extra:
        raise ValueError(f"unknown spec keys: {sorted(extra)}")
    return ExperimentSpec(
        config=config,
        mu=rest["mu"],
        ordering=ordering,
        trials=rest.get("trials", 1),
        checkpoints=tuple(rest["checkpoints"]),
        stream_len=rest.get("stream_len"),
    )


def _cmd_generate(args) -> int:
    ordering = OrderingSpec(kind=args.ordering, prefix_len=args.prefix_len, path=args.ordering_file)
    events = generate(args.mu, args.n, args.m, args.T, ordering, args.seed)
    out = Path(args.out) if args.out else _default_outdir() / "stream.csv"
    write_stream(events, out)
    print(f"wrote {len(events)} events to {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    spec = _experiment_from(_load_spec(args.spec))
    out_dir = Path(args.out) if args.out else _default_outdir()
    summary = run(spec, out_dir, write_traces=not args.no_traces)
    print(f"summary: {summary.summary_path}")
    for t, med, q10, q90 in summary.rows():
        print(f"t={t} median={med:.6g} q10={q10:.6g} q90={q90:.6g}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    spec = _load_spec(args.spec)
    changed_user = spec.pop("changed_user")
    stream_path = spec.pop("stream")
    config, rest = _split_config(spec)
    if rest:
        raise ValueError(f"unknown spec keys: {sorted(rest)}")
    report = audit_sensitivity(config, read_stream(stream_path), changed_user)
    for mech in report.mechanisms:
        status = "ok" if mech.passed else "FAIL"
        print(
            f"{mech.label}: changed={mech.changed_entries} (bound {mech.entry_count_bound:.3g}) "
            f"l1={mech.l1_shift:.6g} (bound {mech.l1_bound:.6g}) [{status}]"
        )
    print(
        f"total: changed={report.changed_partial_sum_count} "
        f"l1={report.max_l1_shift:.6g} bound={report.theoretical_bound:.6g} "
        f"passed={report.passed}"
    )
    return EXIT_OK if report.passed else EXIT_AUDIT_FAILED


def _cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    if "base" not in spec or "grid" not in spec:
        raise ValueError("sweep spec needs 'base' and 'grid' objects")
    base = _experiment_from(dict(spec["base"]))
    out_dir = Path(args.out) if args.out else _default_outdir()
    results = sweep(base, spec["grid"], out_dir, write_traces=not args.no_traces)
    print(f"ran {len(results)} grid points; combined summary in {out_dir / 'sweep.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contmean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a Bernoulli stream CSV")
    p_gen.add_argument("--mu", type=float, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--T", type=int, required=True)
    p_gen.add_argument("--ordering", choices=ORDERING_KINDS, default="round_robin")
    p_gen.add_argument("--prefix-len", dest="prefix_len", type=int, default=None)
    p_gen.add_argument("--ordering-file", dest="ordering_file", default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--no-traces", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser("audit", help="sensitivity audit of a stream")
    p_audit.add_argument("--spec", required=True)
    p_audit.set_defaults(func=_cmd_audit)

    p_sweep = sub.add_parser("sweep", help="run a grid of experiments")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--no-traces", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: building it costs
    about twenty parses, and a parse leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    # OrderingError, StreamParseError and json.JSONDecodeError are ValueErrors
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``mc-cli``, ``online-skewed`` or ``audit-grid``) in this
process on one thread, from inputs drawn from ``--seed``.  With
``--trace 0`` it measures for ``--seconds`` seconds with no tracing and
reports the end-to-end metrics; with ``--trace 1`` it does a fixed amount
of work once plain and once under layer wrappers and reports the per-layer
metrics.  Either way it checks the program's outputs and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Diagnostics go to standard error.  Exit code 0 when the
outputs are correct, 1 when a check failed, 2 when the package sources are
missing from the checkout.
"""

import os

# one thread: numpy's BLAS pools must be sized before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mc-cli", "online-skewed", "audit-grid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "contmean" / "__init__.py", ROOT / "tests" / "oracles.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: the checkout lacks {', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import audit_grid
    import mc_cli
    import online_skewed

    module = {"mc-cli": mc_cli, "online-skewed": online_skewed, "audit-grid": audit_grid}[args.workload]
    outcome = module.traced(args.seed) if args.trace else module.timed(args.seed, args.seconds)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **outcome.notes}, default=str), file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

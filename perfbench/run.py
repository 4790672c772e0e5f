"""Closed-loop frame benchmark of the virconv backbone.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process: each frame starts when the previous one returns.
Every frame's output is checked against perfbench/reference.json. With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced frames, prints the per-layer metrics and writes the spans
to perfbench/out/. The last line of standard output is one JSON object.
See perfbench/NOTES.md for the workloads and the metric map.

This file only pins BLAS, puts src/ on sys.path and imports the program, so
that a checkout without the program fails with a one-line reason; the
measurement is in measure.py.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def fail(reason: str):
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Put src/ on sys.path and import the program; returns seconds taken."""
    if not (SRC / "virconv" / "__init__.py").is_file():
        fail(f"no virconv package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import virconv  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import virconv from {SRC}: {exc}")
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    import_s = import_program()
    import measure  # imports virconv, so only once src/ is on sys.path

    try:
        measure.run(args.workload, args.seed, args.seconds, args.trace, import_s)
    except measure.SetupError as exc:
        fail(str(exc))


if __name__ == "__main__":
    main()

"""Compare the benchmark's exact output digests of a base revision and the
working tree.

    python tools/digests.py --base REV

The script exports REV's `src/` and `perfbench/` with `git archive` under
`.bench_build/digests/`. Then it runs each tree in a fresh Python process,
with BLAS on one thread and that tree's `src/` and `perfbench/` first on
`sys.path`. Each process computes one frame of every perfbench workload and
variant and hashes it with `check.exact_digest`. The script prints one line
per case and ends with one JSON line that lists the cases that differ.

It exits 1 when a digest differs, unless `perfbench/reference.json` differs
between REV and the working tree: changing the reference is the one
declared way to change outputs. Both sides run on one machine, because the
bits of a BLAS product may depend on the CPU's kernels.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "digests"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Run in the child: argv[1] is the tree. Prints {"<workload> <variant>": digest}.
CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import check, workloads
print(json.dumps({f"{name} {variant}": check.exact_digest(workloads.Frames(name, variant).run())
                  for name in workloads.WORKLOADS for variant in range(workloads.VARIANTS)}))
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str) -> Path:
    """REV's src/ and perfbench/ in a fresh directory under BUILD."""
    dest = BUILD / rev
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "perfbench"],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def digests(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    run = subprocess.run([sys.executable, "-c", CHILD, str(tree)], cwd=tree, env=env,
                         capture_output=True, text=True)
    if run.returncode:
        sys.exit(f"digest run in {tree} failed:\n{run.stderr}")
    return json.loads(run.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    args = parser.parse_args()
    base = git("rev-parse", "--verify", args.base + "^{commit}")
    base_digests, head_digests = digests(export(base)), digests(ROOT)
    cases = sorted(base_digests.keys() | head_digests.keys())
    differ = [case for case in cases if base_digests.get(case) != head_digests.get(case)]
    print(f"{'case':24} {'base':16} {'working tree':16}")
    for case in cases:
        a, b = base_digests.get(case, "-"), head_digests.get(case, "-")
        print(f"{case:24} {a[:16]:16} {b[:16]:16} {'DIFFERS' if case in differ else 'same'}")
    reference_changed = bool(git("diff", base, "--", "perfbench/reference.json"))
    ok = not differ or reference_changed
    print(json.dumps({"base": base, "cases": len(cases), "differ": differ,
                      "reference_changed": reference_changed, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

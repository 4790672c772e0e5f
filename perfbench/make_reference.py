"""Write perfbench/reference.json: one frame summary per workload and variant.

    python3 perfbench/make_reference.py

Regenerate it only in a change that is meant to alter the program's outputs,
and say so in that change; the benchmark's output check compares to it.
"""

import json

import run  # pins BLAS threads before numpy is imported

run.import_program()

import check  # noqa: E402
import workloads  # noqa: E402


def main():
    refs = {}
    for name in workloads.WORKLOADS:
        refs[name] = {}
        for variant in range(workloads.VARIANTS):
            frames = workloads.Frames(name, variant)
            first = check.summarize(frames.run())
            if check.compare(check.summarize(frames.run()), first):
                raise SystemExit(f"{name} variant {variant}: two frames differ")
            refs[name][str(variant)] = first
            print(name, variant, [lv["n"] for lv in first["levels"]])
    with open(check.REFERENCE_PATH, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

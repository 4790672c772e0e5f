"""Per-frame output check against the committed reference.

A frame is summarised without depending on row order:

* per level, the site count and a SHA-256 of the sorted site keys, which
  must match exactly;
* per level, SKETCH_BITS signed sums of all feature entries, the sign of
  entry (site, channel) taken from one bit of a hash of the pair, plus the
  plain sum. A single entry off by more than TOLERANCE moves every sketch by
  that much, so the check is no looser than the 1e-5 oracle bound;
* for training frames, the sum and L2 norm of every parameter gradient and
  of the block-1 input gradient, within TOLERANCE.

Every comparison is absolute. Reference magnitudes stay below 1e5 (feature
sketches) and 4e4 (gradient sums), so float64 reordering noise (~1e-10)
stays far inside TOLERANCE.
"""

import hashlib
import json
import os

import numpy as np

from workloads import site_hash

TOLERANCE = 1e-5
SKETCH_BITS = 16
SKETCH_SALT = 0x5EED
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _level_summary(t) -> dict:
    keys = np.sort(t.linear_keys()).astype("<i8")
    spec = t.spec
    sites = hashlib.sha256(
        repr(([int(e) for e in spec.extent], int(spec.stride_level), t.width)).encode()
        + keys.tobytes()
    ).hexdigest()
    sketch = [float(t.features.sum())]
    if t.n:
        h = site_hash(t, SKETCH_SALT)
        for b in range(SKETCH_BITS):
            sign = 1.0 - 2.0 * ((h >> np.uint64(b)) & np.uint64(1)).astype(np.float64)
            sketch.append(float((sign * t.features).sum()))
    else:
        sketch += [0.0] * SKETCH_BITS
    return {"n": int(t.n), "sites": sites, "sketch": sketch}


def _sum_norm(g) -> list:
    return [float(g.sum()), float(np.sqrt((g * g).sum()))]


def summarize(out) -> dict:
    s = {"levels": [_level_summary(t) for t in out.levels]}
    if out.grads is not None:
        s["grads"] = {name: _sum_norm(g) for name, g in out.grads.items()}
        s["input_grad"] = _sum_norm(out.input_grad)
    return s


def exact_digest(out) -> str:
    """Bitwise digest of a frame's outputs, for traced == untraced."""
    h = hashlib.sha256()
    for t in out.levels:
        h.update(t.indices.tobytes())
        h.update(t.features.tobytes())
    for g in (out.grads or {}).values():
        h.update(g.tobytes())
    if out.input_grad is not None:
        h.update(out.input_grad.tobytes())
    return h.hexdigest()


def _close(a, b) -> bool:
    return abs(a - b) <= TOLERANCE


def compare(summary: dict, ref: dict) -> list:
    """Mismatches between a frame summary and its reference, as strings."""
    problems = []
    if len(summary["levels"]) != len(ref["levels"]):
        return [f"{len(summary['levels'])} levels, reference has {len(ref['levels'])}"]
    for i, (got, want) in enumerate(zip(summary["levels"], ref["levels"]), 1):
        if got["n"] != want["n"] or got["sites"] != want["sites"]:
            problems.append(f"level {i}: sites differ ({got['n']} vs {want['n']})")
            continue
        bad = [k for k, (a, b) in enumerate(zip(got["sketch"], want["sketch"]))
               if not _close(a, b)]
        if bad:
            problems.append(f"level {i}: feature sketch {bad[0]} differs "
                            f"({got['sketch'][bad[0]]!r} vs {want['sketch'][bad[0]]!r})")
    if ("grads" in summary) != ("grads" in ref):
        problems.append("gradients present in only one of frame and reference")
    elif "grads" in ref:
        pairs = dict(ref["grads"], input_grad=ref["input_grad"])
        got_all = dict(summary["grads"], input_grad=summary["input_grad"])
        for name, want in pairs.items():
            got = got_all.get(name)
            if got is None or not all(_close(a, b) for a, b in zip(got, want)):
                problems.append(f"gradient {name}: {got} vs {want}")
    return problems


def load_reference(workload: str, variant: int) -> dict:
    with open(REFERENCE_PATH) as f:
        refs = json.load(f)
    try:
        return refs[workload][str(variant)]
    except KeyError:
        raise KeyError(f"no reference for {workload} variant {variant} in {REFERENCE_PATH}") from None

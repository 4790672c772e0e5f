"""Set-up, timed loop, end-to-end metrics and the traced run."""

import gc
import json
import statistics
import time
import tracemalloc
from pathlib import Path

import check
import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3          # set-ups per run; setup_s is their median
TAIL_PERCENTILE = 70    # >= 10 frames beyond it at 30 s on every workload
MIN_FRAMES = 4          # timed frames (traced runs: frame pairs) even if --seconds is shorter
MIN_COVERAGE = 0.9


class SetupError(Exception):
    """The run cannot start: unknown workload or no usable reference."""


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "ratio3d", "coverage")):
        return "ratio"
    if name.startswith("conv.gflops"):
        return "GFLOP/s"
    if name.endswith("_pct"):
        return "%"
    return "count"


class Checker:
    """Checks frames against the reference and counts the failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def __call__(self, out):
        problems = check.compare(check.summarize(out), self.reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"frame {self.attempted} failed the output check: {problems[0]}")


def set_up(name, seed, checker):
    """SETUP_REPS independent set-ups (scene, fuse, weights, warm-up frame)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        frames = workloads.Frames(name, seed)
        out = frames.run()
        times.append(time.perf_counter() - t0)
        checker(out)
        del out
    return frames, times


def peak_frame_mb(frames, checker) -> float:
    """tracemalloc peak over one extra, untimed frame."""
    tracemalloc.start()
    try:
        out = frames.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checker(out)
    return peak / 1e6


def end_to_end(frames, checker, seconds, setup_s):
    times = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(times) < MIN_FRAMES:
        t0 = time.perf_counter()
        out = frames.run()
        times.append(time.perf_counter() - t0)
        checker(out)
        del out
    peak_mb = peak_frame_mb(frames, checker)
    ms = sorted(t * 1e3 for t in times)
    tail = statistics.quantiles(ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    beyond = sum(1 for v in ms if v > tail)
    print(f"{len(ms)} timed frames in {sum(times):.2f} s; frame_ms_tail is "
          f"p{TAIL_PERCENTILE} ({beyond} frames beyond it)")
    print(f"frames_failed_frac {checker.failed / checker.attempted:.4f} "
          f"({checker.failed} of {checker.attempted} checked frames)")
    return {
        "frame_ms_p50": (statistics.median(ms), "ms"),
        "frame_ms_tail": (tail, "ms"),
        "frames_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "frame_peak_mb": (peak_mb, "MB"),
        "frames_ok_frac": (1.0 - checker.failed / checker.attempted, "ratio"),
    }, []


def traced(frames, checker, seconds, trace_path, header):
    """Alternate untraced and traced frames; per-layer metrics and self-check."""
    tracer = tracing.Tracer()
    plain_s, traced_s, per_frame, records, problems = [], [], [], [], []
    t_origin = time.perf_counter()
    t_end = t_origin + seconds
    while time.perf_counter() < t_end or len(traced_s) < MIN_FRAMES:
        t0 = time.perf_counter()
        out = frames.run()
        plain_s.append(time.perf_counter() - t0)
        checker(out)
        digest = check.exact_digest(out)
        del out
        out, wall, spans = tracer.run_frame(frames.run)
        traced_s.append(wall)
        checker(out)
        if check.exact_digest(out) != digest:
            problems.append(f"traced frame {tracer.frame_id} output differs from untraced")
        per_frame.append(tracing.FrameMetrics(spans, wall, frames.workload, frames.net.blocks,
                                              frames.cfg))
        records += tracing.span_records(spans, t_origin)
        del out, spans

    first = per_frame[0]
    missing = sorted({m for fm in per_frame for m in fm.missing})
    if missing:
        problems.append("expected spans never fired: " + ", ".join(missing))
    if any(fm.counts != first.counts or fm.bins != first.bins for fm in per_frame[1:]):
        problems.append("counters differ between traced frames")
    coverage = statistics.median(fm.coverage for fm in per_frame)
    if coverage < MIN_COVERAGE:
        problems.append(f"trace coverage {coverage:.3f} below {MIN_COVERAGE}")

    metrics = {k: statistics.median(fm.times[k] for fm in per_frame if k in fm.times)
               for k in first.times}
    metrics.update(first.counts)
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0)

    op_self = {}
    for fm in per_frame:
        for op, v in fm.op_self_ms.items():
            op_self.setdefault(op, []).append(v)
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({
            **header,
            "traced_frames": len(per_frame), "untraced_frames": len(plain_s),
            "self_check": problems or "ok", "missing": missing,
            "coverage_per_frame": [fm.coverage for fm in per_frame],
            "op_self_ms_median": {k: statistics.median(v) for k, v in sorted(op_self.items())},
            "input_stvd_bins": first.bins,
            "counters": first.counts,
            "spans": records,
        }, f, indent=1)
    print(f"{len(per_frame)} traced and {len(plain_s)} untraced frames; "
          f"trace written to {trace_path}")
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, problems


def run(name: str, seed: int, seconds: float, trace: int, import_s: float):
    """One benchmark run; prints the metrics and, last, the JSON result line."""
    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    variant = seed % workloads.VARIANTS
    try:
        checker = Checker(check.load_reference(name, variant))
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"cannot load the output reference: {exc}") from None

    frames, setup_times = set_up(name, seed, checker)
    problems = []
    if frames.workload.training:
        composed = check.exact_digest(workloads.FrameOutput(frames.run().levels))
        if composed != check.exact_digest(workloads.FrameOutput(frames.forward_reference())):
            problems.append("composed training forward differs from virconvnet_forward")
    gc.collect()

    print(f"workload {name} seed {seed} (variant {variant}), trace {trace}, {seconds:g} s")
    if trace:
        metrics, found = traced(frames, checker, seconds, OUT_DIR / f"trace_{name}_seed{seed}.json",
                                {"workload": name, "seed": seed, "variant": variant})
    else:
        setup_s = import_s + statistics.median(setup_times)
        metrics, found = end_to_end(frames, checker, seconds, setup_s)
    problems += found
    for k, (v, unit) in metrics.items():
        print(f"{k} {v:.6g} {unit}")
    for p in problems:
        print(f"self-check failed: {p}")
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))

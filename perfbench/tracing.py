"""Outside-in per-op trace: spans around the program's public functions.

The tracer replaces module attributes at the points where the program looks
its ops up (`net.nrconv`, `conv.submanifold_conv3d`, ...) with wrappers that
record a span: name, start, end, parent span, frame id and block. Spans stay
in memory and are written out when the run ends. Nothing under `src/` is
edited.

Counters are computed by the benchmark after the frame, from each span's op
inputs and outputs (kernel-map pairs from `find_rows` over the 27 offsets,
not from `Ctx` internals), so they survive refactors of the ops.
"""

import time
from dataclasses import dataclass, field

import numpy as np

import workloads
from virconv import conv as vconv
from virconv import net as vnet
from virconv.geometry import INVALID_2D
from virconv.stvd import bin_histogram
from virconv.tensor import OFFSETS_2D, OFFSETS_3D

# (module, attribute, span name). Op spans tile the frame: their self times
# are what trace.coverage adds up.
OPS = (
    (vnet, "voxelize", "geometry.voxelize"),
    (vnet, "project_voxels", "geometry.project_voxels"),
    (vnet, "input_stvd", "stvd.input_stvd"),
    (vnet, "layer_stvd", "stvd.layer_stvd"),
    (vnet, "nrconv", "conv.nrconv"),
    (vconv, "submanifold_conv3d", "conv.conv3d"),
    (vconv, "conv2d_branch", "conv.conv2d"),
    (vnet, "spconv_downsample", "conv.down"),
    (vconv, "nrconv_backward", "conv.nrconv_bwd"),
    (vconv, "submanifold_conv3d_backward", "conv.conv3d_bwd"),
    (vconv, "conv2d_branch_backward", "conv.conv2d_bwd"),
    (vconv, "spconv_downsample_backward", "conv.down_bwd"),
    (workloads, "zero_grads", "step.zero_grads"),
    (workloads, "loss_grad", "step.loss_grad"),
    (workloads, "scatter_rows", "step.scatter_rows"),
)

# (module, attribute, span name, block number from (args, times fired)).
# Block spans only attribute the op spans under them to a block.
BLOCKS = (
    (vnet, "virconv_block", "net.virconv_block", lambda args, fired: fired + 1),
    (workloads, "block_forward", "step.block_forward", lambda args, fired: args[0] + 1),
    (workloads, "block_backward", "step.block_backward", lambda args, fired: args[0] + 1),
)

TRAINING_OPS = ("conv.nrconv_bwd", "conv.conv3d_bwd", "conv.conv2d_bwd",
                "conv.down_bwd", "step.zero_grads", "step.loss_grad",
                "step.scatter_rows")


def expected_ops(wl) -> set:
    """Op spans that must fire at least once in a frame of workload `wl`."""
    names = {"geometry.voxelize", "geometry.project_voxels", "stvd.layer_stvd",
             "conv.nrconv", "conv.conv3d", "conv.conv2d", "conv.down"}
    if wl.input_stvd:
        names.add("stvd.input_stvd")
    if wl.training:
        names.update(TRAINING_OPS)
    return names


@dataclass
class Span:
    name: str
    frame: int
    parent: int          # index of the parent span in the frame, -1 at top
    block: int           # 1-based block, 0 outside any block
    is_op: bool
    start: float = 0.0
    end: float = 0.0
    args: tuple = field(default=(), repr=False)
    out: object = field(default=None, repr=False)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Records spans for frames run through `run_frame`."""

    def __init__(self):
        self.frame_id = -1
        self.spans = []        # spans of the current frame
        self.stack = []
        self.fired = {}

    def _wrap(self, fn, name, is_op, block_of=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            if block_of is not None:
                block = block_of(args, self.fired.get(name, 0))
                self.fired[name] = self.fired.get(name, 0) + 1
            else:
                block = self.spans[parent].block if parent >= 0 else 0
            span = Span(name, self.frame_id, parent, block, is_op)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            span.args, span.out = args, out
            return out
        return traced

    def run_frame(self, frame_fn):
        """Run one frame with every trace point wrapped.

        Returns (frame output, frame wall seconds, spans of the frame).
        """
        self.frame_id += 1
        self.spans, self.stack, self.fired = [], [], {}
        saved = []
        try:
            for mod, attr, name in OPS:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, True))
            for mod, attr, name, block_of in BLOCKS:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, False, block_of))
            t0 = time.perf_counter()
            out = frame_fn()
            wall = time.perf_counter() - t0
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
        spans = self.spans
        self.spans = []
        return out, wall, spans


def self_ms(spans) -> list:
    """Per span, its duration minus the time its child spans cover."""
    own = [s.ms for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.ms
    return own


# ---------------------------------------------------------------- counters


def _pairs3d(t) -> int:
    """Occupied (site, offset) pairs of a submanifold conv over t's sites."""
    return sum(int((t.find_rows(t.indices + off) >= 0).sum()) for off in OFFSETS_3D)


def _down_pairs(t_in, t_out) -> int:
    """Occupied (output site, offset) probes of the stride-2 conv."""
    probes = 2 * t_out.indices
    return sum(int((t_in.find_rows(probes + off) >= 0).sum()) for off in OFFSETS_3D)


def _cells2d(h2d):
    """(occupied pixel cells, occupied (cell, 3x3 offset) pairs)."""
    cells = np.unique(h2d[h2d[:, 0] != INVALID_2D], axis=0)
    if len(cells) == 0:
        return 0, 0
    lo = cells.min(axis=0) - 1
    span = cells.max(axis=0) - lo + 2
    keys = (cells[:, 0] - lo[0]) * span[1] + (cells[:, 1] - lo[1])
    pairs = 0
    for du, dv in OFFSETS_2D:
        shifted = (cells[:, 0] + du - lo[0]) * span[1] + (cells[:, 1] + dv - lo[1])
        pairs += int(np.isin(shifted, keys).sum())
    return len(cells), pairs


class FrameMetrics:
    """Per-layer times and counters of one traced frame."""

    def __init__(self, spans, wall_s, wl, block_specs, stvd_cfg):
        self.times = {}      # times and rates: the run reports their median over frames
        self.counts = {}     # counters: must be identical in every traced frame
        self.missing = sorted(expected_ops(wl) - {s.name for s in spans})
        self.bins = None
        own = self_ms(spans)
        self.coverage = sum(o for s, o in zip(spans, own) if s.is_op) / (wall_s * 1e3)
        self.op_self_ms = {}
        for s, o in zip(spans, own):
            if s.is_op:
                self.op_self_ms[s.name] = self.op_self_ms.get(s.name, 0.0) + o
        self._global(spans, wl, stvd_cfg)
        macs_fwd = time_fwd = time_bwd = 0.0
        for b, spec in enumerate(block_specs, 1):
            m, tf, tb = self._block(spans, own, b, spec.downsample, wl)
            macs_fwd, time_fwd, time_bwd = macs_fwd + m, time_fwd + tf, time_bwd + tb
        self.times["conv.gflops_fwd"] = 2 * macs_fwd / time_fwd / 1e6 if time_fwd else 0.0
        # A backward pass does two matmuls per forward one (input and weight gradient).
        self.times["conv.gflops_bwd"] = 4 * macs_fwd / time_bwd / 1e6 if time_bwd else 0.0

    def _one(self, spans, name, block=None):
        found = [s for s in spans if s.name == name and (block is None or s.block == block)]
        if not found:
            self.missing.append(name if block is None else f"b{block}:{name}")
        return found

    def _global(self, spans, wl, cfg):
        vox = self._one(spans, "geometry.voxelize")
        if vox:
            self.times["geometry.voxelize_ms"] = sum(s.ms for s in vox)
            self.counts["geometry.voxelize_points"] = vox[0].args[0].n
            self.counts["geometry.voxelize_voxels"] = vox[0].out.n
        if not wl.input_stvd:
            # Not applicable: the workload runs without input StVD.
            self.times["stvd.input_stvd_ms"] = 0.0
            self.counts["stvd.input_kept"] = 0
            self.counts["stvd.input_keep_ratio"] = 0.0
            return
        st = self._one(spans, "stvd.input_stvd")
        if st:
            t_in, t_out = st[0].args[0], st[0].out
            self.times["stvd.input_stvd_ms"] = sum(s.ms for s in st)
            self.counts["stvd.input_kept"] = t_out.n
            self.counts["stvd.input_keep_ratio"] = t_out.n / t_in.n
            before, after = bin_histogram(t_in, cfg), bin_histogram(t_out, cfg)
            self.bins = {"kept": after.tolist(), "dropped": (before - after).tolist()}

    def _block(self, spans, own, b, downsample, wl):
        p = f"b{b}."
        t, c = self.times, self.counts
        macs = busy_fwd = busy_bwd = 0.0

        proj = self._one(spans, "geometry.project_voxels", b)
        if proj:
            t[p + "geometry.project_ms"] = sum(s.ms for s in proj)
            c[p + "geometry.invalid_proj"] = int((proj[0].out[:, 0] == INVALID_2D).sum())
        lay = self._one(spans, "stvd.layer_stvd", b)
        if lay:
            t[p + "stvd.layer_ms"] = sum(s.ms for s in lay)
            c[p + "stvd.layer_kept"] = lay[0].out.n

        c3 = self._one(spans, "conv.conv3d", b)
        if c3:
            site = c3[0].args[0]
            pairs = _pairs3d(site)
            c[p + "sites"] = site.n
            c[p + "conv.pairs3d"] = pairs
            c[p + "conv.hit_ratio3d"] = pairs / (27 * site.n) if site.n else 0.0
            m = sum(pairs * s.args[1].c_in * s.args[1].c_half for s in c3)
            c[p + "conv.macs3d"] = m
            t[p + "conv.conv3d_ms"] = sum(s.ms for s in c3)
            macs, busy_fwd = macs + m, busy_fwd + t[p + "conv.conv3d_ms"]
        c2 = self._one(spans, "conv.conv2d", b)
        if c2:
            cells, pairs = _cells2d(np.asarray(c2[0].args[1]))
            c[p + "conv.cells2d"] = cells
            c[p + "conv.pairs2d"] = pairs
            m = sum(pairs * s.args[2].c_in * s.args[2].c_half for s in c2)
            c[p + "conv.macs2d"] = m
            t[p + "conv.conv2d_ms"] = sum(s.ms for s in c2)
            macs, busy_fwd = macs + m, busy_fwd + t[p + "conv.conv2d_ms"]
        nr = self._one(spans, "conv.nrconv", b)
        if nr:
            t[p + "conv.nrconv_self_ms"] = sum(o for s, o in zip(spans, own)
                                              if s.name == "conv.nrconv" and s.block == b)
        if downsample:
            dn = self._one(spans, "conv.down", b)
            if dn:
                t_in, t_out, w = dn[0].args[0], dn[0].out, dn[0].args[1]
                pairs = _down_pairs(t_in, t_out)
                c[p + "conv.down_pairs"] = pairs
                c[p + "conv.down_sites_out"] = t_out.n
                t[p + "conv.down_ms"] = sum(s.ms for s in dn)
                macs += pairs * w.w.shape[1] * w.w.shape[2]
                busy_fwd += t[p + "conv.down_ms"]

        bwd = ["conv3d_bwd", "conv2d_bwd"] + (["down_bwd"] if downsample else [])
        for op in bwd:
            if not wl.training:
                t[p + f"conv.{op}_ms"] = 0.0   # not applicable: no backward pass
                continue
            found = self._one(spans, f"conv.{op}", b)
            if found:
                t[p + f"conv.{op}_ms"] = sum(s.ms for s in found)
                busy_bwd += t[p + f"conv.{op}_ms"]
        return macs, busy_fwd, busy_bwd


def span_records(spans, t_origin) -> list:
    """JSON-ready span rows, times in ms since `t_origin`."""
    return [
        {"name": s.name, "frame": s.frame, "parent": s.parent, "block": s.block,
         "start_ms": round((s.start - t_origin) * 1e3, 4),
         "end_ms": round((s.end - t_origin) * 1e3, 4)}
        for s in spans
    ]

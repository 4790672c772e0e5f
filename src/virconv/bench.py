"""Benchmark harness: input-discard sweeps over the backbone forward pass.

The sweep's x-axis is the effective discard rate. Rates are realized by
scaling the per-bin keep budget, staying faithful to the bin-based mechanism:
for a target rate r, the budget k is chosen so the kept fraction of
discardable nearby voxels best matches 1 - r. Rate 0 disables the input
discard and is the speedup baseline by definition.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import AugmentationRecord, default_grid_spec, voxelize
from .net import NetWeights, VirConvNetSpec, fuse_early, virconvnet_forward
from .rng import SeededRng
from .scene import load_scene, load_scene_calib
from .stvd import StvdConfig, discard_bins, input_stvd

STAGE_KEYS = ("voxelize_ms", "input_stvd_ms", "block1_ms", "block2_ms",
              "block3_ms", "block4_ms")


def config_hash(cfg: dict) -> str:
    """Stable short hash of a JSON-serializable config."""
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class BenchReport:
    scenario: str
    rate: float
    keep_per_bin: int
    voxels_before: int
    voxels_after: int
    stage_ms: dict = field(default_factory=dict)   # medians per stage
    time_ms_median: float = 0.0
    speedup: float = field(init=False)   # set by run_sweep once every rate ran
    seed: int = 0
    config_hash: str = ""


def solve_keep_per_bin(nearby_counts, rate: float) -> int:
    """Per-bin budget whose kept fraction best matches 1 - rate.

    nearby_counts are the discardable voxel populations of the nearby bins.
    """
    counts = np.asarray([c for c in nearby_counts if c > 0], dtype=np.int64)
    if len(counts) == 0:
        return 1
    target = (1.0 - rate) * counts.sum()
    best_k, best_gap = 1, float("inf")
    for k in range(1, int(counts.max()) + 1):
        kept = np.minimum(counts, k).sum()
        gap = abs(kept - target)
        if gap < best_gap:
            best_k, best_gap = k, gap
        if kept >= target:
            break
    return best_k


def nearby_discardable_counts(tensor, cfg: StvdConfig) -> list:
    """Population per nearby bin of voxels subject to discard."""
    bins = discard_bins(tensor, cfg)
    hist = np.bincount(bins[bins >= 0], minlength=cfg.num_bins)
    return [int(hist[b]) for b in range(cfg.num_bins) if cfg.is_nearby_bin(b)]


def _median(vals):
    return float(np.median(np.asarray(vals)))


def run_sweep(scene_dir, rates, repeats: int, seed: int) -> list:
    """Run the backbone forward at each discard rate; R timed runs each."""
    if repeats < 5:
        raise ValueError("repeats must be >= 5 for stable medians")
    if not all(0.0 <= r < 1.0 for r in rates):
        raise ValueError("sweep rates must lie in [0, 1)")
    scene = load_scene(scene_dir)
    calib = load_scene_calib(scene_dir)
    cloud = fuse_early(scene.lidar, scene.virtual)
    base_cfg = StvdConfig()
    grid = default_grid_spec()
    record = AugmentationRecord.identity()
    spec = VirConvNetSpec.default()
    weights = NetWeights.initialize(spec, SeededRng(seed))
    base_tensor = voxelize(cloud, grid)
    nearby = nearby_discardable_counts(base_tensor, base_cfg)
    chash = config_hash(
        {
            "rates": list(rates),
            "repeats": repeats,
            "seed": seed,
            "stvd": {
                "num_bins": base_cfg.num_bins,
                "nearby_limit": base_cfg.nearby_limit,
                "bin_range": base_cfg.bin_range,
                "mode": base_cfg.mode,
            },
        }
    )

    reports = []
    for rate in rates:
        if rate == 0.0:
            cfg = base_cfg
            use_stvd = False
            keep = 0
        else:
            keep = solve_keep_per_bin(nearby, rate)
            cfg = replace(base_cfg, keep_per_nearby_bin=keep)
            use_stvd = True

        after = input_stvd(base_tensor, cfg, SeededRng(seed)).n if use_stvd else base_tensor.n
        times = []
        stage_runs = {k: [] for k in STAGE_KEYS}
        for rep in range(repeats + 1):  # first run is warm-up
            stages = {}
            t0 = time.perf_counter()
            virconvnet_forward(
                cloud, spec, cfg, calib, record, weights, SeededRng(seed),
                training=False, grid=grid, apply_input_stvd=use_stvd,
                stage_times=stages,
            )
            elapsed = (time.perf_counter() - t0) * 1e3
            if rep == 0:
                continue
            times.append(elapsed)
            for k in STAGE_KEYS:
                stage_runs[k].append(stages.get(k, 0.0))
        reports.append(
            BenchReport(
                scenario=str(scene_dir),
                rate=rate,
                keep_per_bin=keep,
                voxels_before=base_tensor.n,
                voxels_after=after,
                stage_ms={k: _median(v) for k, v in stage_runs.items()},
                time_ms_median=_median(times),
                seed=seed,
                config_hash=chash,
            )
        )
    # Speedups are relative to the rate-0 row wherever it sits; NaN without one.
    baseline_ms = next((r.time_ms_median for r in reports if r.rate == 0.0), float("nan"))
    for r in reports:
        r.speedup = baseline_ms / r.time_ms_median
    return reports

"""Stochastic voxel discard.

Input discard is bin-based: voxels are stratified by planar distance into
uniform bins, nearby bins are capped at a fixed voxel budget, distant bins are
kept in full. Layer discard is a plain uniform drop applied only during
training.

Every sampler returns a row subset of its input: features pass through
bit-exactly and relative input order is preserved.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import grid_points
from .rng import SeededRng
from .tensor import ORIGIN_LIDAR, SparseVoxelTensor

MODE_ALL = "all_voxels"
MODE_VIRTUAL_ONLY = "virtual_only"
MAX_NUM_BINS = 1000


@dataclass(frozen=True)
class StvdConfig:
    """Bin-based input discard parameters.

    Defaults: 10 bins laid out uniformly over 100 m, nearby threshold 30 m,
    1000 voxels kept per nearby bin. Voxels beyond bin_range fall into an
    overflow bin and are always kept.
    """

    num_bins: int = 10
    nearby_limit: float = 30.0
    keep_per_nearby_bin: int = 1000
    bin_range: float = 100.0
    mode: str = MODE_VIRTUAL_ONLY

    def __post_init__(self):
        if not 1 <= self.num_bins <= MAX_NUM_BINS:   # one pass per nearby bin, one count per bin
            raise ValueError(f"num_bins must lie in [1, {MAX_NUM_BINS}], got {self.num_bins}")
        if self.keep_per_nearby_bin < 1:
            raise ValueError("keep_per_nearby_bin must be >= 1")
        # Written so that NaN fails each comparison.
        if not 0.0 < self.bin_range < math.inf:
            raise ValueError(f"bin_range must be positive and finite, got {self.bin_range}")
        if not 0.0 <= self.nearby_limit <= self.bin_range:
            raise ValueError(f"nearby_limit must lie in [0, bin_range = {self.bin_range}], "
                             f"got {self.nearby_limit}")
        if self.mode not in (MODE_ALL, MODE_VIRTUAL_ONLY):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def bin_width(self) -> float:
        return self.bin_range / self.num_bins

    def bin_of(self, planar_dist) -> np.ndarray:
        """Bin index per distance; num_bins is the overflow bin. Capped before
        the int64 cast, which a tiny bin_width would overflow."""
        b = np.floor(np.asarray(planar_dist) / self.bin_width)
        return np.minimum(b, self.num_bins).astype(np.int64)

    def is_nearby_bin(self, b) -> np.ndarray:
        """Nearby means the bin center is at or below the nearby limit."""
        center = (np.asarray(b) + 0.5) * self.bin_width
        return (np.asarray(b) < self.num_bins) & (center <= self.nearby_limit)


def _planar_distance(tensor: SparseVoxelTensor) -> np.ndarray:
    g = grid_points(tensor)
    return np.hypot(g[:, 0], g[:, 1])


def discard_bins(tensor: SparseVoxelTensor, cfg: StvdConfig) -> np.ndarray:
    """Distance bin of each row that input discard may drop, -1 for exempt rows.

    In virtual_only mode LiDAR-origin rows are exempt, and a tensor without
    origin flags is rejected.
    """
    bins = cfg.bin_of(_planar_distance(tensor))
    if cfg.mode == MODE_VIRTUAL_ONLY:
        if tensor.origin_flags is None:
            raise ValueError("virtual_only mode requires origin_flags on the tensor")
        bins[tensor.origin_flags == ORIGIN_LIDAR] = -1
    return bins


def input_stvd(tensor: SparseVoxelTensor, cfg: StvdConfig, rng: SeededRng) -> SparseVoxelTensor:
    """Bin-based discard of nearby voxels.

    Each nearby bin keeps at most cfg.keep_per_nearby_bin of its discardable
    voxels (discard_bins), chosen uniformly at random; distant and overflow
    bins are kept whole. Exempt voxels bypass the discard entirely and do not
    count against bin budgets.
    """
    bins = discard_bins(tensor, cfg)
    keep = np.ones(tensor.n, dtype=bool)
    for b in np.flatnonzero(cfg.is_nearby_bin(np.arange(cfg.num_bins))):
        members = np.flatnonzero(bins == b)
        if len(members) <= cfg.keep_per_nearby_bin:
            continue
        chosen = rng.gen.choice(members, size=cfg.keep_per_nearby_bin, replace=False)
        keep[members] = False
        keep[chosen] = True
    return tensor.take_rows(np.flatnonzero(keep))


def layer_stvd(tensor: SparseVoxelTensor, rate: float, rng: SeededRng,
               training: bool) -> SparseVoxelTensor:
    """Uniform random discard used as training-time augmentation.

    Keeps exactly N - round(rate * N) voxels; identity outside training.
    """
    if not (0.0 <= rate < 1.0):
        raise ValueError("rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return tensor
    n_keep = tensor.n - int(round(rate * tensor.n))
    rows = rng.gen.choice(tensor.n, size=n_keep, replace=False)
    rows.sort()
    return tensor.take_rows(rows)


def bin_histogram(tensor: SparseVoxelTensor, cfg: StvdConfig) -> np.ndarray:
    """Voxel count per distance bin; the last entry is the overflow bin."""
    return np.bincount(cfg.bin_of(_planar_distance(tensor)), minlength=cfg.num_bins + 1)

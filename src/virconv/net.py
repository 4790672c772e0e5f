"""Backbone assembly: early fusion, conv blocks, and the 4-level forward.

A block runs (training-only) layer discard, a fixed number of noise-resistant
conv layers sharing one projection of the block's input sites, and optionally
a strided downsampling conv. The backbone voxelizes a fused cloud, applies
the bin-based input discard once, and runs four blocks producing feature
volumes of widths 16/32/64/64 at strides 1/2/4/8.
"""

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .conv import KernelWeights, SpconvWeights, nrconv, spconv_downsample
from .geometry import (
    AugmentationRecord,
    Calibration,
    SparsePointCloud,
    default_grid_spec,
    project_voxels,
    voxelize,
)
from .rng import SeededRng
from .stvd import StvdConfig, input_stvd, layer_stvd
from .tensor import SparseVoxelTensor, VoxelGridSpec


# Noise-resistant conv layers per block, as in the paper's backbone.
NRCONV_LAYERS_PER_BLOCK = 2


@dataclass(frozen=True)
class VirConvBlockSpec:
    c_in: int
    c_out: int
    downsample: bool = True
    layer_stvd_rate: ClassVar[float] = 0.15

    def __post_init__(self):
        if self.c_out % 2:
            raise ValueError("c_out must be even")


@dataclass(frozen=True)
class VirConvNetSpec:
    blocks: tuple

    @classmethod
    def default(cls) -> "VirConvNetSpec":
        widths = (5, 16, 32, 64, 64)   # voxelize's 5 features, then each block's output
        return cls(blocks=tuple(VirConvBlockSpec(c_in=c_in, c_out=c_out, downsample=i > 0)
                                for i, (c_in, c_out) in enumerate(zip(widths, widths[1:]))))


@dataclass
class BlockWeights:
    nrconvs: list          # KernelWeights per conv layer
    down: SpconvWeights | None

    @classmethod
    def initialize(cls, spec: VirConvBlockSpec, rng: SeededRng) -> "BlockWeights":
        layers = []
        c = spec.c_in
        for _ in range(NRCONV_LAYERS_PER_BLOCK):
            layers.append(KernelWeights.initialize(c, spec.c_out, rng))
            c = spec.c_out
        down = SpconvWeights.initialize(c, spec.c_out, rng) if spec.downsample else None
        return cls(nrconvs=layers, down=down)

    def params(self):
        out = []
        for i, kw in enumerate(self.nrconvs):
            out += [(f"nrconv{i}.{n}", a, g) for n, a, g in kw.params()]
        if self.down is not None:
            out += [(f"down.{n}", a, g) for n, a, g in self.down.params()]
        return out


@dataclass
class NetWeights:
    blocks: list

    @classmethod
    def initialize(cls, spec: VirConvNetSpec, rng: SeededRng) -> "NetWeights":
        return cls(blocks=[BlockWeights.initialize(b, rng) for b in spec.blocks])

    def params(self):
        out = []
        for i, b in enumerate(self.blocks):
            out += [(f"block{i}.{n}", a, g) for n, a, g in b.params()]
        return out


def fuse_early(lidar: SparsePointCloud, virtual: SparsePointCloud) -> SparsePointCloud:
    """Concatenate LiDAR then virtual points into one fused cloud.

    Rejects inputs with mixed provenance flags; ordering within each source is
    preserved.
    """
    if (lidar.beta != 0.0).any():
        raise ValueError("lidar cloud contains non-LiDAR rows (beta != 0)")
    if (virtual.beta != 1.0).any():
        raise ValueError("virtual cloud contains non-virtual rows (beta != 1)")
    return SparsePointCloud(np.concatenate([lidar.points, virtual.points], axis=0))


def make_h2d_provider(calib: Calibration, record: AugmentationRecord):
    """Projection of a tensor's sites to pixel cells, cell size = stride."""

    def provider(tensor: SparseVoxelTensor) -> np.ndarray:
        return project_voxels(tensor, record, calib, pixel_cell=tensor.spec.stride_level)

    return provider


def virconv_block(tensor: SparseVoxelTensor, h2d_provider, spec: VirConvBlockSpec,
                  weights: BlockWeights, rng: SeededRng,
                  training: bool) -> SparseVoxelTensor:
    """Layer discard (training only), ReLU conv layers, optional downsample.

    The pixel-cell projection is computed once from the post-discard sites;
    conv layers keep the site set unchanged, so all layers in the block share
    it.
    """
    out = layer_stvd(tensor, spec.layer_stvd_rate, rng, training)
    h2d = h2d_provider(out)
    for kw in weights.nrconvs:
        out = nrconv(out, h2d, kw)
    if spec.downsample:
        out = spconv_downsample(out, weights.down)
    return out


def virconvnet_forward(cloud: SparsePointCloud, net: VirConvNetSpec,
                       cfg: StvdConfig, calib: Calibration,
                       record: AugmentationRecord, weights: NetWeights,
                       rng: SeededRng, training: bool = False,
                       grid: VoxelGridSpec = None, apply_input_stvd: bool = True,
                       stage_times=None):
    """Full backbone: voxelize, input discard, four blocks.

    Returns the cache-free per-level output tensors. An input that voxelizes
    (or discards) to zero voxels produces empty per-level tensors, not a crash.
    stage_times, if a dict, gets each stage's wall time in ms, in run order.
    """
    stage_times = {} if stage_times is None else stage_times
    grid = grid or default_grid_spec()
    t0 = time.perf_counter()
    tensor = voxelize(cloud, grid)
    stage_times["voxelize_ms"] = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    if apply_input_stvd:
        tensor = input_stvd(tensor, cfg, rng)
    stage_times["input_stvd_ms"] = (time.perf_counter() - t0) * 1e3
    provider = make_h2d_provider(calib, record)
    levels = []
    for i, (spec, bw) in enumerate(zip(net.blocks, weights.blocks), 1):
        t0 = time.perf_counter()
        tensor = virconv_block(tensor, provider, spec, bw, rng, training)
        stage_times[f"block{i}_ms"] = (time.perf_counter() - t0) * 1e3
        # Cache-free, so the maps built on this level die with the next block.
        levels.append(SparseVoxelTensor(tensor.indices, tensor.features, tensor.spec,
                                        tensor.origin_flags, _validate=False))
    return levels

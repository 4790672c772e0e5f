"""Shared fixtures: random sparse tensors and image-plane cell assignments."""

import numpy as np
import pytest

from virconv import SeededRng, SparseVoxelTensor, VoxelGridSpec, oracle
from virconv.geometry import INVALID_2D


def random_tensor(rng: SeededRng, extent=(8, 8, 8), occupancy=0.3, c=4,
                  with_flags=False) -> SparseVoxelTensor:
    """Random sparse tensor: unique voxel sites, normal features."""
    total = int(np.prod(extent))
    n = max(1, int(occupancy * total))
    flat = rng.gen.choice(total, size=n, replace=False)
    idx = np.stack(
        [flat // (extent[1] * extent[2]),
         (flat // extent[2]) % extent[1],
         flat % extent[2]],
        axis=1,
    ).astype(np.int64)
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(0.1, 0.1, 0.1),
                         extent=tuple(int(e) for e in extent))
    feats = rng.gen.normal(size=(n, c))
    flags = rng.gen.integers(0, 2, size=n) if with_flags else None
    return SparseVoxelTensor(idx, feats, spec, origin_flags=flags)


def random_h2d(rng: SeededRng, n: int, span=6, invalid_frac=0.1) -> np.ndarray:
    """Random image-plane cell per row, with a fraction marked invalid."""
    h2d = rng.gen.integers(0, span, size=(n, 2)).astype(np.int64)
    bad = rng.gen.random(n) < invalid_frac
    h2d[bad] = INVALID_2D
    return h2d


def corrupt_conv3d_gradient(monkeypatch):
    """Make gradcheck's conv3d backward add 1.0 to every weight gradient after
    the real backward ran, a negative control for the finite-difference check."""
    real = oracle._BACKWARD["conv3d"]

    def corrupted(ctx, grad_out):
        conv = ctx.data["conv"]   # read first: the backward empties the ctx
        gX = real(ctx, grad_out)
        conv.g_w += 1.0
        return gX

    monkeypatch.setitem(oracle._BACKWARD, "conv3d", corrupted)


@pytest.fixture
def rng():
    return SeededRng(1234)

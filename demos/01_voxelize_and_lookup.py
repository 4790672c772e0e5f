"""Turn a point cloud into a sparse voxel tensor and poke at its structure.

Run:  python3 demos/01_voxelize_and_lookup.py
"""

import numpy as np

from virconv import (
    SeededRng,
    SparsePointCloud,
    VoxelGridSpec,
    voxelize,
)
from virconv.geometry import grid_points
from virconv.tensor import OFFSETS_3D

rng = SeededRng(0)

# A toy cloud: 5000 points scattered over a 20 m x 10 m x 3 m slab.
n = 5000
pts = np.zeros((n, 5))
pts[:, 0] = rng.gen.uniform(2.0, 22.0, n)          # x forward
pts[:, 1] = rng.gen.uniform(-5.0, 5.0, n)          # y left
pts[:, 2] = rng.gen.uniform(-1.5, 1.5, n)          # z up
pts[:, 3] = rng.gen.random(n)                      # intensity
cloud = SparsePointCloud(pts)

spec = VoxelGridSpec(origin=(0.0, -5.0, -1.5), voxel_size=(0.25, 0.25, 0.25),
                     extent=(100, 40, 12))
tensor = voxelize(cloud, spec)

print(f"{cloud.n} points -> {tensor.n} occupied voxels "
      f"({tensor.n / np.prod(spec.extent):.1%} of the grid)")
print(f"feature columns are mean [x, y, z, alpha, beta]: {tensor.features[0]}")

# Coordinate lookup (searchsorted on sorted site keys) and 3x3x3
# neighborhood queries: per offset, the (query row, tensor row) pairs found.
site = tuple(int(v) for v in tensor.indices[123])
print(f"voxel {site} lives at row {tensor.find_rows([site])[0]}")
pairs = tensor.pairs_at(tensor.indices[123:124], OFFSETS_3D)
hits = sum(len(in_rows) for _, in_rows in pairs)
print(f"voxel {site} has {hits} occupied neighbors (incl. itself)")

# Every voxel knows its metric center.
centers = grid_points(tensor)
print(f"center of row 123: {centers[123]} m")

# Tensors are immutable; derive new ones instead of mutating.
doubled = tensor.with_features(tensor.features * 2.0)
print(f"derived tensor shares sites: {np.shares_memory(doubled.indices, tensor.indices)}")

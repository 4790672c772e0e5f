"""The backbone against a straight-line reference written from net.py's docstring.

The reference voxelizes with a Python dict and then runs input StVD. Per
block it runs layer StVD, projects the kept sites at pixel_cell =
stride_level, and applies oracle.dense_nrconv per layer and
oracle.dense_spconv_downsample. Besides the tensor type and project_voxels
(checked by c6 and c10), it shares only the two StVD samplers with the code
under test, so that both draw the same rows; tests/test_stvd.py checks those
samplers. So a fault in how net.py composes the ops (a level projected at
the wrong cell size, a layer skipped) fails here, while the op-level oracle
checks still pass.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virconv import (
    AugmentationRecord,
    NetWeights,
    SeededRng,
    SparsePointCloud,
    SparseVoxelTensor,
    StvdConfig,
    VirConvNetSpec,
    VoxelGridSpec,
    virconvnet_forward,
)
from virconv.conv import RELU
from virconv.geometry import project_voxels
from virconv.oracle import dense_nrconv, dense_spconv_downsample
from virconv.scene import synthetic_calibration
from virconv.stvd import MODE_ALL, MODE_VIRTUAL_ONLY, input_stvd, layer_stvd

# 12.8 x 12.8 x 4 m in front of the camera, so most sites project.
GRID = VoxelGridSpec(origin=(2.0, -6.4, -2.0), voxel_size=(0.4, 0.4, 0.4),
                     extent=(32, 32, 10))
ORACLE_BOUND = 1e-5


def reference_voxels(cloud, grid) -> SparseVoxelTensor:
    """Per occupied voxel, in (x, y, z) order, the mean [x, y, z, alpha,
    beta] of its points, flagged LiDAR, virtual or mixed by its beta mean."""
    members = {}
    for p in cloud.points:
        ix = tuple(math.floor((p[a] - grid.origin[a]) / grid.voxel_size[a]) for a in range(3))
        if all(0 <= i < e for i, e in zip(ix, grid.extent)):
            members.setdefault(ix, []).append(p)
    sites = sorted(members)
    feats = np.array([np.mean(members[s], axis=0) for s in sites]).reshape(-1, 5)
    flags = [0 if beta < 0.5 else 1 if beta > 0.5 else 2 for beta in feats[:, 4]]
    return SparseVoxelTensor(np.array(sites, np.int64), feats, grid, np.array(flags, np.int8))


def reference_backbone(cloud, net, cfg, calib, record, weights, rng, training,
                       apply_input_stvd) -> list:
    t = reference_voxels(cloud, GRID)
    if apply_input_stvd:
        t = input_stvd(t, cfg, rng)
    levels = []
    for spec, bw in zip(net.blocks, weights.blocks):
        t = layer_stvd(t, spec.layer_stvd_rate, rng, training)
        h2d = project_voxels(t, record, calib, pixel_cell=t.spec.stride_level)
        for kw in bw.nrconvs:
            t = SparseVoxelTensor(t.indices, dense_nrconv(t, h2d, kw, RELU), t.spec)
        if spec.downsample:
            sites, feats = dense_spconv_downsample(t, bw.down, RELU)
            t = SparseVoxelTensor(sites, feats, t.spec.downsampled())
        levels.append(t)
    return levels


@st.composite
def clouds(draw):
    """LiDAR then virtual points around 1-4 random centres; some fall
    outside GRID. Returns (points, a note for failure reports)."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n_lidar, n_virtual = draw(st.integers(0, 120)), draw(st.integers(0, 120))
    spread = draw(st.sampled_from([0.3, 1.0, 3.0]))
    gen = np.random.default_rng(seed)
    centres = gen.uniform((3.0, -5.0, -1.5), (13.0, 5.0, 1.5), size=(gen.integers(1, 5), 3))
    points = np.zeros((n_lidar + n_virtual, 5))
    points[:, :3] = centres[gen.integers(0, len(centres), len(points))]
    points[:, :3] += gen.normal(scale=spread, size=(len(points), 3))
    points[:n_lidar, 3] = gen.uniform(0.0, 1.0, n_lidar)
    points[n_lidar:, 4] = 1.0
    return points, f"seed={seed} lidar={n_lidar} virtual={n_virtual} spread={spread}"


def _dense_cloud():
    """Two LiDAR and two virtual clumps, with enough sites per level for
    every block's 3D and 2D neighbourhoods to be occupied."""
    gen = np.random.default_rng(7)
    points = np.zeros((400, 5))
    points[:, :3] = np.repeat([(5.0, -1.0, 0.0), (9.0, 2.0, -0.5)] * 2, 100, axis=0)
    points[:, :3] += gen.normal(scale=0.8, size=(400, 3))
    points[:200, 3] = gen.uniform(0.0, 1.0, 200)
    points[200:, 4] = 1.0
    return points, "two clumps"


def _outside_cloud():
    """Points behind the grid's origin: input discard gets, and leaves, zero rows."""
    points = np.zeros((30, 5))
    points[:, 0] = np.linspace(-8.0, -1.0, 30)
    points[15:, 4] = 1.0
    return points, "all outside"


@pytest.mark.parametrize("training", [False, True])
@settings(deadline=None, max_examples=8)
@given(case=clouds(), keep=st.integers(1, 30),
       mode=st.sampled_from([MODE_ALL, MODE_VIRTUAL_ONLY]),
       apply_input_stvd=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(case=_dense_cloud(), keep=40, mode=MODE_VIRTUAL_ONLY, apply_input_stvd=True, seed=3)
@example(case=_outside_cloud(), keep=1, mode=MODE_ALL, apply_input_stvd=True, seed=0)
@example(case=(np.zeros((0, 5)), "empty"), keep=1, mode=MODE_ALL, apply_input_stvd=True, seed=0)
def test_backbone_matches_the_straight_line_reference(training, case, keep, mode,
                                                     apply_input_stvd, seed):
    points, note = case
    cloud = SparsePointCloud(points)
    net = VirConvNetSpec.default()
    weights = NetWeights.initialize(net, SeededRng(seed))
    cfg = StvdConfig(keep_per_nearby_bin=keep, mode=mode)
    args = (cloud, net, cfg, synthetic_calibration(), AugmentationRecord.identity(), weights)
    got = virconvnet_forward(*args, SeededRng(seed), training=training, grid=GRID,
                             apply_input_stvd=apply_input_stvd)
    want = reference_backbone(*args, SeededRng(seed), training, apply_input_stvd)
    assert len(got) == len(want) == len(net.blocks)
    for level, (g, w) in enumerate(zip(got, want), 1):
        assert g.spec == w.spec, (note, level)
        assert np.array_equal(g.indices, w.indices), (note, level)
        err = np.abs(g.features - w.features).max(initial=0.0)
        # Each level at its own scale: the default weights shrink the features
        # ~10x per block, so a max(1, ...) floor would hide level 4 behind ~2%.
        assert err <= ORACLE_BOUND * np.abs(w.features).max(initial=0.0), (note, level)

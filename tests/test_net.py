"""Backbone assembly: fusion, block structure, and the four-level forward."""

import gc
import weakref

import numpy as np
import pytest

from virconv import (
    AugmentationRecord,
    NetWeights,
    SeededRng,
    SparsePointCloud,
    SparseVoxelTensor,
    StvdConfig,
    VirConvBlockSpec,
    VirConvNetSpec,
    VoxelGridSpec,
    fuse_early,
    virconvnet_forward,
)
from virconv import net as vnet
from virconv.scene import SyntheticSceneSpec, generate_scene, synthetic_calibration

GRID = VoxelGridSpec(origin=(0.0, -20.0, -3.0), voxel_size=(0.2, 0.2, 0.2),
                     extent=(256, 200, 24))


def small_scene(seed=0):
    spec = SyntheticSceneSpec(num_objects=3, x_range=(8.0, 30.0),
                              y_range=(-10.0, 10.0))
    return generate_scene(spec, SeededRng(seed))


def forward(scene, seed=0, training=False, apply_input_stvd=True,
            stage_times=None, cfg=None):
    net = VirConvNetSpec.default()
    weights = NetWeights.initialize(net, SeededRng(99))
    cloud = fuse_early(scene.lidar, scene.virtual)
    return virconvnet_forward(
        cloud, net, cfg or StvdConfig(), synthetic_calibration(),
        AugmentationRecord.identity(), weights, SeededRng(seed),
        training=training, grid=GRID, apply_input_stvd=apply_input_stvd,
        stage_times=stage_times,
    )


def test_default_spec_structure():
    net = VirConvNetSpec.default()
    assert [b.c_out for b in net.blocks] == [16, 32, 64, 64]
    assert [b.downsample for b in net.blocks] == [False, True, True, True]
    assert net.blocks[0].c_in == 5
    assert [b.layer_stvd_rate for b in net.blocks] == [0.15] * 4
    assert [len(b.nrconvs) for b in NetWeights.initialize(net, SeededRng(0)).blocks] == [2] * 4
    with pytest.raises(ValueError):
        VirConvBlockSpec(c_in=5, c_out=7, downsample=False)


def test_forward_levels_widths_and_strides():
    levels = forward(small_scene())
    assert len(levels) == 4
    assert [t.width for t in levels] == [16, 32, 64, 64]
    assert [t.spec.stride_level for t in levels] == [1, 2, 4, 8]
    assert all(t.n > 0 for t in levels)


def test_forward_deterministic_and_collects_stage_times():
    scene = small_scene()
    times = {}
    a = forward(scene, seed=5, stage_times=times)
    b = forward(scene, seed=5)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.indices, tb.indices)
        assert np.array_equal(ta.features, tb.features)
    assert list(times) == ["voxelize_ms", "input_stvd_ms", "block1_ms",
                           "block2_ms", "block3_ms", "block4_ms"]
    assert all(v >= 0 for v in times.values())


@pytest.mark.parametrize("training", [False, True])
def test_no_lookup_map_built_in_the_forward_outlives_it(monkeypatch, training):
    """The returned levels carry no lookup caches: every sorted-key array,
    kernel map and cell map built inside virconvnet_forward, and every block's
    h2d, which its cell map keeps, is freed once it returns, while the levels
    are still held."""
    refs, h2d_refs = [], []
    project = vnet.project_voxels

    def projecting(*args, **kwargs):
        h2d = project(*args, **kwargs)
        h2d_refs.append(weakref.ref(h2d))
        return h2d

    def recording(build):
        def method(self, *args):
            out = arr = build(self, *args)
            while not isinstance(arr, np.ndarray):   # the first array inside the map
                arr = arr[0]
            refs.append(weakref.ref(arr))
            return out
        return method

    for name in ("sorted_keys", "kernel_map", "cell_map"):
        monkeypatch.setattr(SparseVoxelTensor, name,
                            recording(getattr(SparseVoxelTensor, name)))
    monkeypatch.setattr(vnet, "project_voxels", projecting)
    levels = forward(small_scene(), training=training)
    gc.collect()
    assert len(levels) == 4 and all(t.n for t in levels)
    assert len(refs) >= 12   # maps on all four blocks' sites, and more
    assert len(h2d_refs) == 4
    assert [r for r in refs + h2d_refs if r() is not None] == []


def test_layer_discard_only_during_training():
    scene = small_scene()
    eval_levels = forward(scene, seed=5, training=False)
    train_levels = forward(scene, seed=5, training=True)
    assert train_levels[0].n < eval_levels[0].n


def test_input_discard_reduces_first_level():
    scene = generate_scene(
        SyntheticSceneSpec(num_objects=4, x_range=(6.0, 20.0),
                           y_range=(-8.0, 8.0), virtual_multiplier=2.0),
        SeededRng(1),
    )
    cfg = StvdConfig(keep_per_nearby_bin=100)
    with_discard = forward(scene, apply_input_stvd=True, cfg=cfg)
    without = forward(scene, apply_input_stvd=False, cfg=cfg)
    assert with_discard[0].n < without[0].n


def test_empty_cloud_produces_empty_levels():
    levels = virconvnet_forward(
        SparsePointCloud.empty(), VirConvNetSpec.default(), StvdConfig(),
        synthetic_calibration(), AugmentationRecord.identity(),
        NetWeights.initialize(VirConvNetSpec.default(), SeededRng(0)),
        SeededRng(0), grid=GRID,
    )
    assert [t.n for t in levels] == [0, 0, 0, 0]
    assert [t.spec.stride_level for t in levels] == [1, 2, 4, 8]


def test_fuse_keeps_lidar_rows_then_virtual_rows():
    lidar = SparsePointCloud.from_xyz([[1, 0, 0], [2, 0, 0]], alpha=[0.3, 0.4])
    virtual = SparsePointCloud.from_xyz([[3, 0, 0]], beta=1.0)
    fused = fuse_early(lidar, virtual)
    assert fused.n == 3 and list(fused.beta) == [0.0, 0.0, 1.0]
    assert np.array_equal(fused.points[:2], lidar.points)
    assert np.array_equal(fused.points[2:], virtual.points)


def test_fuse_rejects_mislabelled_clouds():
    virt = SparsePointCloud.from_xyz([[1, 0, 0]], beta=1.0)
    with pytest.raises(ValueError, match="beta != 0"):
        fuse_early(virt, virt)
    lidar = SparsePointCloud.from_xyz([[1, 0, 0]])
    with pytest.raises(ValueError, match="beta != 1"):
        fuse_early(lidar, lidar)


def test_fuse_of_two_empty_clouds_is_empty():
    fused = fuse_early(SparsePointCloud.empty(), SparsePointCloud.empty())
    assert fused.points.shape == (0, 5)


def test_weight_parameter_naming():
    net = VirConvNetSpec.default()
    weights = NetWeights.initialize(net, SeededRng(0))
    names = [n for n, _, _ in weights.params()]
    assert any(n.startswith("block0.") for n in names)
    assert any("down" in n for n in names)
    assert len(names) == len(set(names))

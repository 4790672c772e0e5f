"""Sparse tensor container: validation, lookup, immutability, neighborhoods."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virconv import SeededRng, SparseVoxelTensor, VoxelGridSpec
from virconv.oracle import neighbors_3d_bruteforce
from virconv.tensor import CENTER_3D, OFFSETS_3D
from conftest import random_tensor

SPEC = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(0.1, 0.1, 0.1), extent=(8, 8, 8))


def test_duplicate_indices_rejected_naming_site():
    idx = [[1, 2, 3], [0, 0, 0], [1, 2, 3]]
    with pytest.raises(ValueError, match=r"duplicate voxel index \(1, 2, 3\)"):
        SparseVoxelTensor(idx, np.zeros((3, 2)), SPEC)
    # Of several repeated sites, the lowest in (x, y, z) order is named.
    idx = [[5, 0, 0], [1, 2, 3], [0, 7, 7], [5, 0, 0], [1, 2, 3], [0, 7, 7]]
    with pytest.raises(ValueError, match=r"duplicate voxel index \(0, 7, 7\)"):
        SparseVoxelTensor(idx, np.zeros((6, 2)), SPEC)


def test_out_of_extent_rejected():
    with pytest.raises(ValueError, match="outside grid extent"):
        SparseVoxelTensor([[0, 0, 8]], np.zeros((1, 1)), SPEC)
    with pytest.raises(ValueError, match="outside grid extent"):
        SparseVoxelTensor([[-1, 0, 0]], np.zeros((1, 1)), SPEC)


def test_row_count_and_finiteness_rejected():
    with pytest.raises(ValueError, match="does not match"):
        SparseVoxelTensor([[0, 0, 0]], np.zeros((2, 1)), SPEC)
    with pytest.raises(ValueError, match="non-finite"):
        SparseVoxelTensor([[0, 0, 0]], np.array([[np.nan]]), SPEC)
    with pytest.raises(ValueError, match="origin_flags"):
        SparseVoxelTensor([[0, 0, 0]], np.zeros((1, 1)), SPEC, origin_flags=[0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (2, 1), (4, 2)])   # first, middle, last entry
def test_with_features_rejects_each_non_finite_value_anywhere(bad, at):
    t = SparseVoxelTensor(np.arange(15).reshape(5, 3) % 8, np.zeros((5, 3)), SPEC)
    f = np.arange(15.0).reshape(5, 3) - 7.0
    f[at] = bad
    with pytest.raises(ValueError, match="finite"):
        t.with_features(f)
    with pytest.raises(ValueError, match=f"non-finite feature values at row {at[0]}"):
        SparseVoxelTensor(t.indices, f, SPEC)


def test_with_features_accepts_huge_values_zero_rows_and_zero_widths():
    t = SparseVoxelTensor(np.arange(15).reshape(5, 3) % 8, np.zeros((5, 3)), SPEC)
    assert t.with_features(np.zeros((5, 0))).width == 0
    huge = np.full((5, 3), np.finfo(np.float64).max)   # finite, though their sum is not
    assert t.with_features(huge).width == 3
    assert SparseVoxelTensor(t.indices, -huge, SPEC).n == 5
    empty = SparseVoxelTensor(np.zeros((0, 3)), np.zeros((0, 2)), SPEC)
    assert empty.with_features(np.zeros((0, 4))).width == 4
    assert empty.with_features(np.zeros((0, 0))).n == 0


@pytest.mark.parametrize("shape", [(5,), (5, 3, 1)], ids=["1-D", "3-D"])
def test_with_features_rejects_what_the_constructor_rejects(shape):
    t = SparseVoxelTensor(np.arange(15).reshape(5, 3) % 8, np.zeros((5, 3)), SPEC)
    for make in (t.with_features, lambda f: SparseVoxelTensor(t.indices, f, SPEC)):
        with pytest.raises(ValueError, match=r"features must be a 2-D \(N, C\) array"):
            make(np.zeros(shape))


def test_origin_flags_outside_lidar_virtual_mixed_rejected():
    idx = [[0, 0, 0], [1, 0, 0]]
    # Each would pass as another flag after an int8 cast: 258 wraps to 2,
    # 0.7 truncates to 0, -256 wraps to 0.
    for flags in ([7, 1], [258, 1], [0.7, 1.0], [0, -256], [-1, 0], [0, 1.5]):
        with pytest.raises(ValueError, match=r"origin flag .* at row \d is not 0 \(LiDAR\)"):
            SparseVoxelTensor(idx, np.zeros((2, 1)), SPEC, origin_flags=flags)
    with pytest.raises(ValueError, match=r"origin_flags shape \(2, 1\) does not match"):
        SparseVoxelTensor(idx, np.zeros((2, 1)), SPEC, origin_flags=[[0], [1]])
    t = SparseVoxelTensor(idx, np.zeros((2, 1)), SPEC, origin_flags=[2.0, 1])
    assert t.origin_flags.dtype == np.int8 and t.origin_flags.tolist() == [2, 1]


def test_features_that_are_not_2d_rejected():
    for idx, feats in (([[0, 0, 0], [1, 0, 0]], np.zeros(2)), (np.zeros((0, 3)), np.zeros(0)),
                       ([[0, 0, 0]], np.zeros((1, 1, 1)))):
        with pytest.raises(ValueError, match=r"features must be a 2-D \(N, C\) array"):
            SparseVoxelTensor(idx, feats, SPEC)


def test_indices_that_are_not_n_by_3_rejected():
    for idx in (np.arange(12).reshape(6, 2), np.arange(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match=r"indices must be an \(N, 3\) array"):
            SparseVoxelTensor(idx, np.zeros((4, 1)), SPEC)
    # An empty array of any shape is zero sites.
    for idx in ([], np.zeros((0, 2))):
        assert SparseVoxelTensor(idx, np.zeros((0, 1)), SPEC).indices.shape == (0, 3)
    # Queries and offsets follow the same rule: a (3, 2) array is not read as
    # the two sites its six numbers spell.
    t = SparseVoxelTensor([(0, 1, 2), (1, 2, 3)], np.zeros((2, 1)), SPEC)
    for bad in (np.array([[0, 1], [2, 1], [2, 3]]), np.array([1, 2, 3]), np.ones((1, 3, 1))):
        with pytest.raises(ValueError, match=r"queries must be an \(N, 3\) array"):
            t.find_rows(bad)
        with pytest.raises(ValueError, match=r"base must be an \(N, 3\) array"):
            t.pairs_at(bad, OFFSETS_3D)
        with pytest.raises(ValueError, match=r"offsets must be an \(N, 3\) array"):
            t.pairs_at(t.indices, np.minimum(bad, 1))
    for empty in ([], np.zeros((0, 2))):
        assert t.find_rows(empty).shape == (0,)
        assert all(len(q) == len(r) == 0 for q, r in t.pairs_at(empty, OFFSETS_3D))
        assert t.pairs_at(t.indices, empty) == []
    assert t.find_rows([(1, 2, 3)]).tolist() == [1]
    assert [q.tolist() for q, _ in t.pairs_at([(0, 1, 2)], [(1, 1, 1)])] == [[0]]


def test_arrays_are_frozen():
    t = SparseVoxelTensor([[0, 0, 0]], np.ones((1, 2)), SPEC)
    with pytest.raises(ValueError):
        t.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.indices[0, 0] = 5


def test_spec_validation():
    with pytest.raises(ValueError):
        VoxelGridSpec(origin=(0, 0), voxel_size=(1, 1, 1), extent=(2, 2, 2))
    with pytest.raises(ValueError):
        VoxelGridSpec(origin=(0, 0, 0), voxel_size=(0, 1, 1), extent=(2, 2, 2))
    with pytest.raises(ValueError):
        VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(2, 2, 2),
                      stride_level=3)


@pytest.mark.parametrize("extent", [(0, 2, 2), (2, -1, 2), (2, 2, 0)])
def test_spec_rejects_non_positive_extents(extent):
    with pytest.raises(ValueError, match="extent components must be positive"):
        VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=extent)


def test_spec_rejects_extents_whose_padded_keys_overflow_int64():
    # Keys run over the extent padded by one voxel per side.
    side = 2 ** 21 - 3
    VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(side,) * 3)
    with pytest.raises(ValueError, match="overflows int64"):
        VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(side + 1,) * 3)
    with pytest.raises(ValueError, match="overflows int64"):
        VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(2 ** 62, 1, 1))


def test_downsampled_spec_doubles_stride_halves_extent_ceil():
    spec = VoxelGridSpec(origin=(1, 2, 3), voxel_size=(0.1, 0.2, 0.3),
                         extent=(9, 8, 1), stride_level=2)
    down = spec.downsampled()
    assert down.stride_level == 4
    assert down.extent == (5, 4, 1)
    assert down.origin == spec.origin
    assert np.allclose(down.cell_size, np.array([0.1, 0.2, 0.3]) * 4)


def test_lookup_and_find_rows_roundtrip(rng):
    t = random_tensor(rng, extent=(10, 9, 8), occupancy=0.4)
    assert np.array_equal(t.find_rows(t.indices), np.arange(t.n))
    for i in range(0, t.n, 7):
        assert t.find_rows([tuple(t.indices[i])])[0] == i
    # Probes off the grid or at empty sites come back as -1.
    probes = np.array([[-1, 0, 0], [10, 9, 8], t.indices[0] + 0])
    found = t.find_rows(probes)
    assert found[0] == -1 and found[1] == -1 and found[2] == 0


def test_with_features_and_take_rows(rng):
    t = random_tensor(rng, c=3, with_flags=True)
    f2 = np.ones((t.n, 5))
    t2 = t.with_features(f2)
    assert t2.width == 5 and t2.n == t.n
    assert np.shares_memory(t2.indices, t.indices)
    assert np.array_equal(t2.origin_flags, t.origin_flags)
    rows = np.array([2, 0, 5])
    t3 = t.take_rows(rows)
    assert np.array_equal(t3.indices, t.indices[rows])
    assert np.array_equal(t3.features, t.features[rows])
    assert np.array_equal(t3.origin_flags, t.origin_flags[rows])


def test_neighbors_matches_bruteforce():
    for seed in range(10):
        t = random_tensor(SeededRng(seed), extent=(6, 6, 6), occupancy=0.35)
        for row in range(0, t.n, 5):
            pairs = t.pairs_at(t.indices[row:row + 1], OFFSETS_3D)
            hits = [(tuple(int(v) for v in OFFSETS_3D[k]), int(in_rows[0]))
                    for k, (_, in_rows) in enumerate(pairs) if len(in_rows)]
            assert hits == neighbors_3d_bruteforce(t, row)


def test_neighbors_center_always_present(rng):
    t = random_tensor(rng, extent=(5, 5, 5))
    out_rows, in_rows = t.kernel_map()[CENTER_3D]
    assert np.array_equal(out_rows, np.arange(t.n))
    assert np.array_equal(in_rows, np.arange(t.n))


def test_debug_dict_roundtrip(rng):
    full = random_tensor(rng, c=16, with_flags=True)
    for t in (full, full.take_rows(np.zeros(0, np.int64))):
        d = json.loads(json.dumps(t.to_debug_dict()))
        assert d["width"] == 16
        rebuilt = SparseVoxelTensor(d["indices"], np.reshape(d["features"], (-1, d["width"])),
                                    VoxelGridSpec(**d["spec"]), d["origin_flags"])
        assert rebuilt.n == t.n and rebuilt.width == 16
        assert np.array_equal(rebuilt.indices, t.indices)
        assert np.array_equal(rebuilt.features, t.features)
        assert np.array_equal(rebuilt.origin_flags, t.origin_flags)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), occ=st.floats(0.05, 0.6))
def test_find_rows_identity_property(seed, occ):
    t = random_tensor(SeededRng(seed), extent=(7, 6, 5), occupancy=occ)
    assert np.array_equal(t.find_rows(t.indices), np.arange(t.n))

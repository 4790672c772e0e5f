"""Distance-stratified input discard and training-time layer discard."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virconv import (
    SeededRng,
    SparseVoxelTensor,
    StvdConfig,
    VoxelGridSpec,
    bin_histogram,
    input_stvd,
    layer_stvd,
)
from virconv.bench import nearby_discardable_counts
from virconv.stvd import MAX_NUM_BINS
from virconv.tensor import ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL

# A thin slab along +x: planar distance is dominated by the x index, so we
# can place voxels in chosen distance bins directly.
SLAB = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(0.1, 0.1, 0.1),
                     extent=(1500, 16, 16))


def tensor_at_distances(dists, flags=None):
    """One voxel per requested planar distance (within ~0.1 m)."""
    dists = np.asarray(dists, dtype=np.float64)
    ix = np.round(dists / 0.1 - 0.5).astype(np.int64)
    order = np.lexsort((ix,))
    # Distinguish same-distance voxels through the y/z indices.
    idx = np.zeros((len(dists), 3), dtype=np.int64)
    idx[:, 0] = ix
    seen = {}
    for i, x in enumerate(ix):
        k = seen.get(x, 0)
        seen[x] = k + 1
        idx[i, 1] = k % 16
        idx[i, 2] = k // 16
    del order
    feats = np.ones((len(dists), 2))
    return SparseVoxelTensor(idx, feats, SLAB, origin_flags=flags)


def test_bin_of_and_nearby_edges():
    cfg = StvdConfig()
    assert list(cfg.bin_of([0.0, 9.99, 10.0, 29.9, 30.0, 99.9, 100.0, 250.0])) == \
        [0, 0, 1, 2, 3, 9, 10, 10]
    nearby = [bool(cfg.is_nearby_bin(b)) for b in range(11)]
    assert nearby == [True, True, True] + [False] * 8
    # A tiny bin width sends every positive distance to the overflow bin.
    tiny = StvdConfig(bin_range=1e-300, nearby_limit=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tiny.bin_of([0.0, 5.0, 1e6]).tolist() == [0, 10, 10]


def test_config_validation():
    with pytest.raises(ValueError):
        StvdConfig(num_bins=0)
    assert StvdConfig(num_bins=MAX_NUM_BINS).num_bins == MAX_NUM_BINS
    for bins in (MAX_NUM_BINS + 1, 10 ** 12):   # a loop and a count per bin
        with pytest.raises(ValueError, match=f"num_bins must lie in \\[1, {MAX_NUM_BINS}\\]"):
            StvdConfig(num_bins=bins)
    with pytest.raises(ValueError):
        StvdConfig(keep_per_nearby_bin=0)
    with pytest.raises(ValueError):
        StvdConfig(nearby_limit=200.0)
    with pytest.raises(ValueError):
        StvdConfig(mode="everything")


def test_input_discard_per_bin_caps():
    cfg = StvdConfig(keep_per_nearby_bin=100, mode="all_voxels")
    before = [150, 80, 120, 70, 40]   # bins 0..2 nearby, 3 distant, overflow
    dists = np.concatenate([
        np.full(150, 5.0), np.full(80, 15.0), np.full(120, 25.0),
        np.full(70, 45.0), np.full(40, 120.0),
    ])
    t = tensor_at_distances(dists)
    out = input_stvd(t, cfg, SeededRng(3))
    hist = bin_histogram(out, cfg)
    expect = np.zeros(11, dtype=int)
    expect[[0, 1, 2]] = [min(c, 100) for c in before[:3]]
    expect[4] = 70    # 45 m -> bin 4, kept whole
    expect[10] = 40   # overflow, kept whole
    assert np.array_equal(hist, expect)


def test_input_discard_exempts_lidar_in_virtual_only_mode():
    cfg = StvdConfig(keep_per_nearby_bin=10)
    flags = np.array([ORIGIN_LIDAR] * 30 + [ORIGIN_VIRTUAL] * 40, dtype=np.int8)
    t = tensor_at_distances(np.full(70, 5.0), flags=flags)
    out = input_stvd(t, cfg, SeededRng(0))
    # All 30 LiDAR voxels survive and do not consume the 10-voxel budget.
    assert int((out.origin_flags == ORIGIN_LIDAR).sum()) == 30
    assert int((out.origin_flags == ORIGIN_VIRTUAL).sum()) == 10


def test_input_discard_requires_flags_in_virtual_only_mode():
    t = tensor_at_distances(np.full(5, 5.0))
    with pytest.raises(ValueError, match="origin_flags"):
        input_stvd(t, StvdConfig(), SeededRng(0))


@pytest.mark.parametrize("mode", ["virtual_only", "all_voxels"])
def test_nearby_discardable_counts_are_the_rows_input_discard_can_drop(mode):
    keep = 20
    cfg = StvdConfig(keep_per_nearby_bin=keep, mode=mode)
    rng = SeededRng(4)
    dists = rng.gen.uniform(0.0, 60.0, 400)
    flags = rng.gen.choice([ORIGIN_LIDAR, ORIGIN_VIRTUAL, ORIGIN_MIXED], size=400)
    t = tensor_at_distances(dists, flags=flags)
    bins = cfg.bin_of(np.hypot(*(t.indices[:, :2] + 0.5).T * 0.1))
    subject = flags != ORIGIN_LIDAR if mode == "virtual_only" else np.ones(400, bool)
    nearby = [b for b in range(cfg.num_bins) if cfg.is_nearby_bin(b)]
    expect = [int((subject & (bins == b)).sum()) for b in nearby]
    assert nearby_discardable_counts(t, cfg) == expect
    assert min(expect) > keep
    dropped = bin_histogram(t, cfg) - bin_histogram(input_stvd(t, cfg, rng), cfg)
    assert list(dropped[nearby]) == [c - keep for c in expect]
    assert not dropped[len(nearby):].any()


def test_nearby_discardable_counts_require_flags_in_virtual_only_mode():
    t = tensor_at_distances(np.full(5, 5.0))
    with pytest.raises(ValueError, match="origin_flags"):
        nearby_discardable_counts(t, StvdConfig())
    assert nearby_discardable_counts(t, StvdConfig(mode="all_voxels")) == [5, 0, 0]


def test_input_discard_deterministic_and_order_preserving():
    cfg = StvdConfig(keep_per_nearby_bin=50, mode="all_voxels")
    t = tensor_at_distances(np.full(200, 12.0))
    a = input_stvd(t, cfg, SeededRng(9))
    b = input_stvd(t, cfg, SeededRng(9))
    assert np.array_equal(a.indices, b.indices)
    rows = t.find_rows(a.indices)
    assert (rows >= 0).all() and (np.diff(rows) > 0).all()


def test_layer_discard_count_and_identity():
    t = tensor_at_distances(np.linspace(5, 80, 100))
    out = layer_stvd(t, 0.15, SeededRng(1), training=True)
    assert out.n == 100 - round(0.15 * 100)
    same = layer_stvd(t, 0.15, SeededRng(1), training=False)
    assert same is t
    with pytest.raises(ValueError):
        layer_stvd(t, 1.0, SeededRng(1), training=True)


def test_layer_discard_of_no_rows_draws_nothing():
    rng = SeededRng(1)
    state = rng.gen.bit_generator.state
    out = layer_stvd(tensor_at_distances([]), 0.15, rng, training=True)
    assert out.n == 0 and out.indices.shape == (0, 3)
    assert rng.gen.bit_generator.state == state


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 5_000), n=st.integers(1, 300))
def test_histogram_conserves_count(seed, n):
    dists = SeededRng(seed).gen.uniform(0.0, 140.0, n)
    t = tensor_at_distances(dists)
    cfg = StvdConfig()
    assert bin_histogram(t, cfg).sum() == t.n

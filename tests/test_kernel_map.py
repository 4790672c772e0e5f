"""The cached submanifold kernel map and 2D cell map, and the injectivity
that lets the convs scatter without np.add.at."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virconv import (
    KernelWeights,
    SeededRng,
    SpconvWeights,
    SparseVoxelTensor,
    StvdConfig,
    VirConvNetSpec,
    VoxelGridSpec,
    conv2d_branch,
    layer_stvd,
    nrconv,
    spconv_downsample,
)
from virconv.conv import RELU, Ctx, conv2d_branch_backward, nrconv_backward
from virconv.geometry import INVALID_2D, AugmentationRecord
from virconv.net import NetWeights, fuse_early, make_h2d_provider, virconvnet_forward
from virconv.scene import SyntheticSceneSpec, generate_scene, synthetic_calibration
from virconv.tensor import OFFSETS_2D, OFFSETS_3D
from conftest import random_h2d, random_tensor
from test_properties import row_tensor


@st.composite
def site_sets(draw):
    """(extent, sites in row order): no site, one site, or random sites plus
    one on each of the six faces of the extent."""
    extent = draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
    site = st.tuples(*(st.integers(0, e - 1) for e in extent))
    kind = draw(st.sampled_from(["empty", "single", "faces"]))
    if kind == "empty":
        return extent, []
    if kind == "single":
        return extent, [draw(site)]
    sites = draw(st.lists(site, max_size=40))
    for axis in range(3):
        for face in (0, extent[axis] - 1):
            s = list(draw(site))
            s[axis] = face
            sites.append(tuple(s))
    return extent, list(dict.fromkeys(sites))


def brute_pairs(sites, base, offsets):
    """Per offset, (query row, site row) for every query + offset that is a site,
    by dictionary lookup, in query order."""
    row_of = {tuple(int(v) for v in s): i for i, s in enumerate(sites)}
    pairs = []
    for off in offsets:
        hits = [(q, row_of[key]) for q, b in enumerate(base)
                if (key := tuple(int(v) for v in np.add(b, off))) in row_of]
        pairs.append((np.array([q for q, _ in hits], np.int64),
                      np.array([r for _, r in hits], np.int64)))
    return pairs


def assert_pairs_equal(got, want):
    assert len(got) == len(want)
    for (a, b), (c, d) in zip(got, want):
        assert np.array_equal(a, c) and np.array_equal(b, d)


def assert_injective(pairs):
    for out_rows, in_rows in pairs:
        assert len(np.unique(out_rows)) == len(out_rows)
        assert len(np.unique(in_rows)) == len(in_rows)


def test_pairs_at_rejects_queries_it_cannot_key():
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=(3, 3, 3))
    t = SparseVoxelTensor([[0, 0, 0], [1, 1, 1]], np.zeros((2, 1)), spec)
    with pytest.raises(ValueError, match="inside the extent"):
        t.pairs_at(np.array([[3, 0, 0]]), OFFSETS_3D)
    with pytest.raises(ValueError, match="inside the extent"):
        t.pairs_at(np.array([[0, -1, 0]]), OFFSETS_3D)
    with pytest.raises(ValueError, match="offsets in"):
        t.pairs_at(t.indices, np.array([[2, 0, 0]]))


@st.composite
def pair_queries(draw):
    """(extent, sites, base, offsets) for pairs_at. Sites as site_sets draws
    them plus up to three whole z columns, so column walks run into the
    z = 0 and z = extent - 1 faces and past the last sorted key. Base rows in
    any order, repeated or none, drawn from the sites and the extent. Offsets
    are any subset of OFFSETS_3D in any order, one offset, or whole columns
    with a gap (dz in {-1, +1} only)."""
    extent, sites = draw(site_sets())
    xy = st.tuples(st.integers(0, extent[0] - 1), st.integers(0, extent[1] - 1))
    for x, y in draw(st.lists(xy, max_size=3)):
        sites += [(x, y, z) for z in range(extent[2])]
    sites = list(dict.fromkeys(sites))
    cell = st.tuples(*(st.integers(0, e - 1) for e in extent))
    base = draw(st.lists(st.sampled_from(sites) | cell if sites else cell, max_size=30))
    kind = draw(st.sampled_from(["subset", "single", "gaps"]))
    if kind == "gaps":   # OFFSETS_3D[c] and OFFSETS_3D[18 + c]: column c at dz = -1, +1
        cols = draw(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
        ks = draw(st.permutations(cols + [18 + c for c in cols]))
    else:
        ks = draw(st.lists(st.integers(0, 26), min_size=kind == "single",
                           max_size=1 if kind == "single" else 27, unique=True))
    return extent, sites, base, OFFSETS_3D[np.array(ks, np.int64)]


@settings(deadline=None, max_examples=150)
@given(case=pair_queries())
@example(case=((1, 1, 3), [(0, 0, 2), (0, 0, 0), (0, 0, 1)], [(0, 0, 2), (0, 0, 0), (0, 0, 2)],
               OFFSETS_3D[[22, 4, 13]]))
@example(case=((2, 2, 2), [(1, 1, 1), (1, 1, 0)], [], OFFSETS_3D))
def test_pairs_at_matches_brute_force_on_any_offset_set(case):
    extent, sites, base, offsets = case
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    t = SparseVoxelTensor(np.array(sites, np.int64).reshape(-1, 3), np.zeros((len(sites), 1)),
                          spec)
    got = t.pairs_at(np.array(base, np.int64).reshape(-1, 3), offsets)
    assert_pairs_equal(got, brute_pairs(sites, base, offsets))


@settings(deadline=None, max_examples=80)
@given(case=site_sets(), seed=st.integers(0, 1000))
def test_kernel_maps_match_bruteforce_and_are_injective(case, seed):
    extent, sites = case
    rng = SeededRng(seed)
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    idx = np.array(sites, np.int64).reshape(-1, 3)
    t = SparseVoxelTensor(idx, rng.gen.normal(size=(len(idx), 2)), spec)

    kmap = t.kernel_map()
    assert len(kmap) == 27
    assert_pairs_equal(kmap, brute_pairs(sites, idx, OFFSETS_3D))
    assert_injective(kmap)

    kw = KernelWeights.initialize(2, 2, rng)
    ctx2 = Ctx()
    conv2d_branch(t, random_h2d(rng, t.n, span=4), kw, RELU, ctx2)
    cell_pairs = ctx2.data["pairs"]
    assert len(cell_pairs) == 9
    assert_injective(cell_pairs)

    if t.n:
        ctxd = Ctx()
        out = spconv_downsample(t, SpconvWeights.initialize(2, 2, rng), RELU, ctxd)
        down_pairs = ctxd.data["pairs"]
        assert_pairs_equal(down_pairs, brute_pairs(sites, 2 * out.indices, OFFSETS_3D))
        assert_injective(down_pairs)


def test_kernel_map_shared_per_site_set_and_read_only(rng):
    t = random_tensor(rng, c=4)
    ctx = Ctx()
    out = nrconv(t, random_h2d(rng, t.n), KernelWeights.initialize(4, 4, rng), RELU, ctx)
    nrconv_backward(ctx, np.ones((t.n, 4)))
    assert out.kernel_map() is t.kernel_map()
    assert out.with_features(np.zeros((t.n, 1))).kernel_map() is t.kernel_map()

    subset = t.take_rows(np.arange(0, t.n, 2))
    fresh = [
        t.take_rows(np.arange(t.n)),
        subset,
        layer_stvd(t, 0.5, SeededRng(0), training=True),
        spconv_downsample(t, SpconvWeights.initialize(4, 4, rng)),
    ]
    for other in fresh:
        assert other.kernel_map() is not t.kernel_map()
    assert_pairs_equal(fresh[0].kernel_map(), t.kernel_map())
    assert_pairs_equal(subset.kernel_map(),
                       brute_pairs(subset.indices, subset.indices, OFFSETS_3D))

    for out_rows, in_rows in t.kernel_map():
        for arr in (out_rows, in_rows):
            with pytest.raises(ValueError):
                arr[...] = 0


@settings(deadline=None, max_examples=60)
@given(case=site_sets(), order=st.sampled_from(["drawn", "key", "reversed key"]))
def test_kernel_map_mirrors_the_searched_half_on_any_row_order(case, order):
    extent, sites = case
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    if order != "drawn":
        sites = sorted(sites, reverse=order == "reversed key")
    idx = np.array(sites, np.int64).reshape(-1, 3)
    kmap = SparseVoxelTensor(idx, np.zeros((len(idx), 1)), spec).kernel_map()
    assert_pairs_equal(kmap, brute_pairs(sites, idx, OFFSETS_3D))
    for k in range(27):
        out_rows, in_rows = kmap[26 - k]
        assert np.all(np.diff(out_rows) > 0)
        assert (set(zip(out_rows.tolist(), in_rows.tolist()))
                == set(zip(kmap[k][1].tolist(), kmap[k][0].tolist())))


def test_map_builds_search_once_per_dx_dy_column(rng, monkeypatch):
    """One searchsorted per (dx, dy) column: the kernel map searches its 5
    half columns, the cell map its 4 half offsets and the downsample map all
    9 columns; a cached map searches nothing."""
    searches = []
    locate = SparseVoxelTensor._locate
    monkeypatch.setattr(SparseVoxelTensor, "_locate",
                        lambda self, keys: searches.append(len(keys)) or locate(self, keys))
    t = random_tensor(rng)
    t.kernel_map()
    assert searches == [t.n] * 5
    h2d = random_h2d(rng, t.n)
    searches.clear()
    first = t.cell_map(h2d)[1]
    assert searches == [len(first)] * 4
    searches.clear()
    t.kernel_map()
    t.with_features(np.zeros((t.n, 1))).cell_map(h2d.copy())
    assert searches == []
    out = spconv_downsample(t, SpconvWeights.initialize(t.width, 2, rng))
    assert searches == [out.n] * 9


@st.composite
def cell_sets(draw):
    """(N, 2) h2d in any row order: cells from a small patch, negative ones
    included, repeated across rows, with some rows invalid."""
    n = draw(st.integers(0, 40))
    cell = st.one_of(st.just((INVALID_2D, INVALID_2D)),
                     st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    return np.array(draw(st.lists(cell, min_size=n, max_size=n)), np.int64).reshape(n, 2)


@settings(deadline=None, max_examples=80)
@given(h2d=cell_sets())
def test_cell_map_mirrors_the_searched_half_on_any_row_order(h2d):
    _, first, _, pairs = row_tensor(np.zeros((len(h2d), 1))).cell_map(h2d)
    cells = h2d[first]
    m = len(cells)
    assert len({tuple(c) for c in cells.tolist()}) == m
    assert np.array_equal(np.lexsort((cells[:, 1], cells[:, 0])), np.arange(m))
    assert len(pairs) == 9
    assert_pairs_equal(pairs, brute_pairs(cells, cells, OFFSETS_2D))
    assert np.array_equal(pairs[4][0], np.arange(m)) and np.array_equal(pairs[4][1], np.arange(m))
    for k in range(9):
        out_rows, in_rows = pairs[8 - k]
        assert np.all(np.diff(out_rows) > 0)
        assert (set(zip(out_rows.tolist(), in_rows.tolist()))
                == set(zip(pairs[k][1].tolist(), pairs[k][0].tolist())))


def test_nrconv_chain_groups_cells_once(rng):
    t = random_tensor(rng, c=4)
    h2d = random_h2d(rng, t.n)
    ctxs = [Ctx(), Ctx()]
    mid = nrconv(t, h2d, KernelWeights.initialize(4, 4, rng), RELU, ctxs[0])
    out = nrconv(mid, h2d.copy(), KernelWeights.initialize(4, 4, rng), RELU, ctxs[1])
    first, second = (ctx.data["ctx2"].data for ctx in ctxs)   # before the backward empties them
    nrconv_backward(ctxs[0], nrconv_backward(ctxs[1], np.ones((t.n, 4))))
    for key in ("valid", "first", "passes", "pairs"):
        assert second[key] is first[key]
    assert mid._cell_map is t._cell_map and out._cell_map is t._cell_map
    assert not np.shares_memory(t._cell_map[0], h2d)
    with pytest.raises(ValueError):
        first["first"][0] = 0


def test_cell_map_follows_h2d_changes(rng):
    t = random_tensor(rng, c=3)
    kw = KernelWeights.initialize(3, 4, rng)
    grad = rng.gen.normal(size=(t.n, 2))

    def run(tensor, h2d):
        ctx = Ctx()
        out = conv2d_branch(tensor, h2d, kw, RELU, ctx)
        return out, conv2d_branch_backward(ctx, grad)

    def check(h2d):
        """Forward and input gradient on t equal those on the same rows of a
        tensor with no cached cell map."""
        got, want = run(t, h2d), run(t.take_rows(np.arange(t.n)), h2d)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        return got[0]

    h2d = random_h2d(rng, t.n, span=3)
    before = check(h2d)
    h2d[::2] = h2d[::2][::-1].copy()             # same array, new cells
    h2d[1] = INVALID_2D
    assert not np.array_equal(check(h2d), before)
    other = random_h2d(rng, t.n, span=4)          # another array on the same tensor
    assert not np.array_equal(check(other), before)
    check(h2d)


def test_take_rows_and_downsample_start_without_a_cell_map(rng):
    t = random_tensor(rng, c=4)
    conv2d_branch(t, random_h2d(rng, t.n), KernelWeights.initialize(4, 4, rng))
    assert t._cell_map is not None
    assert t.with_features(np.zeros((t.n, 1)))._cell_map is t._cell_map
    for other in (t.take_rows(np.arange(t.n)),
                  layer_stvd(t, 0.5, SeededRng(0), training=True),
                  spconv_downsample(t, SpconvWeights.initialize(4, 4, rng))):
        assert other._cell_map is None


def _training_digest() -> str:
    """SHA-256 of a small scene's training forward through all four blocks,
    then of a two-layer nrconv chain on its level-1 output, forward and
    backward, with every parameter and input gradient of the chain."""
    spec = SyntheticSceneSpec(num_objects=2, x_range=(8.0, 20.0), y_range=(-6.0, 6.0))
    scene = generate_scene(spec, SeededRng(5))
    net = VirConvNetSpec.default()
    weights = NetWeights.initialize(net, SeededRng(1))
    calib, record = synthetic_calibration(), AugmentationRecord.identity()
    levels = virconvnet_forward(fuse_early(scene.lidar, scene.virtual), net, StvdConfig(),
                                calib, record, weights, SeededRng(2), training=True)
    digest = hashlib.sha256()
    for level in levels:
        digest.update(level.indices.tobytes() + level.features.tobytes())
    tensor = levels[0]
    h2d = make_h2d_provider(calib, record)(tensor)
    layers = weights.blocks[1].nrconvs
    ctxs = [Ctx() for _ in layers]
    for kw, ctx in zip(layers, ctxs):
        tensor = nrconv(tensor, h2d, kw, RELU, ctx)
    digest.update(tensor.features.tobytes())
    grad = np.cos(np.arange(tensor.features.size)).reshape(tensor.features.shape)
    for ctx in reversed(ctxs):
        grad = nrconv_backward(ctx, grad)
    digest.update(grad.tobytes())
    for kw in layers:
        for _, _, g in kw.params():
            digest.update(g.tobytes())
    return digest.hexdigest()


def test_training_digest_is_stable_and_matches_an_uncached_run(monkeypatch):
    cached = _training_digest()
    assert _training_digest() == cached
    with_features = SparseVoxelTensor.with_features

    def uncached(self, *args, **kwargs):
        out = with_features(self, *args, **kwargs)
        out._sorted = out._kernel_map = out._cell_map = None
        return out

    monkeypatch.setattr(SparseVoxelTensor, "with_features", uncached)
    assert _training_digest() == cached

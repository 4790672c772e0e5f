"""The cached submanifold kernel map and the injectivity that lets the convs
scatter without np.add.at."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virconv import (
    KernelWeights,
    SeededRng,
    SpconvWeights,
    SparseVoxelTensor,
    VoxelGridSpec,
    conv2d_branch,
    layer_stvd,
    nrconv,
    spconv_downsample,
)
from virconv.conv import RELU, Ctx, nrconv_backward
from virconv.tensor import OFFSETS_3D
from conftest import random_h2d, random_tensor


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

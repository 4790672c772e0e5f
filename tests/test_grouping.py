"""The one grouping sort of padded keys, tensor._group, against a stable
argsort; sorted_keys and cell_map against the argsort formulas they were
first written with; and row-permutation equivariance of the ops built on them
and of their backwards, their translation equivariance, and the 2D branch's
indifference to a relabelling of its cells, which need no oracle."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virconv import (
    KernelWeights,
    SeededRng,
    SpconvWeights,
    SparseVoxelTensor,
    VoxelGridSpec,
    conv2d_branch,
    nrconv,
    spconv_downsample,
    submanifold_conv3d,
)
from virconv.conv import (
    Ctx,
    conv2d_branch_backward,
    nrconv_backward,
    spconv_downsample_backward,
    submanifold_conv3d_backward,
)
from virconv.geometry import INVALID_2D
from virconv.tensor import OFFSETS_2D, _group, _padded_keys
from conftest import random_h2d
from test_properties import BIG, LEAKY, assert_same_bits

# Small extents take the packed sort; BIG takes the argsort past 3 rows.
EXTENTS = [(1, 1, 1), (3, 2, 2), (6, 5, 4), BIG]


def stable_group(keys):
    """(run keys, perm, run starts) from a stable argsort."""
    perm = np.argsort(keys, kind="stable")
    skeys = keys[perm]
    starts = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]][:len(keys)])
    return skeys[starts], perm, starts


@st.composite
def key_sets(draw):
    """(extent, (N,) padded keys): up to 80 keys drawn from a pool of at most
    six, so runs of equal keys are long, key 0 and the largest key included;
    one case in three already ascends, as site sets built by site_means do."""
    extent = draw(st.sampled_from(EXTENTS))
    top = math.prod(e + 2 for e in extent) - 1
    pool = draw(st.lists(st.sampled_from([0, top]) | st.integers(0, top),
                         min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(pool), max_size=80))
    if draw(st.integers(0, 2)) == 0:
        keys.sort()
    return extent, np.array(keys, np.int64)


@settings(deadline=None, max_examples=150)
@given(case=key_sets())
@example(case=((1, 1, 1), np.zeros(0, np.int64)))
@example(case=(BIG, np.array([7], np.int64)))
@example(case=(BIG, np.array([9, 3, 9], np.int64)))
@example(case=(BIG, np.array([5, 2] * 20 + [7], np.int64)))
@example(case=((3, 2, 2), np.array([4, 1, 4] * 15, np.int64)))
@example(case=((3, 2, 2), np.array([0, 0, 3, 5, 5, 5, 47], np.int64)))
@example(case=(BIG, np.array([2, 9, 9, 9, math.prod(e + 2 for e in BIG) - 1], np.int64)))
@example(case=((6, 5, 4), np.array([0, 3, 17, 40, 41, 335], np.int64)))   # strictly ascending
@example(case=((6, 5, 4), np.array([3, 17, 17, 40, 41, 41], np.int64)))   # ascending, repeats
def test_group_is_a_stable_argsort_with_run_starts(case):
    extent, keys = case
    got = _group(keys.copy(), extent)
    for a, b in zip(got, stable_group(keys)):
        assert_same_bits(a, b)


def shuffled_tensor(rng, extent, n, c=2):
    """Tensor of the distinct sites among n random draws on extent, rows in
    random order, with normal features and random origin flags."""
    idx = np.unique(np.column_stack([rng.gen.integers(0, e, n) for e in extent]), axis=0)
    idx = idx[rng.gen.permutation(len(idx))]
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), extent)
    return SparseVoxelTensor(idx, rng.gen.normal(size=(len(idx), c)), spec,
                             rng.gen.integers(0, 3, len(idx)))


def cell_map_by_argsort(h2d):
    """cell_map's (valid, first, passes, pairs) from a stable argsort of the
    cell keys, with runs found by np.diff."""
    valid = h2d[:, 0] != INVALID_2D
    rows = np.flatnonzero(valid)
    flat = np.zeros((len(rows), 3), np.int64)
    if len(rows):
        flat[:, :2] = h2d[rows] - h2d[rows].min(axis=0)
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                         tuple(int(e) for e in flat.max(axis=0, initial=0) + 1))
    keys = _padded_keys(flat, spec.extent)
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    grid = SparseVoxelTensor(flat[order[starts]], np.zeros((len(starts), 0)), spec)
    order = rows[order]
    sizes = np.diff(starts, append=len(order))
    passes = [(order[starts[sizes > k] + k], np.flatnonzero(sizes > k))
              for k in range(1, sizes.max(initial=0))]
    pairs = grid._self_pairs(np.pad(OFFSETS_2D, ((0, 0), (0, 1))))
    return valid, order[starts], passes, pairs


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), extent=st.sampled_from(EXTENTS[1:]),
       n=st.integers(0, 120), span=st.integers(1, 6))
def test_sorted_keys_and_cell_map_match_the_argsort_formulas(seed, extent, n, span):
    rng = SeededRng(seed)
    t = shuffled_tensor(rng, extent, n)
    keys = _padded_keys(t.indices, extent)
    order = np.argsort(keys, kind="stable")
    got = t.sorted_keys()
    assert_same_bits(got[0], keys[order])
    assert_same_bits(got[1], order)
    h2d = random_h2d(rng, t.n, span=span, invalid_frac=0.2)
    got, want = t.cell_map(h2d), cell_map_by_argsort(h2d)
    for a, b in zip(got[:2], want[:2]):
        assert_same_bits(a, b)
    for part in (2, 3):
        assert len(got[part]) == len(want[part])
        for (a0, a1), (b0, b1) in zip(got[part], want[part]):
            assert_same_bits(a0, b0)
            assert_same_bits(a1, b1)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), extent=st.sampled_from([(4, 4, 4), (7, 3, 5)]),
       n=st.integers(0, 90))
def test_ops_commute_with_a_row_permutation_bit_for_bit(seed, extent, n):
    rng = SeededRng(seed)
    t = shuffled_tensor(rng, extent, n)
    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.2)
    perm = rng.gen.permutation(t.n)
    p = t.take_rows(perm)
    kw = KernelWeights.initialize(t.width, 4, rng)
    for conv in (kw.conv3d, kw.conv2d):
        conv.bias[...] = rng.gen.normal(size=conv.bias.shape)
    outs = [(submanifold_conv3d(x, kw, LEAKY).features, conv2d_branch(x, h, kw, LEAKY),
             nrconv(x, h, kw, LEAKY).features) for x, h in ((t, h2d), (p, h2d[perm]))]
    for a, b in zip(*outs):
        assert_same_bits(b, a[perm])
    down = SpconvWeights.initialize(t.width, 3, rng)
    a, b = spconv_downsample(t, down, LEAKY), spconv_downsample(p, down, LEAKY)
    for x, y in ((a.indices, b.indices), (a.features, b.features),
                 (a.origin_flags, b.origin_flags)):
        assert_same_bits(y, x)


def assert_within_oracle_bound(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-5 * max(1.0, np.abs(want).max(initial=0.0))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), extent=st.sampled_from([(4, 4, 4), (7, 3, 5)]),
       n=st.integers(0, 90))
def test_backwards_commute_with_a_row_permutation(seed, extent, n):
    """Normal features hold no ties, so each pooled max has one winner. Moving
    the rows, with their h2d and upstream gradient, moves each input gradient
    with them; the weight gradients add the same terms in another order, so
    both agree within the 1e-5 oracle bound."""
    rng = SeededRng(seed)
    t = shuffled_tensor(rng, extent, n)
    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.2)
    perm = rng.gen.permutation(t.n)
    kw, down = KernelWeights.initialize(t.width, 4, rng), SpconvWeights.initialize(t.width, 3, rng)
    for conv in (kw.conv3d, kw.conv2d, down):
        conv.bias[...] = rng.gen.normal(size=conv.bias.shape)
    # (forward, backward, whether the output rows move with the input rows)
    ops = [(lambda x, h, c: submanifold_conv3d(x, kw, LEAKY, c).features,
            submanifold_conv3d_backward, True),
           (lambda x, h, c: conv2d_branch(x, h, kw, LEAKY, c), conv2d_branch_backward, True),
           (lambda x, h, c: nrconv(x, h, kw, LEAKY, c).features, nrconv_backward, True),
           (lambda x, h, c: spconv_downsample(x, down, LEAKY, c).features,
            spconv_downsample_backward, False)]
    upstream = []   # per op, drawn for t's output rows
    runs = []
    for x, h, rows in ((t, h2d, None), (t.take_rows(perm), h2d[perm], perm)):
        run = []
        for i, (forward, backward, moves) in enumerate(ops):
            kw.zero_grads()
            down.zero_grads()
            ctx = Ctx()
            out = forward(x, h, ctx)
            if rows is None:
                upstream.append(rng.gen.normal(size=out.shape))
            g = upstream[i] if rows is None or not moves else upstream[i][rows]
            run.append([backward(ctx, g), *(w.copy() for _, _, w in kw.params() + down.params())])
        runs.append(run)
    for (gX, *weights), (gX_p, *weights_p) in zip(*runs):
        assert_within_oracle_bound(gX_p, gX[perm])
        for got, want in zip(weights_p, weights):
            assert_within_oracle_bound(got, want)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
       shift=st.tuples(*(st.integers(-4, 4),) * 3),
       half=st.tuples(*(st.integers(-2, 2),) * 3))
def test_ops_commute_with_a_translation_bit_for_bit(seed, n, shift, half):
    """Sites drawn in the box [4, 4 + (4, 3, 5)) of a (12, 11, 13) grid and
    moved by shift stay inside it. submanifold_conv3d, and nrconv with the
    same h2d, give the same bytes; the downsample of a move by 2 * half puts
    the same bytes at its output sites moved by half."""
    rng = SeededRng(seed)
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (12, 11, 13))
    box = shuffled_tensor(rng, (4, 3, 5), n)
    t = SparseVoxelTensor(box.indices + 4, box.features, spec, box.origin_flags)

    def moved(by):
        return SparseVoxelTensor(t.indices + np.array(by), t.features, spec, t.origin_flags)

    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.2)
    kw = KernelWeights.initialize(t.width, 4, rng)
    for conv in (kw.conv3d, kw.conv2d):
        conv.bias[...] = rng.gen.normal(size=conv.bias.shape)
    for op in (lambda x: submanifold_conv3d(x, kw, LEAKY).features,
               lambda x: nrconv(x, h2d, kw, LEAKY).features):
        assert_same_bits(op(moved(shift)), op(t))
    down = SpconvWeights.initialize(t.width, 3, rng)
    a = spconv_downsample(t, down, LEAKY)
    b = spconv_downsample(moved(2 * np.array(half)), down, LEAKY)
    assert_same_bits(b.indices, a.indices + np.array(half))
    for x, y in ((a.features, b.features), (a.origin_flags, b.origin_flags)):
        assert_same_bits(y, x)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
       shift=st.tuples(st.integers(-40, 40), st.integers(-40, 40)))
@example(seed=5, n=40, shift=(-9, 0))
@example(seed=6, n=40, shift=(0, -3))
@example(seed=7, n=40, shift=(25, 31))
def test_conv2d_branch_ignores_a_cell_relabelling_bit_for_bit(seed, n, shift):
    """Adding one (du, dv) to every valid h2d row, so that cells may go
    negative, only renames the cells: the output and every gradient of
    conv2d_branch keep their bytes."""
    rng = SeededRng(seed)
    t = shuffled_tensor(rng, (4, 3, 5), n)
    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.2)
    moved = h2d.copy()
    moved[h2d[:, 0] != INVALID_2D] += np.array(shift)
    kw = KernelWeights.initialize(t.width, 4, rng)
    kw.conv2d.bias[...] = rng.gen.normal(size=kw.conv2d.bias.shape)
    grad = rng.gen.normal(size=(t.n, kw.c_half))
    runs = []
    for cells in (h2d, moved):
        kw.zero_grads()
        ctx = Ctx()
        out = conv2d_branch(t, cells, kw, LEAKY, ctx)
        runs.append((out, conv2d_branch_backward(ctx, grad), kw.conv2d.g_w.copy(),
                     kw.conv2d.g_bias.copy()))
    for a, b in zip(*runs):
        assert_same_bits(b, a)

"""Property tests of the fixed-cost paths against brute force: per-cell
pooling and its gradient routing under many ties, each NRConv half reduced
to a pointwise layer by its centre tap, the rank passes (pooling,
the recorded winner pass, cell sums) against segment reductions, find_rows
on queries outside the extent, voxelize with points cropped on every face,
point_keys against the broadcast formula, and site_means and
downsampled_sites against dict groupings, the first three also with blocks
of a few rows."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virconv import (
    ActivationSpec,
    KernelWeights,
    SeededRng,
    SparseVoxelTensor,
    VoxelGridSpec,
    nrconv,
    submanifold_conv3d,
)
from virconv.classifier import roc_auc
from virconv.conv import (
    Ctx,
    _cell_max,
    _cell_sum,
    conv2d_branch,
    conv2d_branch_backward,
)
from virconv.geometry import INVALID_2D, SparsePointCloud, voxelize
from virconv import tensor
from virconv.oracle import dense_conv2d_branch
from virconv.tensor import (
    CENTER_3D,
    ORIGIN_LIDAR,
    ORIGIN_MIXED,
    ORIGIN_VIRTUAL,
    _padded_keys,
    point_keys,
    site_means,
)

LEAKY = ActivationSpec("leaky_relu", 0.1)
OFFS_2D = [(du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1)]


@st.composite
def tied_cells(draw):
    """(features, h2d): small integer features, so channel maxima tie often,
    and cells drawn from a 3x3 patch (negative cells included), so each cell
    holds rows scattered across the tensor; some rows are invalid."""
    n = draw(st.integers(0, 30))
    c = draw(st.integers(1, 3))
    feats = draw(st.lists(st.lists(st.integers(-1, 1), min_size=c, max_size=c),
                          min_size=n, max_size=n))
    cell = st.one_of(st.just((INVALID_2D, INVALID_2D)),
                     st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    h2d = draw(st.lists(cell, min_size=n, max_size=n))
    return (np.array(feats, np.float64).reshape(n, c),
            np.array(h2d, np.int64).reshape(n, 2))


def row_tensor(X):
    """Tensor whose row i sits at site (i, 0, 0)."""
    n = len(X)
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0),
                         extent=(max(n, 1), 1, 1))
    return SparseVoxelTensor(np.stack([np.arange(n), np.zeros(n), np.zeros(n)], axis=1),
                             X, spec)


def brute_conv2d_input_grad(X, h2d, w, act, grad_out):
    """dL/dX of the 2D branch: each pooled gradient goes to the first row, in
    row order, that holds the cell's channel max."""
    members = {}
    for r, (u, v) in enumerate(h2d):
        if u != INVALID_2D:
            members.setdefault((int(u), int(v)), []).append(r)
    pooled = {cell: X[rows].max(axis=0) for cell, rows in members.items()}
    g_pooled = {cell: np.zeros(X.shape[1]) for cell in members}
    for (u, v), rows in members.items():
        pre = w.conv2d.bias.copy()
        for k, (du, dv) in enumerate(OFFS_2D):
            if (u + du, v + dv) in pooled:
                pre = pre + pooled[(u + du, v + dv)] @ w.conv2d.w[k]
        gpre = grad_out[rows].sum(axis=0) * act.deriv(pre)
        for k, (du, dv) in enumerate(OFFS_2D):
            if (u + du, v + dv) in pooled:
                g_pooled[(u + du, v + dv)] += gpre @ w.conv2d.w[k].T
    gX = np.zeros_like(X)
    for cell, rows in members.items():
        for ch in range(X.shape[1]):
            first = next(r for r in rows if X[r, ch] == pooled[cell][ch])
            gX[first, ch] += g_pooled[cell][ch]
    return gX


@settings(deadline=None, max_examples=100)
@given(case=tied_cells(), seed=st.integers(0, 1000))
def test_pool_winners_and_pooled_gradients_take_first_max_in_row_order(case, seed):
    X, h2d = case
    rng = SeededRng(seed)
    n, c = X.shape
    t = row_tensor(X)
    w = KernelWeights.initialize(c, 4, rng)
    grad_out = rng.gen.normal(size=(n, 2))
    ctx = Ctx()
    out = conv2d_branch(t, h2d, w, LEAKY, ctx)
    assert np.allclose(out, dense_conv2d_branch(t, h2d, w, LEAKY), rtol=0, atol=1e-12)
    got = conv2d_branch_backward(ctx, grad_out)
    want = brute_conv2d_input_grad(X, h2d, w, LEAKY, grad_out)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@st.composite
def centre_tap_layers(draw):
    """(tensor, h2d, weights, act): up to 24 distinct sites on a 4x4x3 grid
    and a pixel cell of its own per site from a 6x6 patch (negative cells
    included), so most sites and cells have occupied neighbours; weights
    whose only non-zero taps are the 3D and 2D centres, and a random bias."""
    sites = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                          min_size=1, max_size=24, unique=True))
    h2d = draw(st.lists(st.tuples(st.integers(-3, 2), st.integers(-3, 2)),
                        min_size=len(sites), max_size=len(sites), unique=True))
    rng = SeededRng(draw(st.integers(0, 2 ** 32 - 1)))
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 3))
    t = SparseVoxelTensor(sites, rng.gen.normal(size=(len(sites), 3)), spec)
    w = KernelWeights.initialize(3, 4, rng)
    for conv, centre in ((w.conv3d, CENTER_3D), (w.conv2d, len(OFFS_2D) // 2)):
        conv.w[np.arange(len(conv.w)) != centre] = 0.0
        conv.bias[:] = rng.gen.normal(size=conv.c_out)
    act = draw(st.sampled_from([ActivationSpec("relu"), LEAKY, ActivationSpec("identity")]))
    return t, np.array(h2d, np.int64), w, act


def assert_pointwise(got, X, conv, centre, act):
    """got is act(X @ w[centre] + bias) within the 1e-5 oracle bound."""
    want = act.apply(X @ conv.w[centre] + conv.bias)
    assert got.shape == want.shape
    assert np.abs(got - want).max() / max(1.0, np.abs(want).max()) < 1e-5


@settings(deadline=None, max_examples=60)
@given(case=centre_tap_layers())
def test_the_centre_2d_tap_alone_makes_the_2d_branch_pointwise(case):
    """With one voxel per cell, pooling is the identity; with only the centre
    tap (OFFSETS_2D row 4) non-zero, no neighbouring cell adds anything."""
    t, h2d, w, act = case
    assert OFFS_2D[4] == (0, 0)
    for got in (conv2d_branch(t, h2d, w, act), nrconv(t, h2d, w, act).features[:, w.c_half:]):
        assert_pointwise(got, t.features, w.conv2d, 4, act)


@settings(deadline=None, max_examples=60)
@given(case=centre_tap_layers())
def test_the_centre_3d_tap_alone_makes_the_3d_branch_pointwise(case):
    """With only conv3d.w[13] non-zero, no neighbouring site adds anything;
    nrconv's first half is that same 3D branch."""
    t, h2d, w, act = case
    for got in (submanifold_conv3d(t, w, act).features, nrconv(t, h2d, w, act).features[:, :w.c_half]):
        assert_pointwise(got, t.features, w.conv3d, CENTER_3D, act)


def segment_reference(X, G, h2d):
    """(first row, pooled, winner rows, sums) per cell, with the valid rows
    stably sorted by (u, v) so that each cell is one segment: pooling by
    np.maximum.reduceat, winners by a masked np.minimum.reduceat per channel,
    sums by np.bincount per channel."""
    rows = np.flatnonzero(h2d[:, 0] != INVALID_2D)
    order = rows[np.lexsort((h2d[rows, 1], h2d[rows, 0]))]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (h2d[order][1:] != h2d[order][:-1]).any(axis=1)
    starts, seg = np.flatnonzero(new), np.cumsum(new) - 1
    m, c = len(starts), X.shape[1]
    if m == 0:
        return order, np.zeros((0, c)), np.zeros((0, c), np.int64), np.zeros((0, c))
    Xs = X[order]
    pooled = np.maximum.reduceat(Xs, starts, axis=0)
    winners = np.empty((m, c), dtype=np.int64)
    pos = np.arange(len(order))
    for ch in range(c):
        hit = np.where(Xs[:, ch] == pooled[seg, ch], pos, len(order))
        winners[:, ch] = order[np.minimum.reduceat(hit, starts)]
    sums = np.stack([np.bincount(seg, weights=G[order, ch], minlength=m)
                     for ch in range(c)], axis=1)
    return order[starts], pooled, winners, sums


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=150)
@given(case=tied_cells(), all_invalid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_passes_match_segment_reductions_bit_for_bit(case, all_invalid, seed):
    X, h2d = case
    if all_invalid:
        h2d[:] = INVALID_2D
    rng = np.random.default_rng(seed)
    X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0   # signed zeros tie with 0.0
    G = rng.choice([-1.5, -0.0, 0.0, 0.25, 1.0], size=X.shape)
    valid, first, passes, _ = row_tensor(X).cell_map(h2d)

    assert np.array_equal(valid, h2d[:, 0] != INVALID_2D)
    members = np.concatenate([first, *(rows for rows, _ in passes)])
    assert np.array_equal(np.sort(members), np.flatnonzero(valid))
    for rows, cells in passes:
        assert np.all(np.diff(cells) > 0)
        assert np.all(rows > first[cells])
    want_first, pooled, winners, sums = segment_reference(X, G, h2d)
    assert_same_bits(first, want_first)
    rank = np.zeros(pooled.shape, np.min_scalar_type(len(passes)))
    assert_same_bits(_cell_max(X, first, passes, rank), pooled)
    assert_same_bits(_cell_max(X, first, passes), pooled)
    # The filled rank names the pass of each max's winner; look its row up.
    pass_rows = np.full((len(passes) + 1, len(first)), -1, np.int64)
    pass_rows[0] = first
    for p, (rows, cells) in enumerate(passes, 1):
        pass_rows[p, cells] = rows
    assert_same_bits(pass_rows[rank, np.arange(len(first))[:, None]], winners)
    assert_same_bits(_cell_sum(G, first, passes), sums)


@st.composite
def sites_and_queries(draw):
    """(extent, unique sites, queries): queries cover every axis below 0 and at
    or above the extent, far outside it, and inside it, plus for each site the
    outside queries whose padded key equals the site's when the inside test
    is skipped."""
    extent = draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
    site = st.tuples(*(st.integers(0, e - 1) for e in extent))
    sites = list(dict.fromkeys(draw(st.lists(site, max_size=40))))
    near = st.tuples(*(st.integers(-2, e + 1) for e in extent))
    queries = draw(st.lists(near, max_size=40))
    ey, ez = extent[1] + 2, extent[2] + 2
    for x, y, z in sites:
        queries += [(x + 1, y - ey, z), (x - 1, y + ey, z), (x, y + 1, z - ez), (x, y - 1, z + ez)]
    for axis in range(3):
        for bad in (-1, -(2 ** 40), extent[axis], extent[axis] + 1, 2 ** 40):
            q = list(draw(site))
            q[axis] = bad
            queries.append(tuple(q))
    return extent, sites, queries


@settings(deadline=None, max_examples=100)
@given(case=sites_and_queries())
def test_find_rows_matches_dict_lookup(case):
    extent, sites, queries = case
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    t = SparseVoxelTensor(np.array(sites, np.int64).reshape(-1, 3),
                          np.zeros((len(sites), 1)), spec)
    row_of = {s: i for i, s in enumerate(sites)}
    want = [row_of.get(q, -1) for q in queries]
    assert t.find_rows(np.array(queries, np.int64).reshape(-1, 3)).tolist() == want


ORIGIN = (-1.0, 0.5, -2.0)
VOXEL = (0.5, 0.25, 1.0)


@st.composite
def clouds_on_grid(draw):
    """(extent, points): dyadic coordinates, so every point lies exactly where
    drawn; positions run one voxel past each face of the extent, and points
    sit exactly on the lower and upper boundary of every axis."""
    extent = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    cell = st.tuples(*(st.tuples(st.integers(-2, e + 1), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
                       for e in extent))
    cells = draw(st.lists(cell, max_size=60))
    for axis in range(3):
        for face in (0, extent[axis]):
            c = list(draw(cell))
            c[axis] = (face, 0.0)
            cells.append(tuple(c))
    pts = []
    for c in cells:
        xyz = [ORIGIN[a] + (k + frac) * VOXEL[a] for a, (k, frac) in enumerate(c)]
        virtual = draw(st.booleans())
        alpha = 0.0 if virtual else draw(st.sampled_from([0.0, 0.3, 1.0]))
        pts.append(xyz + [alpha, float(virtual)])
    return extent, np.array(pts, np.float64).reshape(-1, 5)


@settings(deadline=None, max_examples=100)
@given(case=clouds_on_grid())
def test_voxelize_matches_per_voxel_python_mean(case):
    extent, pts = case
    spec = VoxelGridSpec(origin=ORIGIN, voxel_size=VOXEL, extent=extent)
    members = {}
    for p in pts:
        ix = tuple(math.floor((p[a] - ORIGIN[a]) / VOXEL[a]) for a in range(3))
        if all(0 <= ix[a] < extent[a] for a in range(3)):
            members.setdefault(ix, []).append(p)
    keys = sorted(members)
    t = voxelize(SparsePointCloud(pts), spec)
    assert t.indices.tolist() == [list(k) for k in keys]
    want = np.array([np.mean(members[k], axis=0) for k in keys]).reshape(-1, 5)
    assert np.allclose(t.features, want, rtol=1e-12, atol=1e-12)
    beta = want[:, 4]
    assert t.origin_flags.tolist() == np.where(
        beta < 0.5, 0, np.where(beta > 0.5, 1, 2)).tolist()


POINT_SPECS = [
    VoxelGridSpec(origin=(0.0, -2.0, -1.0), voxel_size=(0.5, 0.5, 0.5), extent=(8, 8, 4)),
    VoxelGridSpec(origin=(-3.7, 1.3, 0.9), voxel_size=(0.05, 0.05, 0.1), extent=(30, 20, 10),
                  stride_level=2),
]


@st.composite
def clouds_for_spec(draw):
    """(spec, points): per axis, coordinates on cell edges from three cells
    below the extent to three above, inside the (-1, 0) cell, at +-1e30, or
    anywhere in between."""
    spec = draw(st.sampled_from(POINT_SPECS))
    axes = []
    for a in range(3):
        o, cs, e = spec.origin[a], spec.cell_size[a], spec.extent[a]
        axes.append(st.one_of(
            st.integers(-3, e + 3).map(lambda k, o=o, cs=cs: o + k * cs),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
                lambda f, o=o, cs=cs: o - f * cs),
            st.sampled_from([1e30, -1e30]),
            st.floats(-1e30, 1e30, allow_subnormal=False)))
    xyz = draw(st.lists(st.tuples(*axes), max_size=30))
    return spec, SparsePointCloud.from_xyz(np.array(xyz, np.float64).reshape(-1, 3))


@settings(deadline=None, max_examples=150)
@given(case=clouds_for_spec())
@example(case=(POINT_SPECS[1], SparsePointCloud.empty()))
def test_point_keys_match_the_broadcast_formula_bit_for_bit(case):
    spec, cloud = case
    idx = np.clip(np.floor((cloud.xyz - np.asarray(spec.origin)) / spec.cell_size),
                  -1, spec.extent).astype(np.int64)
    inside = ((idx >= 0) & (idx < np.asarray(spec.extent))).all(axis=1)
    want = np.where(inside, _padded_keys(idx, spec.extent), 0)
    assert_same_bits(point_keys(cloud.points, spec), want)


@st.composite
def rows_and_values(draw):
    """(extent, rows, values): rows run two voxels past each face of the
    extent, every face holds an inside row and an outside one, rows may repeat,
    and the (N, C) values, C from 0 to 3, are arbitrary finite floats."""
    extent = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    row = st.tuples(*(st.integers(-2, e + 1) for e in extent))
    rows = draw(st.lists(row, max_size=40))
    for axis in range(3):
        for face in (-1, 0, extent[axis] - 1, extent[axis]):
            r = list(draw(row))
            r[axis] = face
            rows.append(tuple(r))
    rows = draw(st.permutations(rows))
    c = draw(st.integers(0, 3))
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
    values = draw(st.lists(st.lists(value, min_size=c, max_size=c),
                           min_size=len(rows), max_size=len(rows)))
    return extent, rows, np.array(values, np.float64).reshape(len(rows), c)


def face_rows(extent):
    """Rows at -1, 0, extent - 1 and extent on each axis (the other axes at
    mid-extent), both inside corners and a row past both far faces."""
    rows = [(0, 0, 0), tuple(e - 1 for e in extent), tuple(extent)]
    for axis in range(3):
        for face in (-1, 0, extent[axis] - 1, extent[axis]):
            r = [e // 2 for e in extent]
            r[axis] = face
            rows.append(tuple(r))
    return rows


def example_case(extent, rows):
    return extent, rows, np.arange(2.0 * len(rows)).reshape(-1, 2) / 3


# 2**20 per axis gives padded keys of 61 bits: with r = N.bit_length() row
# bits, 2 or 3 rows pack into exactly 63 bits, 4 rows would need 64 and take
# the argsort branch, as do the 15 rows of face_rows plus one repeat.
BIG = (2 ** 20,) * 3
TOP = tuple(e - 1 for e in BIG)
SMALL_ROWS = [(x, y, z) for z in range(-1, 3) for y in range(-1, 3) for x in range(-1, 4)]


@settings(deadline=None, max_examples=100)
@given(case=rows_and_values())
@example(case=((1, 1, 1), [], np.zeros((0, 2))))
@example(case=example_case(BIG, face_rows(BIG) + [TOP]))
@example(case=example_case(BIG, [TOP, (0, 0, 0), (-1, 0, 0), TOP]))
@example(case=example_case(BIG, [TOP, (2 ** 20, 0, 0), (0, 0, 0)]))
@example(case=example_case((3, 2, 2), SMALL_ROWS[:31]))
@example(case=example_case((3, 2, 2), SMALL_ROWS[:32]))
@example(case=example_case((3, 2, 2), SMALL_ROWS[:63]))
@example(case=example_case((3, 2, 2), SMALL_ROWS[:64]))
def test_site_means_matches_dict_grouping(case):
    extent, rows, values = case
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    inside = [all(0 <= row[a] < extent[a] for a in range(3)) for row in rows]
    members = {}
    for r, row in enumerate(rows):
        if inside[r]:
            members.setdefault(row, []).append(r)
    sites = sorted(members)
    want = np.zeros((len(sites), values.shape[1]))
    for i, site in enumerate(sites):
        for r in members[site]:   # in row order, from 0.0, as np.add.at adds
            want[i] += values[r]
        want[i] /= len(members[site])
    keys = _padded_keys(np.array(rows, np.int64).reshape(-1, 3), extent)
    got_sites, got = site_means(np.where(inside, keys, 0), values, spec)
    assert got_sites.tolist() == [list(s) for s in sites]
    assert_same_bits(got, want)


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(deadline=None, max_examples=25)
@given(points=clouds_for_spec(), cloud=clouds_on_grid(), rows=rows_and_values())
@example(points=(POINT_SPECS[1], SparsePointCloud.empty()),
         cloud=((1, 1, 1), np.zeros((0, 5))), rows=example_case(BIG, face_rows(BIG) + [TOP]))
@example(points=(POINT_SPECS[0], SparsePointCloud.empty()), cloud=((1, 1, 1), np.zeros((0, 5))),
         rows=example_case((3, 2, 2), SMALL_ROWS[:64] + SMALL_ROWS[:9]))
def test_grouping_properties_hold_when_runs_straddle_block_steps(block, points, cloud, rows):
    """The point_keys, voxelize and site_means properties with BLOCK_ROWS
    tiny, so that point_keys, _group and site_means walk many blocks and runs
    of equal keys cross the fixed block steps."""
    with mock.patch.object(tensor, "BLOCK_ROWS", block):
        test_point_keys_match_the_broadcast_formula_bit_for_bit.hypothesis.inner_test(points)
        test_voxelize_matches_per_voxel_python_mean.hypothesis.inner_test(cloud)
        test_site_means_matches_dict_grouping.hypothesis.inner_test(rows)


SHARE = {ORIGIN_LIDAR: Fraction(0), ORIGIN_MIXED: Fraction(1, 2), ORIGIN_VIRTUAL: Fraction(1)}


@st.composite
def flagged_sites(draw):
    """(extent, unique sites, flags or None): sites on every face of the
    extent, flags drawn from all three provenance values."""
    extent = draw(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    site = st.tuples(*(st.integers(0, e - 1) for e in extent))
    sites = draw(st.lists(site, max_size=60))
    for axis in range(3):
        for face in (0, extent[axis] - 1):
            s = list(draw(site))
            s[axis] = face
            sites.append(tuple(s))
    sites = list(dict.fromkeys(draw(st.permutations(sites))))
    flags = draw(st.none() | st.lists(st.sampled_from(sorted(SHARE)),
                                      min_size=len(sites), max_size=len(sites)))
    return extent, sites, flags


@settings(deadline=None, max_examples=100)
@given(case=flagged_sites())
@example(case=((2, 1, 1), [(0, 0, 0), (1, 0, 0)], [ORIGIN_MIXED, ORIGIN_LIDAR]))
@example(case=((1, 1, 1), [], []))
def test_downsampled_sites_match_dict_grouping(case):
    extent, sites, flags = case
    spec = VoxelGridSpec(origin=(0.0, 0.0, 0.0), voxel_size=(1.0, 1.0, 1.0), extent=extent)
    t = SparseVoxelTensor(np.array(sites, np.int64).reshape(-1, 3),
                          np.zeros((len(sites), 1)), spec, flags)
    members = {}
    for i, site in enumerate(sites):
        members.setdefault(tuple(v // 2 for v in site), []).append(i)
    coarse = sorted(members)
    got_spec, got_sites, got_flags = t.downsampled_sites()
    assert got_spec == spec.downsampled()
    assert got_sites.tolist() == [list(c) for c in coarse]
    if flags is None:
        assert got_flags is None
        return
    want = []
    for c in coarse:
        share = sum(SHARE[flags[i]] for i in members[c]) / len(members[c])
        want.append(ORIGIN_LIDAR if share < Fraction(1, 2) else
                    ORIGIN_VIRTUAL if share > Fraction(1, 2) else ORIGIN_MIXED)
    assert got_flags.dtype == np.int8 and got_flags.tolist() == want


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=2, max_size=40)
       .filter(lambda xs: len({y for _, y in xs}) == 2))
def test_roc_auc_with_ties_matches_pairwise_count(samples):
    scores = np.array([s for s, _ in samples], dtype=np.float64)
    labels = np.array([y for _, y in samples])
    pos, neg = scores[labels], scores[~labels]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    assert math.isclose(roc_auc(scores, labels), wins / (len(pos) * len(neg)), abs_tol=1e-12)

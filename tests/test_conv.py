"""Sparse convolution forwards against the dense reference implementations."""

import copy
import tracemalloc
import weakref

import numpy as np
import pytest

from virconv import (
    ActivationSpec,
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
from virconv import conv as vconv
from virconv.conv import (
    IDENTITY,
    PRODUCT_ROWS,
    RELU,
    ConvWeights,
    Ctx,
    _pair_conv,
    _pair_conv_backward,
    _spans,
    conv2d_branch_backward,
    nrconv_backward,
    spconv_downsample_backward,
    submanifold_conv3d_backward,
)
from virconv.geometry import INVALID_2D
from virconv.oracle import (
    _BACKWARD,
    _FORWARD,
    dense_conv2d_branch,
    dense_nrconv,
    dense_spconv_downsample,
    dense_submanifold_conv3d,
)
from virconv.tensor import OFFSETS_3D, ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL
from conftest import random_h2d, random_tensor

LEAKY = ActivationSpec("leaky_relu", 0.1)


def rel_err(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def test_activation_specs():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(RELU.apply(x), [0, 0, 3])
    assert np.allclose(LEAKY.apply(x), [-0.2, 0, 3])
    assert np.allclose(IDENTITY.apply(x), x)
    # Derivatives agree with a numeric slope away from the kink at zero.
    xs = np.array([-2.0, 0.5, 3.0])
    for act in (RELU, LEAKY, IDENTITY):
        h = 1e-7
        num = (act.apply(xs + h) - act.apply(xs - h)) / (2 * h)
        assert np.allclose(act.deriv(xs), num, atol=1e-6)
        # deriv reads only the sign, so the Ctx's bool mask gives the same float64.
        for arg in (xs, xs > 0):
            assert act.deriv(arg).dtype == np.float64
            assert np.array_equal(act.deriv(arg), act.deriv(xs))
    with pytest.raises(ValueError):
        ActivationSpec("swish")


@pytest.mark.parametrize("slope", [0.0, 1.0, -0.1, 1.5])
def test_leaky_relu_slope_outside_zero_one_rejected(slope):
    with pytest.raises(ValueError, match=r"leaky_relu slope must lie in \(0, 1\)"):
        ActivationSpec("leaky_relu", slope)


def test_kernel_weight_shapes(rng):
    kw = KernelWeights.initialize(5, 8, rng)
    assert kw.conv3d.w.shape == (27, 5, 4) and kw.conv2d.w.shape == (9, 5, 4)
    assert kw.c_in == 5 and kw.c_half == 4 and kw.c_out == 8
    with pytest.raises(ValueError):
        KernelWeights.initialize(5, 7, rng)   # odd widths cannot split
    sw = SpconvWeights.initialize(3, 6, rng)
    assert sw.w.shape == (27, 3, 6) and sw.bias.shape == (6,)


def test_kernel_weights_reject_branches_of_different_input_widths(rng):
    # Checked when the layer is built, not once nrconv has run its 3D half.
    with pytest.raises(ValueError, match="share the input width"):
        KernelWeights(ConvWeights.initialize(27, 3, 2, rng), ConvWeights.initialize(9, 4, 2, rng))


def test_weight_types_reject_malformed_stacks(rng):
    c3, c2 = ConvWeights.initialize(27, 3, 2, rng), ConvWeights.initialize(9, 3, 2, rng)
    assert KernelWeights(c3, c2).c_out == 4
    for conv3d, conv2d in ((c2, c2), (c3, c3)):
        with pytest.raises(ValueError, match="conv3d must stack 27 offsets and conv2d 9"):
            KernelWeights(conv3d, conv2d)
    with pytest.raises(ValueError, match="share the half width"):
        KernelWeights(c3, ConvWeights.initialize(9, 3, 4, rng))
    assert SpconvWeights(c3.w, c3.bias).c_out == 2
    with pytest.raises(ValueError, match="w must stack 27 offsets"):
        SpconvWeights(c2.w, c2.bias)


def test_zero_grads_clears_every_gradient_params_returns(rng):
    t = random_tensor(rng, c=3)
    kw, sw = KernelWeights.initialize(3, 4, rng), SpconvWeights.initialize(3, 4, rng)
    ctx = Ctx()
    out = nrconv(t, random_h2d(rng, t.n), kw, LEAKY, ctx)
    nrconv_backward(ctx, np.ones_like(out.features))
    ctx = Ctx()
    out = spconv_downsample(t, sw, LEAKY, ctx)
    spconv_downsample_backward(ctx, np.ones_like(out.features))
    for w in (kw, sw):
        buffers = [g for _, _, g in w.params()]
        assert all(g.any() for g in buffers)
        w.zero_grads()
        assert all(g is b and not g.any() for (_, _, g), b in zip(w.params(), buffers))


def test_conv3d_matches_dense_reference():
    for seed in range(8):
        rng = SeededRng(seed)
        t = random_tensor(rng, extent=(7, 6, 5), occupancy=0.3, c=3)
        kw = KernelWeights.initialize(3, 4, rng)
        out = submanifold_conv3d(t, kw, LEAKY)
        assert rel_err(out.features, dense_submanifold_conv3d(t, kw, LEAKY)) < 1e-12
        assert np.array_equal(out.indices, t.indices)


def test_conv2d_matches_dense_reference():
    for seed in range(8):
        rng = SeededRng(seed)
        t = random_tensor(rng, extent=(6, 6, 6), occupancy=0.3, c=3)
        h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.15)
        kw = KernelWeights.initialize(3, 4, rng)
        out = conv2d_branch(t, h2d, kw, LEAKY)
        assert rel_err(out, dense_conv2d_branch(t, h2d, kw, LEAKY)) < 1e-12


def test_nrconv_matches_dense_reference_and_concatenates():
    rng = SeededRng(17)
    t = random_tensor(rng, extent=(6, 6, 6), c=3)
    h2d = random_h2d(rng, t.n)
    kw = KernelWeights.initialize(3, 6, rng)
    out = nrconv(t, h2d, kw, LEAKY)
    assert out.width == 6
    assert rel_err(out.features, dense_nrconv(t, h2d, kw, LEAKY)) < 1e-12
    half3 = submanifold_conv3d(t, kw, LEAKY).features
    half2 = conv2d_branch(t, h2d, kw, LEAKY)
    assert np.array_equal(out.features, np.concatenate([half3, half2], axis=1))


@pytest.mark.parametrize("act", [RELU, LEAKY, IDENTITY], ids=lambda a: a.kind)
@pytest.mark.parametrize("rows, c_out", [(None, 2), (None, 0), (0, 2), (0, 0)],
                         ids=["c_out=2", "c_out=0", "N=0", "N=0,c_out=0"])
def test_nrconv_writes_both_halves_into_one_output(act, rows, c_out):
    """nrconv's features are the two halves side by side, byte for byte, in one
    C-contiguous float64 array; with a Ctx its backward gives the bytes of each
    half's backward on its column slice, summed."""
    rng = SeededRng(23)
    t = random_tensor(rng, c=3)
    if rows is not None:
        t = t.take_rows(np.arange(rows))
    h2d = random_h2d(rng, t.n)
    kw = KernelWeights.initialize(3, c_out, rng)
    for conv in (kw.conv3d, kw.conv2d):
        conv.bias[...] = rng.gen.normal(size=conv.bias.shape)
    grad = rng.gen.normal(size=(t.n, c_out))
    ch = kw.c_half
    ctx = Ctx()
    out = nrconv(t, h2d, kw, act, ctx).features
    got = [out, nrconv_backward(ctx, grad), *(g.copy() for _, _, g in kw.params())]
    kw.zero_grads()
    ctx3, ctx2 = Ctx(), Ctx()
    halves = [submanifold_conv3d(t, kw, act, ctx3).features, conv2d_branch(t, h2d, kw, act, ctx2)]
    gX = submanifold_conv3d_backward(ctx3, grad[:, :ch])
    gX += conv2d_branch_backward(ctx2, grad[:, ch:])
    want = [np.concatenate(halves, axis=1), gX, *(g.copy() for _, _, g in kw.params())]
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.shape == (t.n, c_out)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_nrconv_backward_keeps_the_signed_zeros_of_the_summed_halves():
    """With an all -0.0 upstream gradient, positive weights and invalid
    projections, nrconv_backward gives the bytes, sign bits included, of the
    3D half's backward plus the 2D half's. The 2D half's deferred routing adds
    into a given gX as gX += its gradient would, -0.0 rows included."""
    rng = SeededRng(29)
    t = random_tensor(rng, c=3)
    h2d = random_h2d(rng, t.n, invalid_frac=0.3)
    kw = KernelWeights.initialize(3, 4, rng)
    for _, arr, _ in kw.params():
        arr[...] = np.abs(arr) + 0.1
    grad = np.full((t.n, kw.c_out), -0.0)
    ch = kw.c_half
    ctx, ctx3, ctx2, ctx_route = Ctx(), Ctx(), Ctx(), Ctx()
    nrconv(t, h2d, kw, RELU, ctx)
    submanifold_conv3d(t, kw, RELU, ctx3)
    conv2d_branch(t, h2d, kw, RELU, ctx2)
    conv2d_branch(t, h2d, kw, RELU, ctx_route)
    got = nrconv_backward(ctx, grad)
    dense2 = conv2d_branch_backward(ctx2, grad[:, ch:])
    want = submanifold_conv3d_backward(ctx3, grad[:, :ch]) + dense2
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))
    gX = np.full(t.features.shape, -0.0)
    want = gX + dense2
    assert (h2d == INVALID_2D).any() and np.signbit(gX).all() and not np.signbit(want).any()
    routed = conv2d_branch_backward(ctx_route, grad[:, ch:], deferred=True)(gX)
    assert routed is gX and gX.tobytes() == want.tobytes()


def test_nrconv_backward_calls_each_half_backward_once_in_sequence(rng, monkeypatch):
    """perfbench's tracer wraps conv2d_branch_backward and
    submanifold_conv3d_backward by module attribute and expects one span of
    each per layer: nrconv_backward calls the 2D one, then the 3D one, each
    once and neither inside the other."""
    events = []
    for name in ("conv2d_branch_backward", "submanifold_conv3d_backward"):
        def recorder(*args, _fn=getattr(vconv, name), _name=name, **kwargs):
            events.append(("enter", _name))
            out = _fn(*args, **kwargs)
            events.append(("exit", _name))
            return out
        monkeypatch.setattr(vconv, name, recorder)
    t = random_tensor(rng, c=3)
    h2d = random_h2d(rng, t.n)
    ctx = Ctx()
    grad = np.ones_like(nrconv(t, h2d, KernelWeights.initialize(3, 4, rng), RELU, ctx).features)
    assert nrconv_backward(ctx, grad).shape == t.features.shape
    assert events == [(edge, name)
                      for name in ("conv2d_branch_backward", "submanifold_conv3d_backward")
                      for edge in ("enter", "exit")]


def test_spconv_matches_dense_reference():
    for seed in range(8):
        rng = SeededRng(seed)
        t = random_tensor(rng, extent=(7, 7, 7), occupancy=0.3, c=3)
        sw = SpconvWeights.initialize(3, 5, rng)
        out = spconv_downsample(t, sw, LEAKY)
        ref_idx, ref_feats = dense_spconv_downsample(t, sw, LEAKY)
        assert np.array_equal(out.indices, ref_idx)
        assert rel_err(out.features, ref_feats) < 1e-12


def test_spconv_output_sites_and_spec(rng):
    t = random_tensor(rng, extent=(8, 8, 8), c=2)
    sw = SpconvWeights.initialize(2, 2, rng)
    out = spconv_downsample(t, sw)
    assert np.array_equal(out.indices, np.unique(t.indices // 2, axis=0))
    assert out.spec.stride_level == 2 and out.spec.extent == (4, 4, 4)


def test_spconv_propagates_provenance():
    # Each coarse voxel's members count LiDAR 0, mixed 1/2 and virtual 1.
    members = {
        (0, 0, 0): [ORIGIN_MIXED],                                   # 1/2
        (1, 0, 0): [ORIGIN_MIXED, ORIGIN_VIRTUAL],                   # 3/4
        (2, 0, 0): [ORIGIN_MIXED, ORIGIN_LIDAR],                     # 1/4
        (3, 0, 0): [ORIGIN_LIDAR, ORIGIN_VIRTUAL],                   # 1/2
        (0, 1, 0): [ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL],     # 1/2
        (1, 1, 0): [ORIGIN_LIDAR, ORIGIN_LIDAR, ORIGIN_VIRTUAL],     # 1/3
    }
    spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(8, 4, 2))
    idx, flags = [], []
    for (x, y, z), fl in members.items():
        for k, f in enumerate(fl):
            idx.append((2 * x + k % 2, 2 * y + k // 2, 2 * z))
            flags.append(f)
    t = SparseVoxelTensor(idx, np.ones((len(idx), 1)), spec, origin_flags=flags)
    out = spconv_downsample(t, SpconvWeights.initialize(1, 1, SeededRng(0)))
    got = {tuple(out.indices[i]): int(out.origin_flags[i]) for i in range(out.n)}
    assert got == {(0, 0, 0): ORIGIN_MIXED, (1, 0, 0): ORIGIN_VIRTUAL,
                   (2, 0, 0): ORIGIN_LIDAR, (3, 0, 0): ORIGIN_MIXED,
                   (0, 1, 0): ORIGIN_MIXED, (1, 1, 0): ORIGIN_LIDAR}


def test_invalid_projection_rows_get_empty_cell_output(rng):
    t = random_tensor(rng, c=3)
    h2d = np.full((t.n, 2), INVALID_2D, dtype=np.int64)
    kw = KernelWeights.initialize(3, 4, rng)
    out = conv2d_branch(t, h2d, kw, LEAKY)
    assert np.allclose(out, LEAKY.apply(kw.conv2d.bias)[None, :])


@pytest.mark.parametrize("act", [RELU, LEAKY, IDENTITY], ids=lambda a: a.kind)
def test_all_invalid_projection_backward_reaches_only_the_bias(act):
    # Zero cells: every row saw act(bias), so only the bias has a gradient.
    rng = SeededRng(7)
    t = random_tensor(rng, c=3)
    kw = KernelWeights.initialize(3, 4, rng)
    conv = kw.conv2d
    conv.bias[:] = (-0.5, 0.75)   # one bias on each side of the kink
    ctx = Ctx()
    conv2d_branch(t, np.full((t.n, 2), INVALID_2D, dtype=np.int64), kw, act, ctx)
    grad = rng.gen.normal(size=(t.n, conv.c_out))
    gX = conv2d_branch_backward(ctx, grad)
    assert gX.shape == t.features.shape and not gX.any()
    assert not conv.g_w.any()
    assert np.array_equal(conv.g_bias, (grad * act.deriv(conv.bias[None])).sum(0))


def test_pooling_ties_break_to_lowest_row():
    spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(4, 4, 4))
    t = SparseVoxelTensor([[0, 0, 0], [1, 0, 0]], np.ones((2, 1)), spec)
    h2d = np.zeros((2, 2), dtype=np.int64)
    kw = KernelWeights.initialize(1, 2, SeededRng(5))
    from virconv.conv import Ctx, conv2d_branch_backward
    ctx = Ctx()
    conv2d_branch(t, h2d, kw, IDENTITY, ctx)
    grad_in = conv2d_branch_backward(ctx, np.ones((2, 1)))
    # Equal features tie; the whole pooled gradient must land on row 0.
    assert grad_in[1, 0] == 0.0 and grad_in[0, 0] != 0.0


def test_width_mismatch_raises(rng):
    t = random_tensor(rng, c=3)
    kw = KernelWeights.initialize(4, 4, rng)
    with pytest.raises(ValueError, match="width"):
        submanifold_conv3d(t, kw)
    with pytest.raises(ValueError, match="h2d"):
        conv2d_branch(t, np.zeros((1, 2), np.int64), KernelWeights.initialize(3, 4, rng))


def test_empty_tensor_downsample_backward_returns_empty_gradient(rng):
    spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(4, 4, 4))
    t = SparseVoxelTensor(np.zeros((0, 3), np.int64), np.zeros((0, 3)), spec,
                          origin_flags=np.zeros(0))
    sw = SpconvWeights.initialize(3, 4, rng)
    from virconv.conv import Ctx, spconv_downsample_backward
    ctx = Ctx()
    out = spconv_downsample(t, sw, LEAKY, ctx)
    assert out.n == 0 and out.origin_flags.dtype == np.int8
    grad_in = spconv_downsample_backward(ctx, np.zeros((out.n, 4)))
    assert grad_in.shape == (0, 3)
    assert not sw.g_w.any() and not sw.g_bias.any()


def test_empty_tensor_passthrough(rng):
    spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(1, 1, 1), extent=(4, 4, 4))
    t = SparseVoxelTensor(np.zeros((0, 3), np.int64), np.zeros((0, 3)), spec)
    kw = KernelWeights.initialize(3, 4, rng)
    assert submanifold_conv3d(t, kw).n == 0
    assert conv2d_branch(t, np.zeros((0, 2), np.int64), kw).shape == (0, 2)
    sw = SpconvWeights.initialize(3, 4, rng)
    out = spconv_downsample(t, sw)
    assert out.n == 0 and out.spec.stride_level == 2


@pytest.mark.parametrize("c_in, c_half", [(0, 1), (3, 0)], ids=["c_in=0", "c_out=0"])
def test_zero_widths_give_bias_rows(c_in, c_half):
    """With no input channels every output row is act(bias); with no output
    channels every output is (rows, 0). The backward gives zero rows of
    width C_in."""
    rng = SeededRng(8)
    t = random_tensor(rng, c=c_in)
    h2d = random_h2d(rng, t.n)
    kw = KernelWeights.initialize(c_in, 2 * c_half, rng)
    sw = SpconvWeights.initialize(c_in, 2 * c_half, rng)
    for conv in (kw.conv3d, kw.conv2d, sw):
        conv.bias[...] = rng.gen.normal(size=conv.bias.shape)
    ctx, ctxd = Ctx(), Ctx()
    down = spconv_downsample(t, sw, LEAKY, ctxd)
    assert down.n == len(np.unique(t.indices // 2, axis=0))
    halves = [LEAKY.apply(kw.conv3d.bias), LEAKY.apply(kw.conv2d.bias)]
    for out, row, n in ((submanifold_conv3d(t, kw, LEAKY).features, halves[0], t.n),
                        (conv2d_branch(t, h2d, kw, LEAKY), halves[1], t.n),
                        (nrconv(t, h2d, kw, LEAKY, ctx).features, np.concatenate(halves), t.n),
                        (down.features, LEAKY.apply(sw.bias), down.n)):
        assert out.dtype == np.float64 and out.shape == (n, len(row))
        assert np.array_equal(out, np.broadcast_to(row, out.shape))
    for gX in (nrconv_backward(ctx, np.ones((t.n, 2 * c_half))),
               spconv_downsample_backward(ctxd, np.ones((down.n, 2 * c_half)))):
        assert np.array_equal(gX, np.zeros((t.n, c_in)))


def _split_centre(pairs) -> list:
    """The pairs with a shared centre (out rows is in rows) replaced by two
    equal but distinct aranges, which take the indexed path."""
    return [(out_rows, in_rows.copy()) if out_rows is in_rows else (out_rows, in_rows)
            for out_rows, in_rows in pairs]


@pytest.mark.parametrize("act", [RELU, LEAKY, IDENTITY], ids=lambda a: a.kind)
def test_shared_centre_tap_matches_the_indexed_path_bit_for_bit(act):
    rng = SeededRng(5)
    t = random_tensor(rng, c=3)
    kw = KernelWeights.initialize(3, 4, rng)
    cells = t.cell_map(random_h2d(rng, t.n))[3]
    for pairs, conv in ((t.kernel_map(), kw.conv3d), (cells, kw.conv2d)):
        centre = pairs[len(pairs) // 2]
        assert centre[0] is centre[1]   # the fast path runs on the cached maps
        n = len(centre[0])
        X, grad = rng.gen.normal(size=(n, 3)), rng.gen.normal(size=(n, conv.c_out))
        runs = []
        for run_pairs in (pairs, _split_centre(pairs)):
            conv.zero_grads()
            ctx = Ctx()
            out = _pair_conv(X, run_pairs, conv, n, act, ctx)
            gX = _pair_conv_backward(ctx.data, grad)
            runs.append((out, conv.g_w.copy(), conv.g_bias.copy(), gX))
        for fast, indexed in zip(*runs):
            assert np.array_equal(fast, indexed)


def test_ctx_saves_only_the_sign_of_the_pre_activation(rng):
    """The tape keeps pre > 0 as packed bits: ceil(n * c / 8) uint8 bytes whose
    first n * c bits, row by row, are the sign; no (n, c) bool or float copy
    of pre. Cases: n * c a multiple of 8 (8 rows), not one (5 rows) and 0 rows."""
    for rows, c_half in ((None, 2), (8, 2), (5, 3), (0, 3)):
        t = random_tensor(rng, c=4)
        if rows is not None:
            t = t.take_rows(np.arange(rows))
        kw = KernelWeights.initialize(4, 2 * c_half, rng)
        sw = SpconvWeights.initialize(4, 5, rng)
        ctx3, ctx2, ctxd = Ctx(), Ctx(), Ctx()
        out3 = submanifold_conv3d(t, kw, IDENTITY, ctx3).features
        out2 = conv2d_branch(t, random_h2d(rng, t.n), kw, IDENTITY, ctx2)
        outd = spconv_downsample(t, sw, IDENTITY, ctxd).features
        # identity: the output is pre itself, in the 2D branch at each cell's first row
        for ctx, pre in ((ctx3, out3), (ctx2, out2[ctx2.data["first"]]), (ctxd, outd)):
            positive = ctx.data["positive"]
            assert positive.dtype == np.uint8 and positive.shape == (-(-pre.size // 8),)
            assert np.array_equal(np.unpackbits(positive)[:pre.size], (pre > 0).ravel())
            assert "pre" not in ctx.data
            assert not [key for key, v in ctx.data.items() if isinstance(v, np.ndarray)
                        and v.dtype.kind in "bf" and v.shape == pre.shape]
        # The 2D tape keeps no (M, C_in) array: no pooled copy and no winners,
        # which the backward records as it pools again.
        pooled_shape = (len(ctx2.data["first"]), kw.c_in)
        assert not [key for key, v in ctx2.data.items() if isinstance(v, np.ndarray)
                    and v.shape == pooled_shape]


def _leaves(obj) -> list:
    """What a tape holds: the items of its Ctx objects, dicts, lists and tuples."""
    if isinstance(obj, Ctx):
        obj = obj.data
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in _leaves(item)]
    return [obj]


def test_a_training_blocks_tapes_hold_only_signs_beyond_inputs_maps_and_weights(rng):
    """Two nrconv layers that share one h2d, then the downsample, each with its
    own Ctx, as a training block runs them. Beyond the layer inputs, their
    cached maps and the weights, the tapes hold only each half's packed signs
    and the downsample's pair map."""
    t = random_tensor(rng, c=4)
    h2d = random_h2d(rng, t.n)
    kws = [KernelWeights.initialize(4, 6, rng), KernelWeights.initialize(6, 6, rng)]
    inputs, ctxs, out = [], [Ctx(), Ctx(), Ctx()], t
    for kw, ctx in zip(kws, ctxs):
        inputs.append(out)
        out = nrconv(out, h2d, kw, RELU, ctx)
    inputs.append(out)
    spconv_downsample(out, SpconvWeights.initialize(6, 8, rng), RELU, ctxs[2])
    leaves = _leaves(ctxs)
    assert all(any(leaf is x for x in inputs) for leaf in leaves
               if isinstance(leaf, SparseVoxelTensor))
    assert {type(leaf) for leaf in leaves} <= {np.ndarray, SparseVoxelTensor, ConvWeights,
                                               SpconvWeights, ActivationSpec, int, type(None)}
    known = {id(a) for x in inputs
             for a in _leaves([x.features, x.kernel_map(), x.cell_map(h2d)])}
    held = {id(a) for a in leaves if isinstance(a, np.ndarray) and id(a) not in known}
    signs = [c.data["positive"] for ctx in ctxs[:2] for c in (ctx.data["ctx3"], ctx.data["ctx2"])]
    signs.append(ctxs[2].data["positive"])
    assert all(s.dtype == np.uint8 and s.ndim == 1 for s in signs)
    assert held == {id(a) for a in signs + _leaves(ctxs[2].data["pairs"])}


def test_nrconv_with_and_without_a_ctx_returns_the_same_bytes():
    """With or without a Ctx, nrconv pools through one _cell_max call, whose
    maxima the backward's re-pool takes as the forward's. Features of a few
    values (signed zeros included) tie often, and about four rows share each
    cell."""
    rng = SeededRng(11)
    t = random_tensor(rng, c=4)
    t = t.with_features(rng.gen.choice([-1.0, -0.0, 0.0, 1.0], size=t.features.shape))
    h2d = random_h2d(rng, t.n, span=6)
    kw = KernelWeights.initialize(4, 6, rng)
    plain = nrconv(t, h2d, kw, IDENTITY).features
    taped = nrconv(t, h2d, kw, IDENTITY, Ctx()).features
    assert plain.tobytes() == taped.tobytes()


# One nrconv forward plus backward needs about 36 bytes per input feature
# value here (N = 2,048 rows, M = 1,382 cells, C_in = C_out = 64): the output
# (8), the 2D half's (M, C_in) cell gradient (5.4), the 3D backward's
# gradient, gpre and per-offset gathers (about 22), the backward's uint8
# winner rank (0.7) and the tape's packed signs (0.1). A dense (N, C_in) 2D
# input gradient beside the 3D one (8 more), a pooled float64 copy on the tape
# (5.4 more) or an int64 winners array breaks the budget.
NRCONV_BYTES_PER_FEATURE_VALUE = 37


def test_nrconv_forward_and_backward_peak_memory_stays_within_budget():
    rng = SeededRng(0)
    t = random_tensor(rng, extent=(16, 16, 16), occupancy=0.5, c=64)
    h2d = rng.gen.integers(0, 48, size=(t.n, 2))
    kw = KernelWeights.initialize(64, 64, rng)
    grad = rng.gen.normal(size=(t.n, 64))
    t.kernel_map(), t.cell_map(h2d)   # the maps are cached per tensor, not taped
    tracemalloc.start()
    try:
        ctx = Ctx()
        out = nrconv(t, h2d, kw, RELU, ctx)   # the next layer's input: live in training
        gX = nrconv_backward(ctx, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n == t.n and gX.shape == t.features.shape and len(t.cell_map(h2d)[1]) == 1382
    values = t.features.size
    assert peak <= NRCONV_BYTES_PER_FEATURE_VALUE * values, \
        f"{peak / values:.1f} bytes per feature value"


def test_each_backward_empties_its_ctx_and_refuses_a_second_call(rng):
    """A Ctx serves one backward, which hands its saved state over and leaves
    it empty (nrconv's two inner Ctx objects too); a backward on an empty Ctx,
    fresh or spent, raises."""
    t = random_tensor(rng, c=3)
    h2d = random_h2d(rng, t.n)
    kw, sw = KernelWeights.initialize(3, 4, rng), SpconvWeights.initialize(3, 4, rng)
    cases = [
        (lambda ctx: submanifold_conv3d(t, kw, LEAKY, ctx).features, submanifold_conv3d_backward),
        (lambda ctx: conv2d_branch(t, h2d, kw, LEAKY, ctx), conv2d_branch_backward),
        (lambda ctx: nrconv(t, h2d, kw, LEAKY, ctx).features, nrconv_backward),
        (lambda ctx: spconv_downsample(t, sw, LEAKY, ctx).features, spconv_downsample_backward),
    ]
    for forward, backward in cases:
        with pytest.raises(RuntimeError, match="before forward or twice"):
            backward(Ctx(), np.ones((t.n, 2)))
        ctx = Ctx()
        grad = np.ones_like(forward(ctx))
        inner = [v for v in ctx.data.values() if isinstance(v, Ctx)]
        assert len(inner) == (2 if backward is nrconv_backward else 0)
        assert backward(ctx, grad).shape == t.features.shape
        for spent in (ctx, *inner):
            assert spent.data == {}
        with pytest.raises(RuntimeError, match="before forward or twice"):
            backward(ctx, grad)


def test_a_spent_tape_frees_the_features_it_held(rng):
    """In a two-layer nrconv chain whose caller keeps only the Ctx objects,
    layer 2's Ctx is the last holder of the middle features: they are freed
    as soon as layer 2's backward returns, before layer 1's runs."""
    t = random_tensor(rng, c=4)
    h2d = random_h2d(rng, t.n)
    ctxs = [Ctx(), Ctx()]
    mid = nrconv(t, h2d, KernelWeights.initialize(4, 4, rng), RELU, ctxs[0])
    middle = weakref.ref(mid.features)
    grad = np.ones_like(nrconv(mid, h2d, KernelWeights.initialize(4, 4, rng), RELU,
                               ctxs[1]).features)
    del mid
    assert middle() is not None   # held by layer 2's tape
    grad = nrconv_backward(ctxs[1], grad)
    assert middle() is None
    assert nrconv_backward(ctxs[0], grad).shape == t.features.shape


@pytest.mark.parametrize("n", [0, 1, 1024, 1025, 10_243])
def test_spans_cover_the_rows_in_order_in_pieces_of_512_to_1024_rows(n):
    spans = _spans(n)
    assert PRODUCT_ROWS == 1024 and type(spans) is list
    assert len(spans) == -(-n // PRODUCT_ROWS)
    bounds = [0] + [hi for _, hi in spans]
    assert [lo for lo, _ in spans] == bounds[:-1] and bounds[-1] == n
    for lo, hi in spans:
        assert 0 < hi - lo <= PRODUCT_ROWS
        assert n <= PRODUCT_ROWS or hi - lo >= PRODUCT_ROWS // 2


def _span_case():
    """2,500 sites on even x and y (any z) and their h2d, with 10% invalid.
    Some non-centre offset of every op's pair map has over PRODUCT_ROWS pairs,
    so each product of the step runs over several spans: the 3D map along z,
    the downsample's (0, 0, dz) offsets, and the 2D cells (about 2 rows each)
    along u."""
    rng = SeededRng(3)
    a, depth = 12, 24
    flat = rng.gen.choice(a * a * depth, size=2500, replace=False)
    idx = np.stack([2 * (flat // (a * depth)), 2 * (flat // depth % a), flat % depth], axis=1)
    spec = VoxelGridSpec((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (2 * a, 2 * a, depth))
    t = SparseVoxelTensor(idx, rng.gen.normal(size=(len(idx), 3)), spec)
    h2d = np.stack([idx[:, 0] // 2 * (depth // 2) + idx[:, 2] // 2, idx[:, 1] // 2], axis=1)
    h2d[rng.gen.random(t.n) < 0.1] = INVALID_2D
    down = t.pairs_at(2 * t.downsampled_sites()[1], OFFSETS_3D)
    for pairs in (t.kernel_map(), t.cell_map(h2d)[3], down):
        assert max(len(o) for o, i in pairs if o is not i) > PRODUCT_ROWS
    return t, h2d


def _oracle_slope(dense, t, weights, V, W, G, eps=1e-6) -> float:
    """d/ds of sum(G * dense(features + s V, parameters + s W)) at s = 0, by a
    central difference of the dense oracle: exact up to rounding for the
    bilinear conv, and for the pooling while no cell max changes hands."""
    def loss(s):
        w = copy.deepcopy(weights)
        for (_, arr, _), d in zip(w.params(), W):
            arr += s * d
        return np.sum(G * dense(t.with_features(t.features + s * V), w))
    return (loss(eps) - loss(-eps)) / (2 * eps)


DENSE = {
    "conv3d": lambda t, h2d, w: dense_submanifold_conv3d(t, w, LEAKY),
    "conv2d": lambda t, h2d, w: dense_conv2d_branch(t, h2d, w, LEAKY),
    "nrconv": lambda t, h2d, w: dense_nrconv(t, h2d, w, LEAKY),
    "spconv": lambda t, h2d, w: dense_spconv_downsample(t, w, LEAKY)[1],
}


@pytest.mark.parametrize("op", list(DENSE))
def test_ops_over_several_row_spans_match_the_oracle_and_a_single_span(op, monkeypatch):
    """Forward and backward over several PRODUCT_ROWS spans agree with the
    dense oracle (the backward through one random direction of features and
    parameters) within the 1e-5 bound, and with one span over all rows
    within 1e-12."""
    t, h2d = _span_case()
    rng = SeededRng(8)
    weights = (SpconvWeights if op == "spconv" else KernelWeights).initialize(3, 4, rng)
    for name, arr, _ in weights.params():
        if name.startswith("bias"):
            arr[...] = rng.gen.normal(size=arr.shape)
    want = DENSE[op](t, h2d, weights)
    G = rng.gen.normal(size=want.shape)

    def run():
        weights.zero_grads()
        ctx = Ctx()
        out = _FORWARD[op](t, h2d, weights, LEAKY, ctx)
        return [out, _BACKWARD[op](ctx, G), *(g.copy() for _, _, g in weights.params())]

    spans = run()
    assert rel_err(spans[0], want) < 1e-5
    V = rng.gen.normal(size=t.features.shape)
    W = [rng.gen.normal(size=arr.shape) for _, arr, _ in weights.params()]
    slope = _oracle_slope(lambda t, w: DENSE[op](t, h2d, w), t, weights, V, W, G)
    got = np.sum(spans[1] * V) + sum(np.sum(g * d) for g, d in zip(spans[2:], W))
    assert abs(got - slope) <= 1e-5 * max(1.0, abs(slope))
    monkeypatch.setattr(vconv, "PRODUCT_ROWS", 10**9)
    for many, one in zip(spans, run()):
        assert rel_err(many, one) <= 1e-12


def test_nrconv_scratch_does_not_grow_with_the_row_count():
    """Past its (N, C) output, one nrconv call's peak is per-span scratch:
    it grows by under 5% from N = 3,000 to 6,000 sites at one density
    (C = 32, 100 coarse cells, maps built beforehand). An (N, C/2) 2D half
    copied into the output, or a whole-N product, doubles with N."""
    scratch = []
    for extent_y in (20, 40):
        rng = SeededRng(2)
        t = random_tensor(rng, extent=(20, extent_y, 25), occupancy=0.3, c=32)
        h2d = rng.gen.integers(0, 10, size=(t.n, 2))
        kw = KernelWeights.initialize(32, 32, rng)
        t.kernel_map(), t.cell_map(h2d)   # the maps are cached per tensor
        tracemalloc.start()
        try:
            out = nrconv(t, h2d, kw).features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.n == 150 * extent_y and len(t.cell_map(h2d)[1]) == 100
        scratch.append(peak - out.nbytes)
    assert scratch[1] < 1.05 * scratch[0], f"{scratch[0]} -> {scratch[1]} bytes"

"""Sparse convolution forwards against the dense reference implementations."""

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
from virconv.conv import (
    IDENTITY,
    RELU,
    ConvWeights,
    Ctx,
    _pair_conv,
    _pair_conv_backward,
    conv2d_branch_backward,
    nrconv_backward,
    spconv_downsample_backward,
    submanifold_conv3d_backward,
)
from virconv.geometry import INVALID_2D
from virconv.oracle import (
    dense_conv2d_branch,
    dense_nrconv,
    dense_spconv_downsample,
    dense_submanifold_conv3d,
)
from virconv.tensor import ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL
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
            gX = _pair_conv_backward(ctx.data, grad * act.deriv(ctx.data["positive"]))
            runs.append((out, conv.g_w.copy(), conv.g_bias.copy(), gX))
        for fast, indexed in zip(*runs):
            assert np.array_equal(fast, indexed)


def test_ctx_saves_only_the_sign_of_the_pre_activation(rng):
    t = random_tensor(rng, c=3)
    kw, sw = KernelWeights.initialize(3, 4, rng), SpconvWeights.initialize(3, 4, rng)
    ctx3, ctx2, ctxd = Ctx(), Ctx(), Ctx()
    out3 = submanifold_conv3d(t, kw, IDENTITY, ctx3)
    conv2d_branch(t, random_h2d(rng, t.n), kw, IDENTITY, ctx2)
    outd = spconv_downsample(t, sw, IDENTITY, ctxd)
    for ctx, pre in ((ctx3, out3.features), (ctx2, None), (ctxd, outd.features)):
        positive = ctx.data["positive"]
        assert positive.dtype == np.bool_ and "pre" not in ctx.data
        if pre is not None:   # identity: the output is pre itself
            assert np.array_equal(positive, pre > 0)
    pooled_shape = (len(ctx2.data["first"]), kw.c_in)
    assert ctx2.data["positive"].shape == (len(ctx2.data["first"]), kw.c_half)
    # The 2D tape keeps the winners' pass ranks, not a pooled float copy.
    rank = ctx2.data["rank"]
    assert rank.dtype.kind == "u" and rank.shape == pooled_shape
    assert not [key for key, v in ctx2.data.items() if isinstance(v, np.ndarray)
                and v.dtype.kind == "f" and v.shape == pooled_shape]


def test_nrconv_with_and_without_a_ctx_returns_the_same_bytes():
    """The training forward records the pool winners as it pools; it must
    pool exactly as inference does. Features of a few values (signed zeros
    included) tie often, and about four rows share each cell."""
    rng = SeededRng(11)
    t = random_tensor(rng, c=4)
    t = t.with_features(rng.gen.choice([-1.0, -0.0, 0.0, 1.0], size=t.features.shape))
    h2d = random_h2d(rng, t.n, span=6)
    kw = KernelWeights.initialize(4, 6, rng)
    plain = nrconv(t, h2d, kw, IDENTITY).features
    taped = nrconv(t, h2d, kw, IDENTITY, Ctx()).features
    assert plain.tobytes() == taped.tobytes()


# One nrconv forward plus backward needs about 40 bytes per input feature
# value here (N = 2,048 rows, M = 1,382 cells, C_in = C_out = 64): the output
# and the 2D input gradient (8 each), the 3D backward's gradient, gpre and
# per-offset gathers (about 22), and the tape's masks and uint8 rank (about
# 1.5). A pooled float64 copy on the tape (M * C_in * 8, 5.4 more) or an
# int64 winners array breaks the budget.
NRCONV_BYTES_PER_FEATURE_VALUE = 42


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

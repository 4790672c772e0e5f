"""Sparse convolution operators and their backward passes.

Three forward operators:

  * submanifold_conv3d: 3x3x3 convolution evaluated only at occupied sites,
    output sites identical to input sites.
  * conv2d_branch: voxels are grouped by their projected 2D pixel cell,
    max-pooled to one representative per cell, convolved with a 3x3 kernel
    over occupied cells, and the cell output is scattered back to every
    member voxel.
  * nrconv: concatenation [3D branch, 2D branch], each producing half the
    output width.

Plus spconv_downsample, a kernel-3 / stride-2 / padding-1 sparse convolution
whose output sites are the halved input sites.

This module holds only the arithmetic: every site lookup belongs to
SparseVoxelTensor. The 3D branch reads its (output row, input row) pairs
from tensor.kernel_map(), and the 2D branch its grouping of rows by pixel
cell and its cell pairs from tensor.cell_map(h2d). Both maps are cached per
site set (and h2d), so every layer of a block and their backward passes
share one of each. The downsample searches its pairs with
tensor.pairs_at. The 3D branch, the 2D cell conv and the downsample all
run one gather-matmul-scatter loop over their pair map, _pair_conv, and
its backward, _pair_conv_backward. Per offset, every pair map here (3D, 2D
cell, stride-2) is injective in both directions, so scatters are plain
fancy-index accumulation. Within a cell, rows go in rank passes: the k-th
members of all cells form pass k, where no cell repeats, so pooling, its
argmax and the cell sums are one fancy-index update per pass, in row order.

Backward passes are exact: pass a Ctx to a forward call, then call the
matching *_backward with the upstream gradient. Weight gradients accumulate
into the weight object's grad buffers; the input-feature gradient is
returned. All math is float64.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import SeededRng
from .tensor import (
    OFFSETS_3D,
    ORIGIN_MIXED,
    ORIGIN_VIRTUAL,
    SparseVoxelTensor,
    key_rows,
    origin_flags_of,
    padded_keys,
)


@dataclass(frozen=True)
class ActivationSpec:
    """Pointwise nonlinearity: relu, leaky_relu(slope) or identity."""

    kind: str = "relu"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("relu", "leaky_relu", "identity"):
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu" and not (0.0 < self.slope < 1.0):
            raise ValueError("leaky_relu slope must lie in (0, 1)")

    def apply(self, pre):
        if self.kind == "relu":
            return np.maximum(pre, 0.0)
        if self.kind == "leaky_relu":
            return np.where(pre > 0, pre, self.slope * pre)
        return pre

    def deriv(self, pre):
        if self.kind == "relu":
            return (pre > 0).astype(np.float64)
        if self.kind == "leaky_relu":
            return np.where(pre > 0, 1.0, self.slope)
        return np.ones_like(pre)


RELU = ActivationSpec("relu")
IDENTITY = ActivationSpec("identity")


def _glorot(shape, fan_in, fan_out, rng: SeededRng):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.gen.uniform(-bound, bound, size=shape)


@dataclass
class KernelWeights:
    """Parameters of one noise-resistant conv layer: a 27-offset 3D stack and
    a 9-offset 2D stack, each producing half the output width."""

    w3d: np.ndarray       # (27, C_in, C_half)
    bias3d: np.ndarray    # (C_half,)
    w2d: np.ndarray       # (9, C_in, C_half)
    bias2d: np.ndarray    # (C_half,)
    g_w3d: np.ndarray = field(default=None, repr=False)
    g_bias3d: np.ndarray = field(default=None, repr=False)
    g_w2d: np.ndarray = field(default=None, repr=False)
    g_bias2d: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.w3d.shape[0] != 27 or self.w2d.shape[0] != 9:
            raise ValueError("w3d must stack 27 offsets and w2d 9")
        if self.w3d.shape[2] != self.w2d.shape[2]:
            raise ValueError("3D and 2D branches must share the half width")
        if self.g_w3d is None:
            self.g_w3d, self.g_bias3d, self.g_w2d, self.g_bias2d = map(
                np.zeros_like, (self.w3d, self.bias3d, self.w2d, self.bias2d))

    @property
    def c_in(self) -> int:
        return self.w3d.shape[1]

    @property
    def c_half(self) -> int:
        return self.w3d.shape[2]

    @property
    def c_out(self) -> int:
        return 2 * self.c_half

    def zero_grads(self):
        for _, _, grad in self.params():
            grad[:] = 0

    @classmethod
    def initialize(cls, c_in: int, c_out: int, rng: SeededRng) -> "KernelWeights":
        if c_out % 2:
            raise ValueError("c_out must be even: the two branches each emit half")
        ch = c_out // 2
        return cls(
            w3d=_glorot((27, c_in, ch), 27 * c_in, 27 * ch, rng),
            bias3d=np.zeros(ch),
            w2d=_glorot((9, c_in, ch), 9 * c_in, 9 * ch, rng),
            bias2d=np.zeros(ch),
        )

    def params(self):
        """(name, array, grad array) triples, fixed order."""
        return [
            ("w3d", self.w3d, self.g_w3d),
            ("bias3d", self.bias3d, self.g_bias3d),
            ("w2d", self.w2d, self.g_w2d),
            ("bias2d", self.bias2d, self.g_bias2d),
        ]


@dataclass
class SpconvWeights:
    """Parameters of the strided downsampling convolution."""

    w: np.ndarray      # (27, C_in, C_out)
    bias: np.ndarray   # (C_out,)
    g_w: np.ndarray = field(default=None, repr=False)
    g_bias: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.w.shape[0] != 27:
            raise ValueError("w must stack 27 offsets")
        if self.g_w is None:
            self.g_w, self.g_bias = np.zeros_like(self.w), np.zeros_like(self.bias)

    def zero_grads(self):
        for _, _, grad in self.params():
            grad[:] = 0

    @classmethod
    def initialize(cls, c_in: int, c_out: int, rng: SeededRng) -> "SpconvWeights":
        return cls(
            w=_glorot((27, c_in, c_out), 27 * c_in, 27 * c_out, rng),
            bias=np.zeros(c_out),
        )

    def params(self):
        return [("w", self.w, self.g_w), ("bias", self.bias, self.g_bias)]


class Ctx:
    """Saved forward state for a backward pass."""

    def __init__(self):
        self.filled = False
        self.data = {}

    def save(self, **kw):
        self.data.update(kw)
        self.filled = True

    def require(self, op: str) -> dict:
        if not self.filled:
            raise RuntimeError(f"{op} backward called before forward")
        return self.data


def _pair_conv(X: np.ndarray, pairs, w: np.ndarray, bias: np.ndarray,
               n_out: int) -> np.ndarray:
    """Pre-activation (n_out, C_out) of a pair-map convolution: bias plus,
    per offset k, X[in rows] @ w[k] added into the output rows."""
    pre = np.broadcast_to(bias, (n_out, w.shape[2])).copy()
    for k, (out_rows, in_rows) in enumerate(pairs):
        if len(out_rows):
            pre[out_rows] += X[in_rows] @ w[k]
    return pre


def _pair_conv_backward(X: np.ndarray, pairs, w: np.ndarray, g_w: np.ndarray,
                        g_bias: np.ndarray, gpre: np.ndarray) -> np.ndarray:
    """Backward of _pair_conv: accumulates into g_bias and g_w and returns
    the gradient with respect to X."""
    g_bias += gpre.sum(axis=0)
    gX = np.zeros_like(X)
    for k, (out_rows, in_rows) in enumerate(pairs):
        if len(out_rows):
            g_w[k] += X[in_rows].T @ gpre[out_rows]
            gX[in_rows] += gpre[out_rows] @ w[k].T
    return gX


def submanifold_conv3d(tensor: SparseVoxelTensor, weights: KernelWeights,
                       act: ActivationSpec = RELU, ctx: Ctx = None) -> SparseVoxelTensor:
    """3x3x3 convolution over occupied sites only; output sites = input sites."""
    if tensor.width != weights.c_in:
        raise ValueError(
            f"feature width {tensor.width} does not match kernel C_in {weights.c_in}"
        )
    pre = _pair_conv(tensor.features, tensor.kernel_map(), weights.w3d,
                     weights.bias3d, tensor.n)
    out = act.apply(pre)
    if ctx is not None:
        ctx.save(tensor=tensor, weights=weights, act=act, pre=pre)
    return tensor.with_features(out)


def submanifold_conv3d_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    d = ctx.require("submanifold_conv3d")
    tensor, weights, act = d["tensor"], d["weights"], d["act"]
    gpre = grad_out * act.deriv(d["pre"])
    return _pair_conv_backward(tensor.features, tensor.kernel_map(), weights.w3d,
                               weights.g_w3d, weights.g_bias3d, gpre)


def _cell_max(X: np.ndarray, first, passes) -> np.ndarray:
    """(M, C) per-cell channel max of the rows of X, one rank pass at a time."""
    pooled = X[first]
    for rows, cells in passes:
        pooled[cells] = np.maximum(pooled[cells], X[rows])
    return pooled


def _cell_argmax(X: np.ndarray, pooled: np.ndarray, first, passes) -> np.ndarray:
    """(M, C) row of the member that won each per-cell channel max. Passes
    run last to first, each overwriting where its rows hold the max, so the
    first max in row order wins (the tie rule) and every entry is written."""
    winners = np.empty(pooled.shape, dtype=np.int64)
    for rows, cells in reversed(passes):
        won = winners[cells]
        np.copyto(won, rows[:, None], where=X[rows] == pooled[cells])
        winners[cells] = won
    np.copyto(winners, first[:, None], where=X[first] == pooled)
    return winners


def _cell_sum(G: np.ndarray, first, passes) -> np.ndarray:
    """(M, C) per-cell sum of the rows of G, added to 0.0 in row order as
    np.bincount adds."""
    total = 0.0 + G[first]
    for rows, cells in passes:
        total[cells] += G[rows]
    return total


def conv2d_branch(tensor: SparseVoxelTensor, h2d: np.ndarray,
                  weights: KernelWeights, act: ActivationSpec = RELU,
                  ctx: Ctx = None) -> np.ndarray:
    """Image-plane branch: pool per 2D cell, 3x3 conv over cells, scatter back.

    Returns an (N, C_half) feature matrix aligned with the input rows. Voxels
    with an invalid projection receive the empty-neighborhood result
    act(bias).
    """
    if len(h2d) != tensor.n:
        raise ValueError(f"h2d has {len(h2d)} rows for {tensor.n} voxels")
    if tensor.width != weights.c_in:
        raise ValueError(
            f"feature width {tensor.width} does not match kernel C_in {weights.c_in}"
        )
    valid, first, passes, pairs = tensor.cell_map(h2d)
    pooled = _cell_max(tensor.features, first, passes)
    pre = _pair_conv(pooled, pairs, weights.w2d, weights.bias2d, len(first))
    cell_out = act.apply(pre)
    out = np.empty((tensor.n, weights.c_half))
    out[~valid] = act.apply(weights.bias2d[None, :])
    out[first] = cell_out
    for rows, cells in passes:
        out[rows] = cell_out[cells]
    if ctx is not None:
        ctx.save(tensor=tensor, weights=weights, act=act, valid=valid,
                 first=first, passes=passes, pooled=pooled, pre=pre, pairs=pairs)
    return out


def conv2d_branch_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    d = ctx.require("conv2d_branch")
    tensor, weights, act = d["tensor"], d["weights"], d["act"]
    valid, first, passes, pooled = d["valid"], d["first"], d["passes"], d["pooled"]
    X = tensor.features
    gX = np.zeros_like(X)

    # Invalid-projection rows saw act(bias) only.
    g_invalid = grad_out[~valid]
    if len(g_invalid):
        weights.g_bias2d += (
            g_invalid * act.deriv(weights.bias2d[None, :])
        ).sum(axis=0)
    if len(first) == 0:
        return gX

    # The cell output gradient is the sum over member voxels.
    gpre = _cell_sum(grad_out, first, passes) * act.deriv(d["pre"])
    g_pooled = _pair_conv_backward(pooled, d["pairs"], weights.w2d, weights.g_w2d,
                                   weights.g_bias2d, gpre)

    # Route pooled gradients to the argmax member per (cell, channel). A row
    # belongs to one cell, so no (row, channel) target repeats.
    gX[_cell_argmax(X, pooled, first, passes), np.arange(X.shape[1])] += g_pooled
    return gX


def nrconv(tensor: SparseVoxelTensor, h2d: np.ndarray, weights: KernelWeights,
           act: ActivationSpec = RELU, ctx: Ctx = None) -> SparseVoxelTensor:
    """Noise-resistant conv: concatenate [3D branch, 2D branch] features.

    Output sites equal input sites; origin flags carry through.
    """
    ctx3 = Ctx() if ctx is not None else None
    ctx2 = Ctx() if ctx is not None else None
    out3 = submanifold_conv3d(tensor, weights, act, ctx3).features
    out2 = conv2d_branch(tensor, h2d, weights, act, ctx2)
    if ctx is not None:
        ctx.save(ctx3=ctx3, ctx2=ctx2, c_half=weights.c_half)
    return tensor.with_features(np.concatenate([out3, out2], axis=1))


def nrconv_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    d = ctx.require("nrconv")
    ch = d["c_half"]
    g3 = submanifold_conv3d_backward(d["ctx3"], grad_out[:, :ch])
    g2 = conv2d_branch_backward(d["ctx2"], grad_out[:, ch:])
    return g3 + g2


def spconv_downsample(tensor: SparseVoxelTensor, weights: SpconvWeights,
                      act: ActivationSpec = RELU, ctx: Ctx = None) -> SparseVoxelTensor:
    """Kernel-3 / stride-2 / padding-1 convolution onto the halved grid.

    Output sites are the unique floor(index / 2) of the input sites; each
    output accumulates every input inside its receptive field
    {2*out - 1 .. 2*out + 1} per axis. Output spec doubles stride_level.
    """
    if tensor.width != weights.w.shape[1]:
        raise ValueError(
            f"feature width {tensor.width} does not match kernel C_in "
            f"{weights.w.shape[1]}"
        )
    out_spec = tensor.spec.downsampled()
    keys, parent = np.unique(padded_keys(tensor.indices // 2, out_spec.extent),
                             return_inverse=True)
    out_idx = key_rows(keys, out_spec.extent)
    pairs = tensor.pairs_at(2 * out_idx, OFFSETS_3D)
    pre = _pair_conv(tensor.features, pairs, weights.w, weights.bias, len(out_idx))
    out = act.apply(pre)
    flags = None
    if tensor.origin_flags is not None:
        # A coarse voxel's flag is the mean provenance of its finest members.
        is_virtual = (tensor.origin_flags == ORIGIN_VIRTUAL) * 1.0
        is_virtual += (tensor.origin_flags == ORIGIN_MIXED) * 0.5
        flags = origin_flags_of(np.bincount(parent, weights=is_virtual, minlength=len(out_idx))
                                / np.bincount(parent, minlength=len(out_idx)))
    result = SparseVoxelTensor(out_idx, out, out_spec, flags, _validate=False)
    if ctx is not None:
        ctx.save(tensor=tensor, weights=weights, act=act, pre=pre, pairs=pairs)
    return result


def spconv_downsample_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    d = ctx.require("spconv_downsample")
    tensor, weights, act = d["tensor"], d["weights"], d["act"]
    gpre = grad_out * act.deriv(d["pre"])
    return _pair_conv_backward(tensor.features, d["pairs"], weights.w, weights.g_w,
                               weights.g_bias, gpre)

"""Sparse convolution operators and their backward passes.

  * submanifold_conv3d: 3x3x3 convolution at occupied sites only; output
    sites are the input sites.
  * conv2d_branch: voxels are max-pooled per projected 2D pixel cell, a 3x3
    kernel runs over occupied cells, and each cell's output is scattered
    back to its member voxels.
  * nrconv: [3D branch, 2D branch] in one (N, C) output, which the 2D half
    allocates once its cells are freed; the 3D half then fills the left columns.
  * spconv_downsample: kernel-3 / stride-2 / padding-1 convolution whose
    output sites are the halved input sites.

All of them are one layer over different pair maps. A pair map lists, per
kernel offset k, (output rows, input rows); a ConvWeights holds the kernel
stack w (K, C_in, C_out), the bias and their gradients. One step, _pair_conv,
computes act(bias + X[in rows] @ w[k] summed into the output rows), in place,
over row spans of at most PRODUCT_ROWS, so its temporaries do not grow with N.
Each op supplies its map: tensor.kernel_map() for the 3D branch
(KernelWeights.conv3d), the cell pairs of tensor.cell_map(h2d) for the 2D
branch (KernelWeights.conv2d), and tensor.pairs_at(2 * out, OFFSETS_3D) for
the downsample (SpconvWeights, the 27-offset ConvWeights). Every site lookup
belongs to SparseVoxelTensor, which caches both maps per site set (and h2d).
Per offset, every pair map is injective in both directions, so no scatter
needs np.add.at: the forward moves each output row whole, as one void item,
so a column slice can be the output, and the backward gathers with take and
accumulates with fancy indexing. The centre tap of both submanifold maps is
one shared arange on both sides; the step runs it on X directly, without
index arrays, in its place in offset order. Within a cell, rows go in rank
passes: the k-th members of all cells form pass k, where no cell repeats, so
pooling, its winners and the cell sums are one fancy-index update per pass,
in row order.

Backward passes are exact: pass a Ctx to a forward call, then call the
matching *_backward with the upstream gradient. Weight gradients accumulate
into the weights' grad buffers; the input-feature gradient is returned. All
math is float64. A Ctx keeps the forward's features and maps by reference,
plus pre > 0 as packed bits (all ActivationSpec.deriv reads). No Ctx keeps
the pooled features or their winners; the 2D backward pools them again.
A Ctx serves one backward, which empties it, so the tape shrinks as the
backward runs; a second backward on it raises RuntimeError. nrconv_backward's
image half routes into the 3D half's (N, C_in) gradient after the 3D half runs.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import SeededRng
from .tensor import OFFSETS_3D, SparseVoxelTensor

PRODUCT_ROWS = 1024   # most rows per product in the pair step: see _spans


@dataclass(frozen=True)
class ActivationSpec:
    """Pointwise nonlinearity: relu, leaky_relu(slope) or identity; apply takes out=."""

    kind: str = "relu"
    slope: float = 0.01

    def __post_init__(self):
        if self.kind not in ("relu", "leaky_relu", "identity"):
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu" and not (0.0 < self.slope < 1.0):
            raise ValueError("leaky_relu slope must lie in (0, 1)")

    def apply(self, pre, out=None):
        if self.kind == "relu":
            return np.maximum(pre, 0.0, out=out)
        if self.kind == "leaky_relu":   # slope in (0, 1): the larger of pre, slope * pre
            return np.maximum(pre, self.slope * pre, out=out)
        return pre if out is None else np.positive(pre, out=out)

    def deriv(self, pre):
        """float64 derivative at pre. It reads only pre > 0, so pre may be
        that bool mask itself."""
        if self.kind == "relu":
            return (pre > 0).astype(np.float64)
        if self.kind == "leaky_relu":
            return np.where(pre > 0, 1.0, self.slope)
        return np.ones(pre.shape)


RELU = ActivationSpec("relu")
IDENTITY = ActivationSpec("identity")


@dataclass
class ConvWeights:
    """A kernel stack over the K offsets of a pair map, its bias, their grads."""

    w: np.ndarray      # (K, C_in, C_out)
    bias: np.ndarray   # (C_out,)
    g_w: np.ndarray = field(init=False, repr=False)
    g_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.g_w, self.g_bias = np.zeros_like(self.w), np.zeros_like(self.bias)

    @property
    def c_in(self) -> int:
        return self.w.shape[1]

    @property
    def c_out(self) -> int:
        return self.w.shape[2]

    def zero_grads(self):
        for _, _, grad in self.params():
            grad[:] = 0

    @classmethod
    def initialize(cls, k: int, c_in: int, c_out: int, rng: SeededRng) -> "ConvWeights":
        """Glorot-uniform stack (fans k * c_in and k * c_out), zero bias."""
        bound = np.sqrt(6.0 / (k * c_in + k * c_out))
        return cls(w=rng.gen.uniform(-bound, bound, size=(k, c_in, c_out)),
                   bias=np.zeros(c_out))

    def params(self):
        """(name, array, grad array) triples, fixed order."""
        return [("w", self.w, self.g_w), ("bias", self.bias, self.g_bias)]


@dataclass
class KernelWeights:
    """Parameters of one noise-resistant conv layer: a 27-offset 3D stack and
    a 9-offset 2D stack, each producing half the output width."""

    conv3d: ConvWeights   # w (27, C_in, C_half)
    conv2d: ConvWeights   # w (9, C_in, C_half)

    def __post_init__(self):
        if self.conv3d.w.shape[0] != 27 or self.conv2d.w.shape[0] != 9:
            raise ValueError("conv3d must stack 27 offsets and conv2d 9")
        if self.conv3d.c_out != self.conv2d.c_out:
            raise ValueError("3D and 2D branches must share the half width")
        if self.conv3d.c_in != self.conv2d.c_in:
            raise ValueError("3D and 2D branches must share the input width")

    @property
    def c_in(self) -> int:
        return self.conv3d.c_in

    @property
    def c_half(self) -> int:
        return self.conv3d.c_out

    @property
    def c_out(self) -> int:
        return 2 * self.c_half

    def zero_grads(self):
        self.conv3d.zero_grads()
        self.conv2d.zero_grads()

    @classmethod
    def initialize(cls, c_in: int, c_out: int, rng: SeededRng) -> "KernelWeights":
        if c_out % 2:
            raise ValueError("c_out must be even: the two branches each emit half")
        return cls(ConvWeights.initialize(27, c_in, c_out // 2, rng),
                   ConvWeights.initialize(9, c_in, c_out // 2, rng))

    def params(self):
        """(name, array, grad array) triples: w3d, bias3d, w2d, bias2d."""
        return [(name + dim, arr, grad)
                for dim, conv in (("3d", self.conv3d), ("2d", self.conv2d))
                for name, arr, grad in conv.params()]


class SpconvWeights(ConvWeights):
    """The strided downsampling convolution's 27-offset stack."""

    def __post_init__(self):
        if self.w.shape[0] != 27:
            raise ValueError("w must stack 27 offsets")
        super().__post_init__()

    @classmethod
    def initialize(cls, c_in: int, c_out: int, rng: SeededRng) -> "SpconvWeights":
        return super().initialize(27, c_in, c_out, rng)


class Ctx:
    """Saved forward state for one backward pass."""

    def __init__(self):
        self.data = {}

    def save(self, **kw):
        self.data.update(kw)

    def require(self, op: str) -> dict:
        """The saved state, handed over once: the Ctx is left empty."""
        if not self.data:
            raise RuntimeError(f"{op} backward called before forward or twice")
        data, self.data = self.data, {}
        return data


def _check_width(tensor: SparseVoxelTensor, conv: ConvWeights):
    if tensor.width != conv.c_in:
        raise ValueError(f"feature width {tensor.width} does not match kernel C_in {conv.c_in}")


def _row_items(a: np.ndarray) -> np.ndarray:
    """(n,) view of an (n, C) array with contiguous rows (a column slice works),
    one void item per row, so fancy indexing moves whole rows; width 0 has none."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0] if a.shape[1] else a


def _spans(n: int) -> list:
    """ceil(n / PRODUCT_ROWS) [lo, hi) spans covering [0, n) in order, equal to
    within one row, so none is under PRODUCT_ROWS / 2 once n exceeds it: with
    OpenBLAS, a row's bits were seen to change only in products of <= 37 rows."""
    parts = -(-n // PRODUCT_ROWS)
    return [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def _pair_conv(X: np.ndarray, pairs, conv: ConvWeights, n_out: int,
               act: ActivationSpec, ctx: Ctx = None, out=None) -> np.ndarray:
    """act(pre) of a pair-map convolution, where the (n_out, C_out) pre is
    bias plus, per offset k and _spans span, X[in rows] @ w[k] added into the
    output rows. A pair whose out rows are its in rows (one shared arange, the
    centre of a submanifold map) adds X @ w[k] without gather or scatter. pre
    is out if given, else new; act runs on it in place. Given a ctx, saves X,
    pairs, conv, act and pre > 0 as packed bits for the backward."""
    pre = np.empty((n_out, conv.c_out)) if out is None else out
    pre[...] = conv.bias
    rows = _row_items(pre)   # gathers and scatters move whole rows as void items
    for k, (out_rows, in_rows) in enumerate(pairs):
        for lo, hi in _spans(len(out_rows)):
            if out_rows is in_rows:
                pre[lo:hi] += X[lo:hi] @ conv.w[k]
                continue
            part = X.take(in_rows[lo:hi], axis=0) @ conv.w[k]
            part += rows[out_rows[lo:hi]].view(pre.dtype).reshape(part.shape)   # = pre + part
            rows[out_rows[lo:hi]] = _row_items(part)
            del part   # before the next span's gather
    if ctx is not None:
        ctx.save(X=X, pairs=pairs, conv=conv, act=act, positive=np.packbits(pre > 0, axis=None))
    return act.apply(pre, out=pre)


def _pair_conv_backward(saved: dict, grad_out: np.ndarray) -> np.ndarray:
    """Backward of _pair_conv from its output gradient, through the saved
    act: accumulates into conv.g_bias and conv.g_w, returns the X gradient."""
    X, conv = saved["X"], saved["conv"]
    positive = np.unpackbits(saved["positive"], count=grad_out.size).reshape(grad_out.shape)
    gpre = grad_out * saved["act"].deriv(positive)
    del positive
    conv.g_bias += gpre.sum(axis=0)
    gX = np.zeros_like(X)
    for k, (out_rows, in_rows) in enumerate(saved["pairs"]):
        if out_rows is in_rows:
            conv.g_w[k] += X.T @ gpre
            for lo, hi in _spans(len(X)):
                gX[lo:hi] += gpre[lo:hi] @ conv.w[k].T
        elif len(out_rows):
            g = gpre.take(out_rows, axis=0)
            conv.g_w[k] += X.take(in_rows, axis=0).T @ g
            for lo, hi in _spans(len(g)):
                gX[in_rows[lo:hi]] += g[lo:hi] @ conv.w[k].T
            del g
    return gX


def submanifold_conv3d(tensor: SparseVoxelTensor, weights: KernelWeights,
                       act: ActivationSpec = RELU, ctx: Ctx = None, out=None) -> SparseVoxelTensor:
    """3x3x3 convolution over occupied sites only; output sites = input sites.
    Given an (N, >= C_half) out, it fills its first C_half columns and is the output."""
    _check_width(tensor, weights.conv3d)
    half = _pair_conv(tensor.features, tensor.kernel_map(), weights.conv3d, tensor.n, act,
                      ctx, None if out is None else out[:, :weights.c_half])
    return tensor.with_features(half if out is None else out)


def submanifold_conv3d_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    return _pair_conv_backward(ctx.require("submanifold_conv3d"), grad_out)


def _cell_max(X: np.ndarray, first, passes, rank: np.ndarray = None) -> np.ndarray:
    """(M, C) per-cell channel max of the rows of X, one rank pass at a time.
    Given a zeroed rank, fills it with the pass whose row last raised each
    max strictly (0 for first), so the first max in row order wins (the tie rule)."""
    pooled = X.take(first, axis=0)
    for p, (rows, cells) in enumerate(passes, 1):
        old, new = pooled.take(cells, axis=0), X.take(rows, axis=0)
        if rank is not None:
            won = np.where(new > old, p, rank.take(cells, axis=0))
            _row_items(rank)[cells] = _row_items(won)
        _row_items(pooled)[cells] = _row_items(np.maximum(old, new, out=old))
    return pooled


def _cell_sum(G: np.ndarray, first, passes) -> np.ndarray:
    """(M, C) per-cell sum of the rows of G, added to 0.0 in row order as
    np.bincount adds."""
    total = 0.0 + G[first]
    for rows, cells in passes:
        total[cells] += G[rows]
    return total


def conv2d_branch(tensor: SparseVoxelTensor, h2d: np.ndarray,
                  weights: KernelWeights, act: ActivationSpec = RELU,
                  ctx: Ctx = None, width: int = None) -> np.ndarray:
    """Image-plane branch: pool per 2D cell, 3x3 conv over cells, scatter back.

    Returns an (N, C_half) feature matrix aligned with the input rows; given
    width, an (N, width) one, allocated after the pooled cells are freed, with
    the branch in its last C_half columns. Voxels with an invalid projection
    receive the empty-neighborhood result act(bias).
    """
    if len(h2d) != tensor.n:
        raise ValueError(f"h2d has {len(h2d)} rows for {tensor.n} voxels")
    conv = weights.conv2d
    _check_width(tensor, conv)
    valid, first, passes, pairs = tensor.cell_map(h2d)
    cell_out = _pair_conv(_cell_max(tensor.features, first, passes), pairs, conv,
                          len(first), act, ctx)
    if ctx is not None:   # not pooled: the backward pools the features again
        ctx.save(tensor=tensor, valid=valid, first=first, passes=passes, X=None)
    out = np.empty((tensor.n, width or conv.c_out))
    slots, items = _row_items(out[:, out.shape[1] - conv.c_out:]), _row_items(cell_out)
    slots[~valid] = _row_items(act.apply(conv.bias[None, :]))
    slots[first] = items
    for rows, cells in passes:
        slots[rows] = items[cells]
    return out


def conv2d_branch_backward(ctx: Ctx, grad_out: np.ndarray, deferred: bool = False):
    """The X gradient; given deferred, route(gX) instead, which adds it into
    an (N, C_in) gX in place with the bits of gX += (the X gradient)."""
    d = ctx.require("conv2d_branch")
    conv, act, X = d["conv"], d["act"], d["tensor"].features
    valid, first, passes = d["valid"], d["first"], d["passes"]

    # Invalid-projection rows saw act(bias) only.
    conv.g_bias += (grad_out[~valid] * act.deriv(conv.bias[None, :])).sum(axis=0)

    # The cell output gradient is the sum over member voxels; the re-pool fills rank.
    rank = np.zeros((len(first), X.shape[1]), np.min_scalar_type(len(passes)))
    g_pooled = _pair_conv_backward(dict(d, X=_cell_max(X, first, passes, rank)),
                                   _cell_sum(grad_out, first, passes))

    # Route pooled gradients, pass by pass, to the member whose pass the
    # rank names per (cell, channel); each row is in one pass, once. No routed
    # value is -0.0 (g_pooled starts from zeros), so only invalid rows need
    # += 0.0 to turn a -0.0 in gX into 0.0, as adding a dense gradient would.
    def route(gX):
        gX[~valid] += 0.0
        for p, (rows, cells) in enumerate([(first, np.arange(len(first))), *passes]):
            for lo, hi in _spans(len(rows)):
                c = cells[lo:hi]
                gX[rows[lo:hi]] += np.where(rank.take(c, axis=0) == p,
                                            g_pooled.take(c, axis=0), 0.0)
        return gX
    return route if deferred else route(np.zeros_like(X))


def nrconv(tensor: SparseVoxelTensor, h2d: np.ndarray, weights: KernelWeights,
           act: ActivationSpec = RELU, ctx: Ctx = None) -> SparseVoxelTensor:
    """Noise-resistant conv: [3D branch, 2D branch] features in one array.

    The 2D branch runs first, as in nrconv_backward: it allocates the (N, C)
    output once its pooled cells are freed and scatters its rows into the right
    columns; the 3D branch then fills the left columns in place. A ctx keeps
    one Ctx per branch, each with its packed signs. Output sites equal input
    sites; flags carry through.
    """
    ctx3, ctx2 = (Ctx(), Ctx()) if ctx is not None else (None, None)
    out = conv2d_branch(tensor, h2d, weights, act, ctx2, weights.c_out)
    if ctx is not None:
        ctx.save(ctx3=ctx3, ctx2=ctx2, c_half=weights.c_half)
    return submanifold_conv3d(tensor, weights, act, ctx3, out)


def nrconv_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    d = ctx.require("nrconv")
    ch = d["c_half"]
    route2 = conv2d_branch_backward(d.pop("ctx2"), grad_out[:, ch:], deferred=True)
    return route2(submanifold_conv3d_backward(d["ctx3"], grad_out[:, :ch]))


def spconv_downsample(tensor: SparseVoxelTensor, weights: SpconvWeights,
                      act: ActivationSpec = RELU, ctx: Ctx = None) -> SparseVoxelTensor:
    """Kernel-3 / stride-2 / padding-1 convolution onto the halved grid.

    Output sites are the unique floor(index / 2) of the input sites, with
    flags, from tensor.downsampled_sites(); each output accumulates every
    input inside its receptive field {2*out - 1 .. 2*out + 1} per axis.
    Output spec doubles stride_level.
    """
    _check_width(tensor, weights)
    out_spec, out_idx, flags = tensor.downsampled_sites()
    pairs = tensor.pairs_at(2 * out_idx, OFFSETS_3D)
    out = _pair_conv(tensor.features, pairs, weights, len(out_idx), act, ctx)
    return SparseVoxelTensor(out_idx, out, out_spec, flags, _validate=False)


def spconv_downsample_backward(ctx: Ctx, grad_out: np.ndarray) -> np.ndarray:
    return _pair_conv_backward(ctx.require("spconv_downsample"), grad_out)

"""Brute-force reference implementations and the finite-difference checker.

Everything here is written the slow, obvious way: per-site scans over all
kernel offsets with an independently built coordinate dictionary. These
references share no gather machinery with the fast path in conv.py; they
exist to check it.
"""

import numpy as np

from .conv import (
    Ctx,
    KernelWeights,
    SpconvWeights,
    conv2d_branch,
    conv2d_branch_backward,
    nrconv,
    nrconv_backward,
    spconv_downsample,
    spconv_downsample_backward,
    submanifold_conv3d,
    submanifold_conv3d_backward,
)
from .geometry import INVALID_2D
from .tensor import SparseVoxelTensor

# Offset enumeration order must match conv.py's kernel stacking: lexicographic
# over (dz, dy, dx) in 3D and (dv, du) in 2D.
_OFFS_3D = [(dx, dy, dz) for dz in (-1, 0, 1) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
_OFFS_2D = [(du, dv) for dv in (-1, 0, 1) for du in (-1, 0, 1)]


def dense_submanifold_conv3d(tensor, weights: KernelWeights, act):
    """Per-site offset scan over a freshly built coordinate dict."""
    table = {tuple(ix): r for r, ix in enumerate(tensor.indices)}
    X = tensor.features
    out = np.zeros((tensor.n, weights.c_half))
    for r, ix in enumerate(tensor.indices):
        acc = weights.conv3d.bias.copy()
        for k, (dx, dy, dz) in enumerate(_OFFS_3D):
            nb = (ix[0] + dx, ix[1] + dy, ix[2] + dz)
            j = table.get(nb)
            if j is not None:
                acc = acc + X[j] @ weights.conv3d.w[k]
        out[r] = act.apply(acc)
    return out


def dense_conv2d_branch(tensor, h2d, weights: KernelWeights, act):
    """Pool by cell with python max, scan 9 offsets per cell, scatter."""
    X = tensor.features
    cells = {}
    for r in range(tensor.n):
        if h2d[r, 0] == INVALID_2D:
            continue
        cells.setdefault((int(h2d[r, 0]), int(h2d[r, 1])), []).append(r)
    pooled = {
        c: np.max(X[rows], axis=0) for c, rows in cells.items()
    }
    cell_out = {}
    for c in cells:
        acc = weights.conv2d.bias.copy()
        for k, (du, dv) in enumerate(_OFFS_2D):
            nb = (c[0] + du, c[1] + dv)
            if nb in pooled:
                acc = acc + pooled[nb] @ weights.conv2d.w[k]
        cell_out[c] = act.apply(acc)
    out = np.empty((tensor.n, weights.c_half))
    fallback = act.apply(weights.conv2d.bias.copy())
    for r in range(tensor.n):
        if h2d[r, 0] == INVALID_2D:
            out[r] = fallback
        else:
            out[r] = cell_out[(int(h2d[r, 0]), int(h2d[r, 1]))]
    return out


def dense_nrconv(tensor, h2d, weights, act):
    return np.concatenate(
        [
            dense_submanifold_conv3d(tensor, weights, act),
            dense_conv2d_branch(tensor, h2d, weights, act),
        ],
        axis=1,
    )


def dense_spconv_downsample(tensor, weights: SpconvWeights, act):
    """Stride-2 conv: per output site, scan its 3x3x3 receptive field."""
    table = {tuple(ix): r for r, ix in enumerate(tensor.indices)}
    X = tensor.features
    out_sites = sorted({tuple(ix // 2) for ix in tensor.indices})
    c_out = weights.w.shape[2]
    out = np.zeros((len(out_sites), c_out))
    for r, o in enumerate(out_sites):
        acc = weights.bias.copy()
        for k, (dx, dy, dz) in enumerate(_OFFS_3D):
            src = (2 * o[0] + dx, 2 * o[1] + dy, 2 * o[2] + dz)
            j = table.get(src)
            if j is not None:
                acc = acc + X[j] @ weights.w[k]
        out[r] = act.apply(acc)
    return np.array(out_sites, dtype=np.int64), out


def neighbors_3d_bruteforce(tensor: SparseVoxelTensor, row: int):
    """Exhaustive 27-offset scan against a linear search over all rows."""
    found = []
    base = tensor.indices[row]
    for dx, dy, dz in _OFFS_3D:
        probe = (base[0] + dx, base[1] + dy, base[2] + dz)
        for j, ix in enumerate(tensor.indices):
            if tuple(ix) == probe:
                found.append(((dx, dy, dz), j))
                break
    return found


# ---------------------------------------------------------------------------
# Finite-difference gradient checking

# Share of the probes that must be compared for a check to count.
MIN_CHECKED_SHARE = 0.9
GRAD_TOL = 1e-4   # the largest relative error a compared probe may show

# Central-difference step applied to each probed parameter or feature.
FD_STEP = 1e-4

_FORWARD = {
    "conv3d": lambda t, h2d, w, act, ctx=None: submanifold_conv3d(t, w, act, ctx).features,
    "conv2d": lambda t, h2d, w, act, ctx=None: conv2d_branch(t, h2d, w, act, ctx),
    "nrconv": lambda t, h2d, w, act, ctx=None: nrconv(t, h2d, w, act, ctx).features,
    "spconv": lambda t, h2d, w, act, ctx=None: spconv_downsample(t, w, act, ctx).features,
}
_BACKWARD = {
    "conv3d": submanifold_conv3d_backward,
    "conv2d": conv2d_branch_backward,
    "nrconv": nrconv_backward,
    "spconv": spconv_downsample_backward,
}


def gradcheck(op: str, tensor, h2d, weights, act, rng, num_probes=100):
    """Compare analytic gradients against central finite differences of
    step FD_STEP.

    The scalar loss is the sum of all outputs. Probes num_probes randomly
    chosen parameters (weights, biases, and input features). Returns
    (max_err, checked, skipped): the max relative error over the compared
    probes, where relative means |analytic - fd| / max(1, |fd|), and how many
    probes were compared and skipped. A caller must not read max_err as a
    pass unless checked is at least MIN_CHECKED_SHARE of the probes.

    Probes that straddle a non-differentiable point (an activation kink or a
    pooling argmax switch) are detected by comparing the forward and backward
    one-sided differences and skipped: a finite difference is not an
    estimate of the derivative there, so any comparison would be meaningless.
    """
    forward, backward = _FORWARD[op], _BACKWARD[op]
    weights.zero_grads()
    ctx = Ctx()
    out = forward(tensor, h2d, weights, act, ctx)
    gX = backward(ctx, np.ones_like(out))
    analytic = {name: g.copy() for name, _, g in weights.params()}
    analytic["features"] = gX

    slots = []
    for name, arr, _ in weights.params():
        slots += [(name, i) for i in range(arr.size)]
    slots += [("features", i) for i in range(tensor.features.size)]
    order = rng.gen.permutation(len(slots))[: min(num_probes, len(slots))]

    feats = tensor.features.copy()
    arrays = {name: arr for name, arr, _ in weights.params()}
    arrays["features"] = feats

    def loss_at(name, flat, value):
        arr = arrays[name]
        base = arr.ravel()[flat]
        arr.ravel()[flat] = value
        probed = tensor.with_features(feats.copy()) if name == "features" else tensor
        out = forward(probed, h2d, weights, act).sum()
        arr.ravel()[flat] = base
        return out

    f0 = forward(tensor, h2d, weights, act).sum()   # loss_at restores every value
    max_err, checked, skipped = 0.0, 0, 0
    for s in order:
        name, flat = slots[s]
        base = arrays[name].ravel()[flat]
        f_plus = loss_at(name, flat, base + FD_STEP)
        f_minus = loss_at(name, flat, base - FD_STEP)
        fd = (f_plus - f_minus) / (2 * FD_STEP)
        # One-sided slopes disagree exactly when the probe interval contains
        # a kink (including a kink sitting at the base point itself, which a
        # central difference alone cannot see); skip such probes.
        fwd = (f_plus - f0) / FD_STEP
        bwd = (f0 - f_minus) / FD_STEP
        if abs(fwd - bwd) / max(1.0, abs(fd)) > 1e-5:
            skipped += 1
            continue
        an = analytic[name].ravel()[flat]
        err = abs(an - fd) / max(1.0, abs(fd))
        max_err = max(max_err, err)
        checked += 1
    return max_err, checked, skipped

"""The sparse convolutions against slow-but-obvious dense references.

Three operators:
  * submanifold 3D conv: output sites == input sites, 3x3x3 neighborhoods.
  * image-plane branch: voxels that project to the same pixel cell are
    max-pooled, a 3x3 conv runs over occupied cells, and the result is
    scattered back to every member voxel.
  * the two-branch operator concatenates both halves.

Run:  python3 demos/03_convolution_vs_reference.py
"""

import numpy as np

from virconv import ActivationSpec, KernelWeights, SeededRng, nrconv
from virconv.conv import Ctx, nrconv_backward
from virconv.oracle import dense_nrconv, gradcheck
from virconv.tensor import SparseVoxelTensor, VoxelGridSpec

rng = SeededRng(3)
spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(0.2, 0.2, 0.2),
                     extent=(12, 12, 12))
total = 12 ** 3
flat = rng.gen.choice(total, size=int(0.3 * total), replace=False)
idx = np.stack([flat // 144, (flat // 12) % 12, flat % 12], axis=1)
feats = rng.gen.normal(size=(len(idx), 4))
tensor = SparseVoxelTensor(idx, feats, spec)

# Pretend projection: collapse to 4x4 pixel cells.
h2d = np.stack([idx[:, 0] // 3, idx[:, 1] // 3], axis=1)

weights = KernelWeights.initialize(4, 8, rng)
act = ActivationSpec("leaky_relu", 0.1)

out = nrconv(tensor, h2d, weights, act)
ref = dense_nrconv(tensor, h2d, weights, act)
print(f"{tensor.n} voxels, 4 -> 8 channels (4 from 3D half, 4 from image half)")
print(f"max |sparse - dense reference| = {np.abs(out.features - ref).max():.2e}")
print(f"output sites identical to input sites: {np.array_equal(out.indices, tensor.indices)}")

# The backward pass is exact too; check it against finite differences.
err, checked, skipped = gradcheck("nrconv", tensor, h2d, weights, act, rng, num_probes=50)
print(f"finite-difference gradient check, 50 probes: max rel err {err:.2e} "
      f"over {checked} compared ({skipped} skipped at a kink)")

# Gradients flow through explicit contexts, no framework required.
ctx = Ctx()
out = nrconv(tensor, h2d, weights, act, ctx)
weights.zero_grads()
grad_in = nrconv_backward(ctx, np.ones_like(out.features))
print(f"input gradient shape {grad_in.shape}, "
      f"kernel gradient norm {np.linalg.norm(weights.conv3d.g_w):.3f}")

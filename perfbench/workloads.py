"""The three benchmark workloads: scene set-up and one frame each.

A frame is one call of the backbone on a fixed fused cloud. Every frame of a
run starts from a fresh frame RNG, so every frame computes the same output and
each one can be checked against the same committed reference.

The training frame is composed here from the public op forwards (with `Ctx`)
and their `*_backward` calls. Every program op is looked up as a module
attribute (`vnet.nrconv`, `vconv.nrconv_backward`, ...), and the step's own
glue is reached through this module's globals, so a tracer that replaces
those attributes sees every call.
"""

from dataclasses import dataclass

import numpy as np

from virconv import conv as vconv
from virconv import net as vnet
from virconv.conv import RELU, Ctx
from virconv.geometry import AugmentationRecord, default_grid_spec
from virconv.rng import SeededRng
from virconv.scene import SyntheticSceneSpec, generate_scene, synthetic_calibration
from virconv.stvd import StvdConfig

# The acceptance c4 scene: ~400k points, 22.4k voxels, 5.5k after input StVD.
DENSE_SCENE = SyntheticSceneSpec(num_objects=10, x_range=(7.0, 28.0),
                                 y_range=(-14.0, 14.0), virtual_multiplier=8.0,
                                 noise_magnitude=1.5)
DEFAULT_SCENE = SyntheticSceneSpec()

# --seed picks one of VARIANTS weight / discard-RNG / loss seeds. The scene
# stays fixed, so every seed costs the same work and the reference file holds
# one entry per variant.
VARIANTS = 4


@dataclass(frozen=True)
class Workload:
    scene: SyntheticSceneSpec
    scene_seed: int
    input_stvd: bool
    training: bool


WORKLOADS = {
    # Voxelize is ~25% of the frame: geometry changes show here.
    "infer_dense_stvd": Workload(DENSE_SCENE, 42, input_stvd=True, training=False),
    # Conv is ~95% of the frame; voxelize changes should not show.
    "infer_default_full": Workload(DEFAULT_SCENE, 0, input_stvd=False, training=False),
    # The only workload that runs backward code.
    "train_default_stvd": Workload(DEFAULT_SCENE, 0, input_stvd=True, training=True),
}


@dataclass
class FrameOutput:
    levels: list               # per-level SparseVoxelTensor
    grads: dict = None         # parameter name -> gradient (training only)
    input_grad: np.ndarray = None  # gradient w.r.t. the block-1 input features


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def site_hash(tensor, salt: int) -> np.ndarray:
    """(N, C) uint64 hash of (site, channel, salt); independent of row order."""
    keys = tensor.linear_keys().astype(np.uint64)
    c = np.arange(tensor.width, dtype=np.uint64)
    return _mix64(keys[:, None] * np.uint64(1 << 10) + c + np.uint64(salt) * np.uint64(1 << 40))


def loss_grad(level, salt: int) -> np.ndarray:
    """dL/dF for L = sum <G, F> with G uniform in [-1, 1), fixed by site."""
    h = site_hash(level, salt)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 / (1 << 53)) - 1.0


def zero_grads(weights):
    for bw in weights.blocks:
        for kw in bw.nrconvs:
            kw.zero_grads()
        if bw.down is not None:
            bw.down.zero_grads()


def scatter_rows(full, part, grad):
    """Gradient over `full`'s rows from a gradient over its row subset `part`."""
    out = np.zeros((full.n, grad.shape[1]))
    out[full.find_rows(part.indices)] = grad
    return out


def block_forward(index, tensor, provider, spec, bw, rng):
    """One training block as virconv_block runs it, keeping each op's Ctx.

    `index` (0-based) names the block for the tracer."""
    kept = vnet.layer_stvd(tensor, spec.layer_stvd_rate, rng, True)
    h2d = provider(kept) if kept.n else np.zeros((0, 2), np.int64)
    out, ctxs, dctx = kept, [], None
    for kw in bw.nrconvs:
        ctxs.append(Ctx())
        out = vnet.nrconv(out, h2d, kw, RELU, ctxs[-1])
    if spec.downsample:
        dctx = Ctx()
        out = vnet.spconv_downsample(out, bw.down, RELU, dctx)
    return out, (tensor, kept, ctxs, dctx)


def block_backward(index, tape, grad):
    """Gradient w.r.t. the block's input rows (before layer StVD).

    `index` (0-based) names the block for the tracer."""
    tensor, kept, ctxs, dctx = tape
    if dctx is not None:
        grad = vconv.spconv_downsample_backward(dctx, grad)
    for ctx in reversed(ctxs):
        grad = vconv.nrconv_backward(ctx, grad)
    return scatter_rows(tensor, kept, grad)


class Frames:
    """Set-up state of one workload and variant; `run()` computes one frame."""

    def __init__(self, name: str, seed: int):
        wl = WORKLOADS[name]
        variant = seed % VARIANTS
        self.workload = wl
        self.variant = variant
        self.frame_seed = 2 * variant + 2
        self.loss_salt = variant
        scene = generate_scene(wl.scene, SeededRng(wl.scene_seed))
        self.cloud = vnet.fuse_early(scene.lidar, scene.virtual)
        self.net = vnet.VirConvNetSpec.default()
        self.weights = vnet.NetWeights.initialize(self.net, SeededRng(2 * variant + 1))
        self.calib = synthetic_calibration()
        self.record = AugmentationRecord.identity()
        self.cfg = StvdConfig()
        self.grid = default_grid_spec()

    def run(self) -> FrameOutput:
        if self.workload.training:
            return self._train_step()
        levels = vnet.virconvnet_forward(
            self.cloud, self.net, self.cfg, self.calib, self.record,
            self.weights, SeededRng(self.frame_seed), training=False,
            grid=self.grid, apply_input_stvd=self.workload.input_stvd)
        return FrameOutput(levels)

    def forward_reference(self) -> list:
        """virconvnet_forward with the training step's inputs; the composed
        forward of `_train_step` must match it bit for bit."""
        return vnet.virconvnet_forward(
            self.cloud, self.net, self.cfg, self.calib, self.record,
            self.weights, SeededRng(self.frame_seed), training=True,
            grid=self.grid, apply_input_stvd=self.workload.input_stvd)

    def _train_step(self) -> FrameOutput:
        zero_grads(self.weights)
        rng = SeededRng(self.frame_seed)
        tensor = vnet.voxelize(self.cloud, self.grid)
        if self.workload.input_stvd and tensor.n:
            tensor = vnet.input_stvd(tensor, self.cfg, rng)
        provider = vnet.make_h2d_provider(self.calib, self.record)
        levels, tapes = [], []
        for i, (spec, bw) in enumerate(zip(self.net.blocks, self.weights.blocks)):
            tensor, tape = block_forward(i, tensor, provider, spec, bw, rng)
            levels.append(tensor)
            tapes.append(tape)
        grad = None
        for i in reversed(range(len(levels))):
            g = loss_grad(levels[i], self.loss_salt)
            grad = block_backward(i, tapes[i], g if grad is None else g + grad)
        grads = {name: g.copy() for name, _, g in self.weights.params()}
        return FrameOutput(levels, grads, grad)

"""Per-voxel noise classification testbed.

A deliberately tiny model: one conv layer (either the two-branch
noise-resistant operator or its 3D-only half-width sibling) followed by a
per-voxel linear head, trained with logistic loss and plain full-batch
gradient descent. Its purpose is to measure how much the image-plane branch
helps at separating displaced boundary points from clean geometry.
"""

from dataclasses import dataclass

import numpy as np

from .conv import (
    ActivationSpec,
    Ctx,
    KernelWeights,
    nrconv,
    nrconv_backward,
    submanifold_conv3d,
    submanifold_conv3d_backward,
)
from .geometry import AugmentationRecord, project_voxels, voxelize
from .rng import SeededRng
from .scene import Scene, SyntheticSceneSpec, synthetic_calibration
from .tensor import VoxelGridSpec, point_keys, site_means

HEAD_NRCONV = "nrconv_head"
HEAD_CONV3D = "conv3d_head"

# Fine isotropic grid.  At this resolution, surfaces past ~30 m project to
# adjacent image pixels but land several voxels apart in 3D, so a 3x3x3
# neighbourhood around a distant voxel is usually empty while its image-plane
# neighbourhood is not.  That is the regime where the image branch has
# information the 3D branch cannot reach.
CLASSIFIER_GRID = VoxelGridSpec(
    origin=(0.0, -40.0, -3.0),
    voxel_size=(0.05, 0.05, 0.05),
    extent=(1408, 1600, 80),
    stride_level=1,
)

# Image cells of a few pixels give the 3x3 cell convolution enough context to
# compare each voxel's depth with its on-image neighbours.
CLASSIFIER_PIXEL_CELL = 3

CLASSIFIER_C_IN = 5     # voxelize's features per voxel
CLASSIFIER_C_MID = 8    # conv features per voxel fed to the linear head
CLASSIFIER_EPOCHS = 120
CLASSIFIER_LR = 0.8


def default_classifier_scene_spec() -> SyntheticSceneSpec:
    """Scene recipe for the noise-classification study: distant objects only.

    Distant surfaces are sparse in 3D at the classifier grid resolution, which
    is exactly where displaced boundary points are hard to tell apart from
    clean-but-isolated voxels without image-plane context.
    """
    return SyntheticSceneSpec(
        num_objects=7,
        x_range=(35.0, 65.0),
        y_range=(-12.0, 12.0),
        virtual_multiplier=1.0,
        boundary_noise_rate=0.4,
        noise_magnitude=1.5,
    )


@dataclass
class VoxelDataset:
    tensor: object       # voxelize's features, coordinates centered by _normalize
    h2d: np.ndarray
    labels: np.ndarray   # bool per voxel: majority of member points displaced


def scene_to_dataset(scene: Scene) -> VoxelDataset:
    """Virtual voxels on CLASSIFIER_GRID with CLASSIFIER_PIXEL_CELL cells."""
    # Only the virtual cloud carries displaced points (real returns would let
    # either head lean on the provenance flag).
    tensor = voxelize(scene.virtual, CLASSIFIER_GRID)
    _, noise = site_means(point_keys(scene.virtual.points, CLASSIFIER_GRID),
                          scene.noise_labels[:, None], CLASSIFIER_GRID)
    labels = noise[:, 0] > 0.5
    h2d = project_voxels(tensor, AugmentationRecord.identity(),
                         synthetic_calibration(), pixel_cell=CLASSIFIER_PIXEL_CELL)
    return VoxelDataset(tensor=_normalize(tensor), h2d=h2d, labels=labels)


def _normalize(tensor):
    """Center coordinates so the linear head does not chase absolute position."""
    f = tensor.features.copy()
    f[:, 0] = f[:, 0] / 35.0 - 1.0
    f[:, 1] = f[:, 1] / 40.0
    f[:, 2] = f[:, 2] / 3.0
    return tensor.with_features(f)


class NoiseClassifier:
    """Conv layer to CLASSIFIER_C_MID features + linear head: one logit per voxel."""

    def __init__(self, head: str, rng: SeededRng):
        if head not in (HEAD_NRCONV, HEAD_CONV3D):
            raise ValueError(f"unknown head {head!r}")
        self.head = head
        # The 3D-only variant uses the full width through the 3D stack so the
        # two heads expose the same feature budget to the linear layer.
        c_out = 2 * CLASSIFIER_C_MID if head == HEAD_CONV3D else CLASSIFIER_C_MID
        self.kw = KernelWeights.initialize(CLASSIFIER_C_IN, c_out, rng)
        self.act = ActivationSpec("leaky_relu", 0.1)
        bound = 1.0 / np.sqrt(CLASSIFIER_C_MID)
        self.w_lin = rng.gen.uniform(-bound, bound, CLASSIFIER_C_MID)
        self.b_lin = 0.0

    def logits(self, ds: VoxelDataset, ctx: Ctx = None):
        if self.head == HEAD_NRCONV:
            feats = nrconv(ds.tensor, ds.h2d, self.kw, self.act, ctx).features
        else:
            feats = submanifold_conv3d(ds.tensor, self.kw, self.act, ctx).features
        return feats @ self.w_lin + self.b_lin, feats

    def train_step(self, datasets, lr: float):
        """One full-batch gradient descent step; returns the mean loss."""
        self.kw.zero_grads()
        g_wlin = np.zeros_like(self.w_lin)
        g_blin = 0.0
        total_loss = 0.0
        total_n = 0
        for ds in datasets:
            ctx = Ctx()
            logit, feats = self.logits(ds, ctx)
            y = ds.labels.astype(np.float64)
            p = 1.0 / (1.0 + np.exp(-logit))
            eps = 1e-12
            total_loss += -np.sum(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
            total_n += len(y)
            dlogit = p - y
            g_wlin += feats.T @ dlogit
            g_blin += dlogit.sum()
            dfeats = np.outer(dlogit, self.w_lin)
            if self.head == HEAD_NRCONV:
                nrconv_backward(ctx, dfeats)
            else:
                submanifold_conv3d_backward(ctx, dfeats)
        scale = 1.0 / total_n
        loss = total_loss * scale
        if not np.isfinite(loss):
            raise FloatingPointError(
                "training loss diverged to NaN/Inf; lower the learning rate"
            )
        self.w_lin -= lr * scale * g_wlin
        self.b_lin -= lr * scale * g_blin
        for _, arr, grad in self.kw.params():
            arr -= lr * scale * grad
        return loss

    def scores(self, ds: VoxelDataset) -> np.ndarray:
        logit, _ = self.logits(ds)
        return logit


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC (ties share ranks)."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # A run of ties spans 1-based ranks last - count + 1 .. last; each gets the mean.
    last = np.cumsum(counts)
    ranks = (last - (counts - 1) / 2.0)[inverse]
    return (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def train_noise_classifier(train_ds, eval_ds, head: str, rng: SeededRng) -> dict:
    """Train CLASSIFIER_EPOCHS steps at CLASSIFIER_LR on the VoxelDatasets
    train_ds, report held-out AUC on eval_ds.

    Fully deterministic given the rng seed and datasets.
    """
    model = NoiseClassifier(head=head, rng=rng)
    losses = []
    for _ in range(CLASSIFIER_EPOCHS):
        losses.append(model.train_step(train_ds, CLASSIFIER_LR))
    scores = np.concatenate([model.scores(ds) for ds in eval_ds])
    labels = np.concatenate([ds.labels for ds in eval_ds])
    return {
        "head": head,
        "auc": roc_auc(scores, labels),
        "final_loss": losses[-1],
        "losses": losses,
        "eval_scores": scores,
        "eval_labels": labels,
    }

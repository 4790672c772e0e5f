"""Why the image-plane branch matters: separating noisy virtual points.

Depth completion smears object boundaries: some generated points sit on a
silhouette edge in the image but land meters off the surface in 3D. At fine
voxel resolution, distant surfaces are sparse in 3D (neighboring pixels are
several voxels apart) while staying contiguous on the image plane - so a
purely 3D neighborhood cannot tell a displaced boundary point from a clean
but isolated one, whereas the image-plane neighborhood can.

This trains the same tiny classifier twice - once with the two-branch
operator, once with its 3D-only sibling - and compares held-out AUC.

Run:  python3 demos/05_noise_classifier.py   (takes a few seconds)
"""

from virconv import (
    SeededRng,
    default_classifier_scene_spec,
    scene_to_dataset,
    train_noise_classifier,
)
from virconv.scene import generate_scene

spec = default_classifier_scene_spec()
print(f"scenes: {spec.num_objects} distant boxes at x in {spec.x_range} m, "
      f"{spec.boundary_noise_rate:.0%} of boundary points displaced by up to "
      f"{spec.noise_magnitude} m")

train = [scene_to_dataset(generate_scene(spec, SeededRng(100 + i))) for i in range(4)]
evals = [scene_to_dataset(generate_scene(spec, SeededRng(200 + i))) for i in range(3)]

results = {}
for head in ("nrconv_head", "conv3d_head"):
    r = train_noise_classifier(train, evals, head, rng=SeededRng(7))
    results[head] = r["auc"]
    print(f"{head}: held-out AUC {r['auc']:.4f} (final loss {r['final_loss']:.4f})")

gap = results["nrconv_head"] - results["conv3d_head"]
print(f"\nimage-plane branch advantage: +{gap:.4f} AUC")

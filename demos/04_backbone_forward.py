"""Full backbone forward on a synthetic scene, with and without the discard.

Four blocks at widths 16/32/64/64 and strides 1/2/4/8; the image-plane cell
size follows the stride so coarser levels pool over larger patches.

Run:  python3 demos/04_backbone_forward.py
"""

import time

from virconv import (
    AugmentationRecord,
    NetWeights,
    SeededRng,
    StvdConfig,
    VirConvNetSpec,
    fuse_early,
    virconvnet_forward,
)
from virconv.scene import SyntheticSceneSpec, generate_scene, synthetic_calibration

scene = generate_scene(
    SyntheticSceneSpec(num_objects=10, x_range=(7.0, 28.0), y_range=(-14.0, 14.0),
                       virtual_multiplier=4.0),
    SeededRng(42),
)
cloud = fuse_early(scene.lidar, scene.virtual)
print(f"scene: {scene.lidar.n} LiDAR + {scene.virtual.n} virtual points")

net = VirConvNetSpec.default()
weights = NetWeights.initialize(net, SeededRng(0))
calib = synthetic_calibration()

for use_discard in (False, True):
    stage = {}
    t0 = time.perf_counter()
    levels = virconvnet_forward(
        cloud, net, StvdConfig(), calib, AugmentationRecord.identity(),
        weights, SeededRng(1), apply_input_stvd=use_discard, stage_times=stage,
    )
    ms = (time.perf_counter() - t0) * 1e3
    label = "with input discard" if use_discard else "no discard       "
    shape = " -> ".join(f"{t.n}x{t.width}@{t.spec.stride_level}x" for t in levels)
    print(f"\n{label}: {ms:6.0f} ms total")
    print(f"  levels: {shape}")
    print("  stages: " + ", ".join(f"{k}={v:.0f}ms" for k, v in stage.items()))

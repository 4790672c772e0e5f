"""Sparse voxel convolution engine for fused LiDAR + virtual point clouds."""

from .tensor import (
    ORIGIN_LIDAR,
    ORIGIN_MIXED,
    ORIGIN_VIRTUAL,
    SparseVoxelTensor,
    VoxelGridSpec,
)
from .geometry import (
    AugmentationRecord,
    Calibration,
    SparsePointCloud,
    apply_augmentation,
    apply_inverse,
    default_grid_spec,
    grid_points,
    parse_kitti_calib,
    project_to_image,
    project_voxels,
    read_velodyne_bin,
    read_virtual_bin,
    voxelize,
)
from .stvd import (
    StvdConfig,
    bin_histogram,
    input_stvd,
    layer_stvd,
)
from .conv import (
    ActivationSpec,
    Ctx,
    KernelWeights,
    SpconvWeights,
    conv2d_branch,
    nrconv,
    spconv_downsample,
    submanifold_conv3d,
)
from .net import (
    BlockWeights,
    NetWeights,
    VirConvBlockSpec,
    VirConvNetSpec,
    fuse_early,
    virconv_block,
    virconvnet_forward,
)
from .classifier import (
    NoiseClassifier,
    default_classifier_scene_spec,
    roc_auc,
    scene_to_dataset,
    train_noise_classifier,
)
from .rng import SeededRng

__all__ = [
    "ORIGIN_LIDAR", "ORIGIN_MIXED", "ORIGIN_VIRTUAL",
    "SparseVoxelTensor", "VoxelGridSpec",
    "AugmentationRecord", "Calibration", "SparsePointCloud",
    "apply_augmentation", "apply_inverse", "default_grid_spec", "grid_points",
    "parse_kitti_calib", "project_to_image", "project_voxels",
    "read_velodyne_bin", "read_virtual_bin", "voxelize",
    "StvdConfig", "bin_histogram", "input_stvd", "layer_stvd",
    "ActivationSpec", "Ctx", "KernelWeights", "SpconvWeights",
    "conv2d_branch", "nrconv", "spconv_downsample", "submanifold_conv3d",
    "BlockWeights", "NetWeights", "VirConvBlockSpec", "VirConvNetSpec",
    "fuse_early", "virconv_block", "virconvnet_forward",
    "NoiseClassifier", "default_classifier_scene_spec", "roc_auc",
    "scene_to_dataset", "train_noise_classifier",
    "SeededRng",
]

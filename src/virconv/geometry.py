"""Point clouds, voxelization, calibration, and the voxel-to-pixel chain.

A fused point cloud is an (N, 5) array of [x, y, z, alpha, beta] rows where
alpha is reflectance and beta marks provenance (0 = LiDAR, 1 = virtual;
virtual points always carry alpha = 0).

The projection chain maps voxel index rows to 2D pixel cells: indices are
converted to metric grid points (voxel centers), transformed back through the
recorded global augmentation, and projected through the camera calibration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    INVALID_2D,
    SparseVoxelTensor,
    VoxelGridSpec,
    origin_flags_of,
    point_keys,
    site_means,
)

MIN_CAMERA_DEPTH = 0.1  # meters; projections at or behind this are invalid
MAX_PIXEL_CELL = 2**29  # valid cells lie inside +-this: cell_map's keys stay in int64


class FormatError(ValueError):
    """A file failed to parse (malformed bytes, missing keys)."""


@dataclass
class SparsePointCloud:
    """Fused point cloud; points is (N, 5) finite float64 [x, y, z, alpha, beta]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 5:
            raise ValueError(f"points must be (N, 5), got {pts.shape}")
        if not np.isfinite(pts[:, :4]).all():
            raise ValueError("point coordinates and alpha (reflectance) must be finite")
        beta = pts[:, 4]
        if not np.isin(beta, (0.0, 1.0)).all():
            raise ValueError("beta must be 0 (LiDAR) or 1 (virtual)")
        if (pts[beta == 1.0, 3] != 0.0).any():
            raise ValueError("virtual points must have zero intensity")
        self.points = pts

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    @property
    def alpha(self) -> np.ndarray:
        return self.points[:, 3]

    @property
    def beta(self) -> np.ndarray:
        return self.points[:, 4]

    @classmethod
    def from_xyz(cls, xyz, alpha=None, beta=0.0) -> "SparsePointCloud":
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        n = len(xyz)
        pts = np.zeros((n, 5))
        pts[:, :3] = xyz
        if alpha is not None:
            pts[:, 3] = alpha
        pts[:, 4] = beta
        return cls(pts)

    @classmethod
    def empty(cls) -> "SparsePointCloud":
        return cls(np.zeros((0, 5)))


@dataclass(frozen=True)
class Calibration:
    """Camera projection chain parameters.

    cam_projection: 3x4 intrinsic projection (pixels).
    rect: 3x3 rectification rotation.
    lidar_to_cam: 3x4 rigid transform from LiDAR to camera frame (meters).
    """

    cam_projection: np.ndarray
    rect: np.ndarray
    lidar_to_cam: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.cam_projection, dtype=np.float64).reshape(3, 4)
        R = np.asarray(self.rect, dtype=np.float64).reshape(3, 3)
        Tr = np.asarray(self.lidar_to_cam, dtype=np.float64).reshape(3, 4)
        # Real calibration files store rotations at ~7 significant digits, so
        # their orthonormality error sits around 1e-5; gate well above that.
        for name, rot in (("rect", R), ("lidar_to_cam rotation", Tr[:, :3])):
            if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-4):
                raise ValueError(f"{name} matrix is not orthonormal within 1e-4")
        object.__setattr__(self, "cam_projection", P)
        object.__setattr__(self, "rect", R)
        object.__setattr__(self, "lidar_to_cam", Tr)


@dataclass(frozen=True)
class AugmentationRecord:
    """Global scene transform: scale, then optional y-flip, then z-rotation."""

    rotation_z: float = 0.0
    scale: float = 1.0
    flip_y: bool = False

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not (-math.pi < self.rotation_z <= math.pi):
            raise ValueError("rotation_z must lie in (-pi, pi]")

    @classmethod
    def identity(cls) -> "AugmentationRecord":
        return cls()


def default_grid_spec() -> VoxelGridSpec:
    """KITTI-style detection range: x 0..70.4, y -40..40, z -3..1 m."""
    return VoxelGridSpec(
        origin=(0.0, -40.0, -3.0),
        voxel_size=(0.05, 0.05, 0.1),
        extent=(1408, 1600, 40),
        stride_level=1,
    )


def voxelize(cloud: SparsePointCloud, spec: VoxelGridSpec) -> SparseVoxelTensor:
    """Points into voxels: one row per occupied cell, per-voxel mean features.

    Points outside the spec's spatial range are silently dropped. Feature
    columns are the mean of [x, y, z, alpha, beta] over member points (C=5),
    so the beta column is the virtual-point fraction and sets the origin
    flag (origin_flags_of).
    """
    sites, feats = site_means(point_keys(cloud.points, spec), cloud.points, spec)
    return SparseVoxelTensor(sites, feats, spec, origin_flags_of(feats[:, 4]), _validate=False)


def grid_points(tensor: SparseVoxelTensor) -> np.ndarray:
    """Metric center of each voxel: origin + (index + 0.5) * cell size."""
    origin = np.asarray(tensor.spec.origin, dtype=np.float64)
    return origin + (tensor.indices.astype(np.float64) + 0.5) * tensor.spec.cell_size


def _rot_z(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def apply_augmentation(points, record: AugmentationRecord) -> np.ndarray:
    """Scale, then flip y, then rotate about z."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3) * record.scale
    if record.flip_y:
        pts = pts * np.array([1.0, -1.0, 1.0])
    return pts @ _rot_z(record.rotation_z).T


def apply_inverse(points, record: AugmentationRecord) -> np.ndarray:
    """Exact inverse of apply_augmentation, composed in reverse order."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    pts = pts @ _rot_z(-record.rotation_z).T
    if record.flip_y:
        pts = pts * np.array([1.0, -1.0, 1.0])
    return pts / record.scale


def project_to_image(points, calib: Calibration):
    """Project LiDAR-frame points to pixels.

    Returns (uv, valid): uv is (N, 2) float pixels, valid marks points with
    camera-frame depth above MIN_CAMERA_DEPTH. uv rows for invalid points are
    not meaningful.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    cam = pts @ calib.lidar_to_cam[:, :3].T + calib.lidar_to_cam[:, 3]
    rect = cam @ calib.rect.T
    hom = rect @ calib.cam_projection[:, :3].T + calib.cam_projection[:, 3]
    depth = hom[:, 2]
    valid = depth > MIN_CAMERA_DEPTH
    uv = np.zeros((len(pts), 2))
    safe = np.where(valid, depth, 1.0)
    uv[:, 0] = hom[:, 0] / safe
    uv[:, 1] = hom[:, 1] / safe
    return uv, valid


def project_points_chain(points_current_frame, record, calib, pixel_cell=1):
    """Pixel cells of points given in the (possibly augmented) current frame.

    Transforms the points back to the original sensor frame through the
    recorded augmentation, projects them, and discretizes to pixel cells.
    Invalid projections get the INVALID_2D sentinel in both columns; a valid
    one at or past MAX_PIXEL_CELL (or NaN) on either axis raises ValueError.
    """
    if pixel_cell < 1:
        raise ValueError("pixel_cell must be a positive integer")
    original = apply_inverse(points_current_frame, record)
    uv, valid = project_to_image(original, calib)
    cells = np.where(valid[:, None], np.floor(uv / pixel_cell), 0.0)
    far = ~(np.abs(cells) < MAX_PIXEL_CELL).all(axis=1)   # NaN is far too
    if far.any():
        raise ValueError(f"the calibration projects a point to pixel cell "
                         f"{tuple(cells[far][0].tolist())}, at or past +-2**29 cells")
    cells = cells.astype(np.int64)
    cells[~valid] = INVALID_2D
    return cells


def project_voxels(tensor: SparseVoxelTensor, record: AugmentationRecord,
                   calib: Calibration, pixel_cell: int = 1) -> np.ndarray:
    """2D pixel-cell index per voxel: project(un-augment(grid centers)).

    Returns an (N, 2) int64 array; rows for voxels that fail projection carry
    the INVALID_2D sentinel and are excluded from the 2D branch downstream.
    """
    return project_points_chain(grid_points(tensor), record, calib, pixel_cell)


# ---------------------------------------------------------------------------
# KITTI-format file ingestion


def _read_records(path, width: int) -> np.ndarray:
    """(N, width) float64 rows of little-endian float32 records.

    Raises FormatError on a truncated record or a non-finite value in any
    field.
    """
    raw = np.fromfile(path, dtype="<f4")
    size = 4 * width
    if raw.nbytes % size:
        raise FormatError(
            f"{path}: truncated record at byte offset {raw.nbytes - raw.nbytes % size}"
        )
    rec = raw.reshape(-1, width).astype(np.float64)
    bad = ~np.isfinite(rec).all(axis=1)
    if bad.any():
        raise FormatError(f"{path}: non-finite value in record {np.flatnonzero(bad)[0]}")
    return rec


def read_velodyne_bin(path) -> SparsePointCloud:
    """LiDAR scan: consecutive little-endian float32 [x, y, z, alpha] records."""
    rec = _read_records(path, 4)
    return SparsePointCloud.from_xyz(rec[:, :3], alpha=np.clip(rec[:, 3], 0.0, 1.0))


def read_virtual_bin(path) -> SparsePointCloud:
    """Virtual points: same record layout; alpha ignored, beta forced to 1."""
    return SparsePointCloud.from_xyz(_read_records(path, 4)[:, :3], beta=1.0)


def write_point_bin(path, cloud: SparsePointCloud):
    """Write the 16-byte [x, y, z, alpha] record layout (beta not stored)."""
    rec = cloud.points[:, :4].astype("<f4")
    rec.tofile(path)


def write_fused_bin(path, cloud: SparsePointCloud):
    """Write 20-byte [x, y, z, alpha, beta] float32 records."""
    cloud.points.astype("<f4").tofile(path)


def read_fused_bin(path) -> SparsePointCloud:
    return SparsePointCloud(_read_records(path, 5))


def parse_kitti_calib(path) -> Calibration:
    """Parse a KITTI calib text file (keys P2, R0_rect, Tr_velo_to_cam).

    Raises FormatError when a required key is missing, repeated or does not
    hold its count of finite numbers; other keys are not read.
    """
    values, required = {}, {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or ":" not in line:
                continue
            key, _, rest = (part.strip() for part in line.partition(":"))
            if key in values and key in required:
                raise FormatError(f"{path}: calibration key {key} is repeated")
            values[key] = rest.split()
    for key, count in required.items():
        if key not in values:
            raise FormatError(f"{path}: missing calibration key {key}")
        if len(values[key]) != count:
            raise FormatError(
                f"{path}: key {key} has {len(values[key])} values, expected {count}"
            )
        try:
            values[key] = np.array([float(v) for v in values[key]])
        except ValueError:
            raise FormatError(f"{path}: key {key} has a non-numeric value") from None
        if not np.isfinite(values[key]).all():
            raise FormatError(f"{path}: key {key} has a non-finite value")
    return Calibration(
        cam_projection=values["P2"].reshape(3, 4),
        rect=values["R0_rect"].reshape(3, 3),
        lidar_to_cam=values["Tr_velo_to_cam"].reshape(3, 4),
    )


def write_kitti_calib(path, calib: Calibration):
    with open(path, "w") as f:
        f.write("P2: " + " ".join(repr(float(v)) for v in calib.cam_projection.ravel()) + "\n")
        f.write("R0_rect: " + " ".join(repr(float(v)) for v in calib.rect.ravel()) + "\n")
        f.write(
            "Tr_velo_to_cam: "
            + " ".join(repr(float(v)) for v in calib.lidar_to_cam.ravel())
            + "\n"
        )

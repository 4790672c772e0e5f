"""Point clouds, voxelization, augmentation, projection, and file formats."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virconv import (
    AugmentationRecord,
    Calibration,
    SeededRng,
    SparsePointCloud,
    VoxelGridSpec,
    apply_augmentation,
    apply_inverse,
    default_grid_spec,
    grid_points,
    parse_kitti_calib,
    project_to_image,
    project_voxels,
    voxelize,
)
from virconv.geometry import (
    INVALID_2D,
    MIN_CAMERA_DEPTH,
    FormatError,
    project_points_chain,
    read_fused_bin,
    read_velodyne_bin,
    read_virtual_bin,
    write_fused_bin,
    write_kitti_calib,
    write_point_bin,
)
from virconv.scene import synthetic_calibration
from virconv.tensor import ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL, _padded_keys, point_keys

SMALL = VoxelGridSpec(origin=(0.0, -2.0, -1.0), voxel_size=(0.5, 0.5, 0.5),
                      extent=(8, 8, 4))


def make_cloud(rng, n=200, beta_frac=0.5):
    pts = np.zeros((n, 5))
    pts[:, 0] = rng.gen.uniform(0.0, 4.0, n)
    pts[:, 1] = rng.gen.uniform(-2.0, 2.0, n)
    pts[:, 2] = rng.gen.uniform(-1.0, 1.0, n)
    pts[:, 4] = (rng.gen.random(n) < beta_frac).astype(float)
    pts[:, 3] = np.where(pts[:, 4] == 0.0, rng.gen.random(n), 0.0)
    return SparsePointCloud(pts)


# --------------------------------------------------------------------- clouds

def test_cloud_validation():
    with pytest.raises(ValueError, match=r"\(N, 5\)"):
        SparsePointCloud(np.zeros((3, 4)))
    bad_beta = np.zeros((1, 5))
    bad_beta[0, 4] = 0.5
    with pytest.raises(ValueError, match="beta"):
        SparsePointCloud(bad_beta)
    virt_with_intensity = np.zeros((1, 5))
    virt_with_intensity[0, 3:5] = [0.7, 1.0]
    with pytest.raises(ValueError, match="zero intensity"):
        SparsePointCloud(virt_with_intensity)
    with pytest.raises(ValueError, match="finite"):
        SparsePointCloud(np.full((1, 5), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cloud_rejects_non_finite_alpha(bad):
    with pytest.raises(ValueError, match="alpha"):
        SparsePointCloud(np.array([[10.0, 0.0, 0.0, bad, 0.0]]))


def test_from_xyz_defaults():
    c = SparsePointCloud.from_xyz([[1, 2, 3]], beta=1.0)
    assert c.n == 1 and c.beta[0] == 1.0 and c.alpha[0] == 0.0


# ----------------------------------------------------------------- voxelize

def test_voxelize_mean_matches_loop(rng):
    cloud = make_cloud(rng)
    t = voxelize(cloud, SMALL)
    origin = np.asarray(SMALL.origin)
    idx = np.floor((cloud.xyz - origin) / SMALL.cell_size).astype(np.int64)
    groups = {}
    for i in range(cloud.n):
        groups.setdefault(tuple(idx[i]), []).append(i)
    assert t.n == len(groups)
    for key, members in groups.items():
        row = t.find_rows([key])[0]
        assert np.allclose(t.features[row], cloud.points[members].mean(axis=0))


def test_voxelize_origin_flags():
    # Voxel x = 0, 1, 2 holds 2 of 5, 1 of 2 and 3 of 5 virtual points.
    pts = [[0.1 + 0.5 * x, 0.1, 0.1, 0.0, float(v)]
           for x, betas in enumerate([[0, 0, 0, 1, 1], [0, 1], [1, 1, 1, 0, 0]])
           for v in betas]
    t = voxelize(SparsePointCloud(np.array(pts)), SMALL)
    assert list(t.indices[:, 0]) == [0, 1, 2]
    assert list(t.origin_flags) == [ORIGIN_LIDAR, ORIGIN_MIXED, ORIGIN_VIRTUAL]


def test_voxelize_drops_outside_points():
    cloud = SparsePointCloud.from_xyz([[100.0, 0.0, 0.0], [0.1, 0.1, 0.1]])
    t = voxelize(cloud, SMALL)
    assert t.n == 1


def test_voxelize_drops_far_points_without_a_cast_warning():
    far = [[1e30, 0.0, 0.0], [-1e30, 0.0, 0.0], [0.1, 1e30, 0.1], [0.1, 0.1, -1e30]]
    cloud = SparsePointCloud.from_xyz(far + [[0.1, 0.1, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = point_keys(cloud.points, SMALL)
        t = voxelize(cloud, SMALL)
    # Far points key as 0; (0, 4, 2) keys as ((0+1)(8+2) + 4+1)(4+2) + 2+1.
    assert keys.tolist() == [0, 0, 0, 0, 93]
    assert np.array_equal(t.indices, [[0, 4, 2]])


def test_voxelize_find_rows_of_point_indices_roundtrip(rng):
    cloud = make_cloud(rng)
    t = voxelize(cloud, SMALL)
    origin = np.asarray(SMALL.origin)
    idx = np.floor((cloud.xyz - origin) / SMALL.cell_size).astype(np.int64)
    rows = t.find_rows(idx)
    assert (rows >= 0).all()
    assert np.array_equal(t.indices[rows], idx)
    assert np.array_equal(point_keys(cloud.points, SMALL), _padded_keys(idx, SMALL.extent))


# voxelize needs about 20 bytes per point here: the point keys and the row
# numbers packed into them for the one sort (16), plus block-long and
# site-long scratch. An (N, 3) index block (24 more) breaks the budget.
VOXELIZE_BYTES_PER_POINT = 32


def test_voxelize_peak_memory_stays_within_a_per_point_budget():
    gen = np.random.default_rng(0)
    n = 200_000   # 16,000 voxels; the points below x = 0 fall outside the grid
    pts = np.zeros((n, 5))
    pts[:, :3] = gen.uniform((-0.2, -1.0, -1.0), (2.0, 1.0, 0.0), (n, 3))
    pts[:, 4] = gen.random(n) < 0.5
    pts[:, 3] = np.where(pts[:, 4] == 0.0, gen.random(n), 0.0)
    cloud = SparsePointCloud(pts)
    tracemalloc.start()
    try:
        t = voxelize(cloud, default_grid_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n == 16_000
    assert peak <= VOXELIZE_BYTES_PER_POINT * n, f"{peak / n:.1f} bytes per point"


# Past the point keys themselves (8 bytes per point), voxelize streams: its
# other scratch is block-long, site-long, or the row numbers packed into the
# keys for their one sort. An N-long permutation or inverse kept beside the
# sorted keys (3.25x the keys' bytes before blocks) breaks the bound.
VOXELIZE_PEAK_PER_KEY_BYTE = 2.5


def test_voxelize_peak_stays_within_a_multiple_of_its_keys_bytes():
    gen = np.random.default_rng(1)
    n = 400_000   # 16,000 voxels of 25 points each on average, as in a dense cloud
    pts = np.zeros((n, 5))
    pts[:, :3] = gen.uniform((0.0, -1.0, -1.0), (2.0, 1.0, 0.0), (n, 3))
    pts[:, 4] = gen.random(n) < 0.5
    pts[:, 3] = np.where(pts[:, 4] == 0.0, gen.random(n), 0.0)
    cloud = SparsePointCloud(pts)
    voxelize(SparsePointCloud(pts[:100]), default_grid_spec())   # first-call imports
    tracemalloc.start()
    try:
        t = voxelize(cloud, default_grid_spec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n == 16_000
    assert peak <= VOXELIZE_PEAK_PER_KEY_BYTE * 8 * n, f"{peak / (8 * n):.2f}x the keys' bytes"


def test_grid_points_center_convention():
    t = voxelize(SparsePointCloud.from_xyz([[0.1, -1.9, -0.9]]), SMALL)
    assert np.allclose(grid_points(t), [[0.25, -1.75, -0.75]])


# ------------------------------------------------------------- augmentation

@settings(deadline=None, max_examples=60)
@given(
    theta=st.floats(-math.pi + 1e-9, math.pi),
    scale=st.floats(0.8, 1.25),
    flip=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_augmentation_roundtrip(theta, scale, flip, seed):
    rec = AugmentationRecord(rotation_z=theta, scale=scale, flip_y=flip)
    pts = SeededRng(seed).gen.normal(scale=20.0, size=(50, 3))
    back = apply_inverse(apply_augmentation(pts, rec), rec)
    assert np.abs(back - pts).max() < 1e-9


def test_augmentation_record_validation():
    with pytest.raises(ValueError):
        AugmentationRecord(scale=0.0)
    with pytest.raises(ValueError):
        AugmentationRecord(rotation_z=4.0)


def test_augmentation_order_scale_flip_rotate():
    rec = AugmentationRecord(rotation_z=math.pi / 2, scale=2.0, flip_y=True)
    out = apply_augmentation(np.array([[1.0, 1.0, 1.0]]), rec)
    # scale -> (2,2,2); flip -> (2,-2,2); rotate 90deg -> (2,2,2)
    assert np.allclose(out, [[2.0, 2.0, 2.0]])


# --------------------------------------------------------------- projection

def test_projection_probe_against_matrix_oracle():
    calib = synthetic_calibration()
    p = np.array([[12.0, 1.5, -0.5]])
    uv, valid = project_to_image(p, calib)
    hom = calib.cam_projection @ np.append(
        calib.rect @ (calib.lidar_to_cam[:, :3] @ p[0] + calib.lidar_to_cam[:, 3]), 1.0
    )
    assert valid[0]
    assert np.abs(uv[0] - hom[:2] / hom[2]).max() < 1e-6


def test_projection_rejects_points_behind_camera():
    calib = synthetic_calibration()
    pts = np.array([[-5.0, 0.0, 0.0], [MIN_CAMERA_DEPTH, 0.0, 0.0], [5.0, 0.0, 0.0]])
    _, valid = project_to_image(pts, calib)
    assert list(valid) == [False, False, True]


def test_project_voxels_invalid_sentinel():
    spec = VoxelGridSpec(origin=(-10.0, -2.0, -1.0), voxel_size=(0.5, 0.5, 0.5),
                         extent=(40, 8, 4))
    cloud = SparsePointCloud.from_xyz([[-5.0, 0.1, 0.1], [5.0, 0.1, 0.1]])
    t = voxelize(cloud, spec)
    h2d = project_voxels(t, AugmentationRecord.identity(), synthetic_calibration())
    behind = t.find_rows(np.array([np.floor((np.array([-5.0, 0.1, 0.1])
                                             - np.array(spec.origin)) / 0.5)]).astype(int))[0]
    assert (h2d[behind] == INVALID_2D).all()
    assert (h2d[1 - behind] != INVALID_2D).all()


def test_project_points_chain_pixel_cell():
    calib = synthetic_calibration()
    pts = np.array([[20.0, 0.3, 0.2]])
    c1 = project_points_chain(pts, AugmentationRecord.identity(), calib, pixel_cell=1)
    c4 = project_points_chain(pts, AugmentationRecord.identity(), calib, pixel_cell=4)
    assert np.array_equal(c4[0], c1[0] // 4)
    with pytest.raises(ValueError):
        project_points_chain(pts, AugmentationRecord.identity(), calib, pixel_cell=0)


def _pinhole(cx, depth_scale=1.0) -> Calibration:
    """Calibration that maps the LiDAR point (x, 0, 0), x > 0, to pixel u = cx
    at depth depth_scale * x; x <= 0 lies behind the camera."""
    return Calibration(np.array([[1.0, 0.0, cx, 0.0], [0.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, depth_scale, 0.0]]),
                       np.eye(3), np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0],
                                            [1.0, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("cx, pixel_cell, cell", [
    (2**29 - 0.5, 1, 2**29 - 1), (-(2**29) + 1, 1, -(2**29) + 1), (2**30, 4, 2**28),
    (2**29, 1, None), (-(2**29), 1, None), (-(2**29) - 0.5, 1, None)])
def test_project_points_chain_bounds_valid_cells_at_2_to_the_29(cx, pixel_cell, cell):
    """A valid projection must land strictly inside +-2**29 cells (after the
    pixel_cell division); an invalid one behind the camera is not checked."""
    pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if cell is None:
            with pytest.raises(ValueError, match=r"calibration projects a point to pixel cell"):
                project_points_chain(pts, AugmentationRecord.identity(), _pinhole(cx), pixel_cell)
            return
        got = project_points_chain(pts, AugmentationRecord.identity(), _pinhole(cx), pixel_cell)
    assert got.tolist() == [[cell, 0], [INVALID_2D, INVALID_2D]]


def test_project_points_chain_refuses_a_projection_that_is_not_a_number():
    """u = inf / inf at an infinite, valid depth: both overflow from 1e308 * 10."""
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"pixel cell \(nan, 0.0\)"):
        project_points_chain(np.array([[10.0, 0.0, 0.0]]), AugmentationRecord.identity(),
                             _pinhole(1e308, depth_scale=1e308))


def test_calibration_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        Calibration(cam_projection=np.zeros((3, 4)), rect=np.eye(3) * 2.0,
                    lidar_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]))


def test_default_grid_spec_covers_kitti_range():
    spec = default_grid_spec()
    hi = np.asarray(spec.origin) + np.asarray(spec.extent) * spec.cell_size
    assert np.allclose(hi, [70.4, 40.0, 1.0])


# ------------------------------------------------------------- file formats

def test_velodyne_bin_roundtrip(tmp_path, rng):
    cloud = make_cloud(rng, beta_frac=0.0)
    path = tmp_path / "scan.bin"
    write_point_bin(path, cloud)
    back = read_velodyne_bin(path)
    assert back.n == cloud.n
    assert np.abs(back.points[:, :4] - cloud.points[:, :4]).max() < 1e-6
    assert (back.beta == 0.0).all()


def test_virtual_bin_forces_beta(tmp_path, rng):
    cloud = make_cloud(rng, beta_frac=0.0)
    path = tmp_path / "virtual.bin"
    write_point_bin(path, cloud)
    back = read_virtual_bin(path)
    assert (back.beta == 1.0).all()
    assert (back.alpha == 0.0).all()


def test_truncated_bin_reports_byte_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 23)   # one and a half 16-byte records
    with pytest.raises(FormatError, match="byte offset 16"):
        read_velodyne_bin(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("reader, width", [(read_velodyne_bin, 4),
                                           (read_virtual_bin, 4),
                                           (read_fused_bin, 5)])
def test_bin_readers_reject_non_finite_coordinates(tmp_path, reader, width, bad):
    # Column 2 is z, column 3 alpha: every field is checked, not just xyz.
    for col in (2, 3):
        rec = np.zeros((3, width), "<f4")
        rec[1, col] = bad
        path = tmp_path / "bad.bin"
        rec.tofile(path)
        with pytest.raises(FormatError, match="non-finite value in record 1"):
            reader(path)


def test_fused_bin_roundtrip(tmp_path, rng):
    cloud = make_cloud(rng)
    path = tmp_path / "fused.bin"
    write_fused_bin(path, cloud)
    back = read_fused_bin(path)
    assert back.n == cloud.n
    assert np.abs(back.points - cloud.points).max() < 1e-6
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="truncated"):
        read_fused_bin(path)


def test_calib_roundtrip_and_missing_key(tmp_path):
    calib = synthetic_calibration()
    path = tmp_path / "calib.txt"
    write_kitti_calib(path, calib)
    back = parse_kitti_calib(path)
    assert np.array_equal(back.cam_projection, calib.cam_projection)
    assert np.array_equal(back.rect, calib.rect)
    assert np.array_equal(back.lidar_to_cam, calib.lidar_to_cam)
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("R0_rect")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="missing calibration key R0_rect"):
        parse_kitti_calib(path)


def test_calib_skips_blank_lines_and_lines_without_a_colon(tmp_path):
    calib = synthetic_calibration()
    path = tmp_path / "calib.txt"
    write_kitti_calib(path, calib)
    # A trailing "P2" without a colon would read as a P2 with no values.
    path.write_text("\n   \n" + path.read_text().replace("\n", "\n\n") + "P2\n")
    back = parse_kitti_calib(path)
    for name in ("cam_projection", "rect", "lidar_to_cam"):
        assert np.array_equal(getattr(back, name), getattr(calib, name))


def test_calib_rejects_a_repeated_required_key_but_not_an_unread_one(tmp_path):
    """A second, different P2 line would otherwise project with whichever
    line the parser kept; keys it does not read may repeat."""
    calib = synthetic_calibration()
    path = tmp_path / "calib.txt"
    write_kitti_calib(path, calib)
    text = path.read_text() + "calib_time: 1\ncalib_time: 2\n"
    path.write_text(text)
    assert np.array_equal(parse_kitti_calib(path).cam_projection, calib.cam_projection)
    path.write_text(text + "P2: " + " ".join(["1.0"] * 12) + "\n")
    with pytest.raises(FormatError, match="calibration key P2 is repeated"):
        parse_kitti_calib(path)


@pytest.mark.parametrize("key, bad, match", [
    ("P2", "abc", "key P2 has a non-numeric value"),
    ("P2", "nan", "key P2 has a non-finite value"),
    ("R0_rect", "inf", "key R0_rect has a non-finite value"),
    ("Tr_velo_to_cam", "-inf", "key Tr_velo_to_cam has a non-finite value"),
    ("Tr_velo_to_cam", "1,5", "key Tr_velo_to_cam has a non-numeric value")])
def test_calib_rejects_non_numeric_and_non_finite_values(tmp_path, key, bad, match):
    path = tmp_path / "calib.txt"
    write_kitti_calib(path, synthetic_calibration())
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + ":"):
            values = line.split()
            values[2] = bad
            lines[i] = " ".join(values)
    path.write_text("\n".join(lines + ["calib_time: 09-Jan-2012 13:57:47"]) + "\n")
    with pytest.raises(FormatError, match=match):
        parse_kitti_calib(path)

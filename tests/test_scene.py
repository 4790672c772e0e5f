"""Synthetic scene generator: geometry, labels, and directory round-trips."""

import numpy as np
import pytest

from virconv import SeededRng
from virconv.geometry import project_to_image
from virconv.scene import (
    BOUNDARY_BAND_PX,
    IMAGE_H,
    IMAGE_W,
    SyntheticSceneSpec,
    _instance_map,
    generate_scene,
    load_scene,
    load_scene_calib,
    save_scene,
    silhouette_boundary,
    synthetic_calibration,
)

SPEC = SyntheticSceneSpec(num_objects=3, x_range=(8.0, 30.0), y_range=(-10.0, 10.0))


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SPEC, SeededRng(7))


def test_generation_is_deterministic(scene):
    again = generate_scene(SPEC, SeededRng(7))
    assert np.array_equal(scene.lidar.points, again.lidar.points)
    assert np.array_equal(scene.virtual.points, again.virtual.points)
    assert np.array_equal(scene.noise_labels, again.noise_labels)


def test_virtual_points_project_inside_image(scene):
    uv, valid = project_to_image(scene.virtual.xyz, synthetic_calibration())
    assert valid.all()
    # Clean virtual points come from pixel rays, so they land on the sensor.
    clean = ~scene.noise_labels
    assert (uv[clean, 0] >= 0).all() and (uv[clean, 0] < IMAGE_W).all()
    assert (uv[clean, 1] >= 0).all() and (uv[clean, 1] < IMAGE_H).all()


def test_provenance_flags(scene):
    assert (scene.lidar.beta == 0.0).all()
    assert (scene.virtual.beta == 1.0).all()
    assert (scene.virtual.alpha == 0.0).all()
    assert len(scene.noise_labels) == scene.virtual.n
    assert 0 < scene.noise_labels.sum() < scene.virtual.n


def test_noise_sits_on_silhouette_boundary(scene):
    ids, _ = _instance_map(scene.boxes)
    boundary = silhouette_boundary(ids)
    uv, _ = project_to_image(scene.virtual.xyz, synthetic_calibration())
    noisy = scene.noise_labels
    px = np.clip(uv[noisy].astype(int), 0, [IMAGE_W - 1, IMAGE_H - 1])
    # Displacement is along the camera ray, so the pixel stays in the band.
    assert boundary[px[:, 1], px[:, 0]].mean() > 0.95


def test_boundary_band_marks_object_rim_only():
    ids = np.full((20, 20), -1)
    ids[5:15, 5:15] = 0
    b = silhouette_boundary(ids)
    assert BOUNDARY_BAND_PX == 2
    assert b[10, 5] and b[10, 6]      # the 2-pixel object rim
    assert not b[10, 7]               # just inside the band
    assert not b[10, 4]               # background pixels are never marked
    assert not b[10, 10]              # interior
    assert not b[0, 0]                # far background


def test_overcrowded_spec_raises():
    spec = SyntheticSceneSpec(num_objects=40, x_range=(8.0, 10.0),
                              y_range=(-2.0, 2.0))
    with pytest.raises(RuntimeError, match="could not place box"):
        generate_scene(spec, SeededRng(0))


def test_scene_directory_roundtrip(tmp_path, scene):
    save_scene(scene, tmp_path / "s0")
    back = load_scene(tmp_path / "s0")
    # Storage is float32, so the round-trip is exact at float32 precision.
    assert np.array_equal(back.lidar.points[:, :4],
                          scene.lidar.points[:, :4].astype("<f4").astype(np.float64))
    assert np.array_equal(back.virtual.xyz,
                          scene.virtual.xyz.astype("<f4").astype(np.float64))
    assert np.array_equal(back.noise_labels, scene.noise_labels)
    assert back.spec == scene.spec and back.seed == scene.seed
    assert len(back.boxes) == len(scene.boxes)
    calib = load_scene_calib(tmp_path / "s0")
    ref = synthetic_calibration()
    assert np.array_equal(calib.cam_projection, ref.cam_projection)


def test_noise_magnitude_moves_points():
    base = generate_scene(SPEC, SeededRng(3))
    # Same seed, no displacement: labelled points coincide with clean rays.
    quiet = generate_scene(
        SyntheticSceneSpec(num_objects=3, x_range=(8.0, 30.0),
                           y_range=(-10.0, 10.0), noise_magnitude=0.0),
        SeededRng(3),
    )
    assert base.virtual.n == quiet.virtual.n
    moved = np.linalg.norm(base.virtual.xyz - quiet.virtual.xyz, axis=1)
    assert (moved[~base.noise_labels] == 0).all()

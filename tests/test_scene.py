"""Synthetic scene generator: geometry, labels, and directory round-trips;
the pinned bytes of the two benchmark scenes; the per-axis slab test and the
footprint-windowed instance map against their full formulas."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virconv import SeededRng
from virconv.geometry import project_to_image
from virconv.scene import (
    BOUNDARY_BAND_PX,
    IMAGE_H,
    IMAGE_W,
    SPEC_MAXIMA,
    Box,
    SyntheticSceneSpec,
    _instance_map,
    _ray_box_enter,
    _ray_dirs,
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


def _boundary_by_scan(ids):
    """silhouette_boundary pixel by pixel: an instance pixel with a pixel of
    another id, or a pixel past the image edge, within the band on each axis."""
    h, w = ids.shape
    out = np.zeros((h, w), dtype=bool)
    for v in range(h):
        for u in range(w):
            if ids[v, u] < 0:
                continue
            for y in range(v - BOUNDARY_BAND_PX, v + BOUNDARY_BAND_PX + 1):
                for x in range(u - BOUNDARY_BAND_PX, u + BOUNDARY_BAND_PX + 1):
                    inside = 0 <= y < h and 0 <= x < w
                    if not inside or ids[y, x] != ids[v, u]:
                        out[v, u] = True
    return out


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), h=st.integers(1, 14), w=st.integers(1, 14))
@example(seed=0, h=1, w=1)
@example(seed=5, h=9, w=13)
def test_silhouette_boundary_matches_a_per_pixel_scan(seed, h, w):
    """Rectangles of ids 0-3, clipped at the image edges, touching and
    overlapping each other, on background -1 or, for one seed in five, on a
    map filled by instance 0."""
    gen = np.random.default_rng(seed)
    ids = np.full((h, w), -1 if seed % 5 else 0, dtype=np.int64)
    for _ in range(gen.integers(0, 6)):
        v0, u0 = gen.integers(-2, h), gen.integers(-2, w)
        v1, u1 = v0 + gen.integers(1, h + 3), u0 + gen.integers(1, w + 3)
        ids[max(v0, 0):v1, max(u0, 0):u1] = gen.integers(0, 4)
    assert np.array_equal(silhouette_boundary(ids), _boundary_by_scan(ids))


# Per bounded field: a value at its bound and values past it. Specs are only
# constructed; no scene of such a size is generated.
BOUND_CASES = {"num_objects": (100, [101, 10 ** 9]),
               "lidar_density": (1000.0, [1000.5, 1e12]),
               "virtual_multiplier": (16.0, [16.5, 1e9]),
               "size_max": ((20.0, 20.0, 20.0), [(4.6, 2.0, 20.5), (1e6, 2.0, 1.8)])}


def test_bound_cases_cover_every_spec_maximum():
    assert set(BOUND_CASES) == set(SPEC_MAXIMA)
    assert all(np.max(at) == SPEC_MAXIMA[name] for name, (at, _) in BOUND_CASES.items())


@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_spec_accepts_each_bound_and_rejects_values_past_it(name):
    at, past = BOUND_CASES[name]
    assert getattr(SyntheticSceneSpec(**{name: at}), name) == at
    for value in past:
        with pytest.raises(ValueError, match=f"{name} must be at most {SPEC_MAXIMA[name]}"):
            SyntheticSceneSpec(**{name: value})


def test_overcrowded_spec_raises():
    spec = SyntheticSceneSpec(num_objects=40, x_range=(8.0, 10.0),
                              y_range=(-2.0, 2.0))
    with pytest.raises(RuntimeError, match="could not place box"):
        generate_scene(spec, SeededRng(0))


@pytest.mark.parametrize("name", ["lidar_density", "virtual_multiplier"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_density_rejected(name, value):
    with pytest.raises(ValueError, match="densities must be positive"):
        SyntheticSceneSpec(**{name: value})


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


# perfbench/reference.json holds the benchmark's outputs on these two scenes,
# so it is valid only while generate_scene reproduces them byte for byte:
# (spec, seed) -> sha256 of the lidar points, virtual points and noise labels.
PINNED_SCENES = {
    "default": (SyntheticSceneSpec(), 0, (
        "7b7abeec5e847a651606a5c08ff6cc3f3328868e595d547c3c1e72317c740fc9",
        "bed244aa97c3eb7efb924a32058316b573981c26f2939c79755f8cf5d8a6c083",
        "a7e3fb927296d7c32d735c93595fc917e5ed2d80e9df573150910d14de0864a3")),
    # The acceptance c4 dense scene (perfbench's DENSE_SCENE).
    "c4": (SyntheticSceneSpec(num_objects=10, x_range=(7.0, 28.0),
                              y_range=(-14.0, 14.0), virtual_multiplier=8.0,
                              noise_magnitude=1.5), 42, (
        "98e8851550c9ff1ddf4705a8175f868d2a321f4585c71725f20b959f71a1f47a",
        "f2e1ac740e325ae5bac51a8ccf9a4ef17f3e98e9879666802033e21e00a1ab3f",
        "ec1f605ead97889ab163e2aff3e08ccfc84891b7587ca51bcbc05763c0311dc3")),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENES))
def test_benchmark_scenes_are_pinned(name):
    spec, seed, digests = PINNED_SCENES[name]
    s = generate_scene(spec, SeededRng(seed))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (s.lidar.points, s.virtual.points, s.noise_labels))
    assert got == digests


def test_fractional_virtual_multiplier_adds_a_drawn_sample_per_pixel():
    # Only a fractional multiplier draws whether a pixel gets one more sample.
    s = generate_scene(SyntheticSceneSpec(virtual_multiplier=1.5), SeededRng(0))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (s.lidar.points, s.virtual.points, s.noise_labels))
    assert got == (
        "7b7abeec5e847a651606a5c08ff6cc3f3328868e595d547c3c1e72317c740fc9",
        "97fbaf707ebcfe853b15faaef0daa86c4cf24c6d046400354d2550f9bc199728",
        "7d3681fcb0335c14e52970eeef60c0511cbbe0b7f71025992669f4d04db28426")
    lo, hi = (generate_scene(SyntheticSceneSpec(virtual_multiplier=m), SeededRng(0)).virtual.n
              for m in (1.0, 2.0))
    assert lo < s.virtual.n < hi   # 33,916 < 50,766 < 67,836


def slab_enter_reference(dirs, box):
    """The (N, 3) broadcast slab formula that _ray_box_enter must equal."""
    lo, hi = box.lo, box.hi
    with np.errstate(divide="ignore", invalid="ignore"):
        t1, t2 = lo / dirs, hi / dirs
    enter = np.minimum(t1, t2).max(axis=1)
    exit_ = np.maximum(t1, t2).min(axis=1)
    hit = (enter <= exit_) & (exit_ > 0)
    return np.where(hit & (enter > 0.2), enter, np.inf)


# Exact binary values, so faces land at exactly 0, boxes straddle x = 0 and
# corner rays pass exactly through corners; general floats besides.
COORD = st.one_of(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0]),
                  st.floats(-20.0, 20.0))
COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]),
                      st.floats(-3.0, 3.0))


@st.composite
def boxes_and_rays(draw):
    lo, hi = zip(*(sorted(draw(st.tuples(COORD, COORD))) for _ in range(3)))
    lo, hi = np.array(lo), np.array(hi)
    # center -+ size / 2 gives back the sampled coordinates exactly; both
    # formulas read box.lo and box.hi either way.
    box = Box(center=tuple((lo + hi) / 2), size=tuple(hi - lo))
    rays = draw(st.lists(st.tuples(COMPONENT, COMPONENT, COMPONENT), max_size=20))
    corners = draw(st.lists(st.tuples(*(st.sampled_from([0, 1]) for _ in range(3))),
                            max_size=8))
    scale = draw(st.sampled_from([1.0, 0.5, 2.0, -1.0]))
    rays += [tuple(scale * (box.hi[a] if c else box.lo[a]) for a, c in enumerate(cs))
             for cs in corners]
    return np.array(rays, dtype=np.float64).reshape(-1, 3), box


@settings(deadline=None, max_examples=150)
@given(case=boxes_and_rays())
# A box from x = -1 to 2 with its z face at 0: rays with zero y or z
# components, through the corners at x = -1 and x = 2, and along the x axis.
@example(case=(np.array([[1.0, 0.0, 0.5], [1.0, 0.5, 0.0], [-1.0, 1.0, 0.0],
                         [2.0, -0.5, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
               Box(center=(0.5, 0.25, 0.5), size=(3.0, 1.5, 1.0))))
def test_ray_box_enter_matches_the_broadcast_slab_formula_bit_for_bit(case):
    dirs, box = case
    with np.errstate(over="ignore"):   # a tiny component overflows to inf in both
        got, want = _ray_box_enter(dirs, box), slab_enter_reference(dirs, box)
    assert got.tobytes() == want.tobytes()


def full_image_scan(boxes):
    """Every pixel's ray against every box, nearest entry wins."""
    us, vs = np.meshgrid(np.arange(IMAGE_W) + 0.5, np.arange(IMAGE_H) + 0.5)
    dirs = _ray_dirs(us.ravel(), vs.ravel())
    depth = np.full(len(dirs), np.inf)
    ids = np.full(len(dirs), -1, dtype=np.int64)
    for i, b in enumerate(boxes):
        t = slab_enter_reference(dirs, b)
        closer = t < depth
        depth[closer] = t[closer]
        ids[closer] = i
    return ids.reshape(IMAGE_H, IMAGE_W), depth.reshape(IMAGE_H, IMAGE_W)


CUBE = (2.0, 2.0, 2.0)
# |y| / x = 1.52 and |z| / x = 0.46 are the image's left/right and top/bottom
# edges, so each of the first boxes straddles one edge (or a corner).
FOOTPRINT_CASES = {
    "left_edge": [Box((10.0, 15.2, 0.3), CUBE)],
    "right_edge": [Box((10.0, -15.2, -0.2), CUBE)],
    "top_edge": [Box((10.0, 1.1, 4.6), CUBE)],
    "bottom_edge": [Box((10.0, -0.7, -4.6), CUBE)],
    "corner": [Box((12.0, -18.2, 5.5), (3.0, 2.5, 2.0))],
    # Beyond the left edge, above the top edge, and behind the camera.
    "off_image": [Box((10.0, 40.0, 0.0), CUBE), Box((10.0, 0.0, 30.0), CUBE),
                  Box((-10.0, 0.0, 0.0), CUBE)],
    # lo[0] = -0.1 <= 0: the rays that enter it fill the image's left part.
    "straddles_x0": [Box((1.45, 1.5, 0.0), (3.1, 1.0, 1.0))],
    "x_near_0.1": [Box((1.1, -1.5, 0.2), (2.0, 1.0, 1.0)),
                   Box((1.15, 0.4, -0.3), (2.1, 0.5, 0.6))],
    # Overlapping in the image, listed far to near and near to far.
    "overlap": [Box((30.0, 0.5, 0.3), (4.0, 6.0, 3.0)), Box((12.0, -0.3, -0.2), CUBE),
                Box((20.0, -1.7, 0.1), (3.0, 3.0, 2.5)), Box((25.0, -4.5, 0.0), CUBE)],
}


@pytest.mark.parametrize("name", sorted(FOOTPRINT_CASES))
def test_instance_map_matches_a_full_image_scan(name):
    boxes = FOOTPRINT_CASES[name]
    ids, depth = _instance_map(boxes)
    want_ids, want_depth = full_image_scan(boxes)
    assert ids.shape == depth.shape == (IMAGE_H, IMAGE_W)
    assert ids.tobytes() == want_ids.tobytes()
    assert depth.tobytes() == want_depth.tobytes()
    # Every box shows, except those off the image.
    seen = set(np.unique(ids[ids >= 0]).tolist())
    assert seen == (set() if name == "off_image" else set(range(len(boxes))))
    if name == "overlap":   # the centre ray enters boxes 0 and 1; the nearer wins
        assert ids[IMAGE_H // 2, IMAGE_W // 2] == 1

"""Synthetic scene generation for density and noise experiments.

Scenes contain axis-aligned box obstacles observed by a co-located LiDAR and
camera at the origin (x forward, y left, z up). LiDAR points sample visible
box faces with range-decaying density. Virtual points are ray-cast densely,
one bundle per covered image pixel, mimicking depth-completion output; each
box is ray-cast only over its image footprint. Points whose pixel sits on an
instance silhouette boundary are displaced along the camera ray with some
probability and labelled as noise.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    Calibration,
    FormatError,
    SparsePointCloud,
    parse_kitti_calib,
    read_text,
    read_velodyne_bin,
    read_virtual_bin,
    write_kitti_calib,
    write_point_bin,
)
from .rng import SeededRng

IMAGE_W = 1216
IMAGE_H = 368
FOCAL = 400.0

BOUNDARY_BAND_PX = 2  # silhouette pixels within this distance count as boundary

# Fields that size an allocation or a loop: past these, a config error, not an OOM or hang.
SPEC_MAXIMA = {"num_objects": 100, "lidar_density": 1000.0, "virtual_multiplier": 16.0,
               "size_max": 20.0}


@dataclass(frozen=True)
class SyntheticSceneSpec:
    num_objects: int = 6
    size_min: tuple = (3.2, 1.5, 1.3)   # l, w, h ranges, meters
    size_max: tuple = (4.6, 2.0, 1.8)
    x_range: tuple = (8.0, 50.0)
    y_range: tuple = (-16.0, 16.0)
    ground_z: float = -1.6
    lidar_density: float = 60.0          # points per m^2 at 10 m, 1/r^2 decay
    virtual_multiplier: float = 1.0      # ray samples per covered pixel
    boundary_noise_rate: float = 0.4     # fraction of boundary-band points displaced
    noise_magnitude: float = 1.0         # max displacement along the camera ray, m

    def __post_init__(self):
        for name, value in vars(self).items():
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lidar_density <= 0 or self.virtual_multiplier <= 0:
            raise ValueError("densities must be positive")
        for name, top in SPEC_MAXIMA.items():
            if np.max(getattr(self, name)) > top:
                raise ValueError(f"{name} must be at most {top}, got {getattr(self, name)}")
        if not (0.0 <= self.boundary_noise_rate <= 1.0):
            raise ValueError("boundary_noise_rate must lie in [0, 1]")
        for name in ("num_objects", "noise_magnitude"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("x_range", "y_range"):
            if not getattr(self, name)[0] < getattr(self, name)[1]:
                raise ValueError(f"{name} must be (lo, hi) with lo < hi")
        if min(self.size_min) <= 0 or any(a > b for a, b in zip(self.size_min, self.size_max)):
            raise ValueError("size_min must be positive and at most size_max per axis")


@dataclass
class Box:
    center: tuple   # (x, y, z) meters
    size: tuple     # (l, w, h) meters

    @property
    def lo(self):
        return np.array(self.center) - np.array(self.size) / 2

    @property
    def hi(self):
        return np.array(self.center) + np.array(self.size) / 2


@dataclass
class Scene:
    lidar: SparsePointCloud
    virtual: SparsePointCloud
    noise_labels: np.ndarray   # bool per virtual point
    boxes: list
    spec: SyntheticSceneSpec
    seed: int


def synthetic_calibration() -> Calibration:
    """Pinhole camera co-located with the sensor, optical axis along +x."""
    P = np.array(
        [
            [FOCAL, 0.0, IMAGE_W / 2.0, 0.0],
            [0.0, FOCAL, IMAGE_H / 2.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    lidar_to_cam = np.array(
        [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    )
    return Calibration(cam_projection=P, rect=np.eye(3), lidar_to_cam=lidar_to_cam)


def _place_boxes(spec: SyntheticSceneSpec, rng: SeededRng):
    boxes = []
    for _ in range(spec.num_objects):
        for _attempt in range(200):
            size = rng.gen.uniform(spec.size_min, spec.size_max)
            cx = rng.gen.uniform(*spec.x_range)
            cy = rng.gen.uniform(*spec.y_range)
            cz = spec.ground_z + size[2] / 2
            cand = Box(center=(cx, cy, cz), size=tuple(size))
            margin = 0.8
            ok = all(
                np.any(np.abs(np.array(cand.center[:2]) - np.array(b.center[:2]))
                       > (np.array(cand.size[:2]) + np.array(b.size[:2])) / 2 + margin)
                for b in boxes
            )
            if ok:
                boxes.append(cand)
                break
        else:
            raise RuntimeError(
                f"could not place box {len(boxes) + 1}/{spec.num_objects} "
                "without overlap; loosen the scene spec"
            )
    return boxes


def _sample_face(lo, hi, fixed_axis, fixed_value, count, rng):
    pts = rng.gen.uniform(lo, hi, size=(count, 3))
    pts[:, fixed_axis] = fixed_value
    return pts


def _lidar_points(spec: SyntheticSceneSpec, boxes, rng: SeededRng):
    chunks = []
    for b in boxes:
        lo, hi = b.lo, b.hi
        r = float(np.linalg.norm(b.center))
        scale = spec.lidar_density * (10.0 / max(r, 1.0)) ** 2
        # Faces visible from the origin: the near-x face, the top, and the
        # near-y face on whichever side faces the sensor.
        faces = [
            (0, lo[0], b.size[1] * b.size[2]),
            (2, hi[2], b.size[0] * b.size[1]),
            (1, lo[1] if b.center[1] > 0 else hi[1], b.size[0] * b.size[2]),
        ]
        for axis, value, area in faces:
            count = max(1, int(rng.gen.poisson(scale * area)))
            chunks.append(_sample_face(lo, hi, axis, value, count, rng))
    # Sparse ground return ring.
    n_ground = 60 * len(boxes)
    gx = rng.gen.uniform(3.0, 60.0, n_ground)
    gy = rng.gen.uniform(-30.0, 30.0, n_ground)
    ground = np.stack([gx, gy, np.full(n_ground, spec.ground_z)], axis=1)
    chunks.append(ground)
    xyz = np.concatenate(chunks, axis=0)
    alpha = rng.gen.uniform(0.1, 0.9, len(xyz))
    return SparsePointCloud.from_xyz(xyz, alpha=alpha, beta=0.0)


def _ray_dirs(us, vs):
    """Unnormalized LiDAR-frame ray directions with unit forward component."""
    cx, cy = IMAGE_W / 2.0, IMAGE_H / 2.0
    return np.stack(
        [np.ones_like(us), -(us - cx) / FOCAL, -(vs - cy) / FOCAL], axis=1
    )


def _ray_box_enter(dirs, box: Box):
    """Slab-method entry depth (in forward-x units) per ray; inf if missed.
    One axis at a time; np.maximum/minimum propagate NaN as a max/min would."""
    lo, hi = box.lo, box.hi
    enter, exit_ = np.full(len(dirs), -np.inf), np.full(len(dirs), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(3):
            t1, t2 = lo[a] / dirs[:, a], hi[a] / dirs[:, a]
            np.maximum(enter, np.minimum(t1, t2), out=enter)
            np.minimum(exit_, np.maximum(t1, t2), out=exit_)
    hit = (enter <= exit_) & (exit_ > 0)
    return np.where(hit & (enter > 0.2), enter, np.inf)


def _instance_map(boxes):
    """Per-pixel nearest instance id (-1 background) and entry depth. Each box
    is cast only over its footprint, the bounding rectangle of its projected
    corners plus one pixel: no ray outside it can enter the convex box. A box
    reaching x <= 0 has no bounded projection and is cast over the whole image."""
    depth = np.full((IMAGE_H, IMAGE_W), np.inf)
    ids = np.full((IMAGE_H, IMAGE_W), -1, dtype=np.int64)
    for i, b in enumerate(boxes):
        lo, hi = b.lo, b.hi
        v0, v1, u0, u1 = 0, IMAGE_H, 0, IMAGE_W
        if lo[0] > 0:   # u = W/2 - F y/x, v = H/2 - F z/x invert _ray_dirs
            x = [lo[0], hi[0]]
            u = IMAGE_W / 2.0 - FOCAL * np.divide.outer([lo[1], hi[1]], x)
            v = IMAGE_H / 2.0 - FOCAL * np.divide.outer([lo[2], hi[2]], x)
            u0, u1 = np.clip([np.floor(u.min()) - 1, np.ceil(u.max()) + 1], 0, IMAGE_W).astype(int)
            v0, v1 = np.clip([np.floor(v.min()) - 1, np.ceil(v.max()) + 1], 0, IMAGE_H).astype(int)
        vs, us = np.mgrid[v0:v1, u0:u1] + 0.5
        t = _ray_box_enter(_ray_dirs(us.ravel(), vs.ravel()), b).reshape(us.shape)
        win_depth, win_ids = depth[v0:v1, u0:u1], ids[v0:v1, u0:u1]
        closer = t < win_depth
        win_depth[closer], win_ids[closer] = t[closer], i
    return ids, depth


def silhouette_boundary(ids: np.ndarray) -> np.ndarray:
    """Instance pixels within BOUNDARY_BAND_PX pixels (per axis) of a different-id
    pixel, where pixels past the image edge count as id -2 (no instance)."""
    band, (h, w) = BOUNDARY_BAND_PX, ids.shape
    padded = np.pad(ids, band, constant_values=-2)
    edge = np.zeros_like(ids, dtype=bool)
    for dv in range(2 * band + 1):
        for du in range(2 * band + 1):
            edge |= padded[dv:dv + h, du:du + w] != ids
    return edge & (ids >= 0)


_FIELD_CELL_PX = 24


def _smooth_field(us, vs, rng: SeededRng):
    """Low-frequency random field over the image, bilinearly interpolated,
    values roughly in [-1, 1]."""
    gw = IMAGE_W // _FIELD_CELL_PX + 2
    gh = IMAGE_H // _FIELD_CELL_PX + 2
    grid = rng.gen.uniform(-1.0, 1.0, size=(gh, gw))
    gu = np.clip(us / _FIELD_CELL_PX, 0, gw - 1.001)
    gv = np.clip(vs / _FIELD_CELL_PX, 0, gh - 1.001)
    u0 = gu.astype(np.int64)
    v0 = gv.astype(np.int64)
    fu, fv = gu - u0, gv - v0
    return (
        grid[v0, u0] * (1 - fu) * (1 - fv)
        + grid[v0, u0 + 1] * fu * (1 - fv)
        + grid[v0 + 1, u0] * (1 - fu) * fv
        + grid[v0 + 1, u0 + 1] * fu * fv
    )


def _virtual_points(spec: SyntheticSceneSpec, boxes, rng: SeededRng):
    ids, _ = _instance_map(boxes)
    boundary = silhouette_boundary(ids)
    vv, uu = np.nonzero(ids >= 0)
    if len(uu) == 0:
        return SparsePointCloud.empty(), np.zeros(0, dtype=bool)
    mult = spec.virtual_multiplier
    n_samples = int(np.floor(mult))
    frac = mult - n_samples
    reps = np.full(len(uu), n_samples, dtype=np.int64)
    if frac > 0:
        reps += rng.gen.random(len(uu)) < frac
    pu = np.repeat(uu, reps).astype(np.float64)
    pv = np.repeat(vv, reps).astype(np.float64)
    pid = np.repeat(ids[vv, uu], reps)
    on_boundary = np.repeat(boundary[vv, uu], reps)
    # Jitter sub-pixel so supersampled rays differ.
    pu += rng.gen.uniform(-0.5, 0.5, len(pu)) + 0.5
    pv += rng.gen.uniform(-0.5, 0.5, len(pv)) + 0.5
    dirs = _ray_dirs(pu, pv)
    t = np.full(len(dirs), np.inf)
    for i, b in enumerate(boxes):
        sel = pid == i
        if sel.any():
            t[sel] = _ray_box_enter(dirs[sel], boxes[i])
    hit = np.isfinite(t)
    dirs, t, on_boundary = dirs[hit], t[hit], on_boundary[hit]
    pu, pv = pu[hit], pv[hit]
    noise = on_boundary & (rng.gen.random(len(t)) < spec.boundary_noise_rate)
    # Depth-completion error is spatially correlated: neighboring boundary
    # pixels smear by similar depths, so displaced points form coherent
    # sheets that look like plausible geometry in 3D.
    delta = _smooth_field(pu, pv, rng) * spec.noise_magnitude
    t = np.where(noise, np.maximum(t + delta, 0.5), t)
    xyz = dirs * t[:, None]
    cloud = SparsePointCloud.from_xyz(xyz, alpha=None, beta=1.0)
    return cloud, noise


def generate_scene(spec: SyntheticSceneSpec, rng: SeededRng) -> Scene:
    boxes = _place_boxes(spec, rng)
    lidar = _lidar_points(spec, boxes, rng)
    virtual, noise = _virtual_points(spec, boxes, rng)
    return Scene(
        lidar=lidar, virtual=virtual, noise_labels=noise, boxes=boxes,
        spec=spec, seed=rng.seed,
    )


def save_scene(scene: Scene, out_dir):
    """One directory per scene: lidar.bin, virtual.bin, calib.txt,
    labels.json, meta.json."""
    os.makedirs(out_dir, exist_ok=True)
    write_point_bin(os.path.join(out_dir, "lidar.bin"), scene.lidar)
    write_point_bin(os.path.join(out_dir, "virtual.bin"), scene.virtual)
    write_kitti_calib(os.path.join(out_dir, "calib.txt"), synthetic_calibration())
    with open(os.path.join(out_dir, "labels.json"), "w") as f:
        json.dump(
            {
                "noise": scene.noise_labels.astype(int).tolist(),
                "boxes": [
                    {"center": list(b.center), "size": list(b.size)}
                    for b in scene.boxes
                ],
            },
            f,
        )
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"spec": asdict(scene.spec), "seed": scene.seed}, f)


def parse_scene_spec(raw) -> SyntheticSceneSpec:
    """SyntheticSceneSpec from a decoded JSON object; lists become tuples.

    Raises FormatError unless raw is an object of spec fields whose values
    are shaped like the fields' defaults, and ValueError on an out-of-range
    value.
    """
    if not isinstance(raw, dict):
        raise FormatError(f"scene spec must be a JSON object, got {type(raw).__name__}")
    defaults = asdict(SyntheticSceneSpec())
    for k, v in raw.items():
        if k not in defaults:
            raise FormatError(f"unknown scene spec key {k!r}")
        if not _fits(v, defaults[k]):
            raise FormatError(f"scene spec key {k!r} must be shaped like "
                              f"{json.dumps(defaults[k])}")
    return SyntheticSceneSpec(**{
        k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()
    })


def _fits(value, default) -> bool:
    """Whether a JSON value has the shape and number kinds of a field's default."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_fits(x, d) for x, d in zip(value, default)))
    number = int if isinstance(default, int) else (int, float)
    return isinstance(value, number) and not isinstance(value, bool)


def _json_object(scene_dir, name) -> dict:
    doc = read_text(os.path.join(scene_dir, name), json.loads)
    if not isinstance(doc, dict):
        raise FormatError(f"{scene_dir}: {name} must be a JSON object, "
                          f"got {type(doc).__name__}")
    return doc


def load_scene(scene_dir) -> Scene:
    """Scene written by save_scene. Raises FormatError when a JSON file is not
    shaped as save_scene writes it, and ValueError on an out-of-range spec."""
    lidar = read_velodyne_bin(os.path.join(scene_dir, "lidar.bin"))
    virtual = read_virtual_bin(os.path.join(scene_dir, "virtual.bin"))
    labels = _json_object(scene_dir, "labels.json")
    meta = _json_object(scene_dir, "meta.json")
    try:
        spec, seed = parse_scene_spec(meta["spec"]), meta["seed"]
    except KeyError as e:
        raise FormatError(f"{scene_dir}: meta.json has no key {e}") from None
    if not _fits(seed, 0):
        raise FormatError(f"{scene_dir}: meta.json seed must be an integer")
    where = f"{scene_dir}: labels.json"
    try:
        noise, boxes = labels["noise"], labels["boxes"]
        if not (isinstance(boxes, list) and all(isinstance(b, dict) for b in boxes)):
            raise FormatError(f"{where}: boxes must be a list of objects")
        boxes = [(b["center"], b["size"]) for b in boxes]
    except KeyError as e:
        raise FormatError(f"{where} has no key {e}") from None
    if not all(_fits(v, (0.0, 0.0, 0.0)) for box in boxes for v in box):
        raise FormatError(f"{where}: each box center and size must be 3 numbers")
    if not (isinstance(noise, list) and len(noise) == virtual.n
            and all(v in (0, 1) for v in noise)):
        raise FormatError(f"{where}: noise must hold one 0/1 label per virtual "
                          f"point ({virtual.n})")
    return Scene(lidar=lidar, virtual=virtual, noise_labels=np.array(noise, dtype=bool),
                 boxes=[Box(tuple(center), tuple(size)) for center, size in boxes],
                 spec=spec, seed=seed)


def load_scene_calib(scene_dir) -> Calibration:
    return parse_kitti_calib(os.path.join(scene_dir, "calib.txt"))

"""Acceptance suite: one test per stated criterion, with stated tolerances.

Each test prints a single PASS-style summary line with the measured value so
a log reader can audit the margins.
"""

import math
import struct

import numpy as np
import pytest

from virconv import (
    ActivationSpec,
    AugmentationRecord,
    KernelWeights,
    NetWeights,
    SeededRng,
    SparseVoxelTensor,
    SpconvWeights,
    StvdConfig,
    VirConvNetSpec,
    VoxelGridSpec,
    apply_augmentation,
    bin_histogram,
    default_classifier_scene_spec,
    fuse_early,
    input_stvd,
    nrconv,
    parse_kitti_calib,
    project_to_image,
    roc_auc,
    scene_to_dataset,
    train_noise_classifier,
    virconvnet_forward,
)
from virconv.classifier import HEAD_CONV3D, HEAD_NRCONV, VoxelDataset
from virconv.conv import conv2d_branch, spconv_downsample, submanifold_conv3d
from virconv.geometry import project_points_chain
from virconv.oracle import (
    GRAD_TOL,
    MIN_CHECKED_SHARE,
    dense_conv2d_branch,
    dense_nrconv,
    dense_spconv_downsample,
    dense_submanifold_conv3d,
    gradcheck,
)
from virconv.scene import SyntheticSceneSpec, generate_scene, synthetic_calibration
from virconv.tensor import CENTER_3D, ORIGIN_LIDAR, ORIGIN_VIRTUAL
from conftest import random_h2d, random_tensor

LEAKY = ActivationSpec("leaky_relu", 0.1)


def rel_err(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


def compared_work(t, h2d) -> np.ndarray:
    """[3D pairs besides the centre, 2D cells with a neighbour, sites on the
    grid edge] of a tensor and its cell assignment."""
    pairs3d = sum(len(out) for k, (out, _) in enumerate(t.kernel_map()) if k != CENTER_3D)
    cell_pairs = t.cell_map(h2d)[3]
    centre = len(cell_pairs) // 2
    neighboured = np.unique(np.concatenate(
        [out for k, (out, _) in enumerate(cell_pairs) if k != centre]))
    edge = ((t.indices == 0) | (t.indices == np.array(t.spec.extent) - 1)).any(axis=1)
    return np.array([pairs3d, len(neighboured), int(edge.sum())])


# ---------------------------------------------------------------- criterion 1

def test_c1_all_ops_match_dense_reference_on_100_random_scenes():
    worst = 0.0
    work = np.zeros(3, np.int64)
    for seed in range(100):
        rng = SeededRng(seed)
        extent = tuple(int(e) for e in rng.gen.integers(4, 17, size=3))
        t = random_tensor(rng, extent=extent, occupancy=0.3, c=3,
                          with_flags=True)
        h2d = random_h2d(rng, t.n, span=6, invalid_frac=0.1)
        kw = KernelWeights.initialize(3, 4, rng)
        sw = SpconvWeights.initialize(3, 4, rng)
        worst = max(
            worst,
            rel_err(submanifold_conv3d(t, kw, LEAKY).features,
                    dense_submanifold_conv3d(t, kw, LEAKY)),
            rel_err(conv2d_branch(t, h2d, kw, LEAKY),
                    dense_conv2d_branch(t, h2d, kw, LEAKY)),
            rel_err(nrconv(t, h2d, kw, LEAKY).features,
                    dense_nrconv(t, h2d, kw, LEAKY)),
        )
        out = spconv_downsample(t, sw, LEAKY)
        ref_idx, ref_feats = dense_spconv_downsample(t, sw, LEAKY)
        assert np.array_equal(out.indices, ref_idx)
        worst = max(worst, rel_err(out.features, ref_feats))
        work += compared_work(t, h2d)
    print(f"\n[criterion 1] worst relative error over 100 scenes: {worst:.3e} "
          f"({work[0]} 3D pairs besides the centre, {work[1]} 2D cells with a "
          f"neighbour, {work[2]} sites on the grid edge)")
    assert worst < 1e-5
    assert work.all()


# ---------------------------------------------------------------- criterion 2

@pytest.mark.parametrize("op", ["conv3d", "conv2d", "nrconv", "spconv"])
def test_c2_finite_difference_gradients_100_probes(op):
    rng = SeededRng(31)
    t = random_tensor(rng, extent=(6, 6, 6), occupancy=0.3, c=3)
    h2d = random_h2d(rng, t.n, span=4, invalid_frac=0.1)
    if op == "spconv":
        w = SpconvWeights.initialize(3, 4, rng)
    else:
        w = KernelWeights.initialize(3, 4, rng)
    err, checked, skipped = gradcheck(op, t, h2d, w, LEAKY, rng, num_probes=100)
    print(f"\n[criterion 2] {op} max relative gradient error: {err:.3e} "
          f"({checked} probes compared, {skipped} skipped)")
    assert checked + skipped == 100 and checked >= MIN_CHECKED_SHARE * 100
    assert err < GRAD_TOL


# ---------------------------------------------------------------- criterion 3

def _nearby_heavy_tensor():
    """~11k virtual voxels in each nearby bin, 600 distant, 500 LiDAR."""
    spec = VoxelGridSpec(origin=(0.0, -40.0, -3.0), voxel_size=(0.25, 0.25, 0.25),
                         extent=(400, 320, 24))
    rng = SeededRng(77)
    ix, iy = np.meshgrid(np.arange(400), np.arange(320), indexing="ij")
    cx = 0.0 + (ix + 0.5) * 0.25
    cy = -40.0 + (iy + 0.5) * 0.25
    dist = np.hypot(cx, cy).ravel()
    ix, iy = ix.ravel(), iy.ravel()

    def sample(lo, hi, count):
        cand = np.flatnonzero((dist >= lo) & (dist < hi))
        cols = rng.gen.choice(len(cand) * 24, size=count, replace=False)
        rows = cand[cols // 24]
        return np.stack([ix[rows], iy[rows], cols % 24], axis=1)

    parts = [sample(b * 10.0, (b + 1) * 10.0, 11_000) for b in range(3)]
    parts.append(sample(31.0, 99.0, 600))
    parts.append(sample(0.5, 29.0, 500))   # LiDAR voxels, nearby
    idx = np.vstack(parts)
    idx, uniq_rows = np.unique(idx, axis=0, return_index=True)
    flags = np.full(len(np.vstack(parts)), ORIGIN_VIRTUAL, dtype=np.int8)
    flags[-500:] = ORIGIN_LIDAR
    flags = flags[uniq_rows]
    feats = np.ones((len(idx), 2))
    return SparseVoxelTensor(idx, feats, spec, origin_flags=flags)


def test_c3_input_discard_statistics_on_nearby_heavy_tensor():
    t = _nearby_heavy_tensor()
    cfg = StvdConfig()
    out = input_stvd(t, cfg, SeededRng(5))

    virtual_before = t.take_rows(np.flatnonzero(t.origin_flags == ORIGIN_VIRTUAL))
    virtual_after = out.take_rows(np.flatnonzero(out.origin_flags == ORIGIN_VIRTUAL))
    discard = 1.0 - virtual_after.n / virtual_before.n
    print(f"\n[criterion 3] virtual discard fraction: {discard:.4f}")
    assert 0.85 <= discard <= 0.95

    # 100% retention beyond the nearby limit.
    hb = bin_histogram(virtual_before, cfg)
    ha = bin_histogram(virtual_after, cfg)
    assert np.array_equal(hb[3:], ha[3:])
    # Counting oracle: each nearby bin keeps exactly its cap.
    for b in range(3):
        assert ha[b] == min(hb[b], cfg.keep_per_nearby_bin)
    # LiDAR voxels bypass the discard entirely.
    assert int((out.origin_flags == ORIGIN_LIDAR).sum()) == \
        int((t.origin_flags == ORIGIN_LIDAR).sum())


# ---------------------------------------------------------------- criterion 4

def test_c4_input_discard_speedup_on_dense_scene():
    import time

    spec = SyntheticSceneSpec(num_objects=10, x_range=(7.0, 28.0),
                              y_range=(-14.0, 14.0), virtual_multiplier=8.0,
                              noise_magnitude=1.5)
    scene = generate_scene(spec, SeededRng(42))
    assert scene.virtual.n >= 300_000
    cloud = fuse_early(scene.lidar, scene.virtual)
    net = VirConvNetSpec.default()
    weights = NetWeights.initialize(net, SeededRng(1))
    calib = synthetic_calibration()

    def run(apply_stvd):
        t0 = time.perf_counter()
        virconvnet_forward(cloud, net, StvdConfig(), calib,
                           AugmentationRecord.identity(), weights,
                           SeededRng(2), apply_input_stvd=apply_stvd)
        return time.perf_counter() - t0

    for apply_stvd in (True, False):
        run(apply_stvd)   # warm-up
    with_stvd = np.median([run(True) for _ in range(5)])
    without = np.median([run(False) for _ in range(5)])
    speedup = without / with_stvd
    print(f"\n[criterion 4] measured speedup: {speedup:.2f}x "
          f"({without * 1e3:.0f} ms -> {with_stvd * 1e3:.0f} ms)")
    assert speedup >= 1.5


# ---------------------------------------------------------------- criterion 5

def test_c5_output_sites_equal_input_sites_1000_random_inputs():
    kw = KernelWeights.initialize(2, 2, SeededRng(0))
    work = np.zeros(3, np.int64)
    for seed in range(1000):
        rng = SeededRng(seed)
        t = random_tensor(rng, extent=(5, 5, 5), occupancy=0.3, c=2)
        h2d = random_h2d(rng, t.n, span=3, invalid_frac=0.2)
        out = nrconv(t, h2d, kw, LEAKY)
        assert np.array_equal(out.indices, t.indices)
        work += compared_work(t, h2d)
    print(f"\n[criterion 5] index sets identical on 1000 random inputs ({work[0]} 3D "
          f"pairs besides the centre, {work[1]} 2D cells with a neighbour, {work[2]} "
          f"sites on the grid edge)")
    assert work.all()


# ---------------------------------------------------------------- criterion 6

def test_c6_projection_chain_invariant_to_augmentation():
    calib = synthetic_calibration()
    rng = SeededRng(8)
    pts = np.column_stack([
        rng.gen.uniform(5.0, 60.0, 500),
        rng.gen.uniform(-20.0, 20.0, 500),
        rng.gen.uniform(-2.0, 2.0, 500),
    ])
    baseline = project_points_chain(pts, AugmentationRecord.identity(), calib)
    for k in range(100):
        rec = AugmentationRecord(
            rotation_z=float(rng.gen.uniform(-math.pi + 1e-6, math.pi)),
            scale=float(rng.gen.uniform(0.9, 1.1)),
            flip_y=bool(rng.gen.integers(0, 2)),
        )
        cells = project_points_chain(apply_augmentation(pts, rec), rec, calib)
        assert np.array_equal(cells, baseline)
    print("\n[criterion 6] 100 augmentation records: 0 cells deviated")


# ---------------------------------------------------------------- criterion 7

def test_c7_image_branch_beats_3d_only_on_noise_classification():
    spec = default_classifier_scene_spec()
    train = [scene_to_dataset(generate_scene(spec, SeededRng(100 + i)))
             for i in range(4)]
    evals = [scene_to_dataset(generate_scene(spec, SeededRng(200 + i)))
             for i in range(3)]
    eval_labels = np.concatenate([d.labels for d in evals])

    def fit(head, datasets):
        return train_noise_classifier(datasets, evals, head, SeededRng(7))["eval_scores"]

    auc_nr = roc_auc(fit(HEAD_NRCONV, train), eval_labels)
    auc_3d = roc_auc(fit(HEAD_CONV3D, train), eval_labels)
    gap = auc_nr - auc_3d

    # Label-shuffled control: the same experiment run on permuted labels
    # (train and eval alike) must come out at chance. This guards the
    # pipeline against label leakage.
    shuffle_rng = SeededRng(500)
    shuffled = [
        VoxelDataset(tensor=d.tensor, h2d=d.h2d,
                     labels=shuffle_rng.gen.permutation(d.labels))
        for d in train
    ]
    shuffled_eval_labels = shuffle_rng.gen.permutation(eval_labels)
    auc_control = roc_auc(fit(HEAD_NRCONV, shuffled), shuffled_eval_labels)

    print(f"\n[criterion 7] AUC two-branch {auc_nr:.4f}, 3D-only {auc_3d:.4f}, "
          f"gap {gap:.4f}, shuffled control {auc_control:.4f}")
    assert gap >= 0.05
    assert 0.45 <= auc_control <= 0.55


# ---------------------------------------------------------------- criterion 8

def test_c8_cli_outputs_are_deterministic(tmp_path, capsys):
    from virconv.cli import main

    def run(argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out

    # synth: every artifact byte-identical across re-runs.
    run(["synth", "--seed", 9, "--out", tmp_path / "a"])
    run(["synth", "--seed", 9, "--out", tmp_path / "b"])
    for f in ("lidar.bin", "virtual.bin", "calib.txt", "labels.json", "meta.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    scene = tmp_path / "a"
    common = ["--lidar", scene / "lidar.bin", "--virtual", scene / "virtual.bin"]

    # forward summaries.
    for name in ("f1.json", "f2.json"):
        run(["forward", *common, "--calib", scene / "calib.txt", "--seed", 4,
             "--out", tmp_path / name])
    assert (tmp_path / "f1.json").read_bytes() == (tmp_path / "f2.json").read_bytes()

    # stvd-stats CSV and fuse binary.
    for name in ("s1.csv", "s2.csv"):
        run(["stvd-stats", "--scene", scene, "--seed", 4, "--csv", tmp_path / name])
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    for name in ("x1.bin", "x2.bin"):
        run(["fuse", *common, "--out", tmp_path / name])
    assert (tmp_path / "x1.bin").read_bytes() == (tmp_path / "x2.bin").read_bytes()

    # gradcheck report text.
    assert run(["gradcheck", "--op", "conv2d", "--seed", 3, "--size", 5]) == \
        run(["gradcheck", "--op", "conv2d", "--seed", 3, "--size", 5])

    # bench-stvd: all columns except wall-time measurements.
    def bench(name):
        run(["bench-stvd", "--scene", scene, "--sweep-rates", "0,0.9",
             "--repeats", 5, "--seed", 4, "--csv", tmp_path / name])
        lines = (tmp_path / name).read_text().splitlines()
        return lines[:4] + [",".join(ln.split(",")[:5]) for ln in lines[4:]]

    assert bench("b1.csv") == bench("b2.csv")
    print("\n[criterion 8] byte-identical outputs across repeated runs")


# ---------------------------------------------------------------- criterion 9

def test_c9_backbone_emits_four_levels_16_32_64_64_at_strides_1_2_4_8():
    net = VirConvNetSpec.default()
    assert [b.c_out for b in net.blocks] == [16, 32, 64, 64]
    scene = generate_scene(
        SyntheticSceneSpec(num_objects=3, x_range=(8.0, 30.0),
                           y_range=(-10.0, 10.0)),
        SeededRng(6),
    )
    grid = VoxelGridSpec(origin=(0.0, -20.0, -3.0), voxel_size=(0.2, 0.2, 0.2),
                         extent=(256, 200, 24))
    levels = virconvnet_forward(
        fuse_early(scene.lidar, scene.virtual), net, StvdConfig(),
        synthetic_calibration(), AugmentationRecord.identity(),
        NetWeights.initialize(net, SeededRng(0)), SeededRng(0), grid=grid,
    )
    assert [t.width for t in levels] == [16, 32, 64, 64]
    assert [t.spec.stride_level for t in levels] == [1, 2, 4, 8]
    print("\n[criterion 9] levels: "
          + ", ".join(f"{t.width}ch@{t.spec.stride_level}x" for t in levels))


# --------------------------------------------------------------- criterion 10

def test_c10_kitti_fixture_ingestion_and_projection_oracle(tmp_path):
    # Raw little-endian float32 records, written without library helpers.
    points = [(12.0, 1.5, -0.5, 0.3), (30.0, -4.0, 0.8, 0.9)]
    blob = b"".join(struct.pack("<4f", *p) for p in points)
    (tmp_path / "scan.bin").write_bytes(blob)

    calib_text = (
        "P2: 707.0493 0.0 604.0814 45.75831 "
        "0.0 707.0493 180.5066 -0.3454157 "
        "0.0 0.0 1.0 0.004981016\n"
        "R0_rect: 0.9999239 0.00983776 -0.007445048 "
        "-0.009869795 0.9999421 -0.004278459 "
        "0.007402527 0.004351614 0.9999631\n"
        "Tr_velo_to_cam: 0.007533745 -0.9999714 -0.000616602 -0.004069766 "
        "0.01480249 0.0007280733 -0.9998902 -0.07631618 "
        "0.9998621 0.00752379 0.0148556 -0.2717806\n"
    )
    (tmp_path / "calib.txt").write_text(calib_text)

    from virconv.geometry import read_velodyne_bin
    cloud = read_velodyne_bin(tmp_path / "scan.bin")
    assert cloud.n == 2
    assert np.allclose(cloud.points[0, :4], points[0], atol=1e-6)

    calib = parse_kitti_calib(tmp_path / "calib.txt")
    probe = np.array([[12.0, 1.5, -0.5]])
    uv, valid = project_to_image(probe, calib)
    assert valid[0]

    # Independent chain: homogeneous 4x4 composition evaluated directly.
    Tr = np.vstack([calib.lidar_to_cam, [0, 0, 0, 1]])
    R = np.eye(4)
    R[:3, :3] = calib.rect
    hom = calib.cam_projection @ R @ Tr @ np.array([12.0, 1.5, -0.5, 1.0])
    expect = hom[:2] / hom[2]
    err = np.abs(uv[0] - expect).max()
    print(f"\n[criterion 10] projection deviation vs matrix oracle: {err:.2e} px")
    assert err < 1e-6

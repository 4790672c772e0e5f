"""Command-line surface.

Subcommands: forward, bench-stvd, gradcheck, synth, stvd-stats, fuse.
Exit codes: 0 success, 2 parse/file error, 3 shape or configuration error.
Every command is deterministic given (--seed, config); primary outputs embed
the seed and a config hash so fixtures self-identify. Timing columns in
bench output are the only values that vary between runs.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .bench import config_hash, run_sweep
from .geometry import (
    AugmentationRecord,
    FormatError,
    default_grid_spec,
    parse_kitti_calib,
    read_text,
    read_velodyne_bin,
    read_virtual_bin,
    voxelize,
    write_fused_bin,
)
from .net import NetWeights, VirConvNetSpec, fuse_early, virconvnet_forward
from .oracle import GRAD_TOL, MIN_CHECKED_SHARE, gradcheck
from .rng import SeededRng
from .scene import SyntheticSceneSpec, generate_scene, load_scene, parse_scene_spec, save_scene
from .stvd import MODE_ALL, MODE_VIRTUAL_ONLY, StvdConfig, bin_histogram, input_stvd
from .checkpoint import load_weights

CSV_SCHEMA_VERSION = 1
GRADCHECK_MAX_SIZE = 32   # gradcheck --size: a size**3 grid, 30% occupied
# stvd-stats' flag for each StvdConfig field, whose type and default it takes.
STVD_FLAGS = {"num_bins": "--bins", "nearby_limit": "--nearby-limit", "mode": "--mode",
              "keep_per_nearby_bin": "--keep-per-bin", "bin_range": "--bin-range"}

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3


def _tensor_checksum(tensor) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(tensor.indices).tobytes())
    h.update(np.ascontiguousarray(tensor.features).tobytes())
    return h.hexdigest()[:16]


def _weights_digest(weights) -> str:
    """SHA-256 of the parameters' little-endian float64 bytes, in parameter
    order: equal weights hash equal wherever their checkpoint lives."""
    h = hashlib.sha256()
    for _, arr, _ in weights.params():
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def _read_cloud(lidar_path, virtual_path):
    """The LiDAR cloud, early-fused with the virtual cloud when one is given."""
    lidar = read_velodyne_bin(lidar_path)
    if virtual_path is None:
        return lidar
    return fuse_early(lidar, read_virtual_bin(virtual_path))


def _write_text(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _write_csv(path, seed, chash, lines):
    """_write_text of the CSV lines under the schema version, seed and config hash."""
    _write_text(path, "\n".join([f"# schema_version={CSV_SCHEMA_VERSION}", f"# seed={seed}",
                                 f"# config_hash={chash}", *lines]) + "\n")


def cmd_forward(args) -> int:
    cloud = _read_cloud(args.lidar, args.virtual)
    calib = parse_kitti_calib(args.calib)
    spec = VirConvNetSpec.default()
    if args.weights:
        weights = load_weights(args.weights, spec)
    else:
        weights = NetWeights.initialize(spec, SeededRng(args.seed))
    cfg = StvdConfig()
    levels = virconvnet_forward(
        cloud, spec, cfg, calib, AugmentationRecord.identity(), weights,
        SeededRng(args.seed), training=False, apply_input_stvd=not args.no_stvd,
    )
    summary = {
        "schema_version": CSV_SCHEMA_VERSION,
        "seed": args.seed,
        "config_hash": config_hash(
            {"seed": args.seed, "no_stvd": args.no_stvd,
             "weights": _weights_digest(weights) if args.weights else ""}
        ),
        "levels": [
            {
                "level": i + 1,
                "n": t.n,
                "width": t.width,
                "stride": t.spec.stride_level,
                "checksum": _tensor_checksum(t),
            }
            for i, t in enumerate(levels)
        ],
    }
    _write_text(args.out, json.dumps(summary, sort_keys=True, indent=1) + "\n")
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        for i, t in enumerate(levels):
            _write_text(os.path.join(args.dump_dir, f"level{i + 1}.json"),
                        json.dumps(t.to_debug_dict()))
    return EXIT_OK


def cmd_bench_stvd(args) -> int:
    try:
        rates = [float(r) for r in args.sweep_rates.split(",")]
    except ValueError:
        raise FormatError(f"--sweep-rates must be comma-separated numbers, "
                          f"got {args.sweep_rates!r}") from None
    reports = run_sweep(args.scene, rates, args.repeats, args.seed)
    lines = ["scenario,rate,keep_per_bin,voxels_before,voxels_after,"
             + ",".join(reports[0].stage_ms) + ",time_ms_median,speedup"]
    for r in reports:
        stage = ",".join(f"{ms:.3f}" for ms in r.stage_ms.values())
        lines.append(
            f"{r.scenario},{r.rate},{r.keep_per_bin},{r.voxels_before},"
            f"{r.voxels_after},{stage},{r.time_ms_median:.3f},{r.speedup:.4f}"
        )
    _write_csv(args.csv, args.seed, reports[0].config_hash, lines)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rng = SeededRng(args.seed)
    from .conv import ActivationSpec, KernelWeights, SpconvWeights
    from .tensor import SparseVoxelTensor, VoxelGridSpec

    size = args.size
    extent = (max(size, 1), max(size, 1), max(size, 1))
    spec = VoxelGridSpec(origin=(0, 0, 0), voxel_size=(0.1, 0.1, 0.1), extent=extent)
    if not 1 <= size <= GRADCHECK_MAX_SIZE:
        raise ValueError(f"--size {size} must lie in 1..{GRADCHECK_MAX_SIZE}")
    n = max(1, int(0.3 * size ** 3))
    idx = np.stack(np.unravel_index(rng.gen.choice(size ** 3, size=n, replace=False), extent), 1)
    c_in, c_out = 3, 4
    feats = rng.gen.normal(size=(n, c_in))
    tensor = SparseVoxelTensor(idx, feats, spec)
    h2d = np.stack([idx[:, 0] + idx[:, 2], idx[:, 1]], axis=1)
    act = ActivationSpec("leaky_relu", 0.1)
    if args.op == "spconv":
        weights = SpconvWeights.initialize(c_in, c_out, rng)
    else:
        weights = KernelWeights.initialize(c_in, c_out, rng)
    err, checked, skipped = gradcheck(args.op, tensor, h2d, weights, act, rng,
                                      num_probes=100)
    ok = err < GRAD_TOL and checked > 0 and checked >= MIN_CHECKED_SHARE * (checked + skipped)
    tol = np.format_float_scientific(GRAD_TOL, trim="-", exp_digits=1)   # 1e-4, not 0.0001
    print(f"op={args.op} size={size} max_rel_err={err:.3e} checked={checked} "
          f"skipped={skipped} {'PASS' if ok else 'FAIL'} (tolerance {tol}, "
          f"at least {MIN_CHECKED_SHARE:.0%} of probes compared)")
    return EXIT_OK if ok else 1


def cmd_synth(args) -> int:
    if args.spec:
        spec = parse_scene_spec(read_text(args.spec, json.loads))
    else:
        spec = SyntheticSceneSpec()
    scene = generate_scene(spec, SeededRng(args.seed))
    save_scene(scene, args.out)
    print(
        f"scene written to {args.out}: {scene.lidar.n} lidar points, "
        f"{scene.virtual.n} virtual points, {int(scene.noise_labels.sum())} noise-labelled"
    )
    return EXIT_OK


def cmd_stvd_stats(args) -> int:
    if not (args.scene or args.lidar) or args.scene and (args.lidar or args.virtual):
        raise FormatError("stvd-stats reads either --scene, or --lidar with an optional --virtual")
    if args.scene:
        scene = load_scene(args.scene)
        cloud = fuse_early(scene.lidar, scene.virtual)
    else:
        cloud = _read_cloud(args.lidar, args.virtual)
    cfg = StvdConfig(**{name: getattr(args, name) for name in STVD_FLAGS})
    tensor = voxelize(cloud, default_grid_spec())
    after = input_stvd(tensor, cfg, SeededRng(args.seed))
    before_hist = bin_histogram(tensor, cfg)
    after_hist = bin_histogram(after, cfg)
    chash = config_hash({**asdict(cfg), "seed": args.seed})
    lines = ["bin_index,bin_lo_m,bin_hi_m,count_before,count_after"]
    for b in range(cfg.num_bins + 1):
        lo = b * cfg.bin_width
        hi = (b + 1) * cfg.bin_width if b < cfg.num_bins else float("inf")
        lines.append(f"{b},{lo},{hi},{before_hist[b]},{after_hist[b]}")
    _write_csv(args.csv, args.seed, chash, lines)
    return EXIT_OK


def cmd_fuse(args) -> int:
    fused = _read_cloud(args.lidar, args.virtual)
    write_fused_bin(args.out, fused)
    print(f"{fused.n} points written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="virconv")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("forward", help="run the backbone on point cloud files")
    f.add_argument("--lidar", required=True)
    f.add_argument("--virtual")
    f.add_argument("--calib", required=True)
    f.add_argument("--weights")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--no-stvd", action="store_true")
    f.add_argument("--out")
    f.add_argument("--dump-dir")
    f.set_defaults(func=cmd_forward)

    b = sub.add_parser("bench-stvd", help="discard-rate sweep benchmark")
    b.add_argument("--scene", required=True)
    b.add_argument("--sweep-rates", default="0,0.5,0.8,0.9,0.95,0.99")
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--csv")
    b.set_defaults(func=cmd_bench_stvd)

    g = sub.add_parser("gradcheck", help="finite-difference gradient check")
    g.add_argument("--op", choices=["conv3d", "conv2d", "nrconv", "spconv"],
                   required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", type=int, default=6)
    g.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("synth", help="generate a synthetic scene directory")
    s.add_argument("--spec", help="JSON file of scene spec overrides")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    st = sub.add_parser("stvd-stats", help="per-bin voxel counts before/after discard")
    st.add_argument("--scene")
    st.add_argument("--lidar")
    st.add_argument("--virtual")
    for fld in fields(StvdConfig):   # the one str field has two choices
        st.add_argument(STVD_FLAGS[fld.name], dest=fld.name, type=fld.type, default=fld.default,
                        choices=[MODE_ALL, MODE_VIRTUAL_ONLY] if fld.type is str else None)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--csv")
    st.set_defaults(func=cmd_stvd_stats)

    fu = sub.add_parser("fuse", help="early-fuse lidar and virtual clouds")
    fu.add_argument("--lidar", required=True)
    fu.add_argument("--virtual", required=True)
    fu.add_argument("--out", required=True)
    fu.set_defaults(func=cmd_fuse)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: outputs, determinism hooks, and exit codes."""

import json
import shutil
import warnings

import numpy as np
import pytest

from virconv import NetWeights, SeededRng, VirConvNetSpec
from virconv.checkpoint import save_weights
from virconv.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, main
from virconv.geometry import read_fused_bin
from virconv.scene import SyntheticSceneSpec, generate_scene, save_scene
from conftest import corrupt_conv3d_gradient


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    spec = SyntheticSceneSpec(num_objects=3, x_range=(8.0, 30.0),
                              y_range=(-10.0, 10.0))
    save_scene(generate_scene(spec, SeededRng(11)), root / "s0")
    return root / "s0"


def run(argv):
    return main([str(a) for a in argv])


def test_synth_writes_scene_directory(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"num_objects": 2, "x_range": [8.0, 20.0]}))
    out = tmp_path / "scene"
    assert run(["synth", "--spec", spec_file, "--seed", 5, "--out", out]) == EXIT_OK
    for f in ("lidar.bin", "virtual.bin", "calib.txt", "labels.json", "meta.json"):
        assert (out / f).exists()
    assert "virtual points" in capsys.readouterr().out


def test_forward_summary_structure(scene_dir, tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = run([
        "forward", "--lidar", scene_dir / "lidar.bin",
        "--virtual", scene_dir / "virtual.bin",
        "--calib", scene_dir / "calib.txt", "--seed", 3, "--out", out,
    ])
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    levels = summary["levels"]
    assert [lv["width"] for lv in levels] == [16, 32, 64, 64]
    assert [lv["stride"] for lv in levels] == [1, 2, 4, 8]
    assert all(len(lv["checksum"]) == 16 for lv in levels)


def test_forward_dump_dir(scene_dir, tmp_path, capsys):
    dump = tmp_path / "dump"
    code = run([
        "forward", "--lidar", scene_dir / "lidar.bin",
        "--calib", scene_dir / "calib.txt", "--dump-dir", dump,
    ])
    assert code == EXIT_OK
    level1 = json.loads((dump / "level1.json").read_text())
    assert set(level1) >= {"indices", "features"}
    capsys.readouterr()


def test_forward_rejects_a_partial_or_malformed_checkpoint(scene_dir, tmp_path, capsys):
    weights = tmp_path / "w.bin"
    save_weights(weights, NetWeights.initialize(VirConvNetSpec.default(), SeededRng(0)))
    manifest = json.loads((tmp_path / "w.bin.json").read_text())
    argv = ["forward", "--lidar", scene_dir / "lidar.bin", "--calib", scene_dir / "calib.txt",
            "--weights", weights]
    for doc, code in ((dict(manifest, params=manifest["params"][:1]), EXIT_CONFIG),
                      ([manifest], EXIT_PARSE),
                      ({"params": manifest["params"]}, EXIT_PARSE)):
        (tmp_path / "w.bin.json").write_text(json.dumps(doc))
        assert run(argv) == code
        assert "error:" in capsys.readouterr().err


def test_forward_names_the_parameter_of_a_non_finite_checkpoint(scene_dir, tmp_path, capsys):
    weights = tmp_path / "w.bin"
    save_weights(weights, NetWeights.initialize(VirConvNetSpec.default(), SeededRng(0)))
    entry = json.loads((tmp_path / "w.bin.json").read_text())["params"][2]
    blob = bytearray(weights.read_bytes())
    blob[entry["offset"]: entry["offset"] + 8] = np.float64(np.nan).tobytes()
    weights.write_bytes(bytes(blob))
    assert run(["forward", "--lidar", scene_dir / "lidar.bin", "--calib",
                scene_dir / "calib.txt", "--weights", weights]) == EXIT_PARSE
    assert f"parameter {entry['name']} holds non-finite values" in capsys.readouterr().err


def test_forward_rejects_a_calibration_with_bad_numbers(scene_dir, tmp_path, capsys):
    calib = tmp_path / "calib.txt"
    for bad in ("abc", "nan"):
        calib.write_text((scene_dir / "calib.txt").read_text().replace("P2: 400.0", f"P2: {bad}"))
        code = run(["forward", "--lidar", scene_dir / "lidar.bin", "--calib", calib])
        assert code == EXIT_PARSE
        assert "key P2 has a non-" in capsys.readouterr().err


def test_missing_file_is_parse_error(tmp_path, capsys):
    code = run(["forward", "--lidar", tmp_path / "nope.bin",
                "--calib", tmp_path / "nope.txt"])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_truncated_input_is_parse_error(tmp_path, scene_dir, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 10)
    code = run(["forward", "--lidar", bad, "--calib", scene_dir / "calib.txt"])
    assert code == EXIT_PARSE
    capsys.readouterr()


def test_non_finite_bin_is_parse_error(tmp_path, scene_dir, capsys):
    bad = tmp_path / "nan.bin"
    for col in (0, 3):   # x, then alpha (reflectance)
        rec = np.ones((4, 4), "<f4")
        rec[2, col] = np.nan
        rec.tofile(bad)
        for argv in (["forward", "--lidar", bad, "--calib", scene_dir / "calib.txt"],
                     ["stvd-stats", "--lidar", bad],
                     ["fuse", "--lidar", bad, "--virtual", scene_dir / "virtual.bin",
                      "--out", tmp_path / "fused.bin"]):
            assert run(argv) == EXIT_PARSE
            assert "non-finite value in record 2" in capsys.readouterr().err
        assert not (tmp_path / "fused.bin").exists()


def test_key_overflowing_extent_is_config_error(capsys):
    # An extent of 2**21 per axis puts (2**21 + 2)**3 padded keys past int64.
    code = run(["gradcheck", "--op", "conv3d", "--size", 2 ** 21])
    assert code == EXIT_CONFIG
    assert "overflows int64" in capsys.readouterr().err


def test_bad_config_is_config_error(scene_dir, capsys):
    code = run(["stvd-stats", "--scene", scene_dir, "--bins", 0])
    assert code == EXIT_CONFIG
    capsys.readouterr()
    # Degenerate ranges: each fails its own check, which names the field.
    for flag, value, field in (("--bin-range", "inf", "bin_range"),
                               ("--bin-range", "nan", "bin_range"),
                               ("--bin-range", 0, "bin_range"),
                               ("--bin-range", -10, "bin_range"),
                               ("--nearby-limit", "nan", "nearby_limit"),
                               ("--nearby-limit", -5, "nearby_limit"),
                               ("--nearby-limit", 101, "nearby_limit")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["stvd-stats", "--scene", scene_dir, flag, value])
        assert code == EXIT_CONFIG, (flag, value)
        assert capsys.readouterr().err.startswith(f"error: {field} must ")


@pytest.mark.parametrize("raw", [{"foo": 1}, [1, 2], {"lidar_density": "dense"},
                                 {"num_objects": 2.5}, {"x_range": [8.0]},
                                 {"ground_z": None}, {"size_min": 3.0}])
def test_malformed_scene_spec_is_parse_error(tmp_path, capsys, raw):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(raw))
    assert run(["synth", "--spec", spec_file, "--out", tmp_path / "s"]) == EXIT_PARSE
    assert "scene spec" in capsys.readouterr().err


def test_out_of_range_scene_spec_is_config_error(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"boundary_noise_rate": 1.5}))
    assert run(["synth", "--spec", spec_file, "--out", tmp_path / "s"]) == EXIT_CONFIG
    assert "boundary_noise_rate" in capsys.readouterr().err


@pytest.mark.parametrize("raw, field", [
    ({"num_objects": -1}, "num_objects"), ({"noise_magnitude": -0.5}, "noise_magnitude"),
    ({"x_range": [50.0, 8.0]}, "x_range"), ({"y_range": [3.0, 3.0]}, "y_range"),
    ({"size_min": [0.0, 1.5, 1.3]}, "size_min"),
    ({"size_min": [5.0, 1.5, 1.3]}, "size_max")])
def test_scene_spec_range_errors_are_config_errors(tmp_path, capsys, raw, field):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(raw))
    assert run(["synth", "--spec", spec_file, "--out", tmp_path / "s"]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_scene_spec_range_limits_are_accepted():
    spec = SyntheticSceneSpec(num_objects=0, noise_magnitude=0.0, x_range=(8.0, 8.5),
                              size_min=(2.0, 1.0, 1.0), size_max=(2.0, 1.0, 1.0))
    assert generate_scene(spec, SeededRng(0)).boxes == []


@pytest.mark.parametrize("name, path", [
    ("meta.json", ["spec"]), ("meta.json", ["seed"]),
    ("labels.json", ["noise"]), ("labels.json", ["boxes"]),
    ("labels.json", ["boxes", 1, "center"]), ("labels.json", ["boxes", 0, "size"])])
def test_scene_json_missing_a_key_is_parse_error(scene_dir, tmp_path, capsys, name, path):
    bad = tmp_path / "scene"
    shutil.copytree(scene_dir, bad)
    doc = json.loads((bad / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    (bad / name).write_text(json.dumps(doc))
    assert run(["stvd-stats", "--scene", bad]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert name in err and repr(path[-1]) in err


@pytest.mark.parametrize("name, path, value, message", [
    ("meta.json", [], [1, 2], "must be a JSON object"),
    ("meta.json", ["seed"], "3", "seed must be an integer"),
    ("labels.json", [], "labels", "must be a JSON object"),
    ("labels.json", ["boxes", 1], 7, "list of objects"),
    ("labels.json", ["boxes"], {"center": [1, 2, 3]}, "list of objects"),
    ("labels.json", ["boxes", 0, "center"], [1.0, 2.0], "3 numbers"),
    ("labels.json", ["boxes", 1, "size"], [1.0, "2", 3.0], "3 numbers"),
    ("labels.json", ["noise"], [0, 1], "one 0/1 label per virtual point"),
    ("labels.json", ["noise", 0], 2, "one 0/1 label per virtual point")],
    ids=["meta-list", "seed-string", "labels-string", "box-number", "boxes-object",
         "center-two-numbers", "size-string", "noise-short", "noise-two"])
def test_scene_json_of_the_wrong_shape_is_parse_error(scene_dir, tmp_path, capsys, name,
                                                      path, value, message):
    bad = tmp_path / "scene"
    shutil.copytree(scene_dir, bad)
    doc = json.loads((bad / name).read_text())
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    (bad / name).write_text(json.dumps(doc))
    assert run(["stvd-stats", "--scene", bad]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert name in err and message in err


def test_scene_meta_with_unknown_spec_key_is_parse_error(scene_dir, tmp_path, capsys):
    bad = tmp_path / "scene"
    shutil.copytree(scene_dir, bad)
    meta = json.loads((bad / "meta.json").read_text())
    meta["spec"]["foo"] = 1
    (bad / "meta.json").write_text(json.dumps(meta))
    assert run(["stvd-stats", "--scene", bad]) == EXIT_PARSE
    assert "foo" in capsys.readouterr().err


def test_stvd_stats_missing_inputs(capsys):
    assert run(["stvd-stats"]) == EXIT_PARSE
    capsys.readouterr()


def test_stvd_stats_csv_counts(scene_dir, tmp_path, capsys):
    csv = tmp_path / "stats.csv"
    code = run(["stvd-stats", "--scene", scene_dir, "--keep-per-bin", 50,
                "--csv", csv])
    assert code == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[3] == "bin_index,bin_lo_m,bin_hi_m,count_before,count_after"
    rows = [ln.split(",") for ln in lines[4:]]
    assert len(rows) == 11
    before = sum(int(r[3]) for r in rows)
    after = sum(int(r[4]) for r in rows)
    assert 0 < after <= before
    capsys.readouterr()


def test_fuse_roundtrip(scene_dir, tmp_path, capsys):
    out = tmp_path / "fused.bin"
    code = run(["fuse", "--lidar", scene_dir / "lidar.bin",
                "--virtual", scene_dir / "virtual.bin", "--out", out])
    assert code == EXIT_OK
    fused = read_fused_bin(out)
    assert fused.n > 0
    assert set(np.unique(fused.beta)) == {0.0, 1.0}
    capsys.readouterr()


def test_gradcheck_command_passes_and_detects_corruption(monkeypatch, capsys):
    assert run(["gradcheck", "--op", "nrconv", "--seed", 2, "--size", 5]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    corrupt_conv3d_gradient(monkeypatch)
    assert run(["gradcheck", "--op", "conv3d", "--size", 5]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("checked, skipped", [(0, 100), (89, 11)])
def test_gradcheck_command_fails_when_too_few_probes_compared(monkeypatch, capsys,
                                                              checked, skipped):
    # An exact error over too few compared probes proves nothing.
    monkeypatch.setattr("virconv.cli.gradcheck",
                        lambda *a, **k: (0.0, checked, skipped))
    assert run(["gradcheck", "--op", "conv2d", "--size", 3]) == 1
    out = capsys.readouterr().out
    assert f"checked={checked} skipped={skipped}" in out and "FAIL" in out


def test_bench_stvd_csv(scene_dir, tmp_path):
    csv = tmp_path / "bench.csv"
    code = run(["bench-stvd", "--scene", scene_dir, "--sweep-rates", "0,0.9",
                "--repeats", 5, "--seed", 1, "--csv", csv])
    assert code == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    header = lines[3].split(",")
    assert header[:5] == ["scenario", "rate", "keep_per_bin", "voxels_before",
                          "voxels_after"]
    rows = [ln.split(",") for ln in lines[4:]]
    assert len(rows) == 2
    baseline = rows[0]
    assert float(baseline[1]) == 0.0 and float(baseline[-1]) == 1.0


def test_bench_stvd_config_hash_ignores_the_scene_path(scene_dir, tmp_path):
    copy = tmp_path / "elsewhere"
    shutil.copytree(scene_dir, copy)
    csvs = []
    for i, scene in enumerate((scene_dir, copy)):
        csv = tmp_path / f"bench{i}.csv"
        assert run(["bench-stvd", "--scene", scene, "--sweep-rates", "0.9",
                    "--repeats", 5, "--csv", csv]) == EXIT_OK
        csvs.append(csv.read_text().splitlines())
    assert csvs[0][2].startswith("# config_hash=") and csvs[0][2] == csvs[1][2]
    assert [lines[4].split(",")[0] for lines in csvs] == [str(scene_dir), str(copy)]


def bench_rows(scene_dir, tmp_path, rates) -> list:
    """The data rows of a 5-repeat bench-stvd CSV, as header -> value dicts."""
    csv = tmp_path / "bench.csv"
    assert run(["bench-stvd", "--scene", scene_dir, f"--sweep-rates={rates}",
                "--repeats", 5, "--csv", csv]) == EXIT_OK
    lines = csv.read_text().splitlines()
    header = lines[3].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[4:]]


def test_bench_stvd_speedup_is_relative_to_the_rate_zero_row_wherever_it_sits(
        scene_dir, tmp_path):
    rows = bench_rows(scene_dir, tmp_path, "0.9,0")
    assert [float(r["rate"]) for r in rows] == [0.9, 0.0]
    assert float(rows[1]["speedup"]) == 1.0
    expected = float(rows[1]["time_ms_median"]) / float(rows[0]["time_ms_median"])
    assert float(rows[0]["speedup"]) == pytest.approx(expected, rel=1e-2)


def test_bench_stvd_speedup_is_nan_without_a_rate_zero_row(scene_dir, tmp_path):
    assert [r["speedup"] for r in bench_rows(scene_dir, tmp_path, "0.9")] == ["nan"]


@pytest.mark.parametrize("rates", ["0,abc", "", "0,,0.5"])
def test_bench_stvd_rate_that_is_not_a_number_is_parse_error(scene_dir, tmp_path, capsys,
                                                              rates):
    csv = tmp_path / "bench.csv"
    assert run(["bench-stvd", "--scene", scene_dir, f"--sweep-rates={rates}",
                "--csv", csv]) == EXIT_PARSE
    assert "--sweep-rates must be comma-separated numbers" in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("rates", ["0,1.5", "0,1", "-0.1,0.5"])
def test_bench_stvd_rejects_rates_outside_unit_interval(scene_dir, tmp_path, capsys, rates):
    csv = tmp_path / "bench.csv"
    assert run(["bench-stvd", "--scene", scene_dir, f"--sweep-rates={rates}",
                "--csv", csv]) == EXIT_CONFIG
    assert "[0, 1)" in capsys.readouterr().err
    assert not csv.exists()


def test_bench_stvd_rejects_low_repeats(scene_dir, capsys):
    code = run(["bench-stvd", "--scene", scene_dir, "--repeats", 2])
    assert code == EXIT_CONFIG
    capsys.readouterr()

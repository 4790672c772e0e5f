"""Weight checkpoints: round trip, and the manifest and data checks of loading."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from virconv import NetWeights, SeededRng, VirConvNetSpec
from virconv.checkpoint import MAGIC, load_weights, save_weights
from virconv.geometry import FormatError

ROOT = Path(__file__).resolve().parent.parent


def test_checkpoint_roundtrip(tmp_path):
    spec = VirConvNetSpec.default()
    weights = NetWeights.initialize(spec, SeededRng(42))
    path = tmp_path / "w.bin"
    save_weights(path, weights)
    back = load_weights(path, spec)
    for (na, a, _), (nb, b, _) in zip(weights.params(), back.params()):
        assert na == nb
        assert np.array_equal(a, b)


def test_parameter_names_match_benchmark_reference_and_manifest(tmp_path):
    """Checkpoints and perfbench/reference.json key gradients by these names."""
    names = [name for name, _, _ in
             NetWeights.initialize(VirConvNetSpec.default(), SeededRng(0)).params()]
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert list(reference["train_default_stvd"]["0"]["grads"]) == names
    _, manifest = saved_checkpoint(tmp_path)
    assert [entry["name"] for entry in manifest["params"]] == names


def test_checkpoint_rejects_bad_magic_and_shape(tmp_path):
    spec = VirConvNetSpec.default()
    weights = NetWeights.initialize(spec, SeededRng(0))
    path = tmp_path / "w.bin"
    save_weights(path, weights)
    blob = path.read_bytes()
    path.write_bytes(b"NOTMAGIC" + blob[len(MAGIC):])
    with pytest.raises(ValueError, match="magic"):
        load_weights(path, spec)
    path.write_bytes(blob)
    narrow = VirConvNetSpec((replace(spec.blocks[0], c_in=4),) + spec.blocks[1:])
    with pytest.raises(ValueError, match="shape"):
        load_weights(path, narrow)


def saved_checkpoint(tmp_path):
    """(path, manifest) of a freshly saved default-spec checkpoint."""
    path = tmp_path / "w.bin"
    save_weights(path, NetWeights.initialize(VirConvNetSpec.default(), SeededRng(0)))
    return path, json.loads(Path(str(path) + ".json").read_text())


def write_manifest(path, manifest):
    Path(str(path) + ".json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("keep, match", [
    (lambda ps: ps[:1], "lacks 37 parameters"),
    (lambda ps: ps[1:], r"lacks 1 parameters of the net spec, the first is block0\.nrconv0\.w3d"),
    (lambda ps: ps + ps[3:4], r"repeats parameter block0\.nrconv0\.bias2d"),
    (lambda ps: ps + [dict(ps[0], name="block9.w")], r"block9\.w not in net spec")],
    ids=["one-of-38", "first-dropped", "one-repeated", "unknown-name"])
def test_checkpoint_must_hold_each_spec_parameter_once(tmp_path, keep, match):
    path, manifest = saved_checkpoint(tmp_path)
    assert len(manifest["params"]) == 38
    write_manifest(path, dict(manifest, params=keep(manifest["params"])))
    with pytest.raises(ValueError, match=match) as info:
        load_weights(path, VirConvNetSpec.default())
    assert not isinstance(info.value, FormatError)


@pytest.mark.parametrize("edit, match", [
    (lambda m: [m], "manifest must be an object"),
    (lambda m: {"params": m["params"]}, "manifest must be an object"),
    (lambda m: {"version": 1}, "manifest must be an object"),
    (lambda m: dict(m, params={"b1.conv0.w3d": 0}), "manifest must be an object"),
    (lambda m: dict(m, params=[{k: v for k, v in e.items() if k != "offset"}
                               for e in m["params"]]), "needs a name, a shape and an offset"),
    (lambda m: dict(m, params=[dict(e, name=None) for e in m["params"]]), "needs a name"),
    (lambda m: dict(m, params=m["params"][:-1] + [dict(m["params"][-1],
                                                       offset=m["params"][-1]["offset"] + 8)]),
     "does not fit in the"),
    (lambda m: dict(m, params=[dict(m["params"][0], offset=-8)] + m["params"][1:]),
     "does not fit in the"),
    (lambda m: dict(m, params=[dict(m["params"][0], offset=True)] + m["params"][1:]),
     "byte offset True does not fit"),
    (lambda m: dict(m, version=True), "an integer version")],
    ids=["list", "no-version", "no-params", "params-object", "no-offset", "name-null",
         "past-the-end", "negative-offset", "offset-true", "version-true"])
def test_malformed_checkpoint_manifest_is_format_error(tmp_path, edit, match):
    path, manifest = saved_checkpoint(tmp_path)
    write_manifest(path, edit(manifest))
    with pytest.raises(FormatError, match=match):
        load_weights(path, VirConvNetSpec.default())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_data_is_format_error_naming_the_parameter(tmp_path, bad):
    path, manifest = saved_checkpoint(tmp_path)
    entry = manifest["params"][5]
    blob = bytearray(path.read_bytes())
    blob[entry["offset"] + 8: entry["offset"] + 16] = np.float64(bad).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=rf"parameter {entry['name']} holds non-finite"):
        load_weights(path, VirConvNetSpec.default())

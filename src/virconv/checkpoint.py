"""Weight checkpoint files.

Binary layout (little-endian): 8-byte magic b"VCONVWTS", uint32 version,
then the raw row-major float64 data of every parameter concatenated in the
fixed parameter order. A JSON manifest written alongside (same path +
".json") lists each parameter's name, shape, and byte offset.
"""

import json
import struct

import numpy as np

from .geometry import FormatError, read_text
from .net import NetWeights, VirConvNetSpec
from .rng import SeededRng

MAGIC = b"VCONVWTS"
VERSION = 1


def _is_int(value) -> bool:
    """True for a JSON integer; bool is an int subclass but is rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def save_weights(path, weights: NetWeights):
    entries = []
    offset = len(MAGIC) + 4
    blobs = []
    for name, arr, _ in weights.params():
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(data)
        offset += len(data)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        for b in blobs:
            f.write(b)
    with open(str(path) + ".json", "w") as f:
        json.dump({"version": VERSION, "dtype": "<f8", "params": entries}, f, indent=1)


def load_weights(path, spec: VirConvNetSpec) -> NetWeights:
    """Weights of `spec` from a checkpoint.

    Raises FormatError on a malformed manifest, an entry outside the blob or
    non-finite parameter data, and ValueError unless the checkpoint holds
    each parameter of `spec` exactly once, with its shape.
    """
    weights = NetWeights.initialize(spec, SeededRng(0))
    manifest = read_text(f"{path}.json", json.loads)
    if not (isinstance(manifest, dict) and _is_int(manifest.get("version"))
            and isinstance(manifest.get("params"), list)):
        raise FormatError(f"{path}.json: manifest must be an object with "
                          f"an integer version and a params list")
    if manifest["version"] != VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest['version']}")
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    by_name = {name: arr for name, arr, _ in weights.params()}
    loaded = set()
    for entry in manifest["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "shape" in entry and "offset" in entry):
            raise FormatError(f"{path}.json: each params entry needs a name, "
                              f"a shape and an offset")
        name, offset = entry["name"], entry["offset"]
        arr = by_name.get(name)
        if arr is None:
            raise ValueError(f"checkpoint parameter {name} not in net spec")
        if name in loaded:
            raise ValueError(f"checkpoint repeats parameter {name}")
        loaded.add(name)
        if list(arr.shape) != entry["shape"]:
            raise ValueError(
                f"checkpoint shape {entry['shape']} != expected {list(arr.shape)} "
                f"for {name}"
            )
        if not (_is_int(offset) and 0 <= offset <= len(blob) - arr.nbytes):
            raise FormatError(f"{path}: parameter {name} at byte offset {offset!r} "
                              f"does not fit in the {len(blob)}-byte file")
        arr[...] = np.frombuffer(blob, dtype="<f8", count=arr.size,
                                 offset=offset).reshape(arr.shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: parameter {name} holds non-finite values")
    missing = [name for name in by_name if name not in loaded]
    if missing:
        raise ValueError(f"checkpoint lacks {len(missing)} parameters of the "
                         f"net spec, the first is {missing[0]}")
    return weights

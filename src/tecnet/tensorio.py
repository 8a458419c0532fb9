"""Binary tensor records and checkpoint files.

A tensor record is:

    magic  b"TECT"
    ndim   uint32 little-endian
    dims   ndim * uint32 little-endian
    data   float32 little-endian, row-major

Records hold the engine's default float32 compute dtype as is, so a
save/load round trip of float32 parameters is exact (wider arrays are
rounded once, on write).  A checkpoint is a single .tect file holding the
records of all parameters back to back, plus a JSON manifest naming each
record and its byte offset and holding the model config, which loading
returns unchecked (`training.load_model` compares it field by field).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import UsageError

MAGIC = b"TECT"
MAX_NDIM = 32       # numpy 1.x's limit; the model's parameters have at most 5


def write_tensor(fh, array: np.ndarray) -> int:
    """Append one tensor record to an open binary file; returns bytes written."""
    arr = np.asarray(array, dtype="<f4")
    header = MAGIC + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.tobytes()                      # row-major, whatever arr's strides
    fh.write(header)
    fh.write(payload)
    return len(header) + len(payload)


def _read(fh, n: int, end: int) -> bytes:
    """The next n bytes of a file that ends at byte `end`, checked before
    allocating: a damaged header can claim petabytes."""
    if end - fh.tell() < n:
        raise UsageError("truncated tensor record")
    return fh.read(n)


def read_tensor(fh) -> np.ndarray:
    """Read one tensor record from an open binary file, as a read-only
    array over the bytes read."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise UsageError(f"bad tensor record magic: {magic!r}")
    start = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(start)
    (ndim,) = struct.unpack("<I", _read(fh, 4, end))
    dims = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, end))
    if ndim > MAX_NDIM:
        raise UsageError(f"tensor record claims {ndim} dims, more than {MAX_NDIM}")
    if 4 * math.prod(d for d in dims if d) > np.iinfo(np.intp).max:   # numpy's size limit
        raise UsageError(f"tensor record claims dims {dims}, too large for numpy")
    return np.frombuffer(_read(fh, 4 * math.prod(dims), end), dtype="<f4").reshape(dims)


def config_hash(config: dict) -> str:
    """Stable hash of a configuration dict (canonical JSON, sha256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path, named_arrays, config: dict) -> None:
    """Write parameters (name, array) pairs plus a JSON manifest sidecar.

    The manifest lives at path + '.json' and records the byte offset of each
    record, the parameter shapes, and the model configuration with its
    `config_hash` (a key of format v1 that no load reads).  Each file is
    written to a '.tmp' file beside it and moved into place, the payload
    first and the manifest last, so a save that fails midway leaves the
    previous checkpoint as it was and no temporary file behind.
    """
    path = Path(path)
    manifest_path = path.with_suffix(path.suffix + ".json")
    tmp_path, tmp_manifest = (p.with_suffix(p.suffix + ".tmp") for p in (path, manifest_path))
    entries = []
    offset = 0
    try:
        with open(tmp_path, "wb") as fh:
            for name, arr in named_arrays:
                n = write_tensor(fh, np.asarray(arr))
                entries.append({"name": name, "shape": list(np.asarray(arr).shape), "offset": offset})
                offset += n
        manifest = {
            "format": "tecnet-checkpoint-v1",
            "config_hash": config_hash(config),
            "config": config,
            "tensors": entries,
        }
        with open(tmp_manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, path)
        os.replace(tmp_manifest, manifest_path)
    finally:
        tmp_path.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)


def _count(v) -> bool:
    """True for a JSON non-negative integer (booleans excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _record_bytes(shape) -> int:
    """Size of the tensor record write_tensor makes for `shape`."""
    return len(MAGIC) + 4 + 4 * len(shape) + 4 * math.prod(shape)


def _check_manifest(manifest, manifest_path, payload_bytes: int) -> None:
    """Raise UsageError naming the file and key unless the manifest has the
    structure save_checkpoint writes: unique names, and records that lie
    inside the payload file of `payload_bytes` bytes."""
    def bad(what: str):
        return UsageError(f"{manifest_path}: checkpoint manifest {what}")

    if not isinstance(manifest, dict):
        raise bad(f"must be a JSON object, got {type(manifest).__name__}")
    if not isinstance(manifest.get("config"), dict):
        raise bad("key 'config' must be an object")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise bad("key 'tensors' must be a list")
    first = {}                                   # name -> index of its first entry
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise bad(f"tensors[{i}] must be an object")
        if not isinstance(entry.get("name"), str):
            raise bad(f"tensors[{i}] key 'name' must be a string")
        j = first.setdefault(entry["name"], i)
        if j != i:
            raise bad(f"tensors[{i}] repeats the name {entry['name']!r} of tensors[{j}]")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_count(d) for d in shape):
            raise bad(f"tensors[{i}] key 'shape' must be a list of non-negative integers")
        if not _count(entry.get("offset")):
            raise bad(f"tensors[{i}] key 'offset' must be a non-negative integer")
        end = entry["offset"] + _record_bytes(shape)
        if end > payload_bytes:
            raise bad(f"tensors[{i}] ({entry['name']}) ends at byte {end}, "
                      f"past the end of the {payload_bytes}-byte payload")


def load_checkpoint(path):
    """Read a checkpoint; returns (ordered dict name -> array, manifest)."""
    path = Path(path)
    manifest_path = path.with_suffix(path.suffix + ".json")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise UsageError(f"{manifest_path}: corrupt checkpoint manifest: {e}") from e
    _check_manifest(manifest, manifest_path, os.path.getsize(path))
    arrays = {}
    with open(path, "rb") as fh:
        for entry in manifest["tensors"]:
            fh.seek(entry["offset"])
            try:
                arr = read_tensor(fh)
            except UsageError as e:
                raise UsageError(f"{path}: {e}") from e
            if list(arr.shape) != entry["shape"]:
                raise UsageError(f"{path}: checkpoint entry {entry['name']} has shape {arr.shape}, "
                                 f"manifest says {entry['shape']}")
            arrays[entry["name"]] = arr
    return arrays, manifest


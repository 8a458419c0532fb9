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
record and its byte offset.
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


def write_tensor(fh, array: np.ndarray) -> int:
    """Append one tensor record to an open binary file; returns bytes written."""
    arr = np.asarray(array, dtype="<f4")
    header = MAGIC + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.tobytes()                      # row-major, whatever arr's strides
    fh.write(header)
    fh.write(payload)
    return len(header) + len(payload)


def _read(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise UsageError("truncated tensor record")
    return raw


def read_tensor(fh) -> np.ndarray:
    """Read one tensor record from an open binary file."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise UsageError(f"bad tensor record magic: {magic!r}")
    (ndim,) = struct.unpack("<I", _read(fh, 4))
    dims = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim))
    # check the length before allocating: a damaged header can claim petabytes
    start = fh.tell()
    if fh.seek(0, os.SEEK_END) - start < 4 * math.prod(dims):
        raise UsageError("truncated tensor record")
    fh.seek(start)
    data = np.empty(dims, dtype="<f4")
    fh.readinto(data)
    return data


def config_hash(config: dict) -> str:
    """Stable hash of a configuration dict (canonical JSON, sha256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path, named_arrays, config: dict) -> None:
    """Write parameters (name, array) pairs plus a JSON manifest sidecar.

    The manifest lives at path + '.json' and records the byte offset of each
    record, the parameter shapes, and a hash of the model configuration so a
    later load can refuse mismatched configs.
    """
    path = Path(path)
    entries = []
    offset = 0
    with open(path, "wb") as fh:
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
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _count(v) -> bool:
    """True for a JSON non-negative integer (booleans excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_manifest(manifest, manifest_path) -> None:
    """Raise UsageError naming the file and key unless the manifest has the
    structure save_checkpoint writes."""
    def bad(what: str):
        return UsageError(f"{manifest_path}: checkpoint manifest {what}")

    if not isinstance(manifest, dict):
        raise bad(f"must be a JSON object, got {type(manifest).__name__}")
    if not isinstance(manifest.get("config"), dict):
        raise bad("key 'config' must be an object")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise bad("key 'tensors' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise bad(f"tensors[{i}] must be an object")
        if not isinstance(entry.get("name"), str):
            raise bad(f"tensors[{i}] key 'name' must be a string")
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(_count(d) for d in shape):
            raise bad(f"tensors[{i}] key 'shape' must be a list of non-negative integers")
        if not _count(entry.get("offset")):
            raise bad(f"tensors[{i}] key 'offset' must be a non-negative integer")


def load_checkpoint(path, expected_config: dict | None = None):
    """Read a checkpoint; returns (ordered dict name -> array, manifest).

    If expected_config is given, its hash must match the one stored in the
    manifest, otherwise a UsageError is raised.
    """
    path = Path(path)
    manifest_path = path.with_suffix(path.suffix + ".json")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise UsageError(f"{manifest_path}: corrupt checkpoint manifest: {e}") from e
    _check_manifest(manifest, manifest_path)
    if expected_config is not None:
        want = config_hash(expected_config)
        got = manifest.get("config_hash")
        if want != got:
            raise UsageError(
                f"checkpoint config hash {got} does not match the requested model config {want}")
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


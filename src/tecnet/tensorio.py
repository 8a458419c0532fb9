"""Binary tensor records and checkpoint files.

A tensor record is:

    magic  b"TECT"
    ndim   uint32 little-endian
    dims   ndim * uint32 little-endian
    data   float32 little-endian, row-major

Values are narrowed from the engine's float64 on write and widened back on
read, so a save/load round trip costs one float32 rounding.  A checkpoint
is a single .tect file holding the records of all parameters back to back,
plus a JSON manifest naming each record and its byte offset.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import UsageError

MAGIC = b"TECT"


def write_tensor(fh, array: np.ndarray) -> int:
    """Append one tensor record to an open binary file; returns bytes written."""
    arr = np.ascontiguousarray(array, dtype=np.float64)
    header = MAGIC + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype("<f4").tobytes()
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
    count = int(np.prod(dims)) if ndim else 1
    data = np.frombuffer(_read(fh, 4 * count), dtype="<f4").astype(np.float64)
    return data.reshape(dims)


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
                raise UsageError(f"checkpoint entry {entry['name']} has shape {arr.shape}, "
                                 f"manifest says {entry['shape']}")
            arrays[entry["name"]] = arr
    return arrays, manifest

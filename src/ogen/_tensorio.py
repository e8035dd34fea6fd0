"""Flat binary tensor container: a JSON manifest followed by raw data.

Layout: u32 manifest length, UTF-8 JSON manifest, then each tensor's raw
little-endian bytes in manifest order. The manifest's "tensors" list
carries name/shape/dtype; extra manifest keys are caller metadata. JSON
is serialized with sorted keys so identical content gives identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {"f4": "<f4", "f8": "<f8"}


def write_tensor_file(path, tensors: dict, meta: dict) -> None:
    """tensors maps name -> ndarray; meta is JSON-serializable metadata."""
    manifest = dict(meta)
    manifest["tensors"] = []
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = "f4" if arr.dtype == np.float32 else "f8"
        manifest["tensors"].append({"name": name, "shape": list(arr.shape), "dtype": code})
        blobs.append(np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes())
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomically(path, [struct.pack("<I", len(mbytes)) + mbytes, *blobs])


def write_atomically(path, chunks) -> None:
    """Write the byte chunks to a temp file beside path, then rename it over
    path: a killed process leaves the old file or the new one, never a torn
    one, and at worst a stray .<name>.<pid>.tmp beside them. There is no
    fsync, so this does not survive a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tensor_file(path):
    """Returns (tensors dict, meta dict without the tensor list)."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"no such file: {p}")
    data = p.read_bytes()
    if len(data) < 4:
        raise DataError(f"{p}: too short to hold a manifest")
    (mlen,) = struct.unpack("<I", data[:4])
    if 4 + mlen > len(data):
        raise DataError(f"{p}: truncated manifest")
    try:
        manifest = json.loads(data[4 : 4 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{p}: unreadable manifest ({exc})") from exc
    if not (isinstance(manifest, dict) and isinstance(entries := manifest.pop("tensors", None), list)):
        raise DataError(f"{p}: manifest is not an object with a tensor list")
    tensors = {}
    pos = 4 + mlen
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and isinstance(entry.get("dtype", "f4"), str)
        ):
            raise DataError(f"{p}: malformed tensor entry {entry!r}")
        shape = tuple(entry["shape"])
        dtype = _DTYPES.get(entry.get("dtype", "f4"))
        if dtype is None:
            raise DataError(f"{p}: unknown dtype for tensor {entry['name']!r}")
        nbytes = math.prod(shape) * int(dtype[-1])  # Python ints: a huge shape cannot wrap around
        if pos + nbytes > len(data):
            raise DataError(f"{p}: truncated data for tensor {entry['name']!r}")
        arr = np.frombuffer(data[pos : pos + nbytes], dtype=dtype).reshape(shape).copy()
        tensors[entry["name"]] = arr
        pos += nbytes
    if pos != len(data):
        raise DataError(f"{p}: {len(data) - pos} trailing bytes")
    return tensors, manifest


def check_format(path, meta: dict, fmt: str, version: int, remedy: str) -> None:
    """Reject a tensor file whose manifest is not format fmt at version."""
    if meta.get("format") != fmt:
        raise DataError(f"{path}: not an {fmt} file")
    if meta.get("version") != version:
        raise DataError(f"{path}: {fmt} version {meta.get('version')!r} is not version {version}, "
                        f"the only one this ogen reads; {remedy}")

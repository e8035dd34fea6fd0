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
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {"f4": "<f4", "f8": "<f8"}
_TEMP = ".{name}.{pid}.tmp"  # what write_atomically writes before it renames it to path


def write_tensor_file(path, tensors: dict, meta: dict, reuse_aside: bool = False) -> None:
    """tensors maps name -> ndarray; meta is JSON-serializable metadata;
    reuse_aside as for write_atomically."""
    manifest = dict(meta)
    manifest["tensors"] = []
    blobs = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = "f4" if arr.dtype == np.float32 else "f8"
        manifest["tensors"].append({"name": name, "shape": list(arr.shape), "dtype": code})
        blobs.append(np.ascontiguousarray(arr, dtype=_DTYPES[code]).data)  # its own buffer, not a copy
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_atomically(path, [struct.pack("<I", len(mbytes)) + mbytes, *blobs], reuse_aside)


def write_atomically(path, chunks, reuse_aside: bool = False) -> None:
    """Replace path by the byte chunks: write a temp file .<name>.<pid>.tmp
    beside it, rename a file at path to its aside, aside_path(path), and
    the temp file to path, and delete the aside. No rename lands on an
    existing file (on ext4 that starts the new file's writeback). A killed
    process leaves path or the aside whole, and maybe the temp file; a
    power loss (no fsync) can lose both. Each step is an os call on a str
    path, as this runs for every epoch's state and teacher checkpoint.

    reuse_aside, for the one file rewritten every epoch, keeps the aside,
    and a later write, while path is a regular file and the aside a
    regular file of one link, rewrites the aside in place and swaps it in
    with three renames onto free names (path to the temp name, the aside
    to path, the temp to the aside): it creates and deletes no file. The
    caller deletes the aside after its last write."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp, aside = os.path.join(head, _TEMP.format(name=name, pid=os.getpid())), os.path.join(head, f".{name}.prev")
    if reuse_aside and _rewrite_aside(path, aside, chunks):
        os.replace(path, tmp)
        os.replace(aside, path)
        os.replace(tmp, aside)
        return
    if os.path.isdir(aside) and not os.path.islink(aside):
        raise DataError(f"{aside} is a directory, where the old {name} is set aside while it is replaced")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if os.path.isfile(path):
            _unlink(aside)  # a killed write's, older than path, or what _rewrite_aside would not write to
            os.replace(path, aside)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    if not reuse_aside:
        _unlink(aside)


def _rewrite_aside(path: str, aside: str, chunks) -> bool:
    """Write chunks over the aside from its first byte and cut it to their
    length, if path is a regular file and the aside a regular file of one
    link, neither reached through a symlink; else write nothing and return
    False. A write that fails part-way deletes the torn aside."""
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return False
        fd = os.open(aside, os.O_WRONLY | os.O_NOFOLLOW | os.O_NONBLOCK)  # a FIFO without reader fails at once
    except OSError:
        return False
    info = os.fstat(fd)
    if not (stat.S_ISREG(info.st_mode) and info.st_nlink == 1):  # another link: a file outside the run
        os.close(fd)
        return False
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.truncate()
    except BaseException:
        _unlink(aside)
        raise
    return True


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def aside_path(path) -> Path:  # .<name>.prev, where write_atomically sets the old file aside
    return Path(path).with_name(f".{Path(path).name}.prev")


def temp_paths(*paths) -> list:  # the temp files that killed writes of each path left beside it
    return [tmp for p in map(Path, paths) for tmp in p.parent.glob(_TEMP.format(name=p.name, pid="*"))]


def open_regular(path):
    """A binary reader of path, opened without waiting for a writer if it
    is a FIFO; anything but a regular file there is a DataError naming it.
    A failed open raises its OSError."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise DataError(f"{path} is not a regular file")
    return open(fd, "rb")


def current(path) -> Path:  # path, or the old file a killed write set aside if only that is there
    return aside if not os.path.exists(path) and (aside := aside_path(path)).is_file() else Path(path)


def read_tensor_file(path):
    """Returns (tensors dict, meta dict without the tensor list) of current(path)."""
    p = current(path)
    if not p.is_file():
        raise DataError(f"no such file: {p}")
    with open(p, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 4:
            raise DataError(f"{p}: too short to hold a manifest")
        (mlen,) = struct.unpack("<I", fh.read(4))
        if 4 + mlen > size:
            raise DataError(f"{p}: truncated manifest")
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{p}: unreadable manifest ({exc})") from exc
        if not (isinstance(manifest, dict) and isinstance(entries := manifest.pop("tensors", None), list)):
            raise DataError(f"{p}: manifest is not an object with a tensor list")
        layout = []
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
            if any(entry["name"] == name for name, *_ in layout):
                raise DataError(f"{p}: tensor {entry['name']!r} is listed twice")
            shape = tuple(entry["shape"])
            dtype = _DTYPES.get(entry.get("dtype", "f4"))
            if dtype is None:
                raise DataError(f"{p}: unknown dtype for tensor {entry['name']!r}")
            nbytes = math.prod(shape) * int(dtype[-1])  # Python ints: a huge shape cannot wrap around
            if pos + nbytes > size:
                raise DataError(f"{p}: truncated data for tensor {entry['name']!r}")
            layout.append((entry["name"], shape, dtype, nbytes))
            pos += nbytes
        if pos != size:  # before any tensor is read: a padded file costs no memory
            raise DataError(f"{p}: {size - pos} trailing bytes")
        tensors = {}
        for name, shape, dtype, nbytes in layout:
            tensors[name] = arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr.reshape(-1)) != nbytes:
                raise DataError(f"{p}: truncated data for tensor {name!r}")
    return tensors, manifest


def check_format(path, meta: dict, fmt: str, version: int, remedy: str) -> None:
    """Reject a tensor file whose manifest is not format fmt at version."""
    if meta.get("format") != fmt:
        raise DataError(f"{path}: not an {fmt} file")
    if meta.get("version") != version:
        raise DataError(f"{path}: {fmt} version {meta.get('version')!r} is not version {version}, "
                        f"the only one this ogen reads; {remedy}")

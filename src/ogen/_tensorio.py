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
    power loss (no fsync) can lose both. A directory at either is a
    DataError. Each step is an os call on a str path: this runs every epoch.

    reuse_aside, for the one file rewritten every epoch, keeps the aside,
    and a later write, while path is a regular file, rewrites the aside
    (write_in_place) and swaps it in with three renames onto free names
    (path to the temp name, the aside to path, the temp to the aside): it
    creates and deletes no file. The caller deletes the aside after its
    last write."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp, aside = os.path.join(head, _TEMP.format(name=name, pid=os.getpid())), os.path.join(head, f".{name}.prev")
    if reuse_aside and os.path.isfile(path) and not os.path.islink(path) and write_in_place(aside, chunks):
        os.replace(path, tmp)
        os.replace(aside, path)
        os.replace(tmp, aside)
        return
    try:
        with open(tmp, "wb") as fh:  # first, so that a path under a file fails as the write it is
            for chunk in chunks:
                fh.write(chunk)
        check_kind(path)
        check_kind(aside)
        if os.path.isfile(path):
            _unlink(aside)  # a killed write's, older than path, or what write_in_place would not write to
            os.replace(path, aside)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp, OSError)
        raise
    if not reuse_aside:
        _unlink(aside)


def write_in_place(path, chunks) -> bool:
    """Write chunks over the file at path from its first byte and cut it to
    their length, if it is a regular file of one link not reached through
    a symlink: no file is created, renamed or deleted. Else write nothing
    and return False. A write that fails part-way deletes the torn file."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_NOFOLLOW | os.O_NONBLOCK)  # a FIFO without reader fails at once
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
        _unlink(path, OSError)
        raise
    return True


def _unlink(path: str, ignored=FileNotFoundError) -> None:  # a clean-up ignores any OSError, to raise the first
    try:
        os.unlink(path)
    except ignored:
        pass


def aside_path(path) -> Path:  # .<name>.prev, where write_atomically sets the old file aside
    return Path(path).with_name(f".{Path(path).name}.prev")


def temp_paths(*paths) -> list:  # the temp files that killed writes of each path left beside it
    return [tmp for p in map(Path, paths) for tmp in p.parent.glob(_TEMP.format(name=p.name, pid="*"))]


def open_regular(path):
    """A binary reader of path, opened without waiting for a writer if it
    is a FIFO; no file or anything but a regular file there is a DataError
    naming it. Any other failed open raises its OSError."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(f"no such file: {path}") from None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise DataError(f"{path} is not a regular file")
    return open(fd, "rb")


def check_kind(path, kind: str = "file") -> bool:
    """The one check of a path ogen writes, before any work: whether
    anything is there, or a DataError naming a directory where ogen writes
    a file (kind "file"; it deletes no directory), anything but a directory
    where it writes into one ("directory", a symlink to one taken, or
    "own", which a save writes into and a resume deletes from: none taken),
    or a file that the path passes through."""
    try:
        mode = (os.stat if kind == "directory" else os.lstat)(path).st_mode
    except FileNotFoundError:
        return False
    except NotADirectoryError:
        above = next(p for p in Path(path).parents if p.exists())
        raise DataError(f"cannot write {path}: {above} is not a directory") from None
    if kind == "file" and stat.S_ISDIR(mode):
        raise DataError(f"{path} is a directory, where ogen writes a file")
    if kind != "file" and not stat.S_ISDIR(mode):
        own = " of the run's own, where it keeps its checkpoints" if kind == "own" else ""
        raise DataError(f"{path} is not a directory{own}")
    return True


def current(path) -> Path:  # path, or the old file a killed write set aside if only that is there
    return aside if not os.path.exists(path) and (aside := aside_path(path)).is_file() else Path(path)


def read_tensor_file(path):
    """Returns (tensors dict, meta dict without the tensor list) of current(path)."""
    p = current(path)
    with open_regular(p) as fh:
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

"""Embedding datasets: validation, synthesis, persistence.

A dataset pairs one class ("text") embedding per class with a bag of
image-feature vectors per class, plus a disjoint base/new class split.
Vectors are stored L2-normalized in float32, so cosine similarity reduces
to a dot product downstream; score accumulation happens in float64.

On-disk format (".oef", little-endian binary):

    magic            4 bytes  b"OGEN"
    version          u32      currently 1
    dim              u32      vector dimension d
    num_classes      u32      C
    per class (C times):
        name_len     u16      UTF-8 byte length of the class name
        name         bytes
        embedding    d * f32
        n_features   u32
        features     n_features * d * f32
    split:
        n_base       u32, then n_base * u32 class indices
        n_new        u32, then n_new * u32 class indices
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._tensorio import write_atomically
from .errors import DataError
from .objective import class_probabilities  # noqa: F401  (re-export; the scorer lives in objective)

OEF_MAGIC = b"OGEN"
OEF_VERSION = 1

# |norm - 1| tolerance under which a stored vector counts as unit and is
# kept bit-identical at load time (keeps file round-trips byte-exact).
UNIT_NORM_ATOL = 1e-6
# Below this norm a vector is rejected as zero rather than renormalized.
ZERO_NORM_EPS = 1e-6


@dataclass(frozen=True)
class ClassSplit:
    """Disjoint base/new class index lists; base is the finetuning side."""

    base: tuple[int, ...]
    new: tuple[int, ...]

    def validate(self, num_classes: int) -> None:
        if len(self.base) == 0:
            raise DataError("split has no base classes")
        all_ids = list(self.base) + list(self.new)
        for idx in all_ids:
            if not 0 <= idx < num_classes:
                raise DataError(f"split references class {idx}, dataset has {num_classes}")
        if len(set(self.base)) != len(self.base) or len(set(self.new)) != len(self.new):
            raise DataError("split lists contain duplicate class indices")
        if set(self.base) & set(self.new):
            raise DataError("base and new splits overlap")


@dataclass(frozen=True)
class EmbeddingSet:
    """Immutable labeled embedding collection with a base/new class split.

    class_embeddings has shape (C, d); image_features holds one (n_i, d)
    array per class. All rows are unit-norm float32.
    """

    dim: int
    class_names: tuple[str, ...]
    class_embeddings: np.ndarray
    image_features: tuple[np.ndarray, ...]
    split: ClassSplit

    def __post_init__(self):
        self._validate()
        self.class_embeddings.setflags(write=False)
        for feats in self.image_features:
            feats.setflags(write=False)

    def _validate(self) -> None:
        C = len(self.class_names)
        if self.dim < 1:
            raise DataError(f"dimension must be positive, got {self.dim}")
        if C == 0:
            raise DataError("dataset has no classes")
        if len(set(self.class_names)) != C:
            raise DataError("class names are not unique")
        for i, name in enumerate(self.class_names):
            if not name:
                raise DataError(f"class {i} has an empty name")
        if self.class_embeddings.shape != (C, self.dim):
            raise DataError(
                f"class_embeddings shape {self.class_embeddings.shape} != ({C}, {self.dim})"
            )
        if len(self.image_features) != C:
            raise DataError("image_features must provide one array per class")
        _check_unit_rows(self.class_embeddings, "class embedding")
        for c, feats in enumerate(self.image_features):
            if feats.ndim != 2 or feats.shape[1] != self.dim:
                raise DataError(f"class {c} ({self.class_names[c]!r}): feature shape {feats.shape}")
            if feats.shape[0] < 1:
                raise DataError(f"class {c} ({self.class_names[c]!r}) has no image features")
            _check_unit_rows(feats, f"class {c} image feature")
        self.split.validate(C)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def _split_features(self) -> tuple:
        """(base, new): each split's image features stacked in split order
        as one read-only float64 (n, d) matrix, built once per dataset."""
        out = []
        for classes in (self.split.base, self.split.new):
            feats = [self.image_features[c] for c in classes] or [np.empty((0, self.dim))]
            stacked = np.concatenate(feats, axis=0, dtype=np.float64)
            stacked.setflags(write=False)
            out.append(stacked)
        return tuple(out)

    @cached_property
    def _score_scratch(self) -> dict:
        """Thread id -> the score matrix trainer._EvalCache fills."""
        return {}

    def embedding_columns(self, indices) -> np.ndarray:
        """Class embeddings as float64 columns, shape (d, len(indices))."""
        idx = np.asarray(indices, dtype=int)
        return self.class_embeddings[idx].astype(np.float64).T


def _check_unit_rows(arr: np.ndarray, what: str) -> None:
    norms = np.linalg.norm(arr.astype(np.float64), axis=-1)
    bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_ATOL)[0]
    if bad.size:
        raise DataError(f"{what} {bad[0]} is not unit-norm (|v| = {norms[bad[0]]:.6g})")


def _normalize_block(arr: np.ndarray, what: str) -> np.ndarray:
    """Unit-normalize rows of a float32 block, preserving already-unit rows."""
    out = np.array(arr, dtype=np.float32, copy=True)
    norms = np.linalg.norm(out.astype(np.float64), axis=-1)
    for i in np.nonzero(norms < ZERO_NORM_EPS)[0]:
        raise DataError(f"{what} {i} has zero norm")
    needs = np.abs(norms - 1.0) > UNIT_NORM_ATOL
    if needs.any():
        out[needs] = (out[needs].astype(np.float64) / norms[needs, None]).astype(np.float32)
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic benchmark generator."""

    num_classes: int
    dim: int
    per_class: int
    image_noise: float = 0.15
    text_noise: float = 0.4
    base_fraction: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise DataError(f"need at least 2 classes, got {self.num_classes}")
        if self.dim < 2:
            raise DataError(f"need dim >= 2, got {self.dim}")
        if self.per_class < 1:
            raise DataError(f"need at least 1 feature per class, got {self.per_class}")
        if self.image_noise < 0 or self.text_noise < 0:
            raise DataError("noise levels must be non-negative")
        if not 0.0 < self.base_fraction <= 1.0:
            raise DataError(f"base_fraction must be in (0, 1], got {self.base_fraction}")


def make_synthetic(cfg: SynthConfig) -> EmbeddingSet:
    """Sample a synthetic dataset of noisy class clusters on the unit sphere.

    Each class gets a direction mu_c (normalized Gaussian). The class
    embedding is a noisy copy of mu_c (text_noise emulates the image-text
    alignment gap); image features are independent noisy copies
    (image_noise). The first ceil(base_fraction * C) classes of a seeded
    shuffle become the base split. Deterministic for a fixed seed.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    C, d, n = cfg.num_classes, cfg.dim, cfg.per_class

    mu = rng.standard_normal((C, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)

    if cfg.text_noise > 0:
        text = mu + cfg.text_noise * rng.standard_normal((C, d))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
    else:
        text = mu.copy()

    feats = []
    for c in range(C):
        if cfg.image_noise > 0:
            block = mu[c] + cfg.image_noise * rng.standard_normal((n, d))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        else:
            block = np.tile(mu[c], (n, 1))
        feats.append(block.astype(np.float32))

    order = rng.permutation(C)
    n_base = math.ceil(cfg.base_fraction * C)
    split = ClassSplit(
        base=tuple(int(i) for i in order[:n_base]),
        new=tuple(int(i) for i in order[n_base:]),
    )
    names = tuple(f"synth_{c:03d}" for c in range(C))
    return EmbeddingSet(
        dim=d,
        class_names=names,
        class_embeddings=text.astype(np.float32),
        image_features=tuple(feats),
        split=split,
    )


# ---------------------------------------------------------------------------
# Binary file format
# ---------------------------------------------------------------------------


def save_embeddings(dataset: EmbeddingSet, path) -> None:
    """Write a dataset in the binary embedding-file layout."""
    buf = bytearray()
    buf += OEF_MAGIC
    buf += struct.pack("<III", OEF_VERSION, dataset.dim, dataset.num_classes)
    for c in range(dataset.num_classes):
        name = dataset.class_names[c].encode("utf-8")
        if len(name) > 0xFFFF:
            raise DataError(f"class {c}: name too long to encode")
        buf += struct.pack("<H", len(name)) + name
        buf += np.ascontiguousarray(dataset.class_embeddings[c], dtype="<f4").tobytes()
        feats = dataset.image_features[c]
        buf += struct.pack("<I", feats.shape[0])
        buf += np.ascontiguousarray(feats, dtype="<f4").tobytes()
    for part in (dataset.split.base, dataset.split.new):
        buf += struct.pack("<I", len(part))
        if part:
            buf += struct.pack(f"<{len(part)}I", *part)
    write_atomically(path, [buf])


class _Reader:
    """Cursor over the raw bytes with truncation-aware error reporting."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError(f"{self.path}: truncated file while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f32_block(self, count: int, what: str) -> np.ndarray:
        raw = self.take(4 * count, what)
        return np.frombuffer(raw, dtype="<f4").copy()


def load_embeddings(path) -> EmbeddingSet:
    """Read and validate a dataset file; vectors outside unit-norm tolerance
    are renormalized, zero vectors are rejected."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    r = _Reader(p.read_bytes(), p)

    magic = r.take(4, "magic bytes")
    if magic != OEF_MAGIC:
        raise DataError(f"{p}: bad magic {magic!r}, expected {OEF_MAGIC!r}")
    version = r.u32("format version")
    if version != OEF_VERSION:
        raise DataError(f"{p}: unsupported format version {version}")
    dim = r.u32("dimension")
    C = r.u32("class count")
    if dim == 0 or C == 0:
        raise DataError(f"{p}: header declares dim={dim}, classes={C}")
    # each class takes at least a name length, its embedding and a feature
    # count; checked before the (C, dim) allocation
    fit = (len(r.data) - r.pos) // (6 + 4 * dim)
    if C > fit:
        raise DataError(f"{p}: truncated file: header declares {C} classes of dim {dim}, no room for class {fit}")

    names = []
    embeddings = np.empty((C, dim), dtype=np.float32)
    feats = []
    for c in range(C):
        name_len = r.u16(f"name length of class {c}")
        try:
            name = r.take(name_len, f"name of class {c}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{p}: name of class {c} is not UTF-8 ({exc})") from exc
        names.append(name)
        emb = r.f32_block(dim, f"embedding of class {c} ({name!r})")
        embeddings[c] = _normalize_block(emb[None, :], f"class {c} ({name!r}) embedding")[0]
        n_feat = r.u32(f"feature count of class {c} ({name!r})")
        block = r.f32_block(
            n_feat * dim, f"image features of class {c} ({name!r})"
        ).reshape(n_feat, dim) if n_feat else np.empty((0, dim), dtype=np.float32)
        feats.append(_normalize_block(block, f"class {c} ({name!r}) image feature"))

    n_base = r.u32("base split size")
    base = struct.unpack(f"<{n_base}I", r.take(4 * n_base, "base split")) if n_base else ()
    n_new = r.u32("new split size")
    new = struct.unpack(f"<{n_new}I", r.take(4 * n_new, "new split")) if n_new else ()
    if r.pos != len(r.data):
        raise DataError(f"{p}: {len(r.data) - r.pos} trailing bytes after split")

    if len(set(names)) != C:
        seen = set()
        for c, name in enumerate(names):
            if name in seen:
                raise DataError(f"{p}: duplicate class name {name!r} at class {c}")
            seen.add(name)
    return EmbeddingSet(
        dim=dim,
        class_names=tuple(names),
        class_embeddings=embeddings,
        image_features=tuple(feats),
        split=ClassSplit(base=tuple(map(int, base)), new=tuple(map(int, new))),
    )

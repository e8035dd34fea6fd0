"""Embedding datasets: validation, synthesis, persistence.

A dataset pairs one class ("text") embedding per class with a bag of
image-feature vectors per class, plus a disjoint base/new class split.
Vectors are stored L2-normalized in float32, so cosine similarity reduces
to a dot product downstream; score accumulation happens in float64.

On disk (".oef") a dataset is a tensor file (see _tensorio) whose
manifest holds format "ogen-embeddings", version 2, the class_names, the
per-class feature counts and the base and new class indices, and whose
two float32 tensors are class_embeddings (C, d) and image_features
(sum(counts), d), the features of class 0 first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._tensorio import check_format, read_tensor_file, write_tensor_file
from .errors import DataError
from .objective import class_probabilities  # noqa: F401  (re-export; the scorer lives in objective)

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
            dup = next(name for c, name in enumerate(self.class_names) if name in self.class_names[:c])
            raise DataError(f"class names are not unique: duplicate class name {dup!r}")
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
    bad = np.nonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))[0]  # a NaN norm is not unit
    if bad.size:
        raise DataError(f"{what} {bad[0]} is not unit-norm (|v| = {norms[bad[0]]:.6g})")


def _normalize_block(arr: np.ndarray, what: str) -> np.ndarray:
    """Unit-normalize rows of a float32 block, preserving already-unit rows."""
    out = np.array(arr, dtype=np.float32, copy=True)
    norms = np.linalg.norm(out.astype(np.float64), axis=-1)
    for i in np.nonzero(norms < ZERO_NORM_EPS)[0]:
        raise DataError(f"{what} {i} has zero norm")
    # non-finite rows are kept as they are, for EmbeddingSet to reject
    needs = np.isfinite(norms) & (np.abs(norms - 1.0) > UNIT_NORM_ATOL)
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
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


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
# Dataset files
# ---------------------------------------------------------------------------


def save_embeddings(dataset: EmbeddingSet, path) -> None:
    """Write a dataset as a version-2 tensor file (see the module docstring)."""
    meta = {
        "format": "ogen-embeddings",
        "version": 2,
        "class_names": list(dataset.class_names),
        "counts": [feats.shape[0] for feats in dataset.image_features],
        "base": list(map(int, dataset.split.base)),
        "new": list(map(int, dataset.split.new)),
    }
    tensors = {
        "class_embeddings": np.asarray(dataset.class_embeddings, dtype=np.float32),
        "image_features": np.concatenate(dataset.image_features, dtype=np.float32),
    }
    write_tensor_file(path, tensors, meta)


def load_embeddings(path) -> EmbeddingSet:
    """Read and validate a dataset file; vectors outside unit-norm tolerance
    are renormalized, zero and non-finite vectors are rejected."""
    p = Path(path)
    if p.is_file():
        with open(p, "rb") as fh:
            if fh.read(4) == b"OGEN":
                raise DataError(f"{p}: a version-1 dataset, which this ogen no longer reads; "
                                "write it again with `ogen gen-data`")
    tensors, meta = read_tensor_file(p)
    check_format(p, meta, "ogen-embeddings", 2, "write it again with `ogen gen-data`")
    names = meta.get("class_names")
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise DataError(f"{p}: class_names is not a list of strings")
    for key in ("counts", "base", "new"):
        if not (isinstance(meta.get(key), list) and all(type(v) is int and v >= 0 for v in meta[key])):
            raise DataError(f"{p}: {key} is not a list of non-negative integers")
    emb, feats = tensors.get("class_embeddings"), tensors.get("image_features")
    C, counts = len(names), meta["counts"]
    if emb is None or emb.ndim != 2 or emb.shape[0] != C or len(counts) != C:
        raise DataError(f"{p}: class_embeddings and counts do not hold one entry per class name ({C})")
    if feats is None or feats.shape != (sum(counts), emb.shape[1]):
        raise DataError(f"{p}: image_features is not (sum(counts), d) = ({sum(counts)}, {emb.shape[1]})")
    feats = _normalize_block(feats, "image feature")
    return EmbeddingSet(
        dim=emb.shape[1],
        class_names=tuple(names),
        class_embeddings=_normalize_block(emb, "class embedding"),
        image_features=tuple(np.split(feats, np.cumsum(counts)[:-1])),
        split=ClassSplit(base=tuple(meta["base"]), new=tuple(meta["new"])),
    )

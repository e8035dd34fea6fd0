"""Embedding datasets: validation, synthesis, persistence.

A dataset pairs one class ("text") embedding per class with a bag of
image-feature vectors per class, plus a disjoint base/new class split.
The image features of all classes are one (sum(counts), d) block, class
0's counts[0] rows first, as the file stores them.
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
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._tensorio import check_format, current, open_regular, read_tensor_file, write_tensor_file
from .errors import DataError
from .objective import _unit_columns

# |norm - 1| tolerance under which a stored vector counts as unit and is
# kept bit-identical at load time (keeps file round-trips byte-exact).
UNIT_NORM_ATOL = 1e-6
# Below this norm a vector is rejected as zero rather than renormalized.
ZERO_NORM_EPS = 1e-6
# Rows per pass of the row-norm, base-split and synthesis loops (128 KB at
# d=64): their temporaries do not grow with the number of classes.
_CHUNK_ROWS = 256
SplitCache = namedtuple("SplitCache", "units positions own_index firsts counts base_best candidates candidate_best n_new")


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

    class_embeddings has shape (C, d); image_features is one (sum(counts), d)
    block holding class c's counts[c] >= 1 rows after those of the classes
    before it. All rows are unit-norm float32; both arrays become read-only.
    """

    dim: int
    class_names: tuple[str, ...]
    class_embeddings: np.ndarray
    image_features: np.ndarray
    counts: tuple[int, ...]
    split: ClassSplit

    def __post_init__(self):
        self._validate()
        self.class_embeddings.setflags(write=False)
        self.image_features.setflags(write=False)

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
        if len(self.counts) != C:
            raise DataError(f"counts has {len(self.counts)} entries, not one per class ({C})")
        if (empty := np.flatnonzero(np.less(self.counts, 1))).size:
            raise DataError(f"class {empty[0]} ({self.class_names[empty[0]]!r}) has no image features")
        if self.image_features.shape != (sum(self.counts), self.dim):
            raise DataError(f"image_features shape {self.image_features.shape} != "
                            f"(sum(counts), d) = ({sum(self.counts)}, {self.dim})")
        _check_unit_rows(_row_norms(self.class_embeddings), (1,) * C, "class embedding {c}")
        _check_unit_rows(self._feature_norms, self.counts, "class {c} image feature {i}")
        self.split.validate(C)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def _feature_norms(self) -> np.ndarray:
        """Each image_features row's float64 norm: validation checks them, and _split_cache divides by them."""
        return _row_norms(self.image_features)

    @cached_property
    def _split_cache(self) -> SplitCache:
        """What training and evaluation read of the image features, built in
        one pass per dataset, read-only. units holds the base split's
        features, their one float64 copy, as unit rows in split order,
        positions each row's class position and own_index the flat index of its
        own score in a class-major (C_b, N) block; firsts and counts hold
        each base class's first row in image_features and its row count.
        base_best holds each unit row's best cosine against the unit
        new-class columns (-inf without new classes). candidates are those
        of the n_new new-split features whose first best frozen column is
        their own class, as float64 rows, and candidate_best their cosine
        with it; no other new feature can be predicted right, whatever the
        learnable columns are, so the new split's stack is a local of the pass."""
        counts = np.asarray(self.counts, dtype=int)
        firsts = np.cumsum(counts) - counts  # each class's first row in image_features

        def rows(classes):  # the classes' rows of image_features in split order, and each row's class position
            sizes = counts[classes]
            shift = np.repeat(firsts[classes] - np.cumsum(sizes) + sizes, sizes)
            return np.arange(sizes.sum()) + shift, np.repeat(np.arange(len(classes)), sizes)
        base, new = list(self.split.base), list(self.split.new)
        (picks, positions), (new_rows, own) = rows(base), rows(new)
        units = np.empty((len(picks), self.dim))
        for s in range(0, len(picks), _CHUNK_ROWS):  # cast a chunk at a time: no second copy of the rows
            units[s:s + _CHUNK_ROWS] = self.image_features[picks[s:s + _CHUNK_ROWS]]
        units /= self._feature_norms[picks, None]  # objective._unit_columns's unit rows, bit for bit
        stack = self.image_features[new_rows].astype(np.float64)
        base_best, candidates, candidate_best = np.full(len(units), -np.inf), stack, np.empty(0)
        if new:
            # C order and class-major, as trainer._EvalCache scores the learnable columns: equal columns, equal bits
            unit = _unit_columns(np.ascontiguousarray(self.embedding_columns(new)))[0]
            base_best = (unit.T @ units.T).max(axis=0)
            scores = unit.T @ stack.T
            hit = np.flatnonzero(scores.argmax(axis=0) == own)
            candidates, candidate_best = stack[hit], scores[own[hit], hit]
        own_index = positions * len(units) + np.arange(len(units))
        cache = SplitCache(units, positions, own_index, firsts[base], counts[base], base_best, candidates,
                           candidate_best, len(own))
        for a in cache[:-1]:
            a.setflags(write=False)
        return cache

    @cached_property
    def _frozen_lse(self) -> dict:
        """tau -> the known loss's frozen share of each unit row's softmax
        denominator at that tau, an (N,) vector (trainer._frozen_lse)."""
        return {}

    @cached_property
    def _score_scratch(self) -> tuple:
        """The class-major (C_b, N) and (C_b, M) blocks that trainer._EvalCache
        fills with the scores of the N unit rows and the M candidates, both at
        the start of one buffer. The buffer is large enough that the C
        allocator may hand it back to the OS on free, and a fresh one faults
        its pages in again; so every run and evaluate() of the dataset fills
        this one, and a dataset's caches serve one thread at a time."""
        cache, c_b = self._split_cache, len(self.split.base)
        flat = np.empty(c_b * max(len(cache.units), len(cache.candidates)))
        return tuple(flat[: c_b * len(rows)].reshape(c_b, -1) for rows in (cache.units, cache.candidates))

    def embedding_columns(self, indices) -> np.ndarray:
        """Class embeddings as float64 columns, shape (d, len(indices))."""
        idx = np.asarray(indices, dtype=int)
        return self.class_embeddings[idx].astype(np.float64).T


def _row_norms(block: np.ndarray) -> np.ndarray:
    """Float64 norms of the rows of an (n, d) block, equal bit for bit to
    np.linalg.norm(block.astype(np.float64), axis=-1); casts at most
    _CHUNK_ROWS rows at a time."""
    norms = np.empty(len(block))
    for s in range(0, len(block), _CHUNK_ROWS):
        chunk = block[s:s + _CHUNK_ROWS].astype(np.float64)
        np.multiply(chunk, chunk, out=chunk)
        np.add.reduce(chunk, axis=-1, out=norms[s:s + len(chunk)])
    return np.sqrt(norms, out=norms)


def _check_unit_rows(norms: np.ndarray, counts, what: str) -> None:
    """Reject the first row of a block whose norm in norms is not unit; what
    names it from its class c and its index i among the counts[c] rows of c."""
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_ATOL))  # a NaN norm is not unit
    if bad.size:
        row, ends = int(bad[0]), np.cumsum(counts)
        c = int(np.searchsorted(ends, row, side="right"))
        i = row - int(ends[c]) + counts[c]
        raise DataError(f"{what.format(c=c, i=i)} is not unit-norm (|v| = {norms[row]:.6g})")


def _normalize_block(arr: np.ndarray, what: str) -> np.ndarray:
    """Unit-normalize the rows of a freshly read block in place, as float32,
    preserving already-unit rows."""
    out = arr.astype(np.float32, copy=False)
    norms = _row_norms(out)
    for i in np.flatnonzero(norms < ZERO_NORM_EPS):
        raise DataError(f"{what} {i} has zero norm")
    # non-finite rows are kept as they are, for EmbeddingSet to reject
    needs = np.flatnonzero(np.isfinite(norms) & (np.abs(norms - 1.0) > UNIT_NORM_ATOL))
    for s in range(0, needs.size, _CHUNK_ROWS):
        rows = needs[s:s + _CHUNK_ROWS]
        out[rows] = (out[rows].astype(np.float64) / norms[rows, None]).astype(np.float32)
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic benchmark generator; the defaults are `ogen gen-data`'s."""

    num_classes: int = 50
    dim: int = 64
    per_class: int = 40
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
        if not (0 <= self.image_noise < math.inf and 0 <= self.text_noise < math.inf):
            raise DataError(f"noise levels must be finite and non-negative, got {self.image_noise}, {self.text_noise}")
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

    feats = np.empty((C, n, d), dtype=np.float32)
    if cfg.image_noise > 0:
        group = max(1, _CHUNK_ROWS // n)  # classes per draw; one draw of g classes is g draws of one
        for c in range(0, C, group):
            block = cfg.image_noise * rng.standard_normal((min(group, C - c), n, d))
            block += mu[c:c + group, None]
            block /= np.linalg.norm(block, axis=-1, keepdims=True)
            feats[c:c + group] = block
    else:
        feats[...] = mu[:, None]

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
        image_features=feats.reshape(C * n, d),
        counts=(n,) * C,
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
        "counts": list(dataset.counts),
        "base": list(map(int, dataset.split.base)),
        "new": list(map(int, dataset.split.new)),
    }
    tensors = {
        "class_embeddings": np.asarray(dataset.class_embeddings, dtype=np.float32),
        "image_features": np.asarray(dataset.image_features, dtype=np.float32),
    }
    write_tensor_file(path, tensors, meta)


def load_embeddings(path) -> EmbeddingSet:
    """Read and validate a dataset file; vectors outside unit-norm tolerance
    are renormalized, zero and non-finite vectors are rejected."""
    p = current(path)
    try:
        tensors, meta = read_tensor_file(p)
    except DataError:
        with open_regular(p) as fh:  # no file or no regular one: the same DataError again
            if fh.read(4) == b"OGEN":
                raise DataError(f"{p}: a version-1 dataset, which this ogen no longer reads; "
                                "write it again with `ogen gen-data`") from None
        raise
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
        image_features=feats,
        counts=tuple(counts),
        split=ClassSplit(base=tuple(meta["base"]), new=tuple(meta["new"])),
    )


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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._tensorio import check_format, current, read_tensor_file, write_tensor_file
from .errors import DataError
from .objective import _unit_columns

# |norm - 1| tolerance under which a stored vector counts as unit and is
# kept bit-identical at load time (keeps file round-trips byte-exact).
UNIT_NORM_ATOL = 1e-6
# Below this norm a vector is rejected as zero rather than renormalized.
ZERO_NORM_EPS = 1e-6
# Rows per pass of the row-norm and synthesis loops (128 KB of float64 at
# d=64): their float64 temporaries do not grow with the number of classes.
_CHUNK_ROWS = 256


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
        _check_unit_rows(self.class_embeddings, (1,) * C, "class embedding {c}")
        _check_unit_rows(self.image_features, self.counts, "class {c} image feature {i}")
        self.split.validate(C)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def _split_features(self) -> tuple:
        """Each split's image features stacked in split order, built once
        per dataset, read-only: (base, new, base_pos, new_pos, starts).
        base and new are float64 (n, d) matrices, base_pos and new_pos the
        split position of each row's class, starts the C_b + 1 offsets of
        the base classes' rows in base."""
        counts = np.asarray(self.counts, dtype=int)
        firsts = np.cumsum(counts) - counts  # each class's first row in image_features
        stacks, positions, offsets = [], [], []
        for classes in (list(self.split.base), list(self.split.new)):
            sizes = counts[classes]
            offsets.append(starts := np.concatenate(([0], np.cumsum(sizes))))
            rows = np.arange(starts[-1]) + np.repeat(firsts[classes] - starts[:-1], sizes)
            stacks.append(self.image_features[rows].astype(np.float64))
            positions.append(np.repeat(np.arange(len(classes)), sizes))
        out = (*stacks, *positions, offsets[0])
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def _frozen_verdict(self) -> tuple:
        """What the frozen new-class columns decide, scored once per dataset:
        (base_best, candidates, candidate_best). base_best holds each base
        feature's best cosine against the unit new-class columns (-inf
        without new classes). candidates are the new features whose first
        best frozen column is their own class, as one (m, d) float64 matrix,
        and candidate_best their cosine with it; no other new feature can
        be predicted right, whatever the learnable columns are."""
        base, new, _, own, _ = self._split_features
        if not self.split.new:
            return np.full(len(base), -np.inf), new, np.empty(0)
        # C order, as trainer._EvalCache normalizes the learnable columns
        unit = _unit_columns(np.ascontiguousarray(self.embedding_columns(self.split.new)))[0]
        base_best = (base @ unit).max(axis=1)
        scores = new @ unit
        hit = np.flatnonzero(scores.argmax(axis=1) == own)
        return base_best, new[hit], scores[hit, own[hit]]

    @cached_property
    def _known_loss_inputs(self) -> tuple:
        """What the known loss reads of the dataset, built once per dataset,
        read-only: (units, frozen_scores). units holds the base-split
        features of _split_features as (d, N) unit columns; frozen_scores
        is the (C_f, N) block of their cosines against the unit new-class
        columns, with no rows when the dataset has no new classes."""
        units = _unit_columns(self._split_features[0].T)[0]
        frozen_scores = _unit_columns(self.embedding_columns(self.split.new))[0].T @ units
        for out in (units, frozen_scores):
            out.setflags(write=False)
        return units, frozen_scores

    @cached_property
    def _score_scratch(self) -> dict:
        """Thread id -> the score matrix trainer._EvalCache fills."""
        return {}

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


def _check_unit_rows(block: np.ndarray, counts, what: str) -> None:
    """Reject the first row of block that is not unit-norm; what names it
    from its class c and its index i among the counts[c] rows of c."""
    norms = _row_norms(block)
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
        if p.is_file():
            with open(p, "rb") as fh:
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


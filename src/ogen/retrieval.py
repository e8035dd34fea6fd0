"""Nearest-class retrieval and support sampling for feature synthesis.

Given conditioning class embeddings, find the K most similar known
classes of each by text-embedding cosine similarity (exact search; the
class count is small) and gather one support image feature per retrieved
class. Every function works on one conditioning class or on U of them
at once along a leading batch axis. Everything here is a pure function
except for the caller-owned rng used in sample_support.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding_store import EmbeddingSet
from .errors import DataError
from .objective import _unit_columns

UNIT_ATOL = 1e-5


@dataclass
class NeighborContext:
    """Retrieved neighborhood of one conditioning class, or of U classes.

    neighbor_embeddings and support_features are (d, K) column matrices,
    or (U, d, K) with one matrix per conditioning class; column j of
    support_features is one sampled image feature of class
    neighbor_indices[j] (neighbor_indices[u][j] when batched).
    """

    conditioning: "int | np.ndarray | None"
    neighbor_indices: list
    neighbor_embeddings: np.ndarray
    support_features: np.ndarray
    sample_ids: list

    def __post_init__(self):
        emb, sup = self.neighbor_embeddings, self.support_features
        if emb.ndim not in (2, 3) or emb.shape != sup.shape:
            raise DataError("neighbor and support matrices must share one (d, K) or (U, d, K) shape")
        if emb.shape[-1] == 0:
            raise DataError("neighbor context needs at least one neighbor")
        for name, ids in (("neighbor_indices", self.neighbor_indices), ("sample_ids", self.sample_ids)):
            if np.shape(ids) != emb.shape[:-2] + emb.shape[-1:]:
                raise DataError(f"{name} must list one entry per neighbor column")
        for name, mat in (("neighbor", emb), ("support", sup)):
            norms = np.linalg.norm(mat.astype(np.float64), axis=-2)
            if np.any(np.abs(norms - 1.0) > UNIT_ATOL):
                raise DataError(f"{name} columns must be unit-norm")

    @property
    def k(self) -> int:
        return self.neighbor_embeddings.shape[-1]


def retrieve_knn(query, base_embeddings, k: int):
    """Indices of the k classes most cosine-similar to the query.

    base_embeddings is (d, C_b) with classes as columns. A (d,) query
    gives a list of indices in descending-similarity order; a (d, U)
    matrix of U queries gives a (U, k) index array, one such row per
    query. Exact ties break toward the smaller index. k larger than the
    class count is clamped with a warning.
    """
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    w = np.asarray(query, dtype=np.float64)
    emb = np.asarray(base_embeddings, dtype=np.float64)
    if emb.ndim != 2 or w.ndim not in (1, 2) or emb.shape[0] != w.shape[0]:
        raise DataError(f"base embedding matrix {emb.shape} incompatible with query shape {w.shape}")
    cb = emb.shape[1]
    if k > cb:
        warnings.warn(f"k={k} exceeds the {cb} available classes; clamped", stacklevel=2)
        k = cb
    # a single query keeps the vector norm, the exact cosine of the oracle
    if w.ndim == 1:
        wn = np.linalg.norm(w)
        if wn == 0.0:
            raise DataError("query embedding has zero norm")
        w = w / wn
    else:
        w, _ = _unit_columns(w)
    scores = _unit_columns(emb)[0].T @ w  # (C_b,) or (C_b, U)
    # stable sort of the negated scores: descending score, and exact ties
    # keep ascending index order
    order = np.argsort(-scores, axis=0, kind="stable")[:k]
    return order.tolist() if w.ndim == 1 else order.T


def build_context(
    neighbor_ids,
    neighbor_embeddings,
    features_by_class,
    sample_ids,
    conditioning=None,
) -> NeighborContext:
    """Assemble a NeighborContext from explicit neighbor columns.

    neighbor_ids holds K class ids, or (U, K) for U conditioning classes;
    neighbor_embeddings is the matching (d, K) or (U, d, K) stack of raw
    columns (normalized here). features_by_class maps a neighbor id to
    its (n, d) image-feature rows, and sample_ids (shaped like
    neighbor_ids) picks the support row of each neighbor.
    """
    ids = np.asarray(neighbor_ids, dtype=int)
    picks = np.asarray(sample_ids, dtype=int)
    emb, _ = _unit_columns(neighbor_embeddings)
    rows = [features_by_class[c][p] for c, p in zip(ids.flat, picks.flat)]
    support = np.array(rows, dtype=np.float64).reshape(ids.shape + (emb.shape[-2],))
    return NeighborContext(
        conditioning=conditioning,
        neighbor_indices=ids.tolist(),
        neighbor_embeddings=emb,
        support_features=np.swapaxes(support, -1, -2),
        sample_ids=picks.tolist(),
    )


def sample_support(
    neighbor_ids, dataset: EmbeddingSet, rng: np.random.Generator, conditioning=None
) -> NeighborContext:
    """Sample one image feature per neighbor class from a dataset, drawn
    uniformly in neighbor order."""
    ids = [int(i) for i in neighbor_ids]
    feats = {i: dataset.image_features[i] for i in ids}
    for i in ids:
        if feats[i].shape[0] == 0:
            raise DataError(f"neighbor class {i} has no image features to sample")
    picks = rng.integers([feats[i].shape[0] for i in ids])
    return build_context(ids, dataset.embedding_columns(ids), feats, picks, conditioning=conditioning)

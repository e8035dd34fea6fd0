"""Nearest-class retrieval and support gathering for feature synthesis.

Given conditioning class embeddings, find the K most similar known
classes of each by text-embedding cosine similarity (exact search; the
class count is small), and gather one support image feature per
retrieved class, with one index into the stacked base-split rows, into
the two unit-column stacks the generator reads. Every function works on
one conditioning class or on U of them at once along a leading batch
axis. Everything here is a pure function; the caller draws which support
row each neighbor contributes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .objective import _unit_columns


@dataclass
class NeighborContext:
    """The generator's input for one conditioning class, or for U of them.

    neighbor_embeddings and support_features are (d, K) column matrices,
    or (U, d, K) with one matrix per conditioning class: column j holds a
    retrieved class's unit text embedding and one unit image feature of
    that class. Only the shapes are checked here. The columns are unit by
    construction (the trainer normalizes the neighbors, and the supports
    are dataset rows checked when the file is loaded), just as the
    extrapolation functions take the conditioning columns as given.
    """

    neighbor_embeddings: np.ndarray
    support_features: np.ndarray

    def __post_init__(self):
        emb, sup = self.neighbor_embeddings, self.support_features
        if emb.ndim not in (2, 3) or emb.shape != sup.shape:
            raise DataError("neighbor and support matrices must share one (d, K) or (U, d, K) shape")
        if emb.shape[-1] == 0:
            raise DataError("neighbor context needs at least one neighbor")


def retrieve_knn(query, base_embeddings, k: int):
    """Indices of the k classes most cosine-similar to the query.

    base_embeddings is (d, C_b) with classes as columns. A (d,) query
    gives a list of indices in descending-similarity order; a (d, U)
    matrix of U queries gives a (U, k) index array, one such row per
    query. Exact ties break toward the smaller index for a (d,) query.
    The (d, U) form scores in one BLAS product, which may score two equal
    columns a last bit apart; the higher one then comes first. k larger
    than the class count is clamped with a warning.
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


def build_context(neighbor_ids, neighbor_embeddings, rows, starts, sample_ids) -> NeighborContext:
    """Gather the supports of a NeighborContext with one index.

    neighbor_ids holds K class positions, or (U, K) for U conditioning
    classes; neighbor_embeddings is the matching (d, K) or (U, d, K) stack
    of unit columns, taken as it is. rows stacks the classes' (n, d) image
    features, class c's from row starts[c] (EmbeddingSet._split_features),
    and sample_ids, shaped like neighbor_ids, picks each neighbor's row:
    support column j is rows[starts[neighbor_ids[j]] + sample_ids[j]].
    """
    support = rows[starts[np.asarray(neighbor_ids, dtype=int)] + np.asarray(sample_ids, dtype=int)]
    return NeighborContext(neighbor_embeddings, np.swapaxes(support, -1, -2))

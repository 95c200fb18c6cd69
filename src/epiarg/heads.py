"""Token classification heads over support/query embeddings.

Label convention: integers 0..N-1 index the episode's active types in order;
N is the O / none-of-the-above class. Prototype matrices stack the N type
vectors first and the NOTA vector(s) last, so an argmin over rows breaks
ties toward type vectors and toward lower type indices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_QUERY_BLOCK = 256


class EmptyClassError(ValueError):
    """A class that must have support tokens has none."""


@dataclass(frozen=True)
class HeadConfig:
    name: str = "protonet"
    d_reduced: int = 32
    kmeans_k: int = 6
    kmeans_iters: int = 100

    def __post_init__(self):
        if self.name not in ("baseline_no_finetune", "protonet", "nnshot", "mnav"):
            raise ValueError(f"unknown head {self.name!r}")
        if not (1 <= self.kmeans_k <= 16):
            raise ValueError(f"kmeans_k must be in [1, 16], got {self.kmeans_k}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "d_reduced": self.d_reduced,
            "kmeans_k": self.kmeans_k,
            "kmeans_iters": self.kmeans_iters,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HeadConfig":
        return cls(**{k: data[k] for k in cls().to_dict() if k in data})


@dataclass(frozen=True)
class PrototypeSet:
    """One vector per active type plus one or K vectors for the O class."""

    active_types: tuple[str, ...]
    type_vectors: np.ndarray  # (N, d)
    nota_vectors: np.ndarray  # (1, d) or (K, d)

    def __post_init__(self):
        if self.type_vectors.shape[0] != len(self.active_types):
            raise ValueError("one prototype per active type required")
        if self.nota_vectors.ndim != 2 or self.nota_vectors.shape[0] < 1:
            raise ValueError("at least one NOTA vector required")
        if self.type_vectors.shape[1] != self.nota_vectors.shape[1]:
            raise ValueError("type and NOTA vectors must share a dimension")
        if not (np.all(np.isfinite(self.type_vectors)) and np.all(np.isfinite(self.nota_vectors))):
            raise ValueError("prototypes contain non-finite entries")

    @property
    def n_types(self) -> int:
        return len(self.active_types)

    @property
    def matrix(self) -> np.ndarray:
        return np.vstack([self.type_vectors, self.nota_vectors])


@dataclass(frozen=True)
class TokenAssignment:
    """Per-token label (N means O) and distances to every prototype row."""

    labels: np.ndarray  # (T,) ints in [0, n_types]
    distances: np.ndarray  # (T, n_types + n_nota) or (T, n_types + 1) for NNShot
    n_types: int

    def class_distances(self) -> np.ndarray:
        """Collapse the NOTA block to its per-token minimum: (T, n_types + 1)."""
        if self.distances.shape[1] == self.n_types + 1:
            return self.distances
        nota = self.distances[:, self.n_types :].min(axis=1, keepdims=True)
        return np.hstack([self.distances[:, : self.n_types], nota])


def io_labels(num_tokens: int, spans, active_types: Sequence[str]) -> np.ndarray:
    """Integer IO labels for one document: span tokens get the active-type index, others N."""
    n = len(active_types)
    type_index = {role: i for i, role in enumerate(active_types)}
    labels = np.full(num_tokens, n, dtype=np.int64)
    for span in spans:
        idx = type_index.get(span.role)
        if idx is not None:
            labels[span.start : span.end] = idx
    return labels


def class_counts(labels: np.ndarray, active_types: Sequence[str]) -> np.ndarray:
    """Support tokens per class, O last; a class with none is an error naming it."""
    n = len(active_types)
    counts = np.bincount(labels, minlength=n + 1)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        c = int(empty[0])
        name = active_types[c] if c < n else "O"
        raise EmptyClassError(f"no support tokens for type {name!r}")
    return counts


def compute_prototypes(
    support: Sequence[tuple[np.ndarray, np.ndarray]],
    active_types: Sequence[str],
) -> PrototypeSet:
    """Mean embedding per active type over all support tokens of that type.

    The O prototype is the mean of all support O tokens. A type with zero
    support tokens is an error, never a silent zero vector.
    """
    if not support:
        raise EmptyClassError("empty support set")
    n = len(active_types)
    rows = np.vstack([mat for mat, _ in support])
    labels = np.concatenate([lab for _, lab in support])
    if rows.shape[0] != labels.shape[0]:
        raise ValueError("support embeddings and labels disagree on token count")
    class_counts(labels, active_types)
    vectors = [rows[labels == c].mean(axis=0) for c in range(n + 1)]
    return PrototypeSet(
        active_types=tuple(active_types),
        type_vectors=np.array(vectors[:n]),
        nota_vectors=np.array(vectors[n:]),
    )


def squared_l2(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(T, R) squared Euclidean distances, computed in blocks of query rows."""
    out = np.empty((query.shape[0], rows.shape[0]))
    for start in range(0, query.shape[0], _QUERY_BLOCK):
        block = query[start : start + _QUERY_BLOCK]
        out[start : start + _QUERY_BLOCK] = np.square(block[:, None, :] - rows[None, :, :]).sum(axis=2)
    return out


def protonet_classify(protos: PrototypeSet, query: np.ndarray) -> TokenAssignment:
    """Label each query token by its squared-L2-nearest prototype row.

    With K NOTA vectors (MNAV) any NOTA row winning the argmin means O.
    """
    if query.shape[1] != protos.type_vectors.shape[1]:
        raise ValueError(
            f"query dimension {query.shape[1]} does not match prototype dimension {protos.type_vectors.shape[1]}"
        )
    distances = squared_l2(query, protos.matrix)
    labels = np.minimum(distances.argmin(axis=1), protos.n_types)
    return TokenAssignment(labels=labels, distances=distances, n_types=protos.n_types)


mnav_classify = protonet_classify


def nearest_per_class(
    query: np.ndarray, rows: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per query token and class: the least L1 distance to a row of that class, and that row's index.

    Returns two (T, n_classes) arrays. Ties go to the lowest row index; a class
    with no rows gets +inf and -1. Memory is one block of query rows times all rows.
    """
    dmin = np.full((query.shape[0], n_classes), np.inf)
    umin = np.full((query.shape[0], n_classes), -1, dtype=np.int64)
    members = [(c, np.flatnonzero(labels == c)) for c in range(n_classes)]
    members = [(c, idx) for c, idx in members if idx.size]
    for start in range(0, query.shape[0], _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        dist = np.abs(query[block, None, :] - rows[None, :, :]).sum(axis=2)
        span = np.arange(dist.shape[0])
        for c, idx in members:
            best = idx[dist[:, idx].argmin(axis=1)]
            umin[block, c] = best
            dmin[block, c] = dist[span, best]
    return dmin, umin


def nnshot_classify(
    support: Sequence[tuple[np.ndarray, np.ndarray]],
    query: np.ndarray,
    n_types: int,
) -> TokenAssignment:
    """Token-level nearest neighbor under L1 distance in the reduced space.

    Each query token takes the label of its nearest support token; exact
    ties go to the lowest support-token index. The distance matrix holds the
    per-class minimum, O included as a class; an absent class gets +inf.
    """
    if not support:
        raise EmptyClassError("empty support set")
    rows = np.vstack([mat for mat, _ in support])
    labels = np.concatenate([lab for _, lab in support])
    if query.shape[1] != rows.shape[1]:
        raise ValueError(f"query dimension {query.shape[1]} does not match support dimension {rows.shape[1]}")
    dmin, umin = nearest_per_class(query, rows, labels, n_types + 1)
    # The nearest row overall: least distance, then least index (absent classes never win).
    index = np.where(umin < 0, rows.shape[0], umin)
    winner = np.lexsort((index, dmin))[:, 0]
    pred = labels[umin[np.arange(query.shape[0]), winner]]
    return TokenAssignment(labels=pred, distances=dmin, n_types=n_types)


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, d)
    assignments: np.ndarray  # (n_points,)
    inertia_history: tuple[float, ...]
    n_iter: int

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


def kmeans_nota(
    o_embeddings: np.ndarray,
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ style seeding over the O-token embeddings.

    Stops when assignments stabilize or after ``max_iters``; inertia is
    non-increasing across iterations. Requires at least ``k`` points.
    """
    points = np.asarray(o_embeddings, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("o_embeddings must be a 2-D matrix")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if points.shape[0] < k:
        raise EmptyClassError(f"k-means needs at least {k} points, got {points.shape[0]}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(points.shape[0]))]
    closest = squared_l2(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            probs = closest / total
            pick = int(rng.choice(points.shape[0], p=probs))
        else:
            pick = int(rng.integers(points.shape[0]))
        centroids[j] = points[pick]
        closest = np.minimum(closest, squared_l2(points, centroids[j : j + 1])[:, 0])

    assignments = np.full(points.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    for iteration in range(1, max_iters + 1):
        dist = squared_l2(points, centroids)
        new_assignments = dist.argmin(axis=1)
        history.append(float(dist[np.arange(points.shape[0]), new_assignments].sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            mask = assignments == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster on the point farthest from its centroid.
                per_point = dist[np.arange(points.shape[0]), assignments]
                centroids[j] = points[int(per_point.argmax())]
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia_history=tuple(history),
        n_iter=len(history),
    )


def build_mnav_prototypes(
    support: Sequence[tuple[np.ndarray, np.ndarray]],
    active_types: Sequence[str],
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
) -> PrototypeSet:
    """Type prototypes by averaging plus K NOTA vectors from clustering the O tokens."""
    base = compute_prototypes(support, active_types)
    rows = np.vstack([mat for mat, _ in support])
    labels = np.concatenate([lab for _, lab in support])
    o_rows = rows[labels == len(active_types)]
    result = kmeans_nota(o_rows, k, seed, max_iters)
    return PrototypeSet(
        active_types=base.active_types,
        type_vectors=base.type_vectors,
        nota_vectors=result.centroids,
    )


def prototype_rows(protos: PrototypeSet) -> list[tuple[str, np.ndarray]]:
    rows = [(role, protos.type_vectors[i]) for i, role in enumerate(protos.active_types)]
    if protos.nota_vectors.shape[0] == 1:
        rows.append(("NOTA", protos.nota_vectors[0]))
    else:
        rows.extend((f"NOTA_{j}", protos.nota_vectors[j]) for j in range(protos.nota_vectors.shape[0]))
    return rows


def write_prototypes_csv(protosets: Iterable[PrototypeSet], path: str | Path) -> None:
    """Dump prototypes for external visualization: columns label, dim_0..dim_{d-1}."""
    protosets = list(protosets)
    if not protosets:
        raise ValueError("no prototype sets to write")
    dim = protosets[0].type_vectors.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label"] + [f"dim_{i}" for i in range(dim)])
        for protos in protosets:
            for label, vector in prototype_rows(protos):
                writer.writerow([label] + [repr(float(v)) for v in vector])

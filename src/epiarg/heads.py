"""Token classification heads over support/query embeddings.

Label convention: integers 0..N-1 index the episode's active types in order;
N is the O / none-of-the-above class. Prototype matrices stack the N type
vectors first and the NOTA vector(s) last, so an argmin over rows breaks
ties toward type vectors and toward lower type indices.

A support set is one ``(rows, labels)`` pair: all support tokens stacked in document order.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .files import atomic_write
from .record import Record
from .seeds import substream

HEAD_NAMES = ("baseline_no_finetune", "protonet", "nnshot", "mnav")

_QUERY_BLOCK = 256
# Working memory `nearest_per_class` may hold beyond its (T, n_classes) outputs, its copies of the
# inputs included, for all its threads together, down to one query row a tile. On 800 query x 1600
# support rows at d = 32 and 2 threads it gives tiles of about 60 query rows; 8-16 MiB ran 10-15 %
# faster, 2 MiB (tiles of about 17 rows) 25 % slower and 1 MiB (one row a tile) 3.6 times slower.
_L1_BLOCK_BYTES = 4 << 20
# Query rows x support rows x dimensions below which `nearest_per_class` runs on the calling
# thread alone: starting and joining the threads costs more than smaller kernels save.
_L1_THREAD_MIN_WORK = 1 << 21
# L1 row norm from which `nearest_per_class` skips its float32 screen and settles every pair: below
# it no float32 value or partial sum of the screen comes near overflow.
_F32_SAFE = 1e30


class EmptyClassError(ValueError):
    """A class that must have support tokens has none."""


@dataclass(frozen=True)
class HeadConfig(Record):
    name: str = "protonet"
    d_reduced: int = 32
    kmeans_k: int = 6
    kmeans_iters: int = 100

    def __post_init__(self):
        if self.name not in HEAD_NAMES:
            raise ValueError(f"unknown head {self.name!r}")
        if not (1 <= self.kmeans_k <= 16):
            raise ValueError(f"kmeans_k must be in [1, 16], got {self.kmeans_k}")


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

    @cached_property
    def matrix(self) -> np.ndarray:
        """Type vectors then NOTA vectors, stacked once per prototype set."""
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


def compute_prototypes(support: tuple[np.ndarray, np.ndarray], active_types: Sequence[str]) -> PrototypeSet:
    """Mean embedding per active type over all support tokens of that type.

    The O prototype is the mean of all support O tokens. A type with zero
    support tokens is an error, never a silent zero vector.
    """
    n = len(active_types)
    rows, labels = support
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


def _screen(
    query_t: np.ndarray, support_t: np.ndarray, half_sums: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """One tile's (B, S) float32 ``sum_k max(q_k, s_k) - sum_k s_k / 2``, in ``out``.

    ``query_t`` (d, B) and ``support_t`` (d, S) hold the float32 inputs dimension-major. Each group
    of ``tmp.shape[1]`` query rows takes two whole-array ufuncs, every dimension's maxima into
    ``tmp`` (d, rows, S) and their sum over the dimensions, so no row is reduced on its own. Since
    |q - s| = 2 max(q, s) - q - s, twice the value less the query row's sum is the L1 distance.
    """
    rows = tmp.shape[1]
    for first in range(0, out.shape[0], rows):
        last = min(first + rows, out.shape[0])
        maxima = np.maximum(query_t[:, first:last, None], support_t[:, None, :], out=tmp[:, : last - first])
        np.add.reduce(maxima, axis=0, out=out[first:last])
    return np.subtract(out, half_sums, out=out)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def nearest_per_class(
    query: np.ndarray, rows: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per query token and class: the least L1 distance to a row of that class, and that row's index.

    Returns two (T, n_classes) arrays. The distances are the bits of numpy's own
    ``np.abs(q[:, None] - rows[None]).sum(axis=2)``; ties go to the lowest row index and a NaN
    distance ranks first, as in ``argmin``; a class with no rows gets +inf and -1.

    Screen. For each tile of query rows, ``_screen`` gives every support row j a float32 value W_j,
    and V_j = 2 W_j - sum(q) tracks numpy's float64 distance N_j. With u = 2^-24 and
    A = |q|_1 + max_j |s_j|_1, |V_j - N_j| <= (2d + 4) u A + (4d + 2) 2^-126 + O(d^2 u^2 A):

    - rounding q and s to float32 moves each max(q_k, s_k) by at most u max(|q_k|, |s_k|), since
      the max itself is exact: 2 u A;
    - the d - 1 float32 additions, in whatever order numpy makes them: 2 gamma_{d-1} A, with
      gamma_n = n u / (1 - n u);
    - subtracting the half sum, where |W_j| <= 1.5 A: 3 u A;
    - rounding the float64 sum(s) / 2 to float32: u A;
    - numpy's own float64 sum, and the one above, are off by at most (d + 1) 2^-53 A each;
    - each of the 2d + 1 float32 results may lose up to 2^-126 more where it underflows, with or
      without flush-to-zero, which counts twice in V.

    E = 1.01 ((2d + 6) u A + (4d + 4) 2^-126) covers all of it for d < 2^16. A row at numpy's least
    distance in its class then has V_j <= min_class V + 2E, that is W_j <= min_class W + E, so every
    row within E of its class's screened minimum is a candidate. If a row's L1 norm is at or past
    ``_F32_SAFE`` or not finite, d is outside 1 .. 2^16 - 1 or the inputs are not float64, the
    screen runs on zeros with E = 0 and every pair is a candidate.

    Settle. Each candidate's distance is numpy's own ``np.abs(q_i - s_j).sum(axis=1)`` on the
    gathered pairs, the same per-row sums as the broadcast expression. Per query row and class the
    least distance wins, then the least row index: a tile's chunks are settled last to first, and on
    a tie the chunk settled later, which holds the lower row index, wins.

    Memory. The working arrays of all threads together, the float32 copies and the class-sorted
    support included, stay within ``_L1_BLOCK_BYTES``, down to one query row a tile. Of a thread's
    share, an eighth holds the (d, rows, S) maxima of ``_screen`` and an eighth the candidates
    settled at once, at 8 (2d + 16) bytes a pair, so inputs full of ties never gather more than that
    chunk. The tiles take the rest, at 13 bytes a pair: the screen, the keep mask and, if every pair
    is kept, an int64 index.

    Threads. From ``_L1_THREAD_MIN_WORK`` on, each usable CPU takes one contiguous range of query
    rows, the calling thread the first; numpy's element-wise loops release the interpreter lock,
    and every row is computed by the same operations whichever thread runs it.
    """
    n_query = query.shape[0]
    n_rows, d = rows.shape
    dmin = np.full((n_query, n_classes), np.inf)  # a NaN distance is held as -1 until the end
    umin = np.full((n_query, n_classes), -1, dtype=np.int64)
    order = np.argsort(labels, kind="stable")  # each class contiguous, original order within it
    support = rows[order]  # (S, d) in class order
    column_class = labels[order]
    bounds = np.searchsorted(column_class, np.arange(n_classes + 1))
    members = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    query_norms, support_norms = np.abs(query).sum(axis=1), np.abs(support).sum(axis=1)
    top = support_norms.max(initial=0.0)  # not finite if a support row is not
    if query.dtype == rows.dtype == np.float64 and 0 < d < 1 << 16 and query_norms.max(initial=top) < _F32_SAFE:
        query_t = np.ascontiguousarray(query.T, dtype=np.float32)
        support_t = np.ascontiguousarray(support.T, dtype=np.float32)
        half_sums = (support.sum(axis=1) / 2).astype(np.float32)
        slack = 1.01 * ((2 * d + 6) * 2.0**-24 * (query_norms + top) + (4 * d + 4) * 2.0**-126)  # E per row
    else:
        query_t, support_t = np.zeros((1, n_query), np.float32), np.zeros((1, n_rows), np.float32)
        half_sums, slack = np.zeros(n_rows, np.float32), np.zeros(n_query)
    dims = len(query_t)  # 1 where every pair is a candidate
    held = sum(x.nbytes for x in (order, support, column_class, query_norms, support_norms))
    held += sum(x.nbytes for x in (query_t, support_t, half_sums, slack))
    threads = min(_usable_cpus(), n_query) if n_query * n_rows * d >= _L1_THREAD_MIN_WORK else 1
    per_thread = (_L1_BLOCK_BYTES - held) // threads
    chunk = max(1, per_thread // 8 // (8 * (2 * d + 16)))
    rows_maxima = max(1, per_thread // 8 // (4 * dims * max(n_rows, 1)))
    spent = chunk * 8 * (2 * d + 16) + rows_maxima * 4 * dims * n_rows
    block = max(1, (per_thread - spent) // (13 * max(n_rows, 1)))

    def settle(start: int, pairs: np.ndarray) -> None:
        qi, sj = np.divmod(pairs, n_rows)
        at = start + qi
        diff = query[at]
        np.subtract(diff, support[sj], out=diff)
        dist = np.abs(diff, out=diff).sum(axis=1)
        dist[np.isnan(dist)] = -1.0  # argmin takes the first NaN
        group = at * n_classes + column_class[sj]  # non-decreasing: pairs come in row, then class order
        first = np.ones(group.size, dtype=bool)
        np.not_equal(group[1:], group[:-1], out=first[1:])
        best = np.lexsort((dist, group))[first]  # per group the least distance, then the lowest row index
        t, c = at[best], column_class[sj[best]]
        win = dist[best] <= dmin[t, c]  # chunks run last to first, so a tie goes to the lower row index
        t, c, best = t[win], c[win], best[win]
        dmin[t, c] = dist[best]
        umin[t, c] = order[sj[best]]

    def share(first: int, stop: int) -> None:
        out = np.empty((min(block, stop - first), n_rows), np.float32)
        tmp = np.empty((dims, min(rows_maxima, len(out)), n_rows), np.float32)
        keep = np.zeros(out.shape, dtype=bool)  # columns of no class stay False
        for start in range(first, stop, block):
            end = min(start + block, stop)
            screen = _screen(query_t[:, start:end], support_t, half_sums, out[: end - start], tmp)
            for lo, hi in members:
                part = screen[:, lo:hi]
                limit = np.minimum.reduce(part, axis=1) + slack[start:end]
                np.less_equal(part, limit[:, None], out=keep[: end - start, lo:hi])
            pairs = np.flatnonzero(keep[: end - start])
            for lo in reversed(range(0, pairs.size, chunk)):
                settle(start, pairs[lo : lo + chunk])
            del pairs  # before the next tile makes its own

    cuts = [n_query * i // threads for i in range(threads + 1)]
    if threads == 1:
        share(0, n_query)
    else:
        with ThreadPoolExecutor(threads - 1) as pool:
            others = [pool.submit(share, cuts[i], cuts[i + 1]) for i in range(1, threads)]
            share(cuts[0], cuts[1])
            for future in others:
                future.result()
    dmin[dmin < 0] = np.nan
    return dmin, umin


def nnshot_classify(support: tuple[np.ndarray, np.ndarray], query: np.ndarray, n_types: int) -> TokenAssignment:
    """Token-level nearest neighbor under L1 distance in the reduced space.

    Each query token takes the label of its nearest support token; exact
    ties go to the lowest support-token index. The distance matrix holds the
    per-class minimum, O included as a class; an absent class gets +inf.
    """
    rows, labels = support
    if labels.size == 0:
        raise EmptyClassError("empty support set")
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


def _nearest_centroid(points: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's squared-L2-nearest centroid, the same as ``squared_l2(...).argmin(axis=1)``.

    Ranks by the GEMM form |p|^2 - 2 p.c + |c|^2 (``norms`` holds |p|^2). It and
    ``squared_l2`` each lie within (d + 4) * eps * (|p| + |c|)^2 of the true
    distance, so where the best two GEMM values are further apart than twice
    both errors the two forms pick the same centroid. The other rows are ranked
    again on ``squared_l2``, whose ties go to the lower index.
    """
    if centroids.shape[0] == 1:
        return np.zeros(points.shape[0], dtype=np.int64)
    c_norms = np.square(centroids).sum(axis=1)
    approx = norms[None, :] - 2.0 * (centroids @ points.T) + c_norms[:, None]  # (k, n): reductions run across rows
    nearest = approx.argmin(axis=0)
    every = np.arange(points.shape[0])
    best = approx[nearest, every]
    approx[nearest, every] = np.inf
    scale = np.sqrt(norms) + np.sqrt(c_norms.max())
    bound = 4.0 * (points.shape[1] + 4) * np.finfo(np.float64).eps * np.square(scale)
    near_tie = np.flatnonzero(approx.min(axis=0) - best <= bound)
    if near_tie.size:
        nearest[near_tie] = squared_l2(points[near_tie], centroids).argmin(axis=1)
    return nearest


def kmeans_nota(
    o_embeddings: np.ndarray,
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ style seeding over the O-token embeddings.

    Stops when assignments stabilize or after ``max_iters``; inertia is
    non-increasing across iterations. Requires at least ``k`` points, and a
    seed or a generator: ``None`` would draw from OS entropy.
    """
    if seed is None:
        raise ValueError("k-means needs an integer seed or a generator, got None")
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
    norms = np.square(points).sum(axis=1)
    diff = np.empty_like(points)
    for iteration in range(1, max_iters + 1):
        new_assignments = _nearest_centroid(points, norms, centroids)
        # The same per-row sums as squared_l2's, so inertia and re-seeding use exact distances.
        np.subtract(points, centroids[new_assignments], out=diff)
        per_point = np.square(diff, out=diff).sum(axis=1)
        history.append(float(per_point.sum()))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            mask = assignments == j
            if mask.any():
                centroids[j] = points[mask].mean(axis=0)
            else:
                # Re-seed an empty cluster on the point farthest from its centroid.
                centroids[j] = points[int(per_point.argmax())]
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia_history=tuple(history),
        n_iter=len(history),
    )


def build_mnav_prototypes(
    support: tuple[np.ndarray, np.ndarray],
    active_types: Sequence[str],
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
) -> PrototypeSet:
    """Type prototypes by averaging plus K NOTA vectors from clustering the O tokens."""
    base = compute_prototypes(support, active_types)
    rows, labels = support
    result = kmeans_nota(rows[labels == len(active_types)], k, seed, max_iters)
    return PrototypeSet(
        active_types=base.active_types,
        type_vectors=base.type_vectors,
        nota_vectors=result.centroids,
    )


def mnav_stream(seed: int, active_types: Sequence[str], doc_ids: Iterable[str]) -> np.random.Generator:
    """MNAV's k-means stream for one support set, a function of the active types (counted, so the key is
    unambiguous) and the support doc_ids: episodes that share the set share its NOTA vectors."""
    return substream(seed, "kmeans", len(active_types), *active_types, *doc_ids)


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
    with atomic_write(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["label"] + [f"dim_{i}" for i in range(dim)])
        for protos in protosets:
            for label, vector in prototype_rows(protos):
                writer.writerow([label] + [repr(float(v)) for v in vector])

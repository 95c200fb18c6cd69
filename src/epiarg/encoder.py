"""Per-token embeddings: a small trainable encoder plus an adapter for
precomputed embedding files produced by real document encoders.

Long documents are processed in fixed-length chunks; context mixing never
crosses a chunk boundary.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .files import atomic_write, read_checked, require_bytes
from .record import Record

_MAGIC = b"FDAE"
_VERSION = 1


class EmbeddingFormatError(ValueError):
    """An external embedding file violates the declared binary format."""


@dataclass(frozen=True)
class EncoderConfig(Record):
    d_emb: int = 64
    d_model: int = 64
    radius: int = 3
    n_buckets: int = 65536
    chunk_length: int = 1024
    init_scale: float = 0.05


@dataclass(frozen=True)
class ChunkPlan:
    chunk_length: int
    chunks: tuple[tuple[int, int], ...]

    @property
    def num_tokens(self) -> int:
        return self.chunks[-1][1] if self.chunks else 0


@dataclass(frozen=True)
class EmbeddingMatrix:
    doc_id: str
    rows: np.ndarray  # (num_tokens, d)

    def __post_init__(self):
        if self.rows.ndim != 2:
            raise ValueError(f"embedding matrix for {self.doc_id!r} must be 2-D, got shape {self.rows.shape}")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError(f"embedding matrix for {self.doc_id!r} contains non-finite entries")


def chunk_document(num_tokens: int, chunk_length: int) -> ChunkPlan:
    """Greedy left-to-right partition of [0, num_tokens); the last chunk may be short."""
    if num_tokens < 0:
        raise ValueError(f"num_tokens must be >= 0, got {num_tokens}")
    if chunk_length < 1:
        raise ValueError(f"chunk_length must be >= 1, got {chunk_length}")
    chunks = tuple(
        (start, min(start + chunk_length, num_tokens))
        for start in range(0, num_tokens, chunk_length)
    )
    return ChunkPlan(chunk_length, chunks)


def stable_bucket(token: str, n_buckets: int) -> int:
    """Deterministic hash bucket for a token (process- and platform-stable)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % n_buckets


@dataclass
class ToyEncoderParams:
    """Trainable parameters of the toy context-window encoder.

    ``vocab`` maps known tokens to embedding rows; unknown tokens hash into
    the table. Everything except the vocabulary is trainable.
    """

    config: EncoderConfig
    vocab: dict[str, int]
    table: np.ndarray  # (n_buckets, d_emb)
    projection: np.ndarray  # (d_emb, d_model)

    @classmethod
    def initialize(
        cls,
        config: EncoderConfig,
        rng: np.random.Generator,
        vocab_tokens: Iterable[str] = (),
    ) -> "ToyEncoderParams":
        """Uniform init in [-init_scale, init_scale]; vocabulary rows assigned in first-seen order."""
        table = rng.uniform(-config.init_scale, config.init_scale, size=(config.n_buckets, config.d_emb))
        projection = rng.uniform(-config.init_scale, config.init_scale, size=(config.d_emb, config.d_model))
        vocab: dict[str, int] = {}
        for token in vocab_tokens:
            if token not in vocab and len(vocab) < config.n_buckets:
                vocab[token] = len(vocab)
        return cls(config=config, vocab=vocab, table=table, projection=projection)

    def bucket_indices(self, tokens: Sequence[str]) -> np.ndarray:
        n = self.config.n_buckets
        return np.array(
            [self.vocab[t] if t in self.vocab else stable_bucket(t, n) for t in tokens],
            dtype=np.int64,
        )

    def copy(self) -> "ToyEncoderParams":
        return ToyEncoderParams(self.config, dict(self.vocab), self.table.copy(), self.projection.copy())


def _window_bounds(length: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(length)
    a = np.maximum(0, t - radius)
    b = np.minimum(length, t + radius + 1)
    return a, b


def window_means(values: np.ndarray, plan: ChunkPlan, radius: int) -> np.ndarray:
    """Per-position mean of ``values`` over [t-radius, t+radius], clipped to the chunk."""
    out = np.empty_like(values, dtype=np.float64)
    for start, end in plan.chunks:
        seg = values[start:end]
        csum = np.vstack([np.zeros((1, seg.shape[1])), np.cumsum(seg, axis=0)])
        a, b = _window_bounds(end - start, radius)
        out[start:end] = (csum[b] - csum[a]) / (b - a)[:, None]
    return out


def window_means_backward(grad: np.ndarray, plan: ChunkPlan, radius: int) -> np.ndarray:
    """Adjoint of ``window_means``: scatter each window-mean gradient back to its inputs."""
    out = np.empty_like(grad, dtype=np.float64)
    for start, end in plan.chunks:
        a, b = _window_bounds(end - start, radius)
        scaled = grad[start:end] / (b - a)[:, None]
        csum = np.vstack([np.zeros((1, scaled.shape[1])), np.cumsum(scaled, axis=0)])
        out[start:end] = csum[b] - csum[a]
    return out


def stack_plans(plans: Sequence[ChunkPlan]) -> ChunkPlan:
    """One plan over documents stacked in order: each document's chunks, shifted to its first row."""
    starts = accumulate((plan.num_tokens for plan in plans), initial=0)
    chunks = tuple((s + start, e + start) for plan, start in zip(plans, starts) for s, e in plan.chunks)
    return ChunkPlan(plans[0].chunk_length, chunks)


def encode_docs(
    params: ToyEncoderParams, buckets: Sequence[np.ndarray], plans: Sequence[ChunkPlan]
) -> tuple[np.ndarray, np.ndarray]:
    """h_t = window-mean of token embeddings (clipped to the chunk) times the projection, for documents
    stacked in order; returns the rows and the window means. Chunks stay per document."""
    mixed = window_means(params.table[np.concatenate(buckets)], stack_plans(plans), params.config.radius)
    if mixed.shape[0] == 1:
        # numpy multiplies a lone row with another BLAS kernel (gemv) than a stack (gemm), which
        # changes its last bits; a stack of two gives the row the bits it has in any stack.
        return (np.repeat(mixed, 2, axis=0) @ params.projection)[:1], mixed
    return mixed @ params.projection, mixed


def embed_tokens(params: ToyEncoderParams, doc: Document, plan: ChunkPlan) -> EmbeddingMatrix:
    """The encoder forward of one document: the one-document case of ``encode_docs``."""
    if plan.num_tokens != len(doc.tokens):
        raise ValueError(
            f"chunk plan covers {plan.num_tokens} tokens but document {doc.doc_id!r} has {len(doc.tokens)}"
        )
    rows, _ = encode_docs(params, [params.bucket_indices(doc.tokens)], [plan])
    return EmbeddingMatrix(doc.doc_id, rows)


def write_external_embeddings(
    matrices: Iterable[EmbeddingMatrix],
    path: str | Path,
) -> None:
    """Write matrices in the versioned binary format (f32 little-endian rows).

    Layout: magic "FDAE", u32 version, u32 d_model, u64 doc count, then per
    document: u32 id byte length, id bytes, u64 row count, rows f32 LE
    row-major. A plain-text ``<path>.idx`` maps doc_id to byte offset.

    Both files are written through ``atomic_write``, so a failure leaves the previous file and index.
    Each matrix is written as it arrives; the header's dimension and count go in once all are written.
    """
    d_model, count = None, 0
    with atomic_write(str(path) + ".idx") as idx, atomic_write(path, "wb") as handle:
        handle.write(_MAGIC + bytes(16))  # version, d_model and count follow the last matrix
        for mat in matrices:
            if d_model is None:
                d_model = mat.rows.shape[1]
            elif mat.rows.shape[1] != d_model:
                raise ValueError(f"matrix {mat.doc_id!r} has dim {mat.rows.shape[1]}, expected {d_model}")
            idx.write(f"{mat.doc_id}\t{handle.tell()}\n")
            encoded = mat.doc_id.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<Q", mat.rows.shape[0]))
            handle.write(np.ascontiguousarray(mat.rows, dtype="<f4").tobytes())
            count += 1
        if d_model is None:
            raise ValueError("no matrices to write")
        handle.seek(len(_MAGIC))
        handle.write(struct.pack("<IIQ", _VERSION, d_model, count))


class EmbeddingProvider:
    """Random access to an external embedding file by doc_id."""

    def __init__(self, path: str | Path, d_model: int, offsets: dict[str, int]):
        self.path = Path(path)
        self.d_model = d_model
        self._offsets = offsets

    def get(self, doc_id: str) -> EmbeddingMatrix:
        """The document's rows; a file cut short is an ``EmbeddingFormatError`` naming it and the document."""
        if doc_id not in self._offsets:
            raise EmbeddingFormatError(f"doc_id {doc_id!r} not present in {self.path}")
        with open(self.path, "rb") as handle:

            def read(n: int, what: str) -> bytes:
                return read_checked(handle, n, f"{what} of doc {doc_id!r}", EmbeddingFormatError)

            handle.seek(self._offsets[doc_id])
            (id_len,) = struct.unpack("<I", read(4, "id length"))
            stored_id = read(id_len, "id").decode("utf-8")
            if stored_id != doc_id:
                raise EmbeddingFormatError(
                    f"index for {self.path} is stale: expected {doc_id!r} at offset, found {stored_id!r}"
                )
            (rows,) = struct.unpack("<Q", read(8, "row count"))
            data = np.frombuffer(read(rows * self.d_model * 4, "rows"), dtype="<f4")
        return EmbeddingMatrix(doc_id, data.reshape(rows, self.d_model).astype(np.float64))

    def rows_of(self, doc: Document) -> np.ndarray:
        """The document's rows, checked to number one per token."""
        rows = self.get(doc.doc_id).rows
        if rows.shape[0] != len(doc.tokens):
            raise EmbeddingFormatError(
                f"doc {doc.doc_id!r}: {rows.shape[0]} embedding rows and {len(doc.tokens)} tokens disagree"
            )
        return rows


def load_external_embeddings(path: str | Path) -> EmbeddingProvider:
    """Open an embedding file, using the ``.idx`` sidecar when present."""
    path = Path(path)
    with open(path, "rb") as handle:
        read = functools.partial(read_checked, handle, error=EmbeddingFormatError)
        header = handle.read(4)
        if header != _MAGIC:
            raise EmbeddingFormatError(f"{path}: bad magic {header!r}")
        version, d_model = struct.unpack("<II", read(8, "version and dimension"))
        if version != _VERSION:
            raise EmbeddingFormatError(f"{path}: unsupported version {version}")
        (doc_count,) = struct.unpack("<Q", read(8, "document count"))
        index_path = Path(str(path) + ".idx")
        offsets: dict[str, int] = {}
        if index_path.exists():
            for line in index_path.read_text(encoding="utf-8").splitlines():
                if not line:
                    continue
                doc_id, _, offset = line.rpartition("\t")
                offsets[doc_id] = int(offset)
        else:
            for k in range(doc_count):
                offset = handle.tell()
                (id_len,) = struct.unpack("<I", read(4, f"id length of document {k}"))
                doc_id = read(id_len, f"id of document {k}").decode("utf-8")
                (rows,) = struct.unpack("<Q", read(8, f"row count of document {k}"))
                offsets[doc_id] = offset
                require_bytes(handle, rows * d_model * 4, f"rows of document {k}", EmbeddingFormatError)
                handle.seek(rows * d_model * 4, 1)
        if len(offsets) != doc_count:
            raise EmbeddingFormatError(
                f"{path}: header declares {doc_count} documents, found {len(offsets)}"
            )
    return EmbeddingProvider(path, d_model, offsets)

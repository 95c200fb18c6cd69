"""Per-token embeddings from a small trainable encoder, and the model parameters it is trained in.

Long documents are processed in fixed-length chunks; context mixing never
crosses a chunk boundary. Rows from real document encoders arrive through the
embedding files of ``epiarg.formats``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .heads import HeadConfig
from .record import Record


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
        vocab = {token: row for row, token in enumerate(islice(dict.fromkeys(vocab_tokens), config.n_buckets))}
        return cls(config=config, vocab=vocab, table=table, projection=projection)

    def bucket_indices(self, tokens: Sequence[str]) -> np.ndarray:
        n = self.config.n_buckets
        return np.array(
            [self.vocab[t] if t in self.vocab else stable_bucket(t, n) for t in tokens],
            dtype=np.int64,
        )

    def copy(self) -> "ToyEncoderParams":
        return ToyEncoderParams(self.config, dict(self.vocab), self.table.copy(), self.projection.copy())


@dataclass
class ModelParams:
    encoder: ToyEncoderParams
    reducer: np.ndarray | None = None  # (d_model, d_reduced)

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"table": self.encoder.table, "projection": self.encoder.projection}
        if self.reducer is not None:
            out["reducer"] = self.reducer
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(self.encoder.copy(), None if self.reducer is None else self.reducer.copy())


def initialize_params(
    encoder_cfg: EncoderConfig,
    head_cfg: HeadConfig,
    rng: np.random.Generator,
    vocab_tokens: Iterable[str] = (),
) -> ModelParams:
    encoder = ToyEncoderParams.initialize(encoder_cfg, rng, vocab_tokens)
    reducer = None
    if head_cfg.name == "nnshot":
        reducer = rng.uniform(
            -encoder_cfg.init_scale, encoder_cfg.init_scale, size=(encoder_cfg.d_model, head_cfg.d_reduced)
        )
    return ModelParams(encoder=encoder, reducer=reducer)


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

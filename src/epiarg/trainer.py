"""Episodic training of the toy encoder (plus the NNShot reducer).

The loss is the mean cross-entropy of a softmax over negative distances
against the gold token labels, with O as a class. All gradients are
analytic; ``forward_backward`` is the single source of truth checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, SplitCorpus
from .encoder import (
    ChunkPlan,
    EncoderConfig,
    ToyEncoderParams,
    chunk_document,
    encode_docs,
    window_means_backward,
)
from .heads import (
    HeadConfig,
    PrototypeSet,
    TokenAssignment,
    class_counts,
    compute_prototypes,
    io_labels,
    kmeans_nota,
    nearest_per_class,
    protonet_classify,
)
from .record import Record
from .sampler import Episode, SamplerConfig, generate_episode_set
from .seeds import substream

_CKPT_MAGIC = b"FDCK"
_CKPT_VERSION = 1
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class NumericalError(RuntimeError):
    """Training produced a non-finite quantity."""


@dataclass(frozen=True)
class TrainConfig(Record):
    episodes: int
    learning_rate: float = 1e-5
    grad_clip_norm: float = 1.0
    validate_every: int = 4000
    seed: int = 0
    batch_size: int = 2
    optimizer: str = "adamw"
    weight_decay: float = 0.0
    dev_episodes: int = 200

    def __post_init__(self):
        if self.learning_rate <= 0 or self.grad_clip_norm <= 0:
            raise ValueError("learning_rate and grad_clip_norm must be positive")
        if self.episodes < 0 or self.validate_every < 1 or self.batch_size < 1 or self.dev_episodes < 1:
            raise ValueError(f"invalid train config {self}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.episodes > 0 and self.validate_every > self.episodes:
            raise ValueError("validate_every must not exceed the episode budget")


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
        return ModelParams(
            encoder=self.encoder.copy(),
            reducer=None if self.reducer is None else self.reducer.copy(),
        )


def initialize_params(
    encoder_cfg: EncoderConfig,
    head_cfg: HeadConfig,
    rng: np.random.Generator,
    vocab_tokens: Sequence[str] = (),
) -> ModelParams:
    encoder = ToyEncoderParams.initialize(encoder_cfg, rng, vocab_tokens)
    reducer = None
    if head_cfg.name == "nnshot":
        reducer = rng.uniform(
            -encoder_cfg.init_scale, encoder_cfg.init_scale, size=(encoder_cfg.d_model, head_cfg.d_reduced)
        )
    return ModelParams(encoder=encoder, reducer=reducer)


@dataclass
class Gradients:
    """Gradient buffers; ``table`` is zero outside the sorted unique bucket indices in ``rows``."""

    table: np.ndarray
    projection: np.ndarray
    reducer: np.ndarray | None = None
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "Gradients":
        # np.zeros leaves untouched pages of the table unmapped; np.zeros_like writes them all.
        return cls(**{name: np.zeros(arr.shape) for name, arr in params.arrays().items()})

    def arrays(self) -> dict[str, np.ndarray]:
        out = {"table": self.table, "projection": self.projection}
        if self.reducer is not None:
            out["reducer"] = self.reducer
        return out

    def add_rows(self, buckets: np.ndarray, drows: np.ndarray) -> None:
        np.add.at(self.table, buckets, drows)
        self.rows = np.union1d(self.rows, buckets)

    def zero_(self) -> None:
        self.table[self.rows] = 0.0
        self.rows = self.rows[:0]
        self.projection.fill(0.0)
        if self.reducer is not None:
            self.reducer.fill(0.0)

    def scale_(self, factor: float) -> None:
        self.table[self.rows] *= factor
        self.projection *= factor
        if self.reducer is not None:
            self.reducer *= factor


@dataclass
class EpisodeTensors:
    """One episode lowered to per-document bucket indices (none without parameters) and chunk
    plans, and IO labels stacked per side in document order."""

    support_buckets: list[np.ndarray]
    support_plans: list[ChunkPlan]
    support_labels: np.ndarray
    query_buckets: list[np.ndarray]
    query_plans: list[ChunkPlan]
    query_labels: np.ndarray
    active_types: tuple[str, ...]

    @property
    def n_types(self) -> int:
        return len(self.active_types)


def lower_docs(
    docs: Sequence[Document], active_types: Sequence[str], params: ModelParams | None, chunk_length: int
) -> tuple[list[np.ndarray], list[ChunkPlan], np.ndarray]:
    """One side of an episode lowered: per-document bucket indices (none when ``params=None``) and
    chunk plans, and IO labels stacked in document order."""
    buckets, plans, labels = [], [], []
    for doc in docs:
        if params is not None:
            buckets.append(params.encoder.bucket_indices(doc.tokens))
        plans.append(chunk_document(len(doc.tokens), chunk_length))
        labels.append(io_labels(len(doc.tokens), doc.arguments, active_types))
    return buckets, plans, np.concatenate(labels) if labels else np.empty(0, dtype=np.int64)


def episode_tensors(episode: Episode, params: ModelParams | None, chunk_length: int) -> EpisodeTensors:
    """Both sides of an episode lowered by ``lower_docs``; ``params=None`` skips hashing."""
    sb, sp, sl = lower_docs(episode.support, episode.active_types, params, chunk_length)
    qb, qp, ql = lower_docs(episode.query, episode.active_types, params, chunk_length)
    return EpisodeTensors(sb, sp, sl, qb, qp, ql, tuple(episode.active_types))


def episode_loss(assignment: TokenAssignment, gold: np.ndarray) -> float:
    """Mean cross-entropy of softmax over negative distances, O included as a class."""
    logits = -assignment.class_distances()
    gold = np.asarray(gold)
    if gold.shape[0] != logits.shape[0]:
        raise ValueError("one gold label per query token required")
    return _softmax_ce_backward(logits, gold)[0]


def _softmax_ce_backward(logits: np.ndarray, gold: np.ndarray) -> tuple[float, np.ndarray]:
    """Returns (mean CE loss, dloss/dlogits)."""
    m = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - m)
    z = exp.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(z[:, 0])
    n = logits.shape[0]
    loss = float(np.mean(lse - logits[np.arange(n), gold]))
    grad = exp / z
    grad[np.arange(n), gold] -= 1.0
    return loss, grad / n


def _encoder_backward(
    params: ModelParams,
    buckets: Sequence[np.ndarray],
    plans: Sequence[ChunkPlan],
    mixed: np.ndarray,
    d_hidden: np.ndarray,
    grads: Gradients,
) -> None:
    """Accumulate dL/dtable and dL/dprojection given dL/dH for stacked documents."""
    radius = params.encoder.config.radius
    offset = 0
    for b, plan in zip(buckets, plans):
        rows = slice(offset, offset + len(b))
        offset += len(b)
        dh = d_hidden[rows]
        grads.projection += mixed[rows].T @ dh
        dmixed = dh @ params.encoder.projection.T
        drows = window_means_backward(dmixed, plan, radius)
        grads.add_rows(b, drows)


def forward_backward(
    params: ModelParams,
    tensors: EpisodeTensors,
    head_cfg: HeadConfig,
    *,
    nota_rng: np.random.Generator | int | None = None,
    fixed_nota: np.ndarray | None = None,
    out: Gradients | None = None,
) -> tuple[float, Gradients]:
    """Episode loss and analytic gradients for the chosen head.

    The forward pass runs the evaluation kernels of ``heads``; only the
    backward maths lives here. For MNAV the NOTA centroids are recomputed by
    k-means inside the forward pass (or taken from ``fixed_nota``) and treated
    as constants: gradients flow through the type prototypes and the query
    embeddings only.
    """
    grads = out if out is not None else Gradients.zeros_like(params)
    n = tensors.n_types
    h_support, mixed_s = encode_docs(params.encoder, tensors.support_buckets, tensors.support_plans)
    h_query, mixed_q = encode_docs(params.encoder, tensors.query_buckets, tensors.query_plans)
    support_labels, gold = tensors.support_labels, tensors.query_labels
    counts = class_counts(support_labels, tensors.active_types)

    if head_cfg.name in ("protonet", "mnav"):
        protos = compute_prototypes((h_support, support_labels), tensors.active_types)
        learned = n + 1  # prototype rows whose gradient flows back to support tokens
        if head_cfg.name == "mnav":
            if fixed_nota is not None:
                nota = fixed_nota
            else:
                rng = nota_rng if isinstance(nota_rng, np.random.Generator) else np.random.default_rng(nota_rng)
                o_rows = h_support[support_labels == n]
                nota = kmeans_nota(o_rows, head_cfg.kmeans_k, rng, head_cfg.kmeans_iters).centroids
            protos = PrototypeSet(protos.active_types, protos.type_vectors, nota)
            learned = n
        assignment = protonet_classify(protos, h_query)
        loss, dlogits = _softmax_ce_backward(-assignment.class_distances(), gold)
        rows = protos.matrix
        nearest = assignment.distances[:, n:].argmin(axis=1)
        ddist = np.zeros(assignment.distances.shape)
        ddist[:, :n] = -dlogits[:, :n]
        ddist[np.arange(ddist.shape[0]), n + nearest] = -dlogits[:, n]
        d_hq = 2.0 * (ddist.sum(axis=1, keepdims=True) * h_query - ddist @ rows)
        d_rows = -2.0 * (ddist[:, :learned].T @ h_query - ddist[:, :learned].sum(axis=0)[:, None] * rows[:learned])
        d_hs = np.zeros_like(h_support)
        flows = support_labels < learned
        d_hs[flows] = d_rows[support_labels[flows]] / counts[support_labels[flows]][:, None]
    elif head_cfg.name == "nnshot":
        if params.reducer is None:
            raise ValueError("nnshot training requires a reducer")
        r_support = h_support @ params.reducer
        r_query = h_query @ params.reducer
        dmin, umin = nearest_per_class(r_query, r_support, support_labels, n + 1)
        loss, dlogits = _softmax_ce_backward(-dmin, gold)
        ddmin = -dlogits
        d_rq = np.zeros_like(r_query)
        d_rs = np.zeros_like(r_support)
        for c in range(n + 1):
            sel = umin[:, c]
            sgn = np.sign(r_query - r_support[sel])
            weighted = ddmin[:, c][:, None] * sgn
            d_rq += weighted
            np.add.at(d_rs, sel, -weighted)
        grads.reducer += h_support.T @ d_rs + h_query.T @ d_rq
        d_hq = d_rq @ params.reducer.T
        d_hs = d_rs @ params.reducer.T
    else:
        raise ValueError(f"head {head_cfg.name!r} is not trainable")

    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss!r}")
    _encoder_backward(params, tensors.support_buckets, tensors.support_plans, mixed_s, d_hs, grads)
    _encoder_backward(params, tensors.query_buckets, tensors.query_plans, mixed_q, d_hq, grads)
    return loss, grads


class AdamState:
    """AdamW moments; ``seen`` lists the table rows whose moments may be non-zero."""

    def __init__(self, params: ModelParams):
        self.t = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.arrays().items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.arrays().items()}
        self.seen = np.empty(0, dtype=np.int64)


def clip_global_norm(arrays: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradient arrays in place so their joint L2 norm is at most ``max_norm``."""
    norm = float(np.sqrt(sum(float(np.square(a).sum()) for a in arrays.values())))
    if not np.isfinite(norm):
        raise NumericalError(f"non-finite gradient norm {norm!r}")
    if norm > max_norm and norm > 0:
        factor = max_norm / norm
        for arr in arrays.values():
            arr *= factor
    return norm


def apply_update(
    arrays: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    cfg: TrainConfig,
    state: AdamState | None,
    rows: dict[str, np.ndarray] | None = None,
) -> float:
    """Global-norm clip followed by one SGD or AdamW update, in place; returns the pre-clip norm.

    ``rows`` maps an array name to the row indices to update; ``grads`` then holds the
    gradient of exactly those rows. Arrays not named are updated whole.
    """
    rows = rows or {}
    norm = clip_global_norm(grads, cfg.grad_clip_norm)
    if cfg.optimizer == "adamw":
        assert state is not None, "adamw requires optimizer state"
        state.t += 1
        bias1 = 1.0 - _ADAM_BETA1**state.t
        bias2 = 1.0 - _ADAM_BETA2**state.t
    for name, g in grads.items():
        index = rows.get(name, slice(None))
        p = arrays[name][index]
        if cfg.optimizer == "sgd":
            p -= cfg.learning_rate * g
            if cfg.weight_decay:
                p -= cfg.learning_rate * cfg.weight_decay * p
        else:
            m = state.m[name][index]
            v = state.v[name][index]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * np.square(g)
            update = (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)
            if cfg.weight_decay:
                update = update + cfg.weight_decay * p
            p -= cfg.learning_rate * update
        if not isinstance(index, slice):  # fancy indexing gathered copies; scatter them back
            arrays[name][index] = p
            if cfg.optimizer == "adamw":
                state.m[name][index] = m
                state.v[name][index] = v
    return norm


def step(params: ModelParams, grads: Gradients, cfg: TrainConfig, state: AdamState | None = None) -> float:
    """One optimizer step; validates gradient finiteness before touching parameters.

    Returns the pre-clip gradient norm. Only the table rows the update can move are
    visited: rows with a gradient, plus, under AdamW, rows whose moments are non-zero
    from earlier steps. Every other row has zero gradient and zero moments, which a
    dense step leaves exactly unchanged. Weight decay moves every row.
    """
    if cfg.weight_decay:
        index = slice(None)
    else:
        visit = grads.rows if state is None else np.union1d(state.seen, grads.rows)
        # Past about half the table, gathering and scattering the visited rows costs more
        # than a dense pass over a view (measured on 4096x32 and 65536x64 tables).
        index = slice(None) if 2 * visit.size >= grads.table.shape[0] else visit
    checked = dict(grads.arrays(), table=grads.table[index])
    for name, g in checked.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in {name!r}")
    if state is not None and not cfg.weight_decay:
        state.seen = visit
    return apply_update(params.arrays(), checked, cfg, state, {"table": index})


@dataclass
class Checkpoint:
    params: ModelParams
    config: dict
    episode: int
    history: tuple[tuple[int, float], ...] = ()

    @property
    def best_f1(self) -> float:
        return max((f1 for _, f1 in self.history), default=0.0)


def train(
    split: SplitCorpus,
    sampler_cfg: SamplerConfig,
    train_cfg: TrainConfig,
    head_cfg: HeadConfig = HeadConfig("protonet"),
    encoder_cfg: EncoderConfig = EncoderConfig(),
    *,
    log_path: str | Path | None = None,
) -> Checkpoint:
    """Episodic training on the train pool with dev-set checkpoint selection.

    Validation runs every ``validate_every`` episodes (and at the end); the
    returned checkpoint carries the parameters with the best dev macro-F1,
    or the final parameters when no validation ever ran.
    """
    from .inference import evaluate_episodes  # local import to avoid a module cycle

    vocab_tokens = [t for doc in split.train for t in doc.tokens]
    params = initialize_params(encoder_cfg, head_cfg, substream(train_cfg.seed, "init"), vocab_tokens)
    config_echo = {
        "sampler": sampler_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "head": head_cfg.to_dict(),
        "encoder": encoder_cfg.to_dict(),
    }
    if train_cfg.episodes == 0:
        return Checkpoint(params=params, config=config_echo, episode=0, history=())

    train_episodes = generate_episode_set(split.train, sampler_cfg, train_cfg.episodes, label="train").episodes
    dev_episodes = generate_episode_set(
        split.dev, sampler_cfg, train_cfg.dev_episodes, label="dev"
    ).episodes

    grads = Gradients.zeros_like(params)
    state = AdamState(params) if train_cfg.optimizer == "adamw" else None
    history: list[tuple[int, float]] = []
    best_f1 = -1.0
    best_params = params  # replaced at the first validation; the last episode always validates
    in_batch = 0
    log_handle = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    try:
        for i, episode in enumerate(train_episodes):
            tensors = episode_tensors(episode, params, encoder_cfg.chunk_length)
            loss, _ = forward_backward(
                params,
                tensors,
                head_cfg,
                nota_rng=substream(train_cfg.seed, "kmeans", i),
                out=grads,
            )
            in_batch += 1
            record: dict = {"episode": i + 1, "loss": loss}
            if in_batch == train_cfg.batch_size or i == train_cfg.episodes - 1:
                grads.scale_(1.0 / in_batch)
                norm = step(params, grads, train_cfg, state)
                record["grad_norm"] = norm
                record["clipped"] = norm > train_cfg.grad_clip_norm
                grads.zero_()
                in_batch = 0
            if (i + 1) % train_cfg.validate_every == 0 or i == train_cfg.episodes - 1:
                report = evaluate_episodes(
                    dev_episodes, params, head_cfg, encoder_cfg, seed=train_cfg.seed
                )
                history.append((i + 1, report.macro_f1))
                record["dev_f1"] = report.macro_f1
                if report.macro_f1 > best_f1:
                    best_f1 = report.macro_f1
                    # No step follows the last episode, so its parameters need no snapshot.
                    best_params = params if i == train_cfg.episodes - 1 else params.copy()
            if log_handle is not None:
                log_handle.write(json.dumps(record) + "\n")
    finally:
        if log_handle is not None:
            log_handle.close()
    return Checkpoint(
        params=best_params,
        config=config_echo,
        episode=train_cfg.episodes,
        history=tuple(history),
    )


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Versioned binary: magic, config JSON blob, then named f32 tensors with shapes.

    The bytes go to a temporary file beside ``path`` that replaces it only once
    complete, so a crash never leaves a half-written checkpoint at ``path``.
    """
    meta = {
        "config": ckpt.config,
        "episode": ckpt.episode,
        "history": [[e, f] for e, f in ckpt.history],
        "vocab": ckpt.params.encoder.vocab,
    }
    blob = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    tensors = dict(ckpt.params.arrays())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(_CKPT_MAGIC)
            handle.write(struct.pack("<I", _CKPT_VERSION))
            handle.write(struct.pack("<Q", len(blob)))
            handle.write(blob)
            handle.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                encoded = name.encode("utf-8")
                handle.write(struct.pack("<I", len(encoded)))
                handle.write(encoded)
                handle.write(struct.pack("<I", arr.ndim))
                handle.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                handle.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``; a file cut short is a ``ValueError`` naming it."""

    def read(n: int) -> bytes:
        offset = handle.tell()
        if n > size - offset:  # checked before reading, so a corrupt length allocates nothing
            raise ValueError(f"{path}: truncated checkpoint ({size - offset} of {n} bytes at offset {offset})")
        return handle.read(n)

    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if read(4) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", read(4))
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack("<Q", read(8))
        meta = json.loads(read(blob_len).decode("utf-8"))
        (n_tensors,) = struct.unpack("<I", read(4))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<I", read(4))
            name = read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(count * 4), dtype="<f4").astype(np.float64)
            tensors[name] = data.reshape(shape)
    encoder_cfg = EncoderConfig.from_dict(meta["config"]["encoder"])
    encoder = ToyEncoderParams(
        config=encoder_cfg,
        vocab=dict(meta["vocab"]),
        table=tensors["table"],
        projection=tensors["projection"],
    )
    params = ModelParams(encoder=encoder, reducer=tensors.get("reducer"))
    return Checkpoint(
        params=params,
        config=meta["config"],
        episode=meta["episode"],
        history=tuple((int(e), float(f)) for e, f in meta["history"]),
    )

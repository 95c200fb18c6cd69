"""Episodic training of the toy encoder (plus the NNShot reducer).

The loss is the mean cross-entropy of a softmax over negative distances
against the gold token labels, with O as a class. All gradients are
analytic; ``forward_backward`` is the single source of truth checked
against central finite differences in the test suite. ``train`` returns a
``Checkpoint``, which ``epiarg.formats`` writes and reads.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import inference  # called as inference.evaluate_episodes, so that a wrapper set there sees validation
from .corpus import Document, SplitCorpus
from .encoder import (
    ChunkPlan,
    EncoderConfig,
    ModelParams,
    chunk_document,
    encode_docs,
    initialize_params,
    stack_plans,
    window_means_backward,
)
from .files import atomic_write
from .formats import Checkpoint, load_checkpoint  # noqa: F401  (perfbench reads epiarg.trainer.load_checkpoint)
from .heads import (
    HeadConfig,
    PrototypeSet,
    TokenAssignment,
    build_mnav_prototypes,
    class_counts,
    compute_prototypes,
    io_labels,
    mnav_stream,
    nearest_per_class,
    protonet_classify,
)
from .record import Record
from .sampler import Episode, SamplerConfig, generate_episode_set
from .seeds import substream

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Rows per block of ``token_sum``: 11 of 56 products over 255 to 9001 rows changed bits between one and
# two OpenBLAS threads, and none in 256-row blocks (tests/test_blas_threads.py guards this).
_TOKEN_BLOCK = 256


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
        self.check("finite and positive", lambda x: 0 < x < np.inf, "learning_rate", "grad_clip_norm")
        self.check("finite and at least 0", lambda x: 0 <= x < np.inf, "weight_decay")
        self.check("at least 0", lambda n: n >= 0, "episodes")
        self.check("at least 1", lambda n: n >= 1, "validate_every", "batch_size", "dev_episodes")
        self.check("'sgd' or 'adamw'", lambda name: name in ("sgd", "adamw"), "optimizer")
        if self.episodes > 0:
            self.check(f"at most the episode budget {self.episodes}", lambda n: n <= self.episodes, "validate_every")


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
    """One episode lowered to per-document bucket indices and chunk plans, and IO labels stacked
    per side in document order."""

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


def episode_tensors(episode: Episode, params: ModelParams, chunk_length: int) -> EpisodeTensors:
    """Both sides of an episode lowered: per-document bucket indices and chunk plans, and IO labels
    stacked in document order."""
    active = episode.active_types

    def lower(docs: Sequence[Document]) -> tuple[list[np.ndarray], list[ChunkPlan], np.ndarray]:
        buckets = [params.encoder.bucket_indices(doc.tokens) for doc in docs]
        plans = [chunk_document(len(doc.tokens), chunk_length) for doc in docs]
        return buckets, plans, np.concatenate([io_labels(len(doc.tokens), doc.arguments, active) for doc in docs])

    return EpisodeTensors(*lower(episode.support), *lower(episode.query), tuple(active))


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


def token_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` for (T, m) and (T, n) operands, summed in order over blocks of ``_TOKEN_BLOCK`` rows,
    so that its bits do not depend on how BLAS splits a long reduction among its threads."""
    out = np.zeros((a.shape[1], b.shape[1]))
    for start in range(0, a.shape[0], _TOKEN_BLOCK):
        out += a[start : start + _TOKEN_BLOCK].T @ b[start : start + _TOKEN_BLOCK]
    return out


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
    k-means seeded by ``nota_rng`` inside the forward pass (or taken from
    ``fixed_nota``) and treated as constants: gradients flow through the type prototypes and the query
    embeddings only. The support documents, then the query documents, go
    through one stacked encoder forward and its mirror, one backward over the
    same stack; each product that sums over token rows is a ``token_sum``.
    """
    grads = out if out is not None else Gradients.zeros_like(params)
    n = tensors.n_types
    buckets = tensors.support_buckets + tensors.query_buckets
    plans = tensors.support_plans + tensors.query_plans
    hidden, mixed = encode_docs(params.encoder, buckets, plans)
    h_support, h_query = np.split(hidden, [tensors.support_labels.shape[0]])
    support_labels, gold = tensors.support_labels, tensors.query_labels
    counts = class_counts(support_labels, tensors.active_types)

    if head_cfg.name in ("protonet", "mnav"):
        support = (h_support, support_labels)
        if head_cfg.name == "mnav" and fixed_nota is None:
            protos = build_mnav_prototypes(
                support, tensors.active_types, head_cfg.kmeans_k, nota_rng, head_cfg.kmeans_iters
            )
        else:
            protos = compute_prototypes(support, tensors.active_types)
            if head_cfg.name == "mnav":
                protos = PrototypeSet(protos.active_types, protos.type_vectors, fixed_nota)
        learned = n if head_cfg.name == "mnav" else n + 1  # prototype rows whose gradient flows to support
        assignment = protonet_classify(protos, h_query)
        loss, dlogits = _softmax_ce_backward(-assignment.class_distances(), gold)
        rows = protos.matrix
        nearest = assignment.distances[:, n:].argmin(axis=1)
        ddist = np.zeros(assignment.distances.shape)
        ddist[:, :n] = -dlogits[:, :n]
        ddist[np.arange(ddist.shape[0]), n + nearest] = -dlogits[:, n]
        d_hq = 2.0 * (ddist.sum(axis=1, keepdims=True) * h_query - ddist @ rows)
        d_rows = token_sum(ddist[:, :learned], h_query) - ddist[:, :learned].sum(axis=0)[:, None] * rows[:learned]
        d_hidden = np.zeros_like(hidden)
        flows = np.flatnonzero(support_labels < learned)
        d_hidden[flows] = -2.0 * d_rows[support_labels[flows]] / counts[support_labels[flows]][:, None]
        d_hidden[len(support_labels) :] = d_hq
    elif head_cfg.name == "nnshot":
        if params.reducer is None:
            raise ValueError("nnshot training requires a reducer")
        r_support, r_query = np.split(hidden @ params.reducer, [len(support_labels)])
        dmin, umin = nearest_per_class(r_query, r_support, support_labels, n + 1)
        loss, dlogits = _softmax_ce_backward(-dmin, gold)
        weighted = -dlogits[:, :, None] * np.sign(r_query[:, None, :] - r_support[umin])  # (query, class, d)
        d_reduced = np.zeros((len(hidden), r_query.shape[1]))
        # A support row is the nearest of its own class only, so its terms add up in query order,
        # as they would in a loop over classes.
        np.add.at(d_reduced, umin, -weighted)
        d_reduced[len(support_labels) :] = weighted.sum(axis=1)
        grads.reducer += token_sum(hidden, d_reduced)
        d_hidden = d_reduced @ params.reducer.T
    else:
        raise ValueError(f"head {head_cfg.name!r} is not trainable")

    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss!r}")
    grads.projection += token_sum(mixed, d_hidden)
    d_mixed = d_hidden @ params.encoder.projection.T
    drows = window_means_backward(d_mixed, stack_plans(plans), params.encoder.config.radius)
    grads.add_rows(np.concatenate(buckets), drows)
    return loss, grads


class AdamState:
    """AdamW moments, and two scratch arrays per parameter array for the steps that update it whole;
    ``seen`` lists the table rows whose moments may be non-zero."""

    def __init__(self, params: ModelParams):
        self.t = 0
        self.m = {k: np.zeros(v.shape) for k, v in params.arrays().items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.arrays().items()}
        # Kept across steps, so whole-array steps fault no pages in again; np.empty writes nothing, so an
        # array that is never updated whole never makes its scratch resident.
        self._scratch = {k: (np.empty(v.shape), np.empty(v.shape)) for k, v in params.arrays().items()}
        self.seen = np.empty(0, dtype=np.int64)

    def scratch(self, name: str, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays shaped like the gradient ``g`` of array ``name``: the kept ones when ``g``
        covers the array whole, else new ones. Gathered rows are new arrays every step, like their
        gradient and moment copies; kept scratch for them would stay resident between steps."""
        kept = self._scratch[name]
        return kept if kept[0].shape == g.shape else (np.empty_like(g), np.empty_like(g))


def clip_global_norm(
    arrays: dict[str, np.ndarray], max_norm: float, squares: dict[str, np.ndarray] | None = None
) -> float:
    """Scale all gradient arrays in place so their joint L2 norm is at most ``max_norm``.

    ``squares``, when given, maps each name to an array of that gradient's shape that takes its squares.
    """
    squares = squares or {}
    norm = float(np.sqrt(sum(float(np.square(a, out=squares.get(k)).sum()) for k, a in arrays.items())))
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
    gradient of exactly those rows. Arrays not named are updated whole. AdamW computes
    in its state's scratch arrays, one numpy operation at a time in the order of
    ``(m / bias1) / (sqrt(v / bias2) + eps) + weight_decay * p``, so every bit is that
    expression's.
    """
    rows = rows or {}
    scratch = {}
    if cfg.optimizer == "adamw":
        assert state is not None, "adamw requires optimizer state"
        scratch = {name: state.scratch(name, g) for name, g in grads.items()}
    norm = clip_global_norm(grads, cfg.grad_clip_norm, {name: a for name, (a, _) in scratch.items()})
    if cfg.optimizer == "adamw":
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
            a, update = scratch[name]
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=a)
            v *= _ADAM_BETA2
            v += np.multiply(np.square(g, out=a), 1.0 - _ADAM_BETA2, out=a)
            np.add(np.sqrt(np.divide(v, bias2, out=a), out=a), _ADAM_EPS, out=a)
            np.divide(np.divide(m, bias1, out=update), a, out=update)
            if cfg.weight_decay:
                update += np.multiply(p, cfg.weight_decay, out=a)
            p -= np.multiply(update, cfg.learning_rate, out=update)
        if not isinstance(index, slice):  # fancy indexing gathered copies; scatter them back
            arrays[name][index] = p
            if cfg.optimizer == "adamw":
                state.m[name][index] = m
                state.v[name][index] = v
    return norm


def step(params: ModelParams, grads: Gradients, cfg: TrainConfig, state: AdamState | None = None) -> float:
    """One optimizer step; a non-finite gradient raises ``NumericalError`` in ``clip_global_norm``,
    before any parameter or optimizer state moves.

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
    norm = apply_update(params.arrays(), dict(grads.arrays(), table=grads.table[index]), cfg, state, {"table": index})
    if state is not None and not cfg.weight_decay:
        state.seen = visit
    return norm


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
    The log at ``log_path``, one JSON line per episode, replaces the previous log once training completes.
    """
    vocab_tokens = chain.from_iterable(doc.tokens for doc in split.train)
    params = initialize_params(encoder_cfg, head_cfg, substream(train_cfg.seed, "init"), vocab_tokens)
    config_echo = {
        "sampler": sampler_cfg.to_dict(),
        "train": train_cfg.to_dict(),
        "head": head_cfg.to_dict(),
        "encoder": encoder_cfg.to_dict(),
    }
    if train_cfg.episodes == 0:  # the log, if any, is replaced by an empty one
        with atomic_write(log_path) if log_path is not None else contextlib.nullcontext():
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
    with atomic_write(log_path) if log_path is not None else contextlib.nullcontext() as log_handle:
        for i, episode in enumerate(train_episodes):
            tensors = episode_tensors(episode, params, encoder_cfg.chunk_length)
            nota_rng = None
            if head_cfg.name == "mnav":
                nota_rng = mnav_stream(train_cfg.seed, episode.active_types, (doc.doc_id for doc in episode.support))
            loss, _ = forward_backward(params, tensors, head_cfg, nota_rng=nota_rng, out=grads)
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
                report = inference.evaluate_episodes(
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
    return Checkpoint(
        params=best_params,
        config=config_echo,
        episode=train_cfg.episodes,
        history=tuple(history),
    )

"""Run heads over episodes and score them: the shared path for validation and eval."""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Document
from .encoder import EmbeddingProvider, EncoderConfig, chunk_document, encode_docs
from .evaluation import (
    EvalReport,
    FpFnCounts,
    MatchCounts,
    aggregate,
    decode_spans,
    fp_fn_counts,
    labels_to_strings,
    score_episode,
)
from .heads import (
    HeadConfig,
    PrototypeSet,
    build_mnav_prototypes,
    compute_prototypes,
    mnav_classify,
    nnshot_classify,
    protonet_classify,
)
from .sampler import Episode
from .seeds import substream
from .trainer import EpisodeTensors, ModelParams, episode_tensors

# Token rows per stacked encoder forward while encoding a document cache. It bounds the transient
# gathered-table, window-mean and projected arrays at 1 MB each for d = 64.
_ENCODE_BATCH_ROWS = 2048


def _batches(docs: Iterable[Document]) -> Iterator[list[Document]]:
    """Runs of consecutive documents of at most ``_ENCODE_BATCH_ROWS`` rows; a longer document makes a
    run of its own."""
    batch: list[Document] = []
    n_rows = 0
    for doc in docs:
        if batch and n_rows + len(doc.tokens) > _ENCODE_BATCH_ROWS:
            yield batch
            batch, n_rows = [], 0
        batch.append(doc)
        n_rows += len(doc.tokens)
    if batch:
        yield batch


class _DocumentRows:
    """Rows of distinct documents, keyed by doc_id: read once from an embedding file, or encoded once
    under toy-encoder parameters.

    With an ``EmbeddingProvider``, each document is read and checked to hold one row per token.
    Otherwise the documents are hashed once and encoded in stacked batches (``_batches``). A
    document's rows do not depend on the other rows of its stack, so they equal those of any other
    stacked forward bit for bit. Each document's rows are checked for finiteness once, here. The
    cache holds one f64 row per token.
    """

    def __init__(
        self, docs: Iterable[Document], params: ModelParams | None, provider: EmbeddingProvider | None, chunk_length: int
    ):
        unique: dict[str, Document] = {}
        for doc in docs:
            unique.setdefault(doc.doc_id, doc)
        if provider is not None:
            self._rows = {doc_id: provider.rows_of(doc) for doc_id, doc in unique.items()}
            return
        assert params is not None, "either toy parameters or an embedding provider is required"
        self._rows = {}
        for batch in _batches(unique.values()):
            plans = [chunk_document(len(doc.tokens), chunk_length) for doc in batch]
            rows, _ = encode_docs(params.encoder, [params.encoder.bucket_indices(doc.tokens) for doc in batch], plans)
            ends = list(accumulate(plan.num_tokens for plan in plans))
            for doc, start, end in zip(batch, [0] + ends, ends):
                if not np.all(np.isfinite(rows[start:end])):
                    raise ValueError(f"doc {doc.doc_id!r}: embeddings contain non-finite entries")
                self._rows[doc.doc_id] = rows[start:end]

    def stacked(self, docs: Iterable[Document]) -> np.ndarray:
        """Rows of the documents stacked in order."""
        return np.vstack([self._rows[doc.doc_id] for doc in docs])


def _embedded_episode(
    episode: Episode,
    params: ModelParams | None,
    provider: EmbeddingProvider | _DocumentRows | None,
    encoder_cfg: EncoderConfig,
) -> tuple[EpisodeTensors, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The shared lowering (without hashing), the stacked ``(rows, labels)`` support and the query
    rows, taken by document from a document cache: the given one, or one of this episode's documents."""
    rows = provider
    if not isinstance(rows, _DocumentRows):
        rows = _DocumentRows(episode.support + episode.query, params, provider, encoder_cfg.chunk_length)
    tensors = episode_tensors(episode, None, encoder_cfg.chunk_length)
    return tensors, (rows.stacked(episode.support), tensors.support_labels), rows.stacked(episode.query)


def _prototype_set(episode: Episode, support, head_cfg: HeadConfig, seed: int) -> PrototypeSet:
    """Class means, with K k-means NOTA vectors in place of the O mean for MNAV."""
    if head_cfg.name == "mnav":
        return build_mnav_prototypes(
            support,
            episode.active_types,
            head_cfg.kmeans_k,
            substream(seed, "kmeans", episode.episode_id),
            head_cfg.kmeans_iters,
        )
    return compute_prototypes(support, episode.active_types)


def episode_prototypes(
    episode: Episode,
    params: ModelParams | None,
    head_cfg: HeadConfig,
    encoder_cfg: EncoderConfig,
    *,
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
) -> PrototypeSet:
    """Prototype set this episode's support induces (K NOTA vectors for MNAV)."""
    _, support, _ = _embedded_episode(episode, params, provider, encoder_cfg)
    return _prototype_set(episode, support, head_cfg, seed)


def run_episode(
    episode: Episode,
    params: ModelParams | None,
    head_cfg: HeadConfig,
    encoder_cfg: EncoderConfig,
    *,
    provider: EmbeddingProvider | _DocumentRows | None = None,
    seed: int = 0,
) -> tuple[MatchCounts, FpFnCounts]:
    """Classify the episode's query tokens and score them span-exactly, one query document at a time.

    Rows come from ``provider`` (an external embedding file, or the document
    cache of ``evaluate_episodes``); without one, the episode's documents are
    encoded under ``params``. Gold spans are viewed through IO labels so
    predictions and references use the same notation (adjacent same-role gold
    spans merge).
    """
    tensors, support, query_rows = _embedded_episode(episode, params, provider, encoder_cfg)
    ends = list(accumulate(plan.num_tokens for plan in tensors.query_plans))
    query = [(query_rows[a:b], tensors.query_labels[a:b]) for a, b in zip([0] + ends, ends)]

    if head_cfg.name in ("protonet", "baseline_no_finetune", "mnav"):
        protos = _prototype_set(episode, support, head_cfg, seed)
        classify = mnav_classify if head_cfg.name == "mnav" else protonet_classify
        assignments = [classify(protos, mat) for mat, _ in query]
    elif head_cfg.name == "nnshot":
        if params is None or params.reducer is None:
            raise ValueError("nnshot inference requires reducer parameters")
        reduced_support = (support[0] @ params.reducer, support[1])
        assignments = [nnshot_classify(reduced_support, mat @ params.reducer, tensors.n_types) for mat, _ in query]
    else:
        raise ValueError(f"unknown head {head_cfg.name!r}")

    pred_spans, gold_spans = [], []
    tokens = FpFnCounts()
    for (_, gold), assignment in zip(query, assignments):
        pred_str = labels_to_strings(assignment.labels, episode.active_types)
        gold_str = labels_to_strings(gold, episode.active_types)
        pred_spans.append(decode_spans(pred_str))
        gold_spans.append(decode_spans(gold_str))
        tokens.merge(fp_fn_counts(pred_str, gold_str))
    return score_episode(pred_spans, gold_spans, episode.active_types), tokens


def evaluate_episodes(
    episodes: Sequence[Episode],
    params: ModelParams | None,
    head_cfg: HeadConfig,
    encoder_cfg: EncoderConfig,
    *,
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
) -> EvalReport:
    """Score a set of episodes with ``run_episode``; deterministic for fixed inputs.

    Each distinct document of the set is encoded under ``params``, or read from
    ``provider``, once per call; every episode takes its rows from that cache.
    """
    if not episodes:
        raise ValueError("no episodes to evaluate")
    docs = (doc for episode in episodes for doc in episode.support + episode.query)
    rows = _DocumentRows(docs, params, provider, encoder_cfg.chunk_length)
    results = [run_episode(ep, params, head_cfg, encoder_cfg, provider=rows, seed=seed) for ep in episodes]
    tokens = FpFnCounts()
    for _, t in results:
        tokens.merge(t)
    return aggregate([match for match, _ in results], token_counts=tokens, episode_count=len(episodes))

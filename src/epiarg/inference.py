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
from .trainer import ModelParams, lower_docs

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
    under toy-encoder parameters; and the prototype set of each distinct support set.

    With an ``EmbeddingProvider``, each document is read and checked to hold one row per token.
    Otherwise the documents are hashed once and encoded in stacked batches (``_batches``). A
    document's rows do not depend on the other rows of its stack, so they equal those of any other
    stacked forward bit for bit. Each document's rows are checked for finiteness once, here. The
    cache holds one f64 row per token, and one (N+1)-row prototype set per distinct support set.
    """

    def __init__(
        self, docs: Iterable[Document], params: ModelParams | None, provider: EmbeddingProvider | None, chunk_length: int
    ):
        self._chunk_length = chunk_length
        self._prototypes: dict[tuple, PrototypeSet] = {}
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

    def support(self, episode: Episode) -> tuple[np.ndarray, np.ndarray]:
        """The episode's stacked support rows and IO labels."""
        _, _, labels = lower_docs(episode.support, episode.active_types, None, self._chunk_length)
        return self.stacked(episode.support), labels

    def prototypes(self, episode: Episode, head_cfg: HeadConfig, seed: int) -> PrototypeSet:
        """The prototype set the episode's support induces: class means, with K k-means NOTA vectors
        in place of the O mean for MNAV.

        Class means depend only on the support set, so they are computed once per distinct set, keyed
        by the active types and each support document's ``doc_id`` and spans (rows are served by
        ``doc_id``, and IO labels are a function of the spans and the active types). MNAV's NOTA
        vectors come from k-means seeded by the episode id, so MNAV builds its set for every episode.
        """
        if head_cfg.name == "mnav":
            return build_mnav_prototypes(
                self.support(episode),
                episode.active_types,
                head_cfg.kmeans_k,
                substream(seed, "kmeans", episode.episode_id),
                head_cfg.kmeans_iters,
            )
        key = (episode.active_types, tuple((doc.doc_id, doc.arguments) for doc in episode.support))
        if key not in self._prototypes:
            self._prototypes[key] = compute_prototypes(self.support(episode), episode.active_types)
        return self._prototypes[key]


def prototype_sets(
    episodes: Sequence[Episode],
    params: ModelParams | None,
    head_cfg: HeadConfig,
    encoder_cfg: EncoderConfig,
    *,
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
) -> list[PrototypeSet]:
    """The prototype set each episode's support induces (K NOTA vectors for MNAV).

    One cache serves the whole list: each distinct support document is encoded under ``params``, or
    read from ``provider``, once, and each distinct support set's class means are computed once.
    """
    rows = _DocumentRows((doc for ep in episodes for doc in ep.support), params, provider, encoder_cfg.chunk_length)
    return [rows.prototypes(ep, head_cfg, seed) for ep in episodes]


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
    return prototype_sets([episode], params, head_cfg, encoder_cfg, provider=provider, seed=seed)[0]


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
    encoded under ``params``. Prototypes come from the same cache, so a support
    set it has seen is not lowered or averaged again. Gold spans are viewed
    through IO labels so predictions and references use the same notation
    (adjacent same-role gold spans merge).
    """
    rows = provider
    if not isinstance(rows, _DocumentRows):
        rows = _DocumentRows(episode.support + episode.query, params, provider, encoder_cfg.chunk_length)
    _, query_plans, query_labels = lower_docs(episode.query, episode.active_types, None, encoder_cfg.chunk_length)
    query_rows = rows.stacked(episode.query)
    ends = list(accumulate(plan.num_tokens for plan in query_plans))
    query = [(query_rows[a:b], query_labels[a:b]) for a, b in zip([0] + ends, ends)]

    if head_cfg.name in ("protonet", "baseline_no_finetune", "mnav"):
        protos = rows.prototypes(episode, head_cfg, seed)
        classify = mnav_classify if head_cfg.name == "mnav" else protonet_classify
        assignments = [classify(protos, mat) for mat, _ in query]
    elif head_cfg.name == "nnshot":
        if params is None or params.reducer is None:
            raise ValueError("nnshot inference requires reducer parameters")
        support_rows, support_labels = rows.support(episode)
        reduced_support = (support_rows @ params.reducer, support_labels)
        n_types = len(episode.active_types)
        assignments = [nnshot_classify(reduced_support, mat @ params.reducer, n_types) for mat, _ in query]
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

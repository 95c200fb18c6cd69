"""Run heads over episodes and score them: the shared path for validation and eval."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .encoder import EncoderConfig, ModelParams, chunk_document, embed_tokens
from .evaluation import (
    EvalReport,
    FpFnCounts,
    MatchCounts,
    aggregate,
    decode_spans,
    fp_fn_counts,
    score_episode,
)
from .formats import EmbeddingProvider
from .heads import (
    HeadConfig,
    PrototypeSet,
    build_mnav_prototypes,
    compute_prototypes,
    io_labels,
    mnav_classify,
    mnav_stream,
    nnshot_classify,
    protonet_classify,
)
from .sampler import Episode

class _DocumentRows:
    """Rows of distinct documents, keyed by doc_id: read once from an embedding file, or encoded once
    under toy-encoder parameters; and the head's support of each distinct support set.

    With an ``EmbeddingProvider``, each document is read and checked to hold one row per token.
    Otherwise each document is encoded alone with ``embed_tokens``; a document's rows do not depend
    on the other rows of a stack, so they equal those of any stacked forward bit for bit. Either way
    the rows pass through ``EmbeddingMatrix``, which rejects non-finite entries. The cache holds one
    f64 row per token, and one support entry per distinct support set.
    """

    def __init__(
        self, docs: Iterable[Document], params: ModelParams | None, provider: EmbeddingProvider | None, chunk_length: int
    ):
        self._supports: dict[tuple, PrototypeSet | tuple[np.ndarray, np.ndarray]] = {}
        unique: dict[str, Document] = {}
        for doc in docs:
            seen = unique.setdefault(doc.doc_id, doc)
            if seen.tokens is not doc.tokens and seen.tokens != doc.tokens:  # sampled episodes share the tuple
                raise ValueError(f"two documents with doc_id {doc.doc_id!r} have different tokens")
        if provider is not None:
            rows_for = provider.rows_of
        else:
            assert params is not None, "either toy parameters or an embedding provider is required"

            def rows_for(doc: Document) -> np.ndarray:
                return embed_tokens(params.encoder, doc, chunk_document(len(doc.tokens), chunk_length)).rows

        self._rows = {doc_id: rows_for(doc) for doc_id, doc in unique.items()}

    def rows_of(self, doc: Document) -> np.ndarray:
        """One document's rows."""
        return self._rows[doc.doc_id]

    def stacked(self, docs: Iterable[Document]) -> np.ndarray:
        """Rows of the documents stacked in order."""
        return np.vstack([self._rows[doc.doc_id] for doc in docs])

    def support(
        self, episode: Episode, head_cfg: HeadConfig, params: ModelParams | None, seed: int
    ) -> PrototypeSet | tuple[np.ndarray, np.ndarray]:
        """What the head's classifier takes as the episode's support: class means for ProtoNet and the
        baseline; the support rows times ``params.reducer`` with their IO labels for NNShot; class
        means with K k-means NOTA vectors in place of the O mean for MNAV.

        Every head's support depends only on the support set, so it is built once per distinct set,
        keyed by the active types and each support document's ``doc_id`` and spans (rows are served
        by ``doc_id``, and IO labels are a function of the spans and the active types). MNAV's
        k-means is seeded by ``mnav_stream`` from ``seed``, the active types and the support
        ``doc_id``s. A cache serves one head and one seed.
        """
        if head_cfg.name == "nnshot" and (params is None or params.reducer is None):
            raise ValueError("nnshot inference requires reducer parameters")
        active = episode.active_types
        key = (active, tuple((doc.doc_id, doc.arguments) for doc in episode.support))
        if key in self._supports:
            return self._supports[key]
        stack = (
            self.stacked(episode.support),
            np.concatenate([io_labels(len(doc.tokens), doc.arguments, active) for doc in episode.support]),
        )
        if head_cfg.name == "mnav":
            rng = mnav_stream(seed, active, (doc.doc_id for doc in episode.support))
            self._supports[key] = build_mnav_prototypes(stack, active, head_cfg.kmeans_k, rng, head_cfg.kmeans_iters)
        elif head_cfg.name == "nnshot":
            self._supports[key] = (stack[0] @ params.reducer, stack[1])
        else:
            self._supports[key] = compute_prototypes(stack, active)
        return self._supports[key]


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
    head_cfg = HeadConfig("protonet") if head_cfg.name == "nnshot" else head_cfg  # NNShot exports its class means
    return [rows.support(ep, head_cfg, params, seed) for ep in episodes]


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
    encoded under ``params``. Each query document's rows are taken from the
    cache as they are; every head's support comes from the same cache
    (``_DocumentRows.support``), so a support set it has seen is not stacked,
    averaged, reduced or clustered again. Gold spans are viewed through the
    heads' integer IO labels so predictions and references use the same
    notation (adjacent same-role gold spans merge).
    """
    rows = provider
    if not isinstance(rows, _DocumentRows):
        rows = _DocumentRows(episode.support + episode.query, params, provider, encoder_cfg.chunk_length)
    query = [rows.rows_of(doc) for doc in episode.query]
    active = episode.active_types
    support = rows.support(episode, head_cfg, params, seed)
    if head_cfg.name == "nnshot":
        assignments = [nnshot_classify(support, mat @ params.reducer, len(active)) for mat in query]
    else:
        classify = mnav_classify if head_cfg.name == "mnav" else protonet_classify
        assignments = [classify(support, mat) for mat in query]

    pred_spans, gold_spans = [], []
    tokens = FpFnCounts()
    for doc, assignment in zip(episode.query, assignments):
        pred = assignment.labels.tolist()
        gold = io_labels(len(doc.tokens), doc.arguments, active).tolist()
        pred_spans.append(decode_spans(pred, active))
        gold_spans.append(decode_spans(gold, active))
        tokens.merge(fp_fn_counts(pred, gold, len(active)))
    return score_episode(pred_spans, gold_spans, active), tokens


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
    matches, tokens = MatchCounts(), FpFnCounts()
    for ep in episodes:
        match, token_counts = run_episode(ep, params, head_cfg, encoder_cfg, provider=rows, seed=seed)
        matches.merge(match)
        tokens.merge(token_counts)
    return aggregate(matches, token_counts=tokens, episode_count=len(episodes))

"""Run heads over episodes and score them: the shared path for validation and eval."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import accumulate
from typing import Sequence

import numpy as np

from .encoder import EmbeddingProvider, EncoderConfig, encode_docs
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


def _embedded_episode(
    episode: Episode, params: ModelParams | None, provider: EmbeddingProvider | None, encoder_cfg: EncoderConfig
) -> tuple[EpisodeTensors, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The shared lowering, the stacked ``(rows, labels)`` support and the query rows. One encoder
    forward covers both sides, or a provider's rows replace it; non-finite rows are rejected."""
    tensors = episode_tensors(episode, params if provider is None else None, encoder_cfg.chunk_length)
    if provider is not None:
        rows = provider.stacked(doc.doc_id for doc in episode.support + episode.query)
    else:
        assert params is not None, "either toy parameters or an embedding provider is required"
        buckets, plans = tensors.support_buckets + tensors.query_buckets, tensors.support_plans + tensors.query_plans
        rows, _ = encode_docs(params.encoder, buckets, plans)
    n_support = tensors.support_labels.shape[0]
    if rows.shape[0] != n_support + tensors.query_labels.shape[0]:
        raise ValueError(f"episode {episode.episode_id}: embeddings and labels disagree on token count")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"episode {episode.episode_id}: embeddings contain non-finite entries")
    return tensors, (rows[:n_support], tensors.support_labels), rows[n_support:]


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
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
) -> tuple[MatchCounts, FpFnCounts]:
    """Classify the episode's query tokens and score them span-exactly, one query document at a time.

    Gold spans are viewed through IO labels so predictions and references
    use the same notation (adjacent same-role gold spans merge).
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


_EVAL_CTX: dict = {}


def _init_eval_worker(params, head_cfg, encoder_cfg, provider_path, seed):
    from .encoder import load_external_embeddings

    _EVAL_CTX["args"] = (
        params,
        head_cfg,
        encoder_cfg,
        load_external_embeddings(provider_path) if provider_path else None,
        seed,
    )


def _run_eval_worker(episode: Episode):
    params, head_cfg, encoder_cfg, provider, seed = _EVAL_CTX["args"]
    return run_episode(episode, params, head_cfg, encoder_cfg, provider=provider, seed=seed)


def evaluate_episodes(
    episodes: Sequence[Episode],
    params: ModelParams | None,
    head_cfg: HeadConfig,
    encoder_cfg: EncoderConfig,
    *,
    provider: EmbeddingProvider | None = None,
    seed: int = 0,
    workers: int = 1,
    per_episode_macro: bool = False,
) -> EvalReport:
    """Score a set of episodes; deterministic for fixed inputs and any worker count."""
    if not episodes:
        raise ValueError("no episodes to evaluate")
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_eval_worker,
            initargs=(params, head_cfg, encoder_cfg, str(provider.path) if provider else None, seed),
        ) as executor:
            results = list(executor.map(_run_eval_worker, episodes, chunksize=max(1, len(episodes) // (workers * 4))))
    else:
        results = [
            run_episode(ep, params, head_cfg, encoder_cfg, provider=provider, seed=seed)
            for ep in episodes
        ]
    counts = [match for match, _ in results]
    tokens = FpFnCounts()
    for _, t in results:
        tokens.merge(t)
    return aggregate(
        counts,
        token_counts=tokens,
        episode_count=len(episodes),
        per_episode_macro=per_episode_macro,
    )

from __future__ import annotations

import numpy as np
import pytest

from epiarg.corpus import compute_split
from epiarg.encoder import (
    EmbeddingMatrix,
    EncoderConfig,
    chunk_document,
    embed_tokens,
    load_external_embeddings,
    write_external_embeddings,
)
from epiarg.heads import HeadConfig
from epiarg.inference import episode_prototypes, evaluate_episodes, run_episode
from epiarg.sampler import SamplerConfig, generate_episode_set
from epiarg.seeds import substream
from epiarg.synthetic import separable_corpus, synthetic_corpus
from epiarg.trainer import initialize_params

ENCODER = EncoderConfig(d_emb=8, d_model=8, radius=1, n_buckets=256, chunk_length=64, init_scale=0.3)


@pytest.fixture(scope="module")
def episode_fixture():
    corpus, spec = separable_corpus(3, n_event_types=4, docs_per_event=15)
    split = compute_split(corpus, spec)
    episodes = generate_episode_set(split.dev, SamplerConfig(n_ways=3, d_docs=1, seed=5), 12, label="dev").episodes
    return split, episodes


def fresh_params(head_name):
    head_cfg = HeadConfig(head_name, d_reduced=4, kmeans_k=2)
    return initialize_params(ENCODER, head_cfg, substream(1, "init")), head_cfg


class TestRunEpisode:
    @pytest.mark.parametrize("head", ["protonet", "baseline_no_finetune", "mnav", "nnshot"])
    def test_heads_produce_counts(self, episode_fixture, head):
        _, episodes = episode_fixture
        params, head_cfg = fresh_params(head)
        counts, tokens = run_episode(episodes[0], params, head_cfg, ENCODER, seed=3)
        assert tokens.gold_o > 0 and tokens.gold_arg > 0
        gold_total = sum(counts.tp.values()) + sum(counts.fn.values())
        assert gold_total == sum(len(d.arguments) for d in episodes[0].query)

    def test_nnshot_without_reducer_rejected(self, episode_fixture):
        _, episodes = episode_fixture
        params, _ = fresh_params("protonet")
        with pytest.raises(ValueError, match="reducer"):
            run_episode(episodes[0], params, HeadConfig("nnshot"), ENCODER)

    def test_non_finite_query_embedding_rejected(self, episode_fixture):
        """A NaN in a table row that only a query document uses stops evaluation."""
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        episode = episodes[0]
        support_rows = {int(b) for d in episode.support for b in params.encoder.bucket_indices(d.tokens)}
        query_rows = [int(b) for b in params.encoder.bucket_indices(episode.query[0].tokens)]
        params.encoder.table[next(b for b in query_rows if b not in support_rows), 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            run_episode(episode, params, head_cfg, ENCODER)

    def test_prototype_export_shapes(self, episode_fixture):
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("mnav")
        protos = episode_prototypes(episodes[0], params, head_cfg, ENCODER, seed=3)
        assert protos.type_vectors.shape == (3, 8)
        assert protos.nota_vectors.shape == (2, 8)


class TestEvaluateEpisodes:
    def test_deterministic(self, episode_fixture):
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("mnav")
        a = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=11)
        b = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=11)
        assert a == b

    def test_workers_match_serial(self, episode_fixture):
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        serial = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=2)
        parallel = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=2, workers=2)
        assert serial == parallel

    def test_external_provider_matches_toy(self, episode_fixture, tmp_path):
        """Embeddings exported from the toy encoder and re-read from the binary
        format give the same report (up to f32 storage)."""
        split, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        docs = {d.doc_id: d for ep in episodes for d in ep.support + ep.query}
        mats = []
        for doc in docs.values():
            plan = chunk_document(len(doc.tokens), ENCODER.chunk_length)
            rows = embed_tokens(params.encoder, doc, plan).rows
            mats.append(type(embed_tokens(params.encoder, doc, plan))(doc.doc_id, rows.astype(np.float32).astype(np.float64)))
        path = tmp_path / "emb.fdae"
        write_external_embeddings(mats, path)
        provider = load_external_embeddings(path)
        toy = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=2)
        ext = evaluate_episodes(episodes, None, head_cfg, ENCODER, provider=provider, seed=2)
        assert abs(toy.macro_f1 - ext.macro_f1) < 1.0

    def test_provider_rows_must_match_token_counts(self, episode_fixture, tmp_path):
        """A provider document with one row more than its tokens is rejected, not misaligned."""
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        episode = episodes[0]
        docs = episode.support + episode.query
        extra = {episode.query[0].doc_id: 1}
        mats = [
            EmbeddingMatrix(d.doc_id, np.ones((len(d.tokens) + extra.get(d.doc_id, 0), ENCODER.d_model))) for d in docs
        ]
        write_external_embeddings(mats, tmp_path / "emb.fdae")
        provider = load_external_embeddings(tmp_path / "emb.fdae")
        with pytest.raises(ValueError, match="disagree"):
            run_episode(episode, None, head_cfg, ENCODER, provider=provider)

    def test_type_disjointness_between_train_and_test_episodes(self):
        """Roles labeled in test episodes never appear labeled in train episodes."""
        from epiarg.corpus import apply_leakage_mask, filter_rare_types, SplitCorpus
        from epiarg.synthetic import three_way_specs

        corpus = synthetic_corpus(seed=17, n_docs=200)
        spec = three_way_specs(corpus, seed=17)["in_domain_small"]
        split = compute_split(corpus, spec)
        split = SplitCorpus(
            train=filter_rare_types(split.train, 2),
            dev=filter_rare_types(split.dev, 2),
            test=filter_rare_types(split.test, 2),
        )
        masked, _ = apply_leakage_mask(split, spec)
        cfg = SamplerConfig(n_ways=2, d_docs=2, seed=1)
        train_eps = generate_episode_set(masked.train, cfg, 30, label="train")
        test_eps = generate_episode_set(masked.test, cfg, 30, label="test")
        train_roles = {r for ep in train_eps for r in ep.active_types}
        test_roles = {r for ep in test_eps for r in ep.active_types}
        assert train_roles & test_roles == set()

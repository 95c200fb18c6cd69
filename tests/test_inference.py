from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from epiarg import inference
from epiarg.corpus import Document, compute_split
from epiarg.encoder import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    EmbeddingProvider,
    EncoderConfig,
    ToyEncoderParams,
    chunk_document,
    embed_tokens,
    encode_docs,
    load_external_embeddings,
    write_external_embeddings,
)
from epiarg.evaluation import EvalReport, FpFnCounts, aggregate
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

    @pytest.mark.parametrize("sides", [("support", "query"), ("query", "query")])
    def test_offsetting_row_count_errors_rejected(self, episode_fixture, tmp_path, sides):
        """One row too many on one document and one too few on another are each caught, although
        the episode's total row count matches its labels."""
        split, _ = episode_fixture
        episode = generate_episode_set(split.dev, SamplerConfig(n_ways=3, d_docs=1, query_size=2, seed=5), 1).episodes[0]
        _, head_cfg = fresh_params("protonet")
        longer, shorter = getattr(episode, sides[0])[0], getattr(episode, sides[1])[-1]
        extra = {longer.doc_id: 1, shorter.doc_id: -1}
        docs = episode.support + episode.query
        mats = [
            EmbeddingMatrix(d.doc_id, np.ones((len(d.tokens) + extra.get(d.doc_id, 0), ENCODER.d_model))) for d in docs
        ]
        write_external_embeddings(mats, tmp_path / "emb.fdae")
        provider = load_external_embeddings(tmp_path / "emb.fdae")
        with pytest.raises(ValueError, match="disagree"):
            run_episode(episode, None, head_cfg, ENCODER, provider=provider)

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

    def test_hashes_each_document_once(self, episode_fixture, monkeypatch):
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        hashed = []
        original = ToyEncoderParams.bucket_indices

        def counting(self, tokens):
            hashed.append(tuple(tokens))
            return original(self, tokens)

        monkeypatch.setattr(ToyEncoderParams, "bucket_indices", counting)
        evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=2)
        unique = {d.doc_id: d.tokens for ep in episodes for d in ep.support + ep.query}
        assert len(unique) < sum(len(ep.support) + len(ep.query) for ep in episodes)
        assert sorted(hashed) == sorted(unique.values())

    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav"])
    def test_report_equals_per_episode_runs(self, episode_fixture, head):
        """The cached evaluation reports exactly what standalone ``run_episode`` calls add up to."""
        _, episodes = episode_fixture
        params, head_cfg = fresh_params(head)
        runs = [run_episode(ep, params, head_cfg, ENCODER, seed=4) for ep in episodes]
        tokens = FpFnCounts()
        for _, t in runs:
            tokens.merge(t)
        expected = aggregate([m for m, _ in runs], token_counts=tokens, episode_count=len(episodes))
        report = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=4)
        for f in fields(EvalReport):
            assert getattr(report, f.name) == getattr(expected, f.name), f.name

    def test_non_finite_query_embedding_rejected(self, episode_fixture):
        """A NaN in a table row that only query documents of the set use stops the evaluation."""
        episodes = episode_fixture[1][:2]  # later episodes' supports cover every token of the small vocabulary
        encoder_cfg = EncoderConfig(d_emb=8, d_model=8, radius=1, n_buckets=1 << 16, chunk_length=64)
        head_cfg = HeadConfig("protonet")
        params = initialize_params(encoder_cfg, head_cfg, substream(1, "init"))

        def rows(side):
            return {int(b) for ep in episodes for d in getattr(ep, side) for b in params.encoder.bucket_indices(d.tokens)}

        params.encoder.table[min(rows("query") - rows("support")), 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_episodes(episodes, params, head_cfg, encoder_cfg)

    def test_lone_row_batches_match_stacked_forward(self, monkeypatch):
        """Cached rows equal one stacked forward bit for bit when batch boundaries fall next to
        one-token documents, also where a batch is one lone row."""
        monkeypatch.setattr(inference, "_ENCODE_BATCH_ROWS", 8)
        rng = np.random.default_rng(3)
        lengths = (1, 7, 1, 8, 5, 3, 1, 2, 9, 1)
        docs = [Document(f"d{i}", "", "e", tuple(f"w{int(rng.integers(50))}" for _ in range(n)), ()) for i, n in enumerate(lengths)]
        batches = list(inference._batches(docs))
        assert [d for batch in batches for d in batch] == docs
        assert len(batches) > 3 and any(sum(len(d.tokens) for d in batch) == 1 for batch in batches)
        params, _ = fresh_params("protonet")
        plans = [chunk_document(n, ENCODER.chunk_length) for n in lengths]
        expected, _ = encode_docs(params.encoder, [params.encoder.bucket_indices(d.tokens) for d in docs], plans)
        cache = inference._DocumentRows(docs, params, None, ENCODER.chunk_length)
        assert np.array_equal(cache.stacked(docs), expected)

    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav"])
    def test_provider_reads_each_document_once(self, episode_fixture, tmp_path, monkeypatch, head):
        """Through an embedding file, the report is what standalone ``run_episode`` calls add up to,
        and each distinct document of the set is read once."""
        _, episodes = episode_fixture
        params, head_cfg = fresh_params(head)
        docs = {d.doc_id: d for ep in episodes for d in ep.support + ep.query}
        mats = [embed_tokens(params.encoder, d, chunk_document(len(d.tokens), ENCODER.chunk_length)) for d in docs.values()]
        write_external_embeddings(mats, tmp_path / "emb.fdae")
        provider = load_external_embeddings(tmp_path / "emb.fdae")
        runs = [run_episode(ep, params, head_cfg, ENCODER, provider=provider, seed=2) for ep in episodes]
        tokens = FpFnCounts()
        for _, t in runs:
            tokens.merge(t)
        expected = aggregate([m for m, _ in runs], token_counts=tokens, episode_count=len(episodes))

        read = []
        original = EmbeddingProvider.get

        def counting(self, doc_id):
            read.append(doc_id)
            return original(self, doc_id)

        monkeypatch.setattr(EmbeddingProvider, "get", counting)
        assert evaluate_episodes(episodes, params, head_cfg, ENCODER, provider=provider, seed=2) == expected
        assert len(docs) < sum(len(ep.support) + len(ep.query) for ep in episodes)
        assert sorted(read) == sorted(docs)

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
        """Offline embeddings with one row per token are accepted; a document with one row more than
        its tokens is rejected, not misaligned, by ``run_episode`` and ``evaluate_episodes`` alike."""
        _, episodes = episode_fixture
        _, head_cfg = fresh_params("protonet")
        rng = np.random.default_rng(11)
        docs = {d.doc_id: d for ep in episodes for d in ep.support + ep.query}

        def provider_with(extra, name):
            mats = [
                EmbeddingMatrix(d.doc_id, rng.normal(size=(len(d.tokens) + extra.get(d.doc_id, 0), ENCODER.d_model)))
                for d in docs.values()
            ]
            write_external_embeddings(mats, tmp_path / name)
            return load_external_embeddings(tmp_path / name)

        evaluate_episodes(episodes, None, head_cfg, ENCODER, provider=provider_with({}, "good.fdae"))
        bad = provider_with({episodes[-1].query[0].doc_id: 1}, "bad.fdae")
        with pytest.raises(EmbeddingFormatError, match="disagree"):
            run_episode(episodes[-1], None, head_cfg, ENCODER, provider=bad)
        with pytest.raises(EmbeddingFormatError, match="disagree"):
            evaluate_episodes(episodes, None, head_cfg, ENCODER, provider=bad)

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

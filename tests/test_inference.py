from __future__ import annotations

import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from epiarg import inference
from epiarg.corpus import ArgumentSpan, Document, compute_split
from epiarg.encoder import (
    EmbeddingMatrix,
    EncoderConfig,
    ToyEncoderParams,
    chunk_document,
    embed_tokens,
    encode_docs,
    initialize_params,
)
from epiarg.evaluation import EvalReport, FpFnCounts, MatchCounts, aggregate
from epiarg.formats import EmbeddingFormatError, EmbeddingProvider, load_external_embeddings, write_external_embeddings
from epiarg.heads import (
    HeadConfig,
    build_mnav_prototypes,
    compute_prototypes,
    io_labels,
    mnav_classify,
    nnshot_classify,
    protonet_classify,
)
from epiarg.inference import evaluate_episodes, prototype_sets, run_episode
from epiarg.sampler import SamplerConfig, generate_episode_set
from epiarg.seeds import substream
from epiarg.synthetic import separable_corpus, synthetic_corpus
from test_evaluation import as_strings, oracle_counts, oracle_fp_fn

ENCODER = EncoderConfig(d_emb=8, d_model=8, radius=1, n_buckets=256, chunk_length=64, init_scale=0.3)


@pytest.fixture(scope="module")
def episode_fixture():
    corpus, spec = separable_corpus(3, n_event_types=4, docs_per_event=15)
    split = compute_split(corpus, spec)
    episodes = generate_episode_set(split.dev, SamplerConfig(n_ways=3, d_docs=1, seed=5), 12, label="dev").episodes
    return split, episodes


@pytest.fixture(scope="module")
def repeated_supports(episode_fixture):
    """The sampled episodes, which already bring three support sets back with other query documents
    and episode ids, plus two episodes whose support documents are those of the first two under
    their active types reversed."""
    _, episodes = episode_fixture
    reordered = [replace(ep, episode_id=100 + i, active_types=ep.active_types[::-1]) for i, ep in enumerate(episodes[:2])]
    return list(episodes) + reordered


@pytest.fixture(scope="module")
def multi_doc_queries(episode_fixture):
    """Episodes with three query documents of different lengths, the last one a single token: the
    first token of an argument in even episodes, an O token in odd ones."""
    split, _ = episode_fixture
    cfg = SamplerConfig(n_ways=3, d_docs=1, query_size=3, seed=8)
    episodes = []
    for i, ep in enumerate(generate_episode_set(split.dev, cfg, 6, label="dev").episodes):
        last = ep.query[-1]
        arg = next(a for a in last.arguments if a.role in ep.active_types)
        at = arg.start if i % 2 == 0 else 0
        spans = (ArgumentSpan(0, 1, arg.role),) if i % 2 == 0 else ()
        lone = replace(last, doc_id=f"{last.doc_id}/{at}", tokens=(last.tokens[at],), arguments=spans)
        episodes.append(replace(ep, query=ep.query[:-1] + (lone,)))
        assert len({len(d.tokens) for d in episodes[-1].query}) == 3
    return episodes


def reference_report(episodes, params, head_cfg, embed, seed):
    """Each query document embedded on its own, classified through ``heads`` and scored by the oracle."""
    matches, tokens = [], FpFnCounts()
    for ep in episodes:
        active = ep.active_types
        support = (
            np.vstack([embed(d) for d in ep.support]),
            np.concatenate([io_labels(len(d.tokens), d.arguments, active) for d in ep.support]),
        )
        if head_cfg.name == "nnshot":
            reduced = (support[0] @ params.reducer, support[1])
        elif head_cfg.name == "mnav":
            kmeans_seed = substream(seed, "kmeans", len(active), *active, *(d.doc_id for d in ep.support))
            protos = build_mnav_prototypes(support, active, head_cfg.kmeans_k, kmeans_seed, head_cfg.kmeans_iters)
        else:
            protos = compute_prototypes(support, active)
        counts = MatchCounts()
        for doc in ep.query:
            rows = embed(doc)
            if head_cfg.name == "nnshot":
                labels = nnshot_classify(reduced, rows @ params.reducer, len(active)).labels
            elif head_cfg.name == "mnav":
                labels = mnav_classify(protos, rows).labels
            else:
                labels = protonet_classify(protos, rows).labels
            pred, gold = as_strings(labels, active), as_strings(io_labels(len(doc.tokens), doc.arguments, active), active)
            tp, fp, fn = oracle_counts(pred, gold)
            counts.tp.update(tp)
            counts.fp.update(fp)
            counts.fn.update(fn)
            tokens.merge(FpFnCounts(*oracle_fp_fn(pred, gold)))
        matches.append(counts)
    return aggregate(matches, token_counts=tokens, episode_count=len(episodes))


def distinct_supports(episodes):
    return {(ep.active_types, ep.support) for ep in episodes}


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
        protos = prototype_sets([episodes[0]], params, head_cfg, ENCODER, seed=3)[0]
        assert protos.type_vectors.shape == (3, 8)
        assert protos.nota_vectors.shape == (2, 8)


class TestPrototypeSets:
    @pytest.mark.parametrize("head", ["protonet", "mnav"])
    def test_equal_per_episode_sets(self, repeated_supports, head):
        params, head_cfg = fresh_params(head)
        sets = prototype_sets(repeated_supports, params, head_cfg, ENCODER, seed=3)
        for episode, protos in zip(repeated_supports, sets, strict=True):
            alone = prototype_sets([episode], params, head_cfg, ENCODER, seed=3)[0]
            assert protos.active_types == alone.active_types
            assert np.array_equal(protos.type_vectors, alone.type_vectors)
            assert np.array_equal(protos.nota_vectors, alone.nota_vectors)

    def test_mnav_nota_is_a_function_of_the_support_set(self, repeated_supports):
        """Two episodes with one support set, other episode ids and other queries get equal NOTA
        vectors, from one call or from two. One Lloyd iteration keeps the vectors a function of the
        k-means seeding, which a second support set shows."""
        params, _ = fresh_params("mnav")
        head_cfg = HeadConfig("mnav", kmeans_k=3, kmeans_iters=1)
        first = repeated_supports[0]
        twin = replace(first, episode_id=first.episode_id + 1000, query=repeated_supports[1].query)
        together = prototype_sets([first, twin], params, head_cfg, ENCODER, seed=3)
        apart = [prototype_sets([ep], params, head_cfg, ENCODER, seed=3)[0] for ep in (first, twin)]
        for protos in together[1:] + apart:
            assert np.array_equal(protos.nota_vectors, together[0].nota_vectors)
        other_seed = prototype_sets([first], params, head_cfg, ENCODER, seed=4)[0]
        assert not np.array_equal(other_seed.nota_vectors, together[0].nota_vectors)

    def test_nnshot_exports_class_means(self, repeated_supports):
        """NNShot classifies against support tokens, not prototypes; it exports its support's class means."""
        params, head_cfg = fresh_params("nnshot")
        sets = prototype_sets(repeated_supports, params, head_cfg, ENCODER)
        means = prototype_sets(repeated_supports, params, HeadConfig("protonet"), ENCODER)
        for protos, expected in zip(sets, means, strict=True):
            assert np.array_equal(protos.matrix, expected.matrix)

    def test_each_support_document_hashed_once(self, repeated_supports, monkeypatch):
        params, head_cfg = fresh_params("protonet")
        hashed = []
        original = ToyEncoderParams.bucket_indices

        def counting(self, tokens):
            hashed.append(tuple(tokens))
            return original(self, tokens)

        monkeypatch.setattr(ToyEncoderParams, "bucket_indices", counting)
        prototype_sets(repeated_supports, params, head_cfg, ENCODER)
        unique = {d.doc_id: d.tokens for ep in repeated_supports for d in ep.support}
        assert len(unique) < sum(len(ep.support) for ep in repeated_supports)
        assert sorted(hashed) == sorted(unique.values())

    def test_each_support_document_read_once(self, repeated_supports, tmp_path, monkeypatch):
        params, head_cfg = fresh_params("protonet")
        docs = {d.doc_id: d for ep in repeated_supports for d in ep.support + ep.query}
        mats = [embed_tokens(params.encoder, d, chunk_document(len(d.tokens), ENCODER.chunk_length)) for d in docs.values()]
        write_external_embeddings(mats, tmp_path / "emb.fdae")
        provider = load_external_embeddings(tmp_path / "emb.fdae")
        read = []
        original = EmbeddingProvider.rows_of

        def counting(self, doc):
            read.append(doc.doc_id)
            return original(self, doc)

        monkeypatch.setattr(EmbeddingProvider, "rows_of", counting)
        prototype_sets(repeated_supports, None, head_cfg, ENCODER, provider=provider)
        assert sorted(read) == sorted({d.doc_id for ep in repeated_supports for d in ep.support})


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

    def test_encodes_each_document_once(self, episode_fixture, monkeypatch):
        """Each distinct document of the set goes through one ``embed_tokens`` call, made with
        positional arguments (the benchmark's tracer reads the document as the second)."""
        _, episodes = episode_fixture
        params, head_cfg = fresh_params("protonet")
        calls = []

        def counting(*args, **kwargs):
            assert not kwargs
            calls.append(args[1].doc_id)
            return embed_tokens(*args)

        monkeypatch.setattr(inference, "embed_tokens", counting)
        evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=2)
        distinct = {d.doc_id for ep in episodes for d in ep.support + ep.query}
        assert len(distinct) < sum(len(ep.support) + len(ep.query) for ep in episodes)
        assert sorted(calls) == sorted(distinct)

    @pytest.mark.parametrize("head", ["protonet", "baseline_no_finetune", "nnshot", "mnav"])
    def test_report_equals_per_episode_runs(self, repeated_supports, head):
        """The cached evaluation reports exactly what standalone ``run_episode`` calls add up to, also
        where episodes share support sets."""
        episodes = repeated_supports
        params, head_cfg = fresh_params(head)
        runs = [run_episode(ep, params, head_cfg, ENCODER, seed=4) for ep in episodes]
        tokens = FpFnCounts()
        for _, t in runs:
            tokens.merge(t)
        expected = aggregate([m for m, _ in runs], token_counts=tokens, episode_count=len(episodes))
        report = evaluate_episodes(episodes, params, head_cfg, ENCODER, seed=4)
        for f in fields(EvalReport):
            assert getattr(report, f.name) == getattr(expected, f.name), f.name

    @pytest.mark.parametrize("head", ["protonet", "baseline_no_finetune"])
    def test_class_means_once_per_support_set(self, repeated_supports, monkeypatch, head):
        """Class means are computed once per distinct (active types, support) pair; a support set
        under other active types gets its own."""
        params, head_cfg = fresh_params(head)
        calls = []
        original = inference.compute_prototypes

        def counting(support, active_types):
            calls.append(tuple(active_types))
            return original(support, active_types)

        monkeypatch.setattr(inference, "compute_prototypes", counting)
        evaluate_episodes(repeated_supports, params, head_cfg, ENCODER, seed=4)
        assert len(distinct_supports(repeated_supports)) < len(repeated_supports)
        assert len(calls) == len(distinct_supports(repeated_supports))

        calls.clear()
        first, reordered = repeated_supports[0], repeated_supports[-2]
        assert first.support == reordered.support and first.active_types != reordered.active_types
        evaluate_episodes([first, reordered], params, head_cfg, ENCODER, seed=4)
        assert calls == [first.active_types, reordered.active_types]

    @pytest.mark.parametrize("head", ["protonet", "baseline_no_finetune", "nnshot", "mnav"])
    def test_support_stacked_once_per_support_set(self, repeated_supports, monkeypatch, head):
        """Every head stacks the rows of each distinct support set once per call."""
        params, head_cfg = fresh_params(head)
        calls = []
        original = inference._DocumentRows.stacked

        def counting(self, docs):
            calls.append(docs)
            return original(self, docs)

        monkeypatch.setattr(inference._DocumentRows, "stacked", counting)
        evaluate_episodes(repeated_supports, params, head_cfg, ENCODER, seed=4)
        assert len(distinct_supports(repeated_supports)) < len(repeated_supports)
        assert len(calls) == len(distinct_supports(repeated_supports))

    def test_mnav_prototypes_once_per_support_set(self, repeated_supports, monkeypatch):
        """MNAV's NOTA vectors are seeded by the support set, so episodes that share it share them."""
        params, head_cfg = fresh_params("mnav")
        calls = []
        original = inference.build_mnav_prototypes

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(inference, "build_mnav_prototypes", counting)
        evaluate_episodes(repeated_supports, params, head_cfg, ENCODER, seed=4)
        assert len(calls) == len(distinct_supports(repeated_supports))

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

    def test_shared_doc_id_with_other_tokens_rejected(self, episode_fixture):
        """A query document renamed to another episode's query doc_id is not served that document's rows."""
        episodes = list(episode_fixture[1][:4])
        taken = episodes[0].query[0]
        renamed = replace(episodes[1].query[0], doc_id=taken.doc_id)
        assert renamed.tokens != taken.tokens
        episodes[1] = replace(episodes[1], query=(renamed,) + episodes[1].query[1:])
        params, head_cfg = fresh_params("protonet")
        with pytest.raises(ValueError, match=f"doc_id {taken.doc_id!r} have different tokens"):
            evaluate_episodes(episodes, params, head_cfg, ENCODER)

    def test_lone_row_batches_match_stacked_forward(self):
        """Cached rows equal one stacked forward bit for bit, one-token documents included, which numpy
        would multiply alone with another kernel."""
        rng = np.random.default_rng(3)
        lengths = (1, 7, 1, 8, 5, 3, 1, 2, 9, 1)
        docs = [Document(f"d{i}", "", "e", tuple(f"w{int(rng.integers(50))}" for _ in range(n)), ()) for i, n in enumerate(lengths)]
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

    @pytest.mark.parametrize("source", ["toy", "file"])
    @pytest.mark.parametrize("head", ["protonet", "nnshot", "mnav", "baseline_no_finetune"])
    def test_multi_document_queries_line_up(self, multi_doc_queries, tmp_path, head, source):
        """Each query document is classified on its own rows and scored against its own labels,
        also next to documents of other lengths and for a one-token document."""
        episodes = multi_doc_queries
        params, head_cfg = fresh_params(head)
        docs = {d.doc_id: d for ep in episodes for d in ep.support + ep.query}
        assert any(len(d.tokens) == 1 and d.arguments for d in docs.values())

        def embed(doc):
            return embed_tokens(params.encoder, doc, chunk_document(len(doc.tokens), ENCODER.chunk_length)).rows

        provider = None
        if source == "file":
            write_external_embeddings([EmbeddingMatrix(d.doc_id, embed(d)) for d in docs.values()], tmp_path / "emb.fdae")
            provider = load_external_embeddings(tmp_path / "emb.fdae")
            embed = provider.rows_of
        report = evaluate_episodes(episodes, params, head_cfg, ENCODER, provider=provider, seed=5)
        assert report == reference_report(episodes, params, head_cfg, embed, seed=5)

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


def trainer_imports(source: str) -> list[str]:
    """Each name ``source`` imports from ``epiarg.trainer``, and the module itself where it is imported whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("trainer", "epiarg.trainer"):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "epiarg"):
            found += [alias.name for alias in node.names if alias.name == "trainer"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "epiarg.trainer"]
    return found


def test_inference_imports_nothing_from_trainer():
    """Evaluation lowers its episodes itself and takes its parameters from the encoder, so training can
    import evaluation with no cycle."""
    assert trainer_imports(Path(inference.__file__).read_text(encoding="utf-8")) == []
    # The scan sees each way of importing from the trainer, also inside a function.
    source = "from .trainer import ModelParams, x\nfrom . import trainer\ndef f():\n    import epiarg.trainer\n"
    assert trainer_imports(source) == ["ModelParams", "x", "trainer", "epiarg.trainer"]
    assert trainer_imports("from .heads import io_labels\nfrom . import heads\nimport epiarg.heads") == []


def function_imports(source: str) -> list[str]:
    """The name and line of each function in ``source`` with an import in its body."""
    return [
        f"{node.name}:{inner.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]


def test_no_module_imports_inside_a_function():
    """Each module's dependencies are at its top, where a cycle fails at import."""
    package = Path(inference.__file__).parent
    found = {p.name: function_imports(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {}
    source = "import os\ndef f():\n    x = 1\n    from . import y\nclass C:\n    def g(self):\n        import z\n"
    assert function_imports(source) == ["f:4", "g:7"]


def binary_reads(source: str) -> list[str]:
    """Each place in ``source`` that calls ``os.fstat`` or opens a file with a literal mode that reads bytes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "fstat" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            found.append(f"line {node.lineno}: os.fstat")
        elif name == "open":
            args = node.args + [k.value for k in node.keywords if k.arg == "mode"]
            modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if any(re.fullmatch(r"[rwxabt+]{1,3}", mode) and {"r", "b"} <= set(mode) for mode in modes):
                found.append(f"line {node.lineno}: open for reading bytes")
    return found


def test_only_the_formats_module_reads_binary_files():
    """The checked reader, which reads a file's size once per open, has one home: ``epiarg.formats``."""
    package = Path(inference.__file__).parent
    found = {p.name: binary_reads(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    assert {name: f for name, f in found.items() if f and name != "formats.py"} == {}
    assert [f.split(": ")[1] for f in found["formats.py"]].count("os.fstat") == 1
    source = 'os.fstat(3)\nopen(p, "rb")\np.open(mode="br")\nopen(p, "r+b")\nopen(p)\nopen(p, "wb")\nopen("br.bin")\nfstat(3)'
    assert [f.split(": ")[0] for f in binary_reads(source)] == ["line 1", "line 2", "line 3", "line 4"]


def callers_of(source: str, method: str) -> set[str]:
    """The name of the innermost function around each call of ``method`` on some object in ``source``;
    ``<module>`` for a call outside every function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == method:
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_role_restriction_calls_with_arguments():
    """Keeping a document's spans of some roles has one home, ``Document.restricted_to``: rare-type filtering,
    leakage masking and episode views all go through it."""
    package = Path(inference.__file__).parent
    found = {p.name: callers_of(p.read_text(encoding="utf-8"), "with_arguments") for p in sorted(package.glob("*.py"))}
    assert {name: f for name, f in found.items() if f} == {"corpus.py": {"restricted_to"}}
    source = "def f(d):\n    def g():\n        return d.with_arguments(())\n    return g\nd.with_arguments(())\nwith_arguments(d)"
    assert callers_of(source, "with_arguments") == {"g", "<module>"}


def test_inference_encodes_with_embed_tokens_only():
    """Evaluation encodes each document with ``embed_tokens``; the stacked forward is training's."""
    tree = ast.parse(Path(inference.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "embed_tokens" in names
    assert "encode_docs" not in names

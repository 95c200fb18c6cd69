from __future__ import annotations

import itertools
import json
from collections import Counter

import numpy as np
import pytest

from epiarg.corpus import ArgumentSpan, Corpus, CorpusFormatError, Document
from epiarg.sampler import (
    Episode,
    InfeasibleSamplingError,
    SamplerConfig,
    episode_stats,
    generate_episode_set,
    read_episodes,
    sample_episode,
    write_episodes,
)
from epiarg.seeds import substream
from epiarg.synthetic import synthetic_corpus


def doc_with_roles(doc_id, roles, event="e1", n_tokens=30):
    spans = tuple(ArgumentSpan(2 * i, 2 * i + 1, r) for i, r in enumerate(roles))
    tokens = tuple(f"t{i}" for i in range(n_tokens))
    return Document(doc_id, doc_id, event, tokens, spans)


def check_episode(ep: Episode, cfg: SamplerConfig):
    assert len(ep.support) == cfg.d_docs
    retained = {s.role for d in ep.support for s in d.arguments}
    assert retained == set(ep.active_types)
    assert len(ep.active_types) == cfg.n_ways
    assert not ep.support_doc_ids() & ep.query_doc_ids()
    assert len(ep.query) == cfg.query_size
    for doc in ep.query:
        assert any(s.role in ep.active_types for s in doc.arguments)
        assert all(s.role in ep.active_types for s in doc.arguments)


class TestSampleEpisode:
    def test_exhaustive_pair_enumeration_oracle(self):
        """Oracle: enumerate all doc pairs; the sampled support must be one
        whose role union has exactly N elements."""
        docs = {
            "d1": {"A", "B"},
            "d2": {"B", "C"},
            "d3": {"A"},
        }
        pool = Corpus(tuple(doc_with_roles(k, sorted(v)) for k, v in docs.items()))
        valid_pairs = {
            frozenset(pair)
            for pair in itertools.combinations(docs, 2)
            if len(docs[pair[0]] | docs[pair[1]]) == 3
        }
        assert valid_pairs == {frozenset({"d1", "d2"}), frozenset({"d2", "d3"})}
        cfg = SamplerConfig(n_ways=3, d_docs=2, seed=0)
        for trial in range(50):
            ep = sample_episode(pool, cfg, substream(5, trial))
            assert frozenset(ep.support_doc_ids()) in valid_pairs
            check_episode(ep, cfg)

    def test_single_doc_pool_is_infeasible(self):
        pool = Corpus((doc_with_roles("d1", ["A"]),))
        cfg = SamplerConfig(n_ways=1, d_docs=1, query_size=1)
        with pytest.raises(InfeasibleSamplingError):
            sample_episode(pool, cfg, substream(0, 0))

    def test_oversized_n_is_infeasible(self):
        pool = Corpus((doc_with_roles("d1", ["A"]), doc_with_roles("d2", ["A"])))
        cfg = SamplerConfig(n_ways=3, d_docs=1)
        with pytest.raises(InfeasibleSamplingError, match="argument types"):
            sample_episode(pool, cfg, substream(0, 0))

    def test_query_docs_are_distinct_and_relabelled(self):
        corpus = synthetic_corpus(seed=4, n_docs=80)
        cfg = SamplerConfig(n_ways=3, d_docs=2, query_size=2)
        for i in range(30):
            ep = sample_episode(corpus, cfg, substream(9, i))
            assert len(ep.query_doc_ids()) == 2
            check_episode(ep, cfg)


class TestGenerateEpisodeSet:
    def test_same_seed_gives_identical_files(self, tmp_path):
        corpus = synthetic_corpus(seed=1, n_docs=100)
        cfg = SamplerConfig(n_ways=3, d_docs=1, seed=42)
        a = generate_episode_set(corpus, cfg, 50)
        b = generate_episode_set(corpus, cfg, 50)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_episodes(a, pa)
        write_episodes(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_labels_give_different_streams(self):
        corpus = synthetic_corpus(seed=1, n_docs=100)
        cfg = SamplerConfig(n_ways=3, d_docs=1, seed=42)
        a = generate_episode_set(corpus, cfg, 10, label="train")
        b = generate_episode_set(corpus, cfg, 10, label="dev")
        assert [e.support_doc_ids() for e in a] != [e.support_doc_ids() for e in b]

    def test_prefix_does_not_depend_on_count(self, tmp_path):
        """Each episode draws from its own substream, so a longer set extends a shorter one, also
        across the stratum fallback this corpus triggers."""
        corpus = synthetic_corpus(seed=1, n_docs=100)
        cfg = SamplerConfig(n_ways=3, d_docs=2, seed=7)
        with pytest.warns(RuntimeWarning, match="unreachable"):
            longer = generate_episode_set(corpus, cfg, 24, balance=True)
        with pytest.warns(RuntimeWarning, match="unreachable"):
            shorter = generate_episode_set(corpus, cfg, 12, balance=True)
        pl, ps = tmp_path / "l.jsonl", tmp_path / "s.jsonl"
        write_episodes(list(longer)[:12], pl)
        write_episodes(shorter, ps)
        assert pl.read_bytes() == ps.read_bytes()

    def test_balance_rotates_event_types(self):
        """Oracle: count support event types over the generated set."""
        docs = []
        for e in ("ev_a", "ev_b"):
            for i in range(12):
                docs.append(
                    doc_with_roles(f"{e}_d{i}", [f"{e}_r{i % 4}", f"{e}_r{(i + 1) % 4}", f"{e}_r{(i + 2) % 4}"], event=e)
                )
        pool = Corpus(tuple(docs))
        cfg = SamplerConfig(n_ways=3, d_docs=1, seed=3)
        episodes = generate_episode_set(pool, cfg, 10, balance=True)
        by_event = Counter(
            next(iter({d.event_type for d in ep.support})) for ep in episodes
        )
        assert by_event["ev_a"] >= 4
        assert by_event["ev_b"] >= 4

    def test_unreachable_stratum_warns_and_falls_back(self):
        docs = [doc_with_roles(f"a{i}", ["r1", "r2", "r3"], event="rich") for i in range(10)]
        docs.append(doc_with_roles("poor0", ["r1"], event="poor"))
        docs.append(doc_with_roles("poor1", ["r1"], event="poor"))
        pool = Corpus(tuple(docs))
        cfg = SamplerConfig(n_ways=3, d_docs=1, seed=0)
        with pytest.warns(RuntimeWarning, match="poor"):
            episodes = generate_episode_set(pool, cfg, 4, balance=True)
        assert len(episodes) == 4

    def test_episode_file_roundtrip(self, tmp_path):
        corpus = synthetic_corpus(seed=2, n_docs=60)
        cfg = SamplerConfig(n_ways=3, d_docs=2, seed=11)
        episodes = generate_episode_set(corpus, cfg, 8)
        path = tmp_path / "episodes.jsonl"
        write_episodes(episodes, path)
        again = read_episodes(path)
        assert tuple(again) == episodes.episodes
        # every occurrence of a word in the file, across episodes and sides, is one str object
        tokens = [t for ep in again for doc in ep.support + ep.query for t in doc.tokens]
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)
        path2 = tmp_path / "episodes2.jsonl"
        write_episodes(again, path2)
        assert path2.read_bytes() == path.read_bytes()


    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda r: [1, 2], "an episode must be a JSON object"),
            (lambda r: '{"episode_id": ', "invalid JSON"),
            *[(lambda r, k=key: {n: v for n, v in r.items() if n != k}, f"missing field '{key}'")
              for key in ("episode_id", "active_types", "support", "query")],
            (lambda r: {**r, "episode_id": True}, "episode_id must be an integer"),
            (lambda r: {**r, "episode_id": [1]}, "episode_id must be an integer"),
            (lambda r: {**r, "active_types": "Place"}, "active_types must be a list of strings"),
            (lambda r: {**r, "active_types": ["Place", 3]}, "active_types must be a list of strings"),
            (lambda r: {**r, "support": 5}, "support must be a list of documents"),
            (lambda r: {**r, "query": [[1, 2]]}, "a document must be a JSON object"),
            (lambda r: {**r, "support": [{**r["support"][0], "doc_id": 5}]}, "field 'doc_id' must be a string"),
            (lambda r: {**r, "query": [{**r["query"][0], "tokens": ["a", None]}]}, "tokens must be a list of strings"),
        ],
        ids=["list", "bad-json", "no-episode_id", "no-active_types", "no-support", "no-query", "episode_id-true",
             "episode_id-list", "active_types-str",
             "active_types-int", "support-int", "query-doc-list", "doc_id-int", "token-null"],
    )
    def test_malformed_episode_line_rejected_with_line_number(self, tmp_path, edit, match):
        """A malformed line of an episode file, or a malformed document in it, is an error naming the
        line, not a traceback, a bare key or a silently misread episode."""
        episodes = generate_episode_set(synthetic_corpus(seed=2, n_docs=60), SamplerConfig(n_ways=3, d_docs=1, seed=11), 2)
        path = tmp_path / "episodes.jsonl"
        write_episodes(episodes, path)
        first, second = path.read_text().splitlines()
        second = edit(json.loads(second))
        path.write_text(first + "\n" + (second if isinstance(second, str) else json.dumps(second)) + "\n")
        with pytest.raises(CorpusFormatError, match=f"^line 2: .*{match}"):
            read_episodes(path)


class TestEpisodeStats:
    def test_single_episode_micro(self):
        support = doc_with_roles("s", ["A", "B", "A"])  # 3 spans, 2 roles
        query = doc_with_roles("q", ["A"])
        ep = Episode(0, ("A", "B"), (support,), (query,))
        stats = episode_stats([ep])
        assert stats.micro_avg_args == 3.0
        # both types see one episode with 3 args
        assert stats.macro_avg_args == pytest.approx(3.0)
        # per-type shot counts: A twice, B once
        assert stats.k_shot_distribution == {1: 1, 2: 1}

    def test_recount_oracle_on_generated_set(self):
        """Oracle: recount micro/macro with nested loops, independent of the
        implementation's accumulation order."""
        corpus = synthetic_corpus(seed=6, n_docs=100)
        cfg = SamplerConfig(n_ways=3, d_docs=2, seed=13)
        episodes = list(generate_episode_set(corpus, cfg, 100))
        stats = episode_stats(episodes)

        micro = sum(len(d.arguments) for ep in episodes for d in ep.support) / len(episodes)
        role_obs: dict[str, list[int]] = {}
        for ep in episodes:
            total = sum(1 for d in ep.support for s in d.arguments)
            for role in ep.active_types:
                role_obs.setdefault(role, []).append(total)
        macro = np.mean([np.mean(v) for v in role_obs.values()])

        assert stats.micro_avg_args == pytest.approx(micro)
        assert stats.macro_avg_args == pytest.approx(float(macro))
        assert stats.n_episodes == 100

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            episode_stats([])

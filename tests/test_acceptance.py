"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with stated
runtime budgets assert wall-clock time as well.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from epiarg.corpus import apply_leakage_mask, compute_split, write_corpus
from epiarg.encoder import EncoderConfig, initialize_params
from epiarg.evaluation import decode_spans, score_episode
from epiarg.heads import (
    HeadConfig,
    PrototypeSet,
    build_mnav_prototypes,
    compute_prototypes,
    kmeans_nota,
    mnav_classify,
    nnshot_classify,
    protonet_classify,
)
from epiarg.inference import evaluate_episodes
from epiarg.sampler import SamplerConfig, generate_episode_set
from epiarg.seeds import substream
from epiarg.synthetic import calibrated_corpus, separable_corpus, synthetic_corpus, three_way_specs
from epiarg.trainer import TrainConfig, episode_tensors, forward_backward, train

from test_trainer import (
    TEST_ENCODER,
    fd_gradients,
    make_params,
    max_relative_error,
    mnav_fd_is_safe,
    nnshot_fd_is_safe,
    small_episode,
)
from test_trainer import episode_hiddens


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_sampler_invariants():
    """10k episodes per setting: exact D docs, exact N roles, disjoint ids,
    every query holds an active-type span. Zero violations, under 2 minutes."""
    with criterion(1, "sampler invariants"):
        start = time.time()
        corpus = synthetic_corpus(seed=2024, n_docs=500)
        for n_ways, d_docs in ((3, 1), (3, 2), (6, 2)):
            cfg = SamplerConfig(n_ways=n_ways, d_docs=d_docs, seed=7)
            episodes = generate_episode_set(corpus, cfg, 10_000, label=cfg.setting)
            for ep in episodes:
                assert len(ep.support) == d_docs
                retained = {s.role for doc in ep.support for s in doc.arguments}
                assert retained == set(ep.active_types)
                assert len(ep.active_types) == n_ways
                assert not ep.support_doc_ids() & ep.query_doc_ids()
                for doc in ep.query:
                    assert any(s.role in ep.active_types for s in doc.arguments)
        elapsed = time.time() - start
        assert elapsed < 120, f"sampling took {elapsed:.1f}s, budget is 120s"


def test_criterion_2_leakage_invariant():
    """After masking, train and dev+test argument types are disjoint and the
    frequent roles are gone from dev/test, over 100 randomized corpora."""
    with criterion(2, "leakage invariant"):
        for seed in range(100):
            corpus = synthetic_corpus(seed=seed, n_docs=80, n_event_types=8)
            for spec in three_way_specs(corpus, seed=seed).values():
                masked, _ = apply_leakage_mask(compute_split(corpus, spec), spec)
                train_roles = masked.train.arg_types
                eval_roles = masked.dev.arg_types | masked.test.arg_types
                assert train_roles & eval_roles == set()
                assert not eval_roles & set(spec.frequent_roles)


def test_criterion_3_argument_density_anchor():
    """3w1d micro average of support arguments sits in the published sanity
    band [3.7, 5.2] on a density-calibrated corpus (calibration-dependent)."""
    with criterion(3, "argument density anchor"):
        corpus = calibrated_corpus(seed=123)
        cfg = SamplerConfig(n_ways=3, d_docs=1, seed=99)
        episodes = generate_episode_set(corpus, cfg, 10_000, label="3w1d")
        micro = sum(len(d.arguments) for ep in episodes for d in ep.support) / len(episodes)
        assert 3.7 <= micro <= 5.2, f"micro average {micro:.3f} outside [3.7, 5.2]"


def test_criterion_4_evaluation_oracle():
    """Span-exact scoring equals an independent brute-force comparison on
    1000 random label-sequence pairs; all counts exactly equal. The scorer takes
    the heads' integer labels; the oracle reads them as role names."""

    def oracle_spans(labels):
        spans, i = set(), 0
        while i < len(labels):
            if labels[i] == "O":
                i += 1
                continue
            j = i
            while j < len(labels) and labels[j] == labels[i]:
                j += 1
            spans.add((i, j, labels[i]))
            i = j
        return spans

    with criterion(4, "evaluation oracle"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n_types = int(rng.integers(1, 7))
            active = [f"T{i}" for i in range(n_types)]
            length = int(rng.integers(1, 201))
            vocab = active + ["O"]  # integer label i names vocab[i]; n_types is O
            pred = [int(rng.integers(len(vocab))) for _ in range(length)]
            gold = [int(rng.integers(len(vocab))) for _ in range(length)]
            counts = score_episode([decode_spans(pred, active)], [decode_spans(gold, active)], active)
            p_spans = oracle_spans([vocab[i] for i in pred])
            g_spans = oracle_spans([vocab[i] for i in gold])
            tp, fp, fn = Counter(), Counter(), Counter()
            for s in p_spans & g_spans:
                tp[s[2]] += 1
            for s in p_spans - g_spans:
                fp[s[2]] += 1
            for s in g_spans - p_spans:
                fn[s[2]] += 1
            assert counts.tp == tp and counts.fp == fp and counts.fn == fn


def test_criterion_5_prototype_and_classification_oracles():
    """Prototype means match direct averaging to 1e-9; every head's labels
    match an exhaustive per-token distance scan on 500 random instances each."""
    with criterion(5, "prototype and classification oracles"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 4))
            rows = rng.normal(size=(int(rng.integers(n + 1, 40)), d))
            labels = rng.integers(0, n + 1, size=rows.shape[0])
            labels[: n + 1] = np.arange(n + 1)
            protos = compute_prototypes((rows, labels), [f"T{i}" for i in range(n)])
            for c in range(n + 1):
                expected = rows[labels == c].mean(axis=0)
                actual = protos.type_vectors[c] if c < n else protos.nota_vectors[0]
                np.testing.assert_allclose(actual, expected, atol=1e-9)

        for _ in range(500):  # protonet + mnav (one NOTA block covers both)
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            protos = PrototypeSet(
                tuple(f"T{i}" for i in range(n)),
                rng.normal(size=(n, d)),
                rng.normal(size=(k, d)),
            )
            query = rng.normal(size=(int(rng.integers(1, 40)), d))
            out = mnav_classify(protos, query) if k > 1 else protonet_classify(protos, query)
            rows = protos.matrix
            for t in range(query.shape[0]):
                dists = [float(np.square(query[t] - rows[c]).sum()) for c in range(rows.shape[0])]
                assert out.labels[t] == min(int(np.argmin(dists)), n)

        for _ in range(500):  # nnshot
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            s = int(rng.integers(n + 1, 30))
            rows = rng.normal(size=(s, d))
            labels = rng.integers(0, n + 1, size=s)
            labels[: n + 1] = np.arange(n + 1)
            query = rng.normal(size=(int(rng.integers(1, 30)), d))
            out = nnshot_classify((rows, labels), query, n_types=n)
            for t in range(query.shape[0]):
                best_u, best_d = 0, np.inf
                for u in range(s):
                    dist = float(np.abs(query[t] - rows[u]).sum())
                    if dist < best_d:
                        best_u, best_d = u, dist
                assert out.labels[t] == labels[best_u]


def test_criterion_6_mnav_reduction_and_kmeans_monotonicity():
    """K=1 MNAV labels are token-identical to ProtoNet on 200 random
    episodes; k-means inertia never increases, on any run."""
    with criterion(6, "MNAV reduction and k-means monotonicity"):
        rng = np.random.default_rng(6)
        for trial in range(200):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 4))
            rows = rng.normal(size=(int(rng.integers(n + 5, 60)), d))
            labels = rng.integers(0, n + 1, size=rows.shape[0])
            labels[: n + 1] = np.arange(n + 1)
            types = [f"T{i}" for i in range(n)]
            query = rng.normal(size=(int(rng.integers(1, 50)), d))
            base = compute_prototypes((rows, labels), types)
            mnav = build_mnav_prototypes((rows, labels), types, k=1, seed=trial)
            np.testing.assert_array_equal(
                protonet_classify(base, query).labels,
                mnav_classify(mnav, query).labels,
            )
        for trial in range(200):
            points = rng.normal(size=(int(rng.integers(8, 120)), int(rng.integers(2, 6))))
            k = int(rng.integers(1, min(7, points.shape[0])))
            result = kmeans_nota(points, k, seed=trial)
            hist = np.array(result.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9), f"inertia increased on run {trial}"


def test_criterion_7_gradient_correctness():
    """Analytic vs central finite differences: relative error < 1e-4 for
    every parameter on 50 randomized small episodes, under 5 minutes."""
    with criterion(7, "gradient correctness"):
        start = time.time()
        episodes_checked = 0
        for seed in range(1, 31):  # protonet: smooth loss, h = 1e-4
            params, head_cfg = make_params(seed)
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            _, grads = forward_backward(params, tensors, head_cfg)
            numeric = fd_gradients(params, tensors, head_cfg, h=1e-4)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4
            episodes_checked += 1

        seed = 1000
        while episodes_checked < 40:  # nnshot: kink-free fixtures, h = 1e-6
            seed += 1
            params, head_cfg = make_params(seed, head="nnshot")
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            if not nnshot_fd_is_safe(params, episode, tensors):
                continue
            _, grads = forward_backward(params, tensors, head_cfg)
            numeric = fd_gradients(params, tensors, head_cfg, h=1e-6)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4
            episodes_checked += 1

        seed = 2000
        while episodes_checked < 50:  # mnav: frozen centroids, kink-free fixtures
            seed += 1
            params, head_cfg = make_params(seed, head="mnav")
            episode = small_episode(seed)
            tensors = episode_tensors(episode, params, TEST_ENCODER.chunk_length)
            h_s, _ = episode_hiddens(params, episode, TEST_ENCODER.chunk_length)
            o_rows = h_s[tensors.support_labels == tensors.n_types]
            nota = kmeans_nota(o_rows, head_cfg.kmeans_k, substream(seed, "nota")).centroids
            if not mnav_fd_is_safe(params, episode, tensors, nota):
                continue
            _, grads = forward_backward(params, tensors, head_cfg, fixed_nota=nota)
            numeric = fd_gradients(params, tensors, head_cfg, fixed_nota=nota, h=1e-6)
            assert max_relative_error(grads.arrays(), numeric) < 1e-4
            episodes_checked += 1

        elapsed = time.time() - start
        assert episodes_checked == 50
        assert elapsed < 300, f"gradient checks took {elapsed:.1f}s, budget is 300s"


def test_criterion_8_end_to_end_learning():
    """On the marker-separable corpus, trained ProtoNet reaches dev macro-F1
    >= 0.90 within 2000 episodes and beats the untrained baseline by >= 20
    F1 points, within 15 CPU minutes."""
    with criterion(8, "end-to-end learning"):
        start = time.time()
        corpus, spec = separable_corpus(42)
        split = compute_split(corpus, spec)
        encoder_cfg = EncoderConfig(d_emb=32, d_model=32, radius=1, n_buckets=2048, chunk_length=256)
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=5)
        head_cfg = HeadConfig("protonet")

        dev_episodes = generate_episode_set(split.dev, sampler_cfg, 150, label="dev").episodes
        vocab = [t for doc in split.train for t in doc.tokens]
        untrained = initialize_params(encoder_cfg, head_cfg, substream(5, "init"), vocab)
        baseline = evaluate_episodes(dev_episodes, untrained, head_cfg, encoder_cfg, seed=5)

        train_cfg = TrainConfig(
            episodes=2000,
            learning_rate=3e-3,
            validate_every=500,
            seed=5,
            batch_size=2,
            dev_episodes=150,
        )
        ckpt = train(split, sampler_cfg, train_cfg, head_cfg, encoder_cfg)
        trained = evaluate_episodes(dev_episodes, ckpt.params, head_cfg, encoder_cfg, seed=5)

        elapsed = time.time() - start
        print(
            f"  trained dev F1 {trained.macro_f1:.2f} vs baseline {baseline.macro_f1:.2f} "
            f"({elapsed:.0f}s)"
        )
        assert trained.macro_f1 >= 90.0
        assert baseline.macro_f1 <= trained.macro_f1 - 20.0
        assert elapsed < 900, f"end-to-end run took {elapsed:.1f}s, budget is 900s"


def test_criterion_9_pipeline_determinism(tmp_path):
    """Two identical full pipeline runs produce byte-identical episode files,
    checkpoints, and reports."""
    from epiarg.cli import main

    with criterion(9, "pipeline determinism"):
        corpus, spec = separable_corpus(7, n_event_types=4, docs_per_event=14)
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, corpus_path)
        spec_path = tmp_path / "splits.json"
        spec_path.write_text(json.dumps(spec.to_dict()))

        def run_pipeline(out_dir):
            config = {
                "corpus": str(corpus_path),
                "split_spec": str(spec_path),
                "out_dir": str(out_dir),
                "seed": 123,
                "min_count": 1,
                "balance": True,
                "episode_counts": {"train": 20, "dev": 10, "test": 10},
                "sampler": {"n_ways": 3, "d_docs": 1},
                "train": {
                    "episodes": 12,
                    "learning_rate": 0.01,
                    "validate_every": 6,
                    "batch_size": 2,
                    "dev_episodes": 6,
                },
                "encoder": {"d_emb": 8, "d_model": 8, "radius": 1, "n_buckets": 128, "chunk_length": 64},
                "head": {"name": "protonet"},
                "export_episodes": 5,
            }
            config_path = tmp_path / f"config_{out_dir.name}.json"
            config_path.write_text(json.dumps(config))
            for command in ("ingest", "split", "sample", "train", "eval", "export-embeddings", "export-prototypes"):
                assert main([command, "--config", str(config_path)]) == 0, command

        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        run_pipeline(out_a)
        run_pipeline(out_b)

        compared = []
        for name in (
            "episodes_train.jsonl",
            "episodes_dev.jsonl",
            "episodes_test.jsonl",
            "checkpoint.fdck",
            "report_protonet_3w1d.json",
            "train_log.jsonl",
            "embeddings.fdae",
            "prototypes.csv",
        ):
            a, b = out_a / name, out_b / name
            assert a.exists() and b.exists(), name
            a_bytes, b_bytes = a.read_bytes(), b.read_bytes()
            if name.startswith("report") or name.endswith("meta.json"):
                # the embedded config echoes the out_dir path, which differs by design
                a_bytes = a_bytes.replace(str(out_a).encode(), b"OUT")
                b_bytes = b_bytes.replace(str(out_b).encode(), b"OUT")
            assert a_bytes == b_bytes, f"{name} differs between identical runs"
            compared.append(name)
        assert len(compared) == 8

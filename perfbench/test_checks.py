"""Each output check accepts the program's untouched output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import epiarg.heads  # noqa: E402
import epiarg.inference  # noqa: E402
from epiarg.corpus import compute_split  # noqa: E402
from epiarg.encoder import EncoderConfig  # noqa: E402
from epiarg.heads import HeadConfig  # noqa: E402
from epiarg.sampler import SamplerConfig, generate_episode_set  # noqa: E402
from epiarg.seeds import substream  # noqa: E402
from epiarg.synthetic import separable_corpus  # noqa: E402
from epiarg.trainer import initialize_params  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import check_evaluation  # noqa: E402

ENCODER = EncoderConfig(d_emb=16, d_model=16, radius=1, n_buckets=256, chunk_length=64)
SEED = 3


@pytest.fixture(scope="module")
def split():
    corpus, spec = separable_corpus(SEED, n_event_types=4, docs_per_event=12)
    return compute_split(corpus, spec)


@pytest.fixture(scope="module")
def episodes(split):
    return generate_episode_set(split.test, SamplerConfig(n_ways=3, d_docs=1, seed=SEED), 6, label="test").episodes


def _params(split, head: str):
    vocab = [t for doc in split.train for t in doc.tokens]
    return initialize_params(ENCODER, HeadConfig(head), substream(SEED, "init"), vocab)


def _evaluate(episodes, params, head_cfg, reported_from=None):
    report = epiarg.inference.evaluate_episodes(
        reported_from or episodes, params, head_cfg, ENCODER, seed=SEED
    )
    return check_evaluation(episodes, params, head_cfg, ENCODER, SEED, checks.report_scores(report))


@pytest.mark.parametrize("head", ["protonet", "mnav", "nnshot"])
def test_untouched_evaluation_passes(split, episodes, head):
    head_cfg = HeadConfig(head, kmeans_k=2, d_reduced=8)
    assert _evaluate(episodes, _params(split, head), head_cfg) == []


@pytest.mark.parametrize("head", ["protonet", "mnav", "nnshot"])
def test_flipped_token_label_is_rejected(split, episodes, head, monkeypatch):
    name = {"protonet": "protonet_classify", "mnav": "mnav_classify", "nnshot": "nnshot_classify"}[head]
    classify = getattr(epiarg.inference, name)

    def flipped(*args, **kwargs):
        result = classify(*args, **kwargs)
        labels = result.labels.copy()
        labels[0] = (labels[0] + 1) % (result.n_types + 1)  # token 0 is in every NNShot sample
        return dataclasses.replace(result, labels=labels)

    monkeypatch.setattr(epiarg.inference, name, flipped)
    problems = _evaluate(episodes, _params(split, head), HeadConfig(head, kmeans_k=2, d_reduced=8))
    assert any("labels differ at tokens [0]" in p for p in problems)


def test_dropped_gold_span_is_rejected(split, episodes):
    query = episodes[0].query[0]
    dropped = query.with_arguments(query.arguments[1:])
    corrupted = [dataclasses.replace(episodes[0], query=(dropped,))] + list(episodes[1:])
    problems = _evaluate(corrupted, _params(split, "protonet"), HeadConfig("protonet"), reported_from=episodes)
    assert any("reported" in p for p in problems)


def test_support_document_reused_as_query_is_rejected(episodes):
    cfg = SamplerConfig(n_ways=3, d_docs=1)
    view = checks.view_of_episode(episodes[0])
    assert checks.check_episode(view, cfg.n_ways, cfg.d_docs) == []
    reused = checks.view_of_episode(dataclasses.replace(episodes[0], query=episodes[0].support))
    assert any("both support and query" in p for p in checks.check_episode(reused, cfg.n_ways, cfg.d_docs))


def test_rising_kmeans_history_is_rejected(split, episodes, monkeypatch):
    kmeans = epiarg.heads.kmeans_nota

    def rising(*args, **kwargs):
        result = kmeans(*args, **kwargs)
        history = result.inertia_history + (result.inertia_history[-1] * 2.0,)
        return dataclasses.replace(result, inertia_history=history)

    monkeypatch.setattr(epiarg.heads, "kmeans_nota", rising)
    problems = _evaluate(episodes, _params(split, "mnav"), HeadConfig("mnav", kmeans_k=2))
    assert any("inertia rose" in p for p in problems)


def test_kmeans_history_of_the_program_never_rises():
    points = np.random.default_rng(0).normal(size=(200, 8))
    result = epiarg.heads.kmeans_nota(points, 4, 0)
    assert checks.kmeans_problems(result.inertia_history) == []
    assert checks.kmeans_problems([3.0, 2.0, 2.5]) != []


def test_tracer_restores_attributes_and_skips_missing_targets():
    original = epiarg.inference.run_episode
    targets = [
        tracing.Target("epiarg.inference", "run_episode", "inference.run_episode"),
        tracing.Target("epiarg.inference", "no_such_function", "inference.no_such_function"),
    ]
    tracer = tracing.Tracer()
    with tracer.installed_on(targets):
        assert epiarg.inference.run_episode is not original
    assert epiarg.inference.run_episode is original
    assert tracer.installed == {"inference.run_episode"}
    assert "trainer.forward_backward.self_s" not in tracing.round_metrics(tracer)


def test_benchmark_json_names_every_metric_the_benchmark_reports():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()} | run.TRACE_EXTRA
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert set(bench["paths"]) == {HERE.name}

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import fields

import pytest

from epiarg.cli import _COMMANDS, RunConfig, _parse_args, main
from epiarg.corpus import ArgumentSpan, Corpus, Document, SplitCorpus, SplitSpec, write_corpus
from epiarg.encoder import EncoderConfig
from epiarg.heads import HeadConfig
from epiarg.sampler import SamplerConfig
from epiarg.synthetic import separable_corpus
from epiarg.trainer import TrainConfig, train


@pytest.fixture()
def workspace(tmp_path):
    corpus, spec = separable_corpus(7, n_event_types=4, docs_per_event=14)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    spec_path = tmp_path / "splits.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    config = {
        "corpus": str(corpus_path),
        "split_spec": str(spec_path),
        "out_dir": str(tmp_path / "out"),
        "seed": 11,
        "min_count": 1,
        "balance": False,
        "episode_counts": {"train": 6, "dev": 4, "test": 4},
        "sampler": {"n_ways": 3, "d_docs": 1, "query_size": 1},
        "train": {
            "episodes": 4,
            "learning_rate": 0.02,
            "validate_every": 2,
            "batch_size": 2,
            "dev_episodes": 4,
        },
        "encoder": {"d_emb": 8, "d_model": 8, "radius": 1, "n_buckets": 128, "chunk_length": 64},
        "head": {"name": "protonet"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def run(config_path, command, *extra):
    return main([command, "--config", str(config_path), *extra])


class TestWorkflow:
    def test_full_pipeline(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        out = tmp_path / "out"

        assert run(config_path, "ingest") == 0
        assert (out / "stats.json").exists()
        stats = json.loads((out / "stats.json").read_text())
        assert stats["seed"] == 11
        assert stats["config"]["sampler"]["n_ways"] == 3

        assert run(config_path, "split") == 0
        for name in ("train", "dev", "test"):
            assert (out / f"{name}.jsonl").exists()
        assert (out / "masking_report.json").exists()

        assert run(config_path, "sample") == 0
        for name in ("train", "dev", "test"):
            assert (out / f"episodes_{name}.jsonl").exists()
            assert (out / f"episodes_{name}.meta.json").exists()
        assert (out / "episode_stats.json").exists()

        assert run(config_path, "train") == 0
        assert (out / "checkpoint.fdck").exists()
        assert (out / "train_log.jsonl").exists()

        assert run(config_path, "eval") == 0
        report_path = out / "report_protonet_3w1d.json"
        assert report_path.exists()
        payload = json.loads(report_path.read_text())
        for key in ("setting", "split", "model", "macro", "per_type", "fp_rate", "fn_rate", "episode_count", "seed"):
            assert key in payload

        assert run(config_path, "eval", "--head", "baseline_no_finetune") == 0
        assert (out / "report_baseline_no_finetune_3w1d.json").exists()

        assert run(config_path, "report") == 0
        table = (out / "report.txt").read_text()
        assert "protonet" in table and "baseline_no_finetune" in table

        assert run(config_path, "export-embeddings") == 0
        assert (out / "embeddings.fdae").exists()
        assert (out / "embeddings.fdae.idx").exists()

        assert run(config_path, "export-prototypes") == 0
        header = (out / "prototypes.csv").read_text().splitlines()[0]
        assert header.startswith("label,dim_0")

    def test_train_prints_best_dev_f1(self, workspace, capsys):
        """The summary names the checkpoint's best dev F1, or says no validation ran."""
        from epiarg.trainer import load_checkpoint

        tmp_path, config_path, config = workspace
        assert run(config_path, "split") == 0
        assert run(config_path, "sample") == 0
        capsys.readouterr()
        assert run(config_path, "train") == 0
        best = load_checkpoint(tmp_path / "out" / "checkpoint.fdck").best_f1
        assert capsys.readouterr().out == f"trained protonet for 4 episodes; best dev macro-F1 {best:.2f}\n"

        config["train"]["episodes"] = 0
        config_path.write_text(json.dumps(config))
        assert run(config_path, "train") == 0
        assert capsys.readouterr().out == "trained protonet for 0 episodes; no dev validation ran\n"

    def test_eval_without_training_is_fine(self, workspace):
        tmp_path, config_path, _ = workspace
        assert run(config_path, "split") == 0
        assert run(config_path, "sample") == 0
        assert run(config_path, "eval", "--head", "baseline_no_finetune") == 0

    def test_sample_determinism(self, workspace):
        tmp_path, config_path, _ = workspace
        out = tmp_path / "out"
        assert run(config_path, "split") == 0
        assert run(config_path, "sample") == 0
        first = (out / "episodes_train.jsonl").read_bytes()
        assert run(config_path, "sample") == 0
        assert (out / "episodes_train.jsonl").read_bytes() == first

    def test_cli_overrides_apply(self, workspace):
        tmp_path, config_path, _ = workspace
        out2 = tmp_path / "other"
        assert run(config_path, "ingest", "--out", str(out2), "--seed", "99") == 0
        stats = json.loads((out2 / "stats.json").read_text())
        assert stats["seed"] == 99


def load_config(tmp_path, data: dict) -> RunConfig:
    path = tmp_path / "loaded.json"
    path.write_text(json.dumps(data))
    return RunConfig.load(path, _parse_args(["ingest", "--config", str(path)]))


class TestConfig:
    @pytest.mark.parametrize("section", ["sampler", "train", "encoder", "head"])
    def test_unknown_section_key_is_ignored(self, tmp_path, section):
        loaded = load_config(tmp_path, {section: {"n_way": 3}})
        assert loaded.to_dict() == RunConfig().to_dict()

    def test_scalar_strings_are_coerced(self, tmp_path):
        loaded = load_config(tmp_path, {"seed": "7", "min_count": "3"})
        assert (loaded.seed, loaded.min_count) == (7, 3)

    def test_defaults_round_trip_with_nulls(self, tmp_path):
        """``null`` is accepted for the string fields whose default is ``None``."""
        defaults = RunConfig()
        assert [name for name, value in defaults.to_dict().items() if value is None] == [
            "corpus", "split_spec", "split", "checkpoint"
        ]
        assert load_config(tmp_path, json.loads(json.dumps(defaults.to_dict()))) == defaults

    def test_every_field_round_trips_through_load(self, tmp_path):
        """A config with a non-default value in every field reads back equal from its JSON form."""
        seed = 5
        cfg = RunConfig(
            corpus="c.jsonl",
            split_spec="s.json",
            split="cross_domain",
            out_dir="elsewhere",
            seed=seed,
            min_count=3,
            balance=False,
            embedding_source="emb.fdae",
            checkpoint="ck.fdck",
            episode_counts={"train": 7, "dev": 8, "test": 9},
            export_episodes=4,
            sampler=SamplerConfig(n_ways=2, d_docs=2, query_size=2, seed=seed, max_attempts=50),
            train=TrainConfig(
                episodes=12, learning_rate=0.5, grad_clip_norm=2.0, validate_every=6, seed=seed,
                batch_size=3, optimizer="sgd", weight_decay=0.1, dev_episodes=5,
            ),
            encoder=EncoderConfig(d_emb=8, d_model=16, radius=2, n_buckets=512, chunk_length=32, init_scale=0.1),
            head=HeadConfig("mnav", d_reduced=8, kmeans_k=3, kmeans_iters=20),
        )
        defaults = RunConfig()
        assert [f.name for f in fields(RunConfig) if getattr(cfg, f.name) == getattr(defaults, f.name)] == []
        assert load_config(tmp_path, json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_stamped_key_order(self):
        """Checkpoint meta is not key-sorted, so field order is part of the checkpoint bytes."""
        assert json.dumps(RunConfig().to_dict()) == (
            '{"corpus": null, "split_spec": null, "split": null, "out_dir": "out", "seed": 0, "min_count": 2, '
            '"balance": true, "embedding_source": "toy", "checkpoint": null, '
            '"episode_counts": {"train": 2000, "dev": 200, "test": 200}, "export_episodes": 50, '
            '"sampler": {"n_ways": 3, "d_docs": 1, "query_size": 1, "seed": 0, "max_attempts": 100000}, '
            '"train": {"episodes": 2000, "learning_rate": 1e-05, "grad_clip_norm": 1.0, "validate_every": 500, '
            '"seed": 0, "batch_size": 2, "optimizer": "adamw", "weight_decay": 0.0, "dev_episodes": 200}, '
            '"encoder": {"d_emb": 64, "d_model": 64, "radius": 3, "n_buckets": 65536, "chunk_length": 1024, '
            '"init_scale": 0.05}, '
            '"head": {"name": "protonet", "d_reduced": 32, "kmeans_k": 6, "kmeans_iters": 100}}'
        )
        empty = SplitCorpus(Corpus(()), Corpus(()), Corpus(()))
        encoder_cfg = EncoderConfig(d_emb=8, d_model=8, n_buckets=128)
        ckpt = train(empty, SamplerConfig(3, 1), TrainConfig(episodes=0), HeadConfig("nnshot"), encoder_cfg)
        assert json.dumps(ckpt.config) == (
            '{"sampler": {"n_ways": 3, "d_docs": 1, "query_size": 1, "seed": 0, "max_attempts": 100000}, '
            '"train": {"episodes": 0, "learning_rate": 1e-05, "grad_clip_norm": 1.0, "validate_every": 4000, '
            '"seed": 0, "batch_size": 2, "optimizer": "adamw", "weight_decay": 0.0, "dev_episodes": 200}, '
            '"head": {"name": "nnshot", "d_reduced": 32, "kmeans_k": 6, "kmeans_iters": 100}, '
            '"encoder": {"d_emb": 8, "d_model": 8, "radius": 3, "n_buckets": 128, "chunk_length": 1024, '
            '"init_scale": 0.05}}'
        )


class TestErrorPaths:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", None),
            ("min_count", "two"),
            ("export_episodes", "all"),
            ("balance", "false"),
            ("balance", 0),
            ("corpus", 123456),  # not opened as a file descriptor
            ("split_spec", 7),
            ("split", 7),
            ("out_dir", 5),
            ("out_dir", None),
            ("embedding_source", 7),
            ("checkpoint", 7),
        ],
    )
    def test_bad_scalar_is_config_error(self, workspace, capsys, field, value):
        tmp_path, _, config = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(config, **{field: value})))
        assert run(bad, "ingest") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error code=2 kind=config: config field '{field}' must be ")

    @pytest.mark.parametrize(
        "section, value, named",
        [
            ("sampler", {"n_ways": None}, "field 'n_ways' of SamplerConfig must be int"),
            ("train", {"learning_rate": "0.1"}, "field 'learning_rate' of TrainConfig must be float"),
            ("head", {"kmeans_k": "6"}, "field 'kmeans_k' of HeadConfig must be int"),
            ("encoder", {"radius": True}, "field 'radius' of EncoderConfig must be int"),
            ("sampler", 3, "section 'sampler' must be an object"),
        ],
    )
    def test_bad_section_value_is_config_error(self, workspace, capsys, section, value, named):
        tmp_path, _, config = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(config, **{section: value})))
        assert run(bad, "ingest") == 2
        assert capsys.readouterr().err.startswith(f"error code=2 kind=config: config {named}, got ")

    def test_int_stands_for_float(self, workspace):
        tmp_path, _, config = workspace
        path = tmp_path / "int.json"
        path.write_text(json.dumps(dict(config, train={"learning_rate": 1, "grad_clip_norm": 2})))
        assert run(path, "ingest") == 0


    def test_missing_corpus_is_config_error(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config = dict(config)
        config["corpus"] = str(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run(bad, "ingest") == 2
        err = capsys.readouterr().err
        assert err.startswith("error code=2 kind=config:")
        assert "\n" not in err.strip()

    def test_retired_workers_option(self, workspace, capsys):
        """``--workers`` is no option of any command; a config file that still sets ``workers`` loads,
        and the config its outputs carry has no such key."""
        tmp_path, config_path, config = workspace
        for command in _COMMANDS:
            with pytest.raises(SystemExit) as exc:
                run(config_path, command, "--workers", "2")
            assert exc.value.code == 2
            assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        old = tmp_path / "old.json"
        old.write_text(json.dumps({**config, "workers": 2}))
        assert run(old, "ingest") == 0
        stamped = json.loads((tmp_path / "out" / "stats.json").read_text())["config"]
        assert "workers" not in stamped
        assert stamped == json.loads(json.dumps(RunConfig.load(config_path, _parse_args(["ingest"])).to_dict()))

    def test_infeasible_sampling_exit_code(self, workspace, capsys):
        tmp_path, config_path, config = workspace
        config = dict(config)
        config["sampler"] = {"n_ways": 50, "d_docs": 1, "max_attempts": 1000}
        bad = tmp_path / "infeasible.json"
        bad.write_text(json.dumps(config))
        assert run(bad, "split") == 0
        assert run(bad, "sample") == 3
        assert capsys.readouterr().err.startswith("error code=3 kind=infeasible-sampling:")

    def test_too_few_points_for_kmeans_is_data_error(self, workspace, capsys):
        """MNAV k-means on a support set with fewer O tokens than ``kmeans_k``."""
        tmp_path, _, config = workspace
        events = [f"event_{e}" for e in range(4)]
        docs = tuple(
            Document(
                f"{event}_{d}", "t", event, ("w", "m0", "w", "m1", "w", "m2", "w"),
                tuple(ArgumentSpan(2 * j + 1, 2 * j + 2, f"{event}_r{j}") for j in range(3)),
            )
            for event in events
            for d in range(14)
        )
        write_corpus(Corpus(docs), config["corpus"])
        spec = SplitSpec("custom", tuple(events[:2]), (events[2],), (events[3],), ())
        (tmp_path / "splits.json").write_text(json.dumps(spec.to_dict()))
        config = dict(config, head={"name": "mnav", "kmeans_k": 8})  # every support set has 4 O tokens
        short = tmp_path / "short.json"
        short.write_text(json.dumps(config))
        assert run(short, "split") == 0
        assert run(short, "sample") == 0
        capsys.readouterr()
        assert run(short, "eval") == 5
        assert capsys.readouterr().err.startswith("error code=5 kind=data:")

    def test_train_on_external_embeddings_rejected(self, workspace):
        tmp_path, config_path, config = workspace
        config = dict(config)
        config["embedding_source"] = str(tmp_path / "whatever.fdae")
        bad = tmp_path / "ext.json"
        bad.write_text(json.dumps(config))
        assert run(bad, "train") == 2

    def test_module_entrypoint(self, workspace):
        _, config_path, _ = workspace
        proc = subprocess.run(
            [sys.executable, "-m", "epiarg.cli", "ingest", "--config", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ingested" in proc.stdout

"""The benchmark's workloads: inputs, one timed round, and the output checks.

A round is the whole sample -> train -> eval pipeline of a workload. Every
call into the package goes through a module attribute (``epiarg.trainer.train``
and so on) so that a traced run sees it. Checks run after the timed rounds
and compare the last round's outputs with the benchmark's own computations.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import epiarg.cli
import epiarg.corpus
import epiarg.encoder
import epiarg.inference
import epiarg.sampler
import epiarg.synthetic
import epiarg.trainer
from epiarg.corpus import DEFAULT_FREQUENT_ROLES
from epiarg.encoder import EncoderConfig
from epiarg.heads import HeadConfig
from epiarg.sampler import SamplerConfig
from epiarg.seeds import substream
from epiarg.trainer import TrainConfig

import checks
import inputs
from tracing import Target, Tracer


@dataclass
class Round:
    """Stage times and operation counts of one timed round."""

    seconds: dict[str, float] = field(default_factory=dict)
    episodes: dict[str, int] = field(default_factory=dict)
    pipeline_s: float = 0.0
    test_macro_f1: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def stage(self, name: str, episodes: int = 0):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
            self.episodes[name] = self.episodes.get(name, 0) + episodes

    def rate(self, name: str) -> float:
        return self.episodes[name] / self.seconds[name]


def _losses(log_path: Path) -> list[float]:
    with open(log_path, encoding="utf-8") as handle:
        return [json.loads(line)["loss"] for line in handle if line.strip()]


def _embed(params, doc, encoder_cfg: EncoderConfig) -> np.ndarray:
    plan = epiarg.encoder.chunk_document(len(doc.tokens), encoder_cfg.chunk_length)
    return epiarg.encoder.embed_tokens(params.encoder, doc, plan).rows


def check_evaluation(episodes, params, head_cfg: HeadConfig, encoder_cfg: EncoderConfig, seed: int, reported: dict) -> list[str]:
    """Recompute every query label and the reported scores of an evaluation.

    The program's labels, NOTA centroids and k-means histories are captured
    by re-running ``run_episode``; labels are recomputed from the encoder's
    embeddings, and the scores from those labels and the gold spans.
    """
    captured: dict[str, list] = {"labels": [], "protos": [], "kmeans": []}

    def grab(key, pick):
        return lambda tracer, span, args, kwargs, result: captured[key].append(pick(result))

    targets = [
        Target("epiarg.inference", name, "check", grab("labels", lambda r: r.labels))
        for name in ("protonet_classify", "mnav_classify", "nnshot_classify")
    ] + [
        Target("epiarg.inference", "build_mnav_prototypes", "check", grab("protos", lambda r: r.nota_vectors)),
        Target("epiarg.heads", "kmeans_nota", "check", grab("kmeans", lambda r: r.inertia_history)),
    ]
    problems: list[str] = []
    tally = checks.Tally()
    with Tracer().installed_on(targets):
        for episode in episodes:
            for values in captured.values():
                values.clear()
            epiarg.inference.run_episode(episode, params, head_cfg, encoder_cfg, seed=seed)
            active = list(episode.active_types)
            n = len(active)
            support_rows = np.vstack([_embed(params, d, encoder_cfg) for d in episode.support])
            support_labels = np.concatenate([checks.doc_labels(d, active) for d in episode.support])
            for doc, program in zip(episode.query, captured["labels"]):
                rows = _embed(params, doc, encoder_cfg)
                tokens = None
                if head_cfg.name == "nnshot":
                    tokens = checks.token_sample(len(doc.tokens))
                    distances = checks.l1_distances(support_rows @ params.reducer, rows[tokens] @ params.reducer)
                    columns = support_labels
                else:
                    nota = captured["protos"][0] if head_cfg.name == "mnav" else None
                    distances, columns = checks.prototype_distances(support_rows, support_labels, rows, n, nota)
                bad = checks.label_disagreements(program, distances, columns, tokens)
                if bad:
                    problems.append(f"{head_cfg.name} episode {episode.episode_id} {doc.doc_id}: labels differ at tokens {bad[:5]}")
                tally.add(program, checks.doc_labels(doc, active), active)
            for history in captured["kmeans"]:
                problems += checks.kmeans_problems(history)
            if len(captured["labels"]) != len(episode.query):
                problems.append(f"episode {episode.episode_id}: {len(captured['labels'])} labelled query documents")
    problems += [f"{head_cfg.name}: {p}" for p in checks.score_disagreements(reported, tally.scores())]
    return problems


def _episode_problems(episodes, cfg: SamplerConfig) -> list[str]:
    return [p for ep in episodes for p in checks.check_episode(checks.view_of_episode(ep), cfg.n_ways, cfg.d_docs)]


class DeskProtonet:
    """Marker-separable corpus, 3w1d, ProtoNet with AdamW on the paper-default table."""

    name = "desk-protonet"
    # 100 episodes at lr 1e-2 reach test F1 >= 98 on every seed tried; 60 fell below 90 on some.
    train_episodes = 100
    dev_episodes = 20
    test_episodes = 1500

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.encoder_cfg = EncoderConfig(d_emb=64, d_model=64, radius=1, n_buckets=65536)
        self.sampler_cfg = SamplerConfig(n_ways=3, d_docs=1, seed=seed)
        self.head_cfg = HeadConfig("protonet")
        self.train_cfg = TrainConfig(
            episodes=self.train_episodes,
            learning_rate=1e-2,
            validate_every=self.train_episodes,
            seed=seed,
            batch_size=2,
            dev_episodes=self.dev_episodes,
        )

    def setup(self) -> None:
        corpus, spec = epiarg.synthetic.separable_corpus(self.seed, radius=1)
        self.split = epiarg.corpus.compute_split(corpus, spec)
        vocab = [t for doc in self.split.train for t in doc.tokens]
        self.untrained = epiarg.trainer.initialize_params(
            self.encoder_cfg, self.head_cfg, substream(self.seed, "init"), vocab
        )

    def run_round(self) -> Round:
        r = Round()
        log_path = self.workdir / "train_log.jsonl"
        start = time.perf_counter()
        test = epiarg.sampler.generate_episode_set(
            self.split.test, self.sampler_cfg, self.test_episodes, label="test"
        ).episodes
        with r.stage("train", self.train_episodes):
            ckpt = epiarg.trainer.train(
                self.split, self.sampler_cfg, self.train_cfg, self.head_cfg, self.encoder_cfg, log_path=log_path
            )
        with r.stage("eval", self.test_episodes):
            report = epiarg.inference.evaluate_episodes(
                test, ckpt.params, self.head_cfg, self.encoder_cfg, seed=self.seed
            )
        r.pipeline_s = time.perf_counter() - start
        r.test_macro_f1 = report.macro_f1
        r.attempted = self.train_episodes + self.test_episodes
        r.outputs = {"test": test, "ckpt": ckpt, "report": report, "losses": _losses(log_path)}
        return r

    def check(self, r: Round) -> list[str]:
        out = r.outputs
        dev = epiarg.sampler.generate_episode_set(
            self.split.dev, self.sampler_cfg, self.dev_episodes, label="dev"
        ).episodes
        problems = _episode_problems(list(out["test"]) + list(dev), self.sampler_cfg)
        problems += check_evaluation(
            out["test"], out["ckpt"].params, self.head_cfg, self.encoder_cfg, self.seed,
            checks.report_scores(out["report"]),
        )
        losses = np.array(out["losses"])
        problems += checks.finite_problems("losses", {"train": losses})
        problems += checks.finite_problems("trained", out["ckpt"].params.arrays())
        fifth = max(1, len(losses) // 5)
        if not losses[-fifth:].mean() < losses[:fifth].mean():
            problems.append(f"loss did not fall: {losses[:fifth].mean():.4f} -> {losses[-fifth:].mean():.4f}")
        trained_f1 = out["report"].macro_f1
        untrained_f1 = epiarg.inference.evaluate_episodes(
            out["test"], self.untrained, self.head_cfg, self.encoder_cfg, seed=self.seed
        ).macro_f1
        if trained_f1 < 90.0 or trained_f1 < untrained_f1 + 20.0:
            problems.append(f"test F1 {trained_f1:.2f} (untrained {untrained_f1:.2f}) misses 90 and +20")
        return problems


class DocHeads:
    """DocEE-like 800-token documents, 3w2d, NNShot and MNAV trained briefly on the paper-default encoder."""

    name = "doc-heads"
    train_episodes = 4
    dev_episodes = 2
    test_episodes = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.encoder_cfg = EncoderConfig()
        self.sampler_cfg = SamplerConfig(n_ways=3, d_docs=2, seed=seed)
        self.head_cfgs = (HeadConfig("nnshot"), HeadConfig("mnav"))
        self.train_cfg = TrainConfig(
            episodes=self.train_episodes,
            learning_rate=1e-2,
            validate_every=self.train_episodes,
            seed=seed,
            batch_size=2,
            dev_episodes=self.dev_episodes,
        )

    def setup(self) -> None:
        corpus, spec = inputs.doc_corpus(self.seed, radius=self.encoder_cfg.radius)
        self.split = epiarg.corpus.compute_split(corpus, spec)

    def run_round(self) -> Round:
        r = Round()
        start = time.perf_counter()
        test = epiarg.sampler.generate_episode_set(
            self.split.test, self.sampler_cfg, self.test_episodes, label="test"
        ).episodes
        runs = []
        for head_cfg in self.head_cfgs:
            log_path = self.workdir / f"train_log_{head_cfg.name}.jsonl"
            with r.stage("train", self.train_episodes):
                ckpt = epiarg.trainer.train(
                    self.split, self.sampler_cfg, self.train_cfg, head_cfg, self.encoder_cfg, log_path=log_path
                )
            with r.stage("eval", self.test_episodes):
                report = epiarg.inference.evaluate_episodes(
                    test, ckpt.params, head_cfg, self.encoder_cfg, seed=self.seed
                )
            runs.append((head_cfg, ckpt, report, _losses(log_path)))
        r.pipeline_s = time.perf_counter() - start
        r.test_macro_f1 = float(np.mean([report.macro_f1 for _, _, report, _ in runs]))
        r.attempted = len(self.head_cfgs) * (self.train_episodes + self.test_episodes)
        r.outputs = {"test": test, "runs": runs}
        return r

    def check(self, r: Round) -> list[str]:
        test = r.outputs["test"]
        dev = epiarg.sampler.generate_episode_set(
            self.split.dev, self.sampler_cfg, self.dev_episodes, label="dev"
        ).episodes
        problems = _episode_problems(list(test) + list(dev), self.sampler_cfg)
        for head_cfg, ckpt, report, losses in r.outputs["runs"]:
            problems += check_evaluation(
                test, ckpt.params, head_cfg, self.encoder_cfg, self.seed, checks.report_scores(report)
            )
            problems += checks.finite_problems(f"{head_cfg.name} losses", {"train": np.array(losses)})
            problems += checks.finite_problems(f"{head_cfg.name} trained", ckpt.params.arrays())
        return problems


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_embedding_rows(path: Path) -> dict[str, int]:
    """Row count per document of an embedding file: magic, u32 version, u32 dim,
    u64 count, then per document u32 id length, id, u64 rows, rows x dim f32."""
    rows: dict[str, int] = {}
    with open(path, "rb") as handle:
        if handle.read(4) != b"FDAE":
            raise ValueError(f"{path}: not an embedding file")
        _, dim = struct.unpack("<II", handle.read(8))
        (count,) = struct.unpack("<Q", handle.read(8))
        for _ in range(count):
            (id_len,) = struct.unpack("<I", handle.read(4))
            doc_id = handle.read(id_len).decode("utf-8")
            (n,) = struct.unpack("<Q", handle.read(8))
            if len(handle.read(n * dim * 4)) != n * dim * 4:
                raise ValueError(f"{path}: rows of {doc_id} are truncated")
            rows[doc_id] = n
    return rows


class CliPipeline:
    """The ``epiarg`` command over about 3000 short documents, each stage in process."""

    name = "cli-pipeline"
    commands = ("ingest", "split", "sample", "train", "eval", "export-embeddings", "export-prototypes", "report")
    episode_counts = {"train": 3000, "dev": 300, "test": 300}
    train_episodes = 40

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.config_path = workdir / "config.json"
        self.config = {
            "corpus": str(workdir / "corpus.jsonl"),
            "split_spec": str(workdir / "splits.json"),
            "out_dir": str(self.out),
            "seed": seed,
            "min_count": 2,
            "balance": True,
            "workers": 1,
            "episode_counts": self.episode_counts,
            "export_episodes": 50,
            "sampler": {"n_ways": 3, "d_docs": 2},
            "train": {
                "episodes": self.train_episodes,
                "learning_rate": 1e-2,
                "validate_every": self.train_episodes,
                "batch_size": 2,
                "dev_episodes": 20,
            },
            "encoder": {"d_emb": 32, "d_model": 32, "radius": 1, "n_buckets": 4096, "chunk_length": 256},
            "head": {"name": "protonet"},
        }

    def setup(self) -> None:
        self.corpus, spec = inputs.cli_corpus(self.seed)
        with open(self.workdir / "corpus.jsonl", "w", encoding="utf-8") as handle:
            for doc in self.corpus:
                record = {
                    "doc_id": doc.doc_id,
                    "title": doc.title,
                    "event_type": doc.event_type,
                    "tokens": list(doc.tokens),
                    "arguments": [{"start": s.start, "end": s.end, "role": s.role} for s in doc.arguments],
                }
                handle.write(json.dumps(record) + "\n")
        (self.workdir / "splits.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    def run_round(self) -> Round:
        r = Round()
        shutil.rmtree(self.out, ignore_errors=True)
        episodes = {"train": self.train_episodes, "eval": self.episode_counts["test"]}
        codes = {}
        start = time.perf_counter()
        for command in self.commands:
            with r.stage(command, episodes.get(command, 0)), contextlib.redirect_stdout(io.StringIO()):
                codes[command] = epiarg.cli.main([command, "--config", str(self.config_path)])
        r.pipeline_s = time.perf_counter() - start
        report_path = self.out / "report_protonet_3w2d.json"
        if report_path.exists():
            r.test_macro_f1 = json.loads(report_path.read_text(encoding="utf-8"))["macro"]["f1"]
        r.failed = sum(code != 0 for code in codes.values())
        r.attempted = len(self.commands) + self.train_episodes + self.episode_counts["test"]
        r.outputs = {"codes": codes}
        return r

    def check(self, r: Round) -> list[str]:
        problems = [f"epiarg {c} exited {code}" for c, code in r.outputs["codes"].items() if code != 0]
        if problems:
            return problems
        out = self.out
        roles = {
            name: {a["role"] for d in _read_jsonl(out / f"{name}.jsonl") for a in d["arguments"]}
            for name in ("train", "dev", "test")
        }
        held_out = roles["dev"] | roles["test"]
        if roles["train"] & held_out:
            problems.append(f"roles {sorted(roles['train'] & held_out)[:5]} are in train and dev/test")
        if set(DEFAULT_FREQUENT_ROLES) & held_out:
            problems.append(f"frequent roles {sorted(set(DEFAULT_FREQUENT_ROLES) & held_out)} remain in dev/test")
        sampler_cfg = SamplerConfig(n_ways=3, d_docs=2, seed=self.seed)
        for name, count in self.episode_counts.items():
            records = _read_jsonl(out / f"episodes_{name}.jsonl")
            if len(records) != count:
                problems.append(f"episodes_{name}.jsonl holds {len(records)} episodes, configured {count}")
            for record in records:
                problems += checks.check_episode(checks.view_of_record(record), sampler_cfg.n_ways, sampler_cfg.d_docs)
        embedded = read_embedding_rows(out / "embeddings.fdae")
        wrong = [d.doc_id for d in self.corpus if embedded.get(d.doc_id) != len(d.tokens)]
        if wrong or len(embedded) != len(self.corpus):
            problems.append(f"embedding rows disagree with token counts for {len(wrong)} documents")
        report = json.loads((out / "report_protonet_3w2d.json").read_text(encoding="utf-8"))
        reported = {**{k: report["macro"][k] for k in ("p", "r", "f1")}, "fp_rate": report["fp_rate"], "fn_rate": report["fn_rate"]}
        ckpt = epiarg.trainer.load_checkpoint(out / "checkpoint.fdck")
        encoder_cfg = EncoderConfig.from_dict(self.config["encoder"])
        test = epiarg.sampler.read_episodes(out / "episodes_test.jsonl")
        problems += check_evaluation(test, ckpt.params, HeadConfig("protonet"), encoder_cfg, self.seed, reported)
        problems += checks.finite_problems("losses", {"train": np.array(_losses(out / "train_log.jsonl"))})
        problems += checks.finite_problems("checkpoint", ckpt.params.arrays())
        return problems


WORKLOADS = {w.name: w for w in (DeskProtonet, DocHeads, CliPipeline)}

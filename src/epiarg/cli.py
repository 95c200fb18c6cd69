"""Workflow orchestration: ingest, split, sample, train, eval, report, export.

One JSON config drives the whole run; scalar fields can be overridden on the
command line. Every artifact embeds (or carries a sidecar with) the resolved
config and seed, and all randomness derives from the single run seed through
named substreams, so reruns are byte-identical.

Exit codes: 0 ok, 2 config error, 3 infeasible sampling, 4 numerical failure,
5 data failure (an episode the head cannot handle, such as too few support tokens).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import (
    POOL_NAMES,
    Corpus,
    CorpusFormatError,
    SplitCorpus,
    SplitSpec,
    SplitSpecError,
    apply_leakage_mask,
    compute_split,
    corpus_stats,
    filter_rare_types,
    parse_corpus,
    write_corpus,
)
from .encoder import EncoderConfig, chunk_document, embed_tokens, initialize_params
from .evaluation import render_results_table, report_json
from .files import atomic_write
from .formats import (
    EmbeddingFormatError,
    load_checkpoint,
    load_external_embeddings,
    save_checkpoint,
    write_external_embeddings,
)
from .heads import HEAD_NAMES, EmptyClassError, HeadConfig, write_prototypes_csv
from .inference import evaluate_episodes, prototype_sets
from .record import Record
from .sampler import (
    InfeasibleSamplingError,
    SamplerConfig,
    episode_stats,
    generate_episode_set,
    read_episodes,
    write_episodes,
)
from .seeds import substream
from .trainer import NumericalError, TrainConfig, train


# Where each command-line flag lands in the config's dict form: a top-level field, or ``section.field``.
_FLAG_FIELDS = {
    "seed": ("seed",),
    "n_ways": ("sampler.n_ways",),
    "d_docs": ("sampler.d_docs",),
    "episodes": ("train.episodes", "episode_counts.train"),
    "split": ("split",),
    "out": ("out_dir",),
    "head": ("head.name",),
}


@dataclass(frozen=True)
class RunConfig(Record):
    corpus: str | None = None
    split_spec: str | None = None
    split: str | None = None
    out_dir: str = "out"
    seed: int = 0
    min_count: int = 2
    balance: bool = True
    embedding_source: str = "toy"
    checkpoint: str | None = None
    episode_counts: dict[str, int] = field(default_factory=lambda: {"train": 2000, "dev": 200, "test": 200})
    export_episodes: int = 50
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(n_ways=3, d_docs=1))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(episodes=2000, validate_every=500))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)

    def __post_init__(self):
        prefix = "config field 'episode_counts' of RunConfig must be"
        for pool, count in self.episode_counts.items():
            if pool not in POOL_NAMES:
                raise ValueError(f"{prefix} keyed by {', '.join(POOL_NAMES)}, got {pool!r}")
            if count < 0:  # 0 skips the pool in `sample`; so would a negative count, silently
                raise ValueError(f"{prefix} at least 0 for {pool!r}, got {count}")
        # export_episodes is a slice bound: 0 would export nothing, -5 all but the last 5
        self.check("at least 1", lambda n: n >= 1, "export_episodes")
        # the run seed is the single entropy source for every stage
        object.__setattr__(self, "sampler", replace(self.sampler, seed=self.seed))
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))

    @classmethod
    def load(cls, path: str | Path | None, overrides: argparse.Namespace) -> "RunConfig":
        data = {}
        if path is not None:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                raise ValueError(f"config {path} must hold a JSON object, got a {type(data).__name__}")
        for flag, targets in _FLAG_FIELDS.items():
            value = getattr(overrides, flag)
            for target in targets if value is not None else ():
                section, _, name = target.rpartition(".")
                into = data.setdefault(section, {}) if section else data
                if isinstance(into, dict):  # from_dict refuses a section that is not an object
                    into[name] = value
        return cls.from_dict(data)

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    def stamp(self, payload: dict) -> dict:
        payload["config"] = self.to_dict()
        payload["seed"] = self.seed
        return payload


def _write_json(payload: dict, path: Path) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_ingest(cfg: RunConfig) -> None:
    cfg.check("set for this command", lambda path: path is not None, "corpus")
    corpus = parse_corpus(cfg.corpus)
    stats = corpus_stats(corpus)
    _write_json(cfg.stamp({"command": "ingest", "stats": stats.to_dict()}), cfg.out / "stats.json")
    print(
        f"ingested {stats.num_docs} documents, {stats.num_event_types} event types, "
        f"{stats.num_arg_types} argument types, {stats.arg_instances} argument instances"
    )


def cmd_split(cfg: RunConfig) -> None:
    cfg.check("set for this command", lambda path: path is not None, "corpus", "split_spec")
    corpus = parse_corpus(cfg.corpus)
    spec = SplitSpec.from_json(cfg.split_spec, cfg.split)
    split = compute_split(corpus, spec)
    split = SplitCorpus(**{name: filter_rare_types(pool, cfg.min_count) for name, pool in split.pools().items()})
    masked, report = apply_leakage_mask(split, spec)
    pool_stats = {}
    for name, pool in masked.pools().items():
        write_corpus(pool, cfg.out / f"{name}.jsonl")
        pool_stats[name] = corpus_stats(pool).to_dict()
    _write_json(cfg.stamp({"command": "split", "removed_per_role": report}), cfg.out / "masking_report.json")
    _write_json(
        cfg.stamp({"command": "split", "split": spec.name, "pool_stats": pool_stats, "spec": spec.to_dict()}),
        cfg.out / "split_meta.json",
    )
    removed = sum(report.values())
    print(
        f"split {spec.name}: "
        + ", ".join(f"{name} {stats['num_docs']} docs" for name, stats in pool_stats.items())
        + f"; masked {removed} spans across {len(report)} roles"
    )


def cmd_sample(cfg: RunConfig) -> None:
    stats_payload = {}
    for name in POOL_NAMES:
        count = cfg.episode_counts.get(name, 0)
        if count < 1:
            continue
        pool = parse_corpus(cfg.out / f"{name}.jsonl")
        episodes = generate_episode_set(pool, cfg.sampler, count, balance=cfg.balance, label=name)
        write_episodes(episodes, cfg.out / f"episodes_{name}.jsonl")
        _write_json(
            cfg.stamp({"command": "sample", "pool": name, "count": count}),
            cfg.out / f"episodes_{name}.meta.json",
        )
        stats_payload[name] = episode_stats(episodes).to_dict()
        print(f"sampled {count} {cfg.sampler.setting} episodes from {name}")
    _write_json(cfg.stamp({"command": "sample", "stats": stats_payload}), cfg.out / "episode_stats.json")


def cmd_train(cfg: RunConfig) -> None:
    if cfg.embedding_source != "toy":
        raise ValueError("training requires embedding_source='toy'; external embeddings are frozen")
    if cfg.head.name == "baseline_no_finetune":
        raise ValueError("the no-finetune baseline has nothing to train; use `eval` directly")
    split = SplitCorpus(
        train=parse_corpus(cfg.out / "train.jsonl"),
        dev=parse_corpus(cfg.out / "dev.jsonl"),
        test=Corpus(()),
    )
    ckpt = train(
        split,
        cfg.sampler,
        cfg.train,
        cfg.head,
        cfg.encoder,
        log_path=cfg.out / "train_log.jsonl",
    )
    save_checkpoint(ckpt, cfg.out / "checkpoint.fdck")
    best = f"best dev macro-F1 {ckpt.best_f1:.2f}" if ckpt.history else "no dev validation ran"
    print(f"trained {cfg.head.name} for {ckpt.episode} episodes; {best}")


def _eval_model(cfg: RunConfig):
    """Parameters (the named checkpoint, which must exist, else out_dir's if present, else a seeded init) and the
    embedding file, if any. Callers encode with ``params.encoder.config``: a checkpoint keeps the encoder
    config it was trained with.
    """
    provider = None if cfg.embedding_source == "toy" else load_external_embeddings(cfg.embedding_source)
    ckpt_path = Path(cfg.checkpoint or cfg.out / "checkpoint.fdck")
    if cfg.head.name != "baseline_no_finetune" and (cfg.checkpoint or ckpt_path.exists()):
        return load_checkpoint(ckpt_path).params, provider
    encoder_cfg = cfg.encoder if provider is None else replace(cfg.encoder, d_model=provider.d_model)
    return initialize_params(encoder_cfg, cfg.head, substream(cfg.seed, "init")), provider


def cmd_eval(cfg: RunConfig) -> None:
    episodes = read_episodes(cfg.out / "episodes_test.jsonl")
    params, provider = _eval_model(cfg)
    report = evaluate_episodes(episodes, params, cfg.head, params.encoder.config, provider=provider, seed=cfg.seed)
    payload = report_json(
        report,
        setting=cfg.sampler.setting,
        split=cfg.split or "custom",
        model=cfg.head.name,
        seed=cfg.seed,
        config=cfg.to_dict(),
    )
    out_path = cfg.out / f"report_{cfg.head.name}_{cfg.sampler.setting}.json"
    _write_json(payload, out_path)
    print(
        f"{cfg.head.name} on {len(episodes)} {cfg.sampler.setting} episodes: "
        f"P {report.macro_precision:.2f} R {report.macro_recall:.2f} F1 {report.macro_f1:.2f} "
        f"(token FP {report.token_fp_rate:.2f}%, FN {report.token_fn_rate:.2f}%)"
    )


def cmd_report(cfg: RunConfig) -> None:
    rows: dict[str, dict[str, tuple[float, float, float]]] = {}
    paths = sorted(cfg.out.glob("report_*.json"))
    if not paths:
        raise ValueError(f"no report_*.json files under {cfg.out}")
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        macro = data["macro"]
        rows.setdefault(data["setting"], {})[data["model"]] = (macro["p"], macro["r"], macro["f1"])
    table = render_results_table({k: rows[k] for k in sorted(rows)})
    with atomic_write(cfg.out / "report.txt") as handle:
        handle.write(table)
    print(table, end="")


def cmd_export_embeddings(cfg: RunConfig) -> None:
    cfg.check("set for this command", lambda path: path is not None, "corpus")
    corpus = parse_corpus(cfg.corpus)
    params, _ = _eval_model(replace(cfg, embedding_source="toy"))  # exports the toy encoder's rows
    chunk_length = params.encoder.config.chunk_length
    matrices = (embed_tokens(params.encoder, doc, chunk_document(len(doc.tokens), chunk_length)) for doc in corpus)
    out_path = cfg.out / "embeddings.fdae"
    write_external_embeddings(matrices, out_path)
    _write_json(cfg.stamp({"command": "export-embeddings", "docs": len(corpus)}), cfg.out / "embeddings.meta.json")
    print(f"wrote {len(corpus)} embedding matrices to {out_path}")


def cmd_export_prototypes(cfg: RunConfig) -> None:
    episodes = read_episodes(cfg.out / "episodes_test.jsonl")[: cfg.export_episodes]
    params, provider = _eval_model(cfg)
    protosets = prototype_sets(episodes, params, cfg.head, params.encoder.config, provider=provider, seed=cfg.seed)
    out_path = cfg.out / "prototypes.csv"
    write_prototypes_csv(protosets, out_path)
    _write_json(
        cfg.stamp({"command": "export-prototypes", "episodes": len(protosets)}),
        cfg.out / "prototypes.meta.json",
    )
    print(f"wrote prototypes for {len(protosets)} episodes to {out_path}")


_COMMANDS = {
    "ingest": cmd_ingest,
    "split": cmd_split,
    "sample": cmd_sample,
    "train": cmd_train,
    "eval": cmd_eval,
    "report": cmd_report,
    "export-embeddings": cmd_export_embeddings,
    "export-prototypes": cmd_export_prototypes,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="epiarg",
        description="Episodic few-shot tagging for document-level event arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n-ways", type=int, default=None, dest="n_ways")
        p.add_argument("--d-docs", type=int, default=None, dest="d_docs")
        p.add_argument("--head", type=str, default=None, choices=HEAD_NAMES)
        p.add_argument("--split", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--episodes", type=int, default=None)
    return parser.parse_args(argv)


def _fail(code: int, kind: str, exc: BaseException) -> int:
    message = " ".join(str(exc).split())
    print(f"error code={code} kind={kind}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args)
        _COMMANDS[args.command](cfg)
        return 0
    except InfeasibleSamplingError as exc:
        return _fail(3, "infeasible-sampling", exc)
    except NumericalError as exc:
        return _fail(4, "numerical-failure", exc)
    except EmptyClassError as exc:  # a ValueError, so it must be caught before the config errors
        return _fail(5, "data", exc)
    except (
        CorpusFormatError,
        SplitSpecError,
        EmbeddingFormatError,
        FileNotFoundError,
        json.JSONDecodeError,
        KeyError,
        ValueError,
    ) as exc:
        return _fail(2, "config", exc)


if __name__ == "__main__":
    sys.exit(main())

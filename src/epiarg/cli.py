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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .corpus import (
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
from .encoder import (
    EmbeddingFormatError,
    EncoderConfig,
    chunk_document,
    embed_tokens,
    load_external_embeddings,
    write_external_embeddings,
)
from .evaluation import render_results_table, report_json, write_report
from .heads import EmptyClassError, HeadConfig, write_prototypes_csv
from .inference import evaluate_episodes, prototype_sets
from .sampler import (
    InfeasibleSamplingError,
    SamplerConfig,
    episode_stats,
    generate_episode_set,
    read_episodes,
    write_episodes,
)
from .seeds import substream
from .trainer import (
    NumericalError,
    TrainConfig,
    initialize_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

_POOLS = ("train", "dev", "test")


def _int_field(data: dict, name: str, default: int) -> int:
    value = data.get(name, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"config field {name!r} must be an integer, got {value!r}") from None


def _str_field(data: dict, name: str, default: str | None) -> str | None:
    """A string, or ``null`` where the default is ``None``."""
    value = data.get(name, default)
    if not (isinstance(value, str) or (value is None and default is None)):
        raise ValueError(f"config field {name!r} must be a string, got {value!r}")
    return value


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object, got {value!r}")
    return dict(value)


def _bool_field(data: dict, name: str, default: bool) -> bool:
    value = data.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(f"config field {name!r} must be true or false, got {value!r}")
    return value


@dataclass
class RunConfig:
    corpus: str | None = None
    split_spec: str | None = None
    split: str | None = None
    out_dir: str = "out"
    seed: int = 0
    min_count: int = 2
    balance: bool = True
    embedding_source: str = "toy"
    checkpoint: str | None = None
    episode_counts: dict = field(default_factory=lambda: {"train": 2000, "dev": 200, "test": 200})
    export_episodes: int = 50
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(n_ways=3, d_docs=1))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(episodes=2000, validate_every=500))
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    head: HeadConfig = field(default_factory=HeadConfig)

    @classmethod
    def load(cls, path: str | Path | None, overrides: argparse.Namespace) -> "RunConfig":
        data = {}
        if path is not None:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        defaults = cls()
        cfg = cls(
            corpus=_str_field(data, "corpus", defaults.corpus),
            split_spec=_str_field(data, "split_spec", defaults.split_spec),
            split=_str_field(data, "split", defaults.split),
            out_dir=_str_field(data, "out_dir", defaults.out_dir),
            seed=_int_field(data, "seed", defaults.seed),
            min_count=_int_field(data, "min_count", defaults.min_count),
            balance=_bool_field(data, "balance", defaults.balance),
            embedding_source=_str_field(data, "embedding_source", defaults.embedding_source),
            checkpoint=_str_field(data, "checkpoint", defaults.checkpoint),
            episode_counts={**defaults.episode_counts, **_section(data, "episode_counts")},
            export_episodes=_int_field(data, "export_episodes", defaults.export_episodes),
        )
        sampler_data = _section(data, "sampler")
        train_data = _section(data, "train")
        if overrides.seed is not None:
            cfg.seed = overrides.seed
        if overrides.n_ways is not None:
            sampler_data["n_ways"] = overrides.n_ways
        if overrides.d_docs is not None:
            sampler_data["d_docs"] = overrides.d_docs
        if overrides.episodes is not None:
            cfg.episode_counts["train"] = overrides.episodes
            train_data["episodes"] = overrides.episodes
        if overrides.split is not None:
            cfg.split = overrides.split
        if overrides.out is not None:
            cfg.out_dir = overrides.out
        # the run seed is the single entropy source for every stage
        sampler_data["seed"] = cfg.seed
        train_data["seed"] = cfg.seed
        cfg.sampler = SamplerConfig.from_dict({**defaults.sampler.to_dict(), **sampler_data})
        cfg.train = TrainConfig.from_dict({**defaults.train.to_dict(), **train_data})
        cfg.encoder = EncoderConfig.from_dict(_section(data, "encoder"))
        head_data = _section(data, "head")
        if overrides.head is not None:
            head_data["name"] = overrides.head
        cfg.head = HeadConfig.from_dict(head_data)
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    def stamp(self, payload: dict) -> dict:
        payload["config"] = self.to_dict()
        payload["seed"] = self.seed
        return payload


def _require(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_ingest(cfg: RunConfig) -> None:
    corpus = parse_corpus(_require(cfg.corpus, "config field 'corpus' is required"))
    stats = corpus_stats(corpus)
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.stamp({"command": "ingest", "stats": stats.to_dict()}), cfg.out / "stats.json")
    print(
        f"ingested {stats.num_docs} documents, {stats.num_event_types} event types, "
        f"{stats.num_arg_types} argument types, {stats.arg_instances} argument instances"
    )


def cmd_split(cfg: RunConfig) -> None:
    corpus = parse_corpus(_require(cfg.corpus, "config field 'corpus' is required"))
    spec_path = _require(cfg.split_spec, "config field 'split_spec' is required for this command")
    spec = SplitSpec.from_json(spec_path, cfg.split)
    split = compute_split(corpus, spec)
    split = SplitCorpus(
        train=filter_rare_types(split.train, cfg.min_count),
        dev=filter_rare_types(split.dev, cfg.min_count),
        test=filter_rare_types(split.test, cfg.min_count),
    )
    masked, report = apply_leakage_mask(split, spec)
    cfg.out.mkdir(parents=True, exist_ok=True)
    pools = masked.pools()
    pool_stats = {}
    for name in _POOLS:
        write_corpus(pools[name], cfg.out / f"{name}.jsonl")
        pool_stats[name] = corpus_stats(pools[name]).to_dict()
    _write_json(cfg.stamp({"command": "split", "removed_per_role": report}), cfg.out / "masking_report.json")
    _write_json(
        cfg.stamp({"command": "split", "split": spec.name, "pool_stats": pool_stats, "spec": spec.to_dict()}),
        cfg.out / "split_meta.json",
    )
    removed = sum(report.values())
    print(
        f"split {spec.name}: "
        + ", ".join(f"{name} {pool_stats[name]['num_docs']} docs" for name in _POOLS)
        + f"; masked {removed} spans across {len(report)} roles"
    )


def cmd_sample(cfg: RunConfig) -> None:
    cfg.out.mkdir(parents=True, exist_ok=True)
    stats_payload = {}
    for name in _POOLS:
        count = int(cfg.episode_counts.get(name, 0))
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


def _eval_params(cfg: RunConfig, provider_dim: int | None):
    """Parameters for evaluation: checkpoint when available, otherwise seeded init."""
    ckpt_path = Path(cfg.checkpoint) if cfg.checkpoint else cfg.out / "checkpoint.fdck"
    if cfg.head.name != "baseline_no_finetune" and ckpt_path.exists():
        return load_checkpoint(ckpt_path).params
    encoder_cfg = cfg.encoder
    if provider_dim is not None and provider_dim != encoder_cfg.d_model:
        encoder_cfg = replace(encoder_cfg, d_model=provider_dim)
    return initialize_params(encoder_cfg, cfg.head, substream(cfg.seed, "init"))


def cmd_eval(cfg: RunConfig) -> None:
    episodes = read_episodes(cfg.out / "episodes_test.jsonl")
    provider = None
    if cfg.embedding_source != "toy":
        provider = load_external_embeddings(cfg.embedding_source)
    params = _eval_params(cfg, provider.d_model if provider else None)
    report = evaluate_episodes(episodes, params, cfg.head, cfg.encoder, provider=provider, seed=cfg.seed)
    payload = report_json(
        report,
        setting=cfg.sampler.setting,
        split=cfg.split or "custom",
        model=cfg.head.name,
        seed=cfg.seed,
        config=cfg.to_dict(),
    )
    out_path = cfg.out / f"report_{cfg.head.name}_{cfg.sampler.setting}.json"
    write_report(payload, out_path)
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
    (cfg.out / "report.txt").write_text(table, encoding="utf-8")
    print(table, end="")


def cmd_export_embeddings(cfg: RunConfig) -> None:
    corpus = parse_corpus(_require(cfg.corpus, "config field 'corpus' is required"))
    params = _eval_params(cfg, None)
    matrices = []
    for doc in corpus:
        plan = chunk_document(len(doc.tokens), cfg.encoder.chunk_length)
        matrices.append(embed_tokens(params.encoder, doc, plan))
    cfg.out.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out / "embeddings.fdae"
    write_external_embeddings(matrices, out_path)
    _write_json(cfg.stamp({"command": "export-embeddings", "docs": len(matrices)}), cfg.out / "embeddings.meta.json")
    print(f"wrote {len(matrices)} embedding matrices to {out_path}")


def cmd_export_prototypes(cfg: RunConfig) -> None:
    episodes = read_episodes(cfg.out / "episodes_test.jsonl")[: cfg.export_episodes]
    provider = None
    if cfg.embedding_source != "toy":
        provider = load_external_embeddings(cfg.embedding_source)
    params = _eval_params(cfg, provider.d_model if provider else None)
    protosets = prototype_sets(episodes, params, cfg.head, cfg.encoder, provider=provider, seed=cfg.seed)
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
        p.add_argument("--head", type=str, default=None,
                       choices=["baseline_no_finetune", "protonet", "nnshot", "mnav"])
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

"""The command-line workflow, end to end, on generated data.

Writes a corpus, a split spec, and a run config, then drives every CLI
command the way a shell user would: ingest, split, sample, train, eval
(trained head and baseline), report, and the two exports.
"""

import json
import tempfile
from pathlib import Path

from epiarg.cli import main
from epiarg.corpus import write_corpus
from epiarg.synthetic import separable_corpus

with tempfile.TemporaryDirectory(prefix="epiarg_demo_") as tmp:
    workdir = Path(tmp)
    corpus, spec = separable_corpus(21, n_event_types=5, docs_per_event=24)
    write_corpus(corpus, workdir / "corpus.jsonl")
    (workdir / "splits.json").write_text(json.dumps(spec.to_dict(), indent=2))

    config = {
        "corpus": str(workdir / "corpus.jsonl"),
        "split_spec": str(workdir / "splits.json"),
        "out_dir": str(workdir / "out"),
        "seed": 2024,
        "min_count": 1,
        "episode_counts": {"train": 200, "dev": 100, "test": 100},
        "sampler": {"n_ways": 3, "d_docs": 1},
        "train": {
            "episodes": 800,
            "learning_rate": 3e-3,
            "validate_every": 200,
            "batch_size": 2,
            "dev_episodes": 80,
        },
        "encoder": {"d_emb": 32, "d_model": 32, "radius": 1, "n_buckets": 2048, "chunk_length": 256},
        "head": {"name": "protonet"},
        "export_episodes": 10,
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"workspace: {workdir}\n")

    for argv in (
        ["ingest", "--config", str(config_path)],
        ["split", "--config", str(config_path)],
        ["sample", "--config", str(config_path)],
        ["train", "--config", str(config_path)],
        ["eval", "--config", str(config_path)],
        ["eval", "--config", str(config_path), "--head", "baseline_no_finetune"],
        ["report", "--config", str(config_path)],
        ["export-embeddings", "--config", str(config_path)],
        ["export-prototypes", "--config", str(config_path)],
    ):
        print(f"$ epiarg {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            raise SystemExit(f"exit code {code}")
        print()

    print("artifacts:")
    for path in sorted((workdir / "out").iterdir()):
        print(f"  {path.name} ({path.stat().st_size} bytes)")

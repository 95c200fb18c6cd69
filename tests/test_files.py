"""The file layer: every artifact writer replaces its target whole or not at all, and only
``epiarg.files`` writes files."""

from __future__ import annotations

import ast
import builtins
import errno
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import epiarg
from epiarg import cli
from epiarg.corpus import compute_split, write_corpus
from epiarg.encoder import EmbeddingMatrix, EncoderConfig
from epiarg.formats import save_checkpoint, write_external_embeddings
from epiarg.heads import HeadConfig, write_prototypes_csv
from epiarg.inference import prototype_sets
from epiarg.sampler import SamplerConfig, generate_episode_set, write_episodes
from epiarg.synthetic import separable_corpus
from epiarg.trainer import TrainConfig, train

SAMPLER = SamplerConfig(n_ways=3, d_docs=1, seed=1)
TRAIN = TrainConfig(episodes=2, learning_rate=0.02, validate_every=2, seed=1, dev_episodes=2)
ENCODER = EncoderConfig(d_emb=4, d_model=4, radius=1, n_buckets=16, chunk_length=32)


@pytest.fixture(scope="module")
def inputs():
    corpus, spec = separable_corpus(1, n_event_types=4, docs_per_event=8)
    split = compute_split(corpus, spec)
    episodes = generate_episode_set(split.dev, SAMPLER, 3, label="dev")
    ckpt = train(split, SAMPLER, TRAIN, HeadConfig("protonet"), ENCODER)
    protosets = prototype_sets(episodes.episodes, ckpt.params, HeadConfig("protonet"), ENCODER)
    matrices = [EmbeddingMatrix(f"doc{i}", np.full((i + 1, 4), float(i))) for i in range(3)]
    return split, episodes, ckpt, protosets, matrices


def write_report_txt(out: Path) -> None:
    report = {"setting": "3w1d", "model": "protonet", "macro": {"p": 1.0, "r": 0.5, "f1": 0.6}}
    (out / "report_protonet_3w1d.json").write_text(json.dumps(report))
    cli.cmd_report(cli.RunConfig(out_dir=str(out)))


# Each artifact writer: the files it writes, and a call that writes them into a directory.
WRITERS = {
    "corpus": (["train.jsonl"], lambda d, i: write_corpus(i[0].train, d / "train.jsonl")),
    "episodes": (["episodes_dev.jsonl"], lambda d, i: write_episodes(i[1], d / "episodes_dev.jsonl")),
    "prototypes_csv": (["prototypes.csv"], lambda d, i: write_prototypes_csv(i[3], d / "prototypes.csv")),
    "cli_json": (["stats.json"], lambda d, i: cli._write_json({"command": "ingest"}, d / "stats.json")),
    "report_txt": (["report.txt"], lambda d, i: write_report_txt(d)),
    "train_log": (
        ["train_log.jsonl"],
        lambda d, i: train(i[0], SAMPLER, TRAIN, HeadConfig("protonet"), ENCODER, log_path=d / "train_log.jsonl"),
    ),
    "checkpoint": (["checkpoint.fdck"], lambda d, i: save_checkpoint(i[2], d / "checkpoint.fdck")),
    "embeddings": (
        ["embeddings.fdae"],
        lambda d, i: write_external_embeddings(i[4], d / "embeddings.fdae"),
    ),
}


class _FailingHandle:
    """A write handle whose first write lands and then fails, as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data)
        raise OSError(errno.ENOSPC, "injected failure after the write started")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_previous_artifact(inputs, tmp_path, monkeypatch, writer):
    """A writer that fails after its first write leaves each target's previous bytes and no temporary
    file; run again, it replaces them whole."""
    names, write = WRITERS[writer]
    previous = {name: f"previous {name}\n".encode() for name in names}
    for name, data in previous.items():
        (tmp_path / name).write_bytes(data)
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        """Fails writes to a target or to a temporary file named after one."""
        handle = real_open(file, mode, *args, **kwargs)
        aimed = set(mode) & set("wax+") and any(name in Path(file).name for name in names)
        return _FailingHandle(handle) if aimed else handle

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", failing_open)
        patch.setattr(io, "open", failing_open)  # the opener of pathlib's write_text and write_bytes
        with pytest.raises(OSError, match="injected failure"):
            write(tmp_path, inputs)
    assert not list(tmp_path.glob(".*.tmp"))
    assert {name: (tmp_path / name).read_bytes() for name in names} == previous

    write(tmp_path, inputs)
    assert not list(tmp_path.glob(".*.tmp"))
    assert all(b"previous" not in (tmp_path / name).read_bytes() for name in names)


_MODE = re.compile(r"[rwxabt+]{1,3}")


def file_writes(source: str) -> list[str]:
    """Each place in ``source`` that opens a file for writing, writes one through pathlib, calls
    ``os.replace`` or ``os.rename``, or names a temporary file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".tmp" in node.value:
            found.append(f"line {node.lineno}: temporary file name")
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append(f"line {node.lineno}: {name}")
        elif name in ("replace", "rename") and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            found.append(f"line {node.lineno}: os.{name}")
        elif name == "open":
            modes = [a.value for a in node.args + [k.value for k in node.keywords if k.arg == "mode"]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str) and _MODE.fullmatch(a.value)]
            if any(set(mode) & set("wax+") for mode in modes):
                found.append(f"line {node.lineno}: open for writing")
    return found


def test_only_the_file_layer_writes_files():
    package = Path(epiarg.__file__).parent
    writes = {p.name: file_writes(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    assert {name: w for name, w in writes.items() if w and name != "files.py"} == {}
    # The scan sees the writes the file layer itself makes.
    assert {w.split(": ")[1] for w in writes["files.py"]} == {"temporary file name", "os.replace"}
    assert len(file_writes('open(p, "wb")\nopen(p, mode="a")\np.write_text("x")\nos.rename(a, b)')) == 4
    assert file_writes('open(p, "rb")\nopen(p)\nopen(p, "r", encoding="utf-8")\ns.replace("a", "b")') == []

"""Trained bytes do not depend on the BLAS thread count.

Two child processes train one small doc-scale config, NNShot and then ProtoNet, one with one BLAS
thread and one with two. Each reports its ``train_log.jsonl`` bytes and a hash of the trained f64
arrays (the f32 checkpoint would hide drift that a short run has not yet grown), and the thread
count its BLAS library actually runs with, so two single-threaded runs cannot pass the test.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epiarg
from epiarg.corpus import ArgumentSpan, Corpus, Document, SplitSpec, compute_split
from epiarg.encoder import EncoderConfig
from epiarg.heads import HeadConfig
from epiarg.sampler import SamplerConfig
from epiarg.trainer import TrainConfig, train

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def long_document_split():
    """Five event types of eight documents of 780 to 820 tokens; each document holds one span of each
    of its event's three roles, with the role's marker token inside."""
    rng = np.random.default_rng(0)
    docs = []
    for e in range(5):
        for d in range(8):
            length = int(rng.integers(780, 821))
            tokens = [f"w{int(i)}" for i in rng.integers(400, size=length)]
            spans = []
            for j in range(3):
                start = 20 + j * (length // 3) + int(rng.integers(length // 3 - 40))
                tokens[start + 1] = f"m{j}"
                spans.append(ArgumentSpan(start, start + 3, f"event_{e}_role{j}"))
            docs.append(Document(f"event_{e}_doc{d}", "", f"event_{e}", tuple(tokens), tuple(spans)))
    spec = SplitSpec("custom", ("event_0", "event_1", "event_2"), ("event_3",), ("event_4",), frequent_roles=())
    return compute_split(Corpus(tuple(docs)), spec)


def blas_threads() -> int | None:
    """The thread count of the OpenBLAS library this process has loaded, or None if none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
        for path in paths:
            lib = ctypes.CDLL(path)
            for symbol in GET_THREADS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    except OSError:  # no /proc, or a library that cannot be opened
        pass
    return None


def trained_bytes(workdir: str) -> dict:
    """What the child reports: its BLAS thread count, and per head the log and the f64 parameter hash."""
    split = long_document_split()
    sampler_cfg = SamplerConfig(n_ways=3, d_docs=2, seed=1)
    train_cfg = TrainConfig(episodes=8, learning_rate=1e-2, validate_every=8, seed=1, batch_size=2, dev_episodes=2)
    out: dict = {"blas_threads": blas_threads()}
    for head in ("nnshot", "protonet"):
        log_path = Path(workdir) / f"train_log_{head}.jsonl"
        ckpt = train(split, sampler_cfg, train_cfg, HeadConfig(head), EncoderConfig(), log_path=log_path)
        digest = hashlib.sha256()
        for name, arr in ckpt.params.arrays().items():
            digest.update(name.encode("utf-8") + arr.tobytes())
        out[head] = {"log": log_path.read_text(encoding="utf-8"), "params": digest.hexdigest()}
    return out


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(_usable_cpus() < 2, reason="one usable CPU: a second BLAS thread would not run alongside")
def test_trained_bytes_do_not_depend_on_blas_threads(tmp_path):
    paths = [str(Path(epiarg.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    reports = []
    for threads in (1, 2):
        workdir = tmp_path / f"threads_{threads}"
        workdir.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
        env.update({name: str(threads) for name in THREAD_VARIABLES})
        child = "import json, sys, test_blas_threads as t; print(json.dumps(t.trained_bytes(sys.argv[1])))"
        done = subprocess.run(
            [sys.executable, "-c", child, str(workdir)], env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        reports.append(json.loads(done.stdout.splitlines()[-1]))
    assert [report.pop("blas_threads") for report in reports] == [1, 2], "the children's BLAS thread counts"
    for head in ("nnshot", "protonet"):
        assert reports[0][head]["log"] == reports[1][head]["log"], f"{head}: train_log.jsonl"
        assert reports[0][head]["params"] == reports[1][head]["params"], f"{head}: trained f64 parameters"

"""Every demo script runs to completion; the demos that print only seeded data print pinned bytes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of the standard output of the demos that print no paths and no timings: they pin the
# seeded corpora and the episode sampler end to end.
STDOUT_SHA256 = {
    "01_corpus_splits_and_masking": "e0ff26346c786797fd347fb850a1924f14b65753a37c91c1d0e2b3a0f1b4a1e7",
    "02_episode_sampling": "374fcc7b41c3854b439417aa5d83932c18d6baef7e2df3ae2a2027877f067ef7",
}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:]
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], result.stdout
    assert not list(tmp_path.glob("epiarg_demo_*")), "the demo left its working directory behind"

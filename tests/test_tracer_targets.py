"""The benchmark's tracer targets resolve, apart from a pinned list of known gaps.

``perfbench/tracing.py`` wraps package functions at their module attributes and skips a target
whose attribute is gone, so renaming a traced function would silently drop a per-layer metric.
This test fails on any change to the set of targets that resolve to nothing.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

UNRESOLVED = {
    ("epiarg.trainer", "window_means"): "training encodes through encode_docs; the epiarg.encoder target times it",
    ("epiarg.trainer", "sample_episode"): "training samples through generate_episode_set, which is traced",
    ("epiarg.trainer", "kmeans_nota"): "MNAV training calls heads.build_mnav_prototypes; the epiarg.heads target times it",
    ("epiarg.inference", "labels_to_strings"): "scoring decodes the heads' integer labels; there are no role strings",
}


def unresolved_targets() -> set[tuple[str, str]]:
    missing = set()
    for target in tracing.TARGETS:
        module_path, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_path)
        if class_name:
            owner = getattr(owner, class_name)
        if target.attr not in vars(owner):
            missing.add((target.owner, target.attr))
    return missing


def test_unresolved_targets_are_the_pinned_ones():
    assert unresolved_targets() == set(UNRESOLVED)

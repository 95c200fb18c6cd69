"""Per-layer tracing from outside the package.

Every ``epiarg`` module calls its collaborators through module globals (and
methods through their class), so replacing those attributes with a timing
wrapper records a span around every call made by ``train()``,
``evaluate_episodes()`` and ``cli.main()`` without editing the package. A
target whose attribute a later change removes is skipped, and the metrics
that depend on it are reported absent.

A span's self time is its duration minus the durations of its direct
children. Bookkeeping done by the wrappers (counting tokens, unique rows)
is excluded from every span by shifting the tracer's clock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_MB = 1024.0 * 1024.0
# tracemalloc slows every Python allocation, so peak memory is measured on
# the first calls of a layer in each round only.
PEAK_CALLS = 16


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    head: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, names: set[str]) -> bool:
        node = self.parent
        while node is not None:
            if node.name in names:
                return True
            node = node.parent
        return False


@dataclass
class Target:
    """One attribute to wrap: ``owner`` is a module path or ``module:Class``."""

    owner: str
    attr: str
    span: str | Callable[[tuple], str]
    after: Callable | None = None
    peak: bool = False


class _PeakMemory:
    """Peak bytes allocated inside (possibly nested) spans, via tracemalloc."""

    def __init__(self):
        self.open: list[list[int]] = []  # [base, highest] per open span

    def enter(self) -> None:
        if not self.open:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for entry in self.open:
            entry[1] = max(entry[1], peak)
        tracemalloc.reset_peak()
        self.open.append([current, current])

    def leave(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        for entry in self.open:
            entry[1] = max(entry[1], peak)
        base, highest = self.open.pop()
        if not self.open:
            tracemalloc.stop()
        return (highest - base) / _MB


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    peaks: dict[str, float] = field(default_factory=dict)
    rows_per_step: list[int] = field(default_factory=list)
    pending_rows: list[np.ndarray] = field(default_factory=list)
    embedded: set = field(default_factory=set)
    installed: set[str] = field(default_factory=set)
    excluded: float = 0.0
    _stack: list[Span] = field(default_factory=list)
    _memory: _PeakMemory = field(default_factory=_PeakMemory)

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    @contextlib.contextmanager
    def bookkeeping(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        self.rows_per_step.clear()
        self.pending_rows.clear()
        self.embedded.clear()

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.span(args) if callable(target.span) else target.span
            span = Span(name, tracer._stack[-1] if tracer._stack else None, 0.0)
            peak = target.peak and tracer.counts[name + ".calls"] < PEAK_CALLS
            if peak:
                tracer._memory.enter()
            tracer._stack.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)
                tracer.counts[name + ".calls"] += 1
                if peak:
                    mb = tracer._memory.leave()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0.0), mb)
            if target.after is not None:
                with tracer.bookkeeping():
                    target.after(tracer, span, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed_on(self, targets: list[Target]):
        """Wrap every target that exists; restore the originals on exit."""
        undo = []
        try:
            for target in targets:
                module_path, _, class_name = target.owner.partition(":")
                try:
                    owner = importlib.import_module(module_path)
                    if class_name:
                        owner = getattr(owner, class_name)
                    original = owner.__dict__[target.attr]
                except (ImportError, AttributeError, KeyError):
                    continue
                setattr(owner, target.attr, self.wrap(original, target))
                undo.append((owner, target.attr, original))
                if isinstance(target.span, str):
                    self.installed.add(target.span)
                else:
                    self.installed.add(target.owner + "." + target.attr)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# Hooks: bookkeeping run after a wrapped call, excluded from span time ---------------

def _head_of(tracer, span, args, kwargs, result):
    head_cfg = args[2] if len(args) > 2 else kwargs.get("head_cfg")
    span.head = getattr(head_cfg, "name", None)


def _episode_rows(tracer, span, args, kwargs, result):
    tracer.pending_rows.extend(result.support_buckets)
    tracer.pending_rows.extend(result.query_buckets)


def _step_rows(tracer, span, args, kwargs, result):
    if tracer.pending_rows:
        tracer.rows_per_step.append(int(np.unique(np.concatenate(tracer.pending_rows)).size))
    tracer.pending_rows.clear()


def _bucket_stats(tracer, span, args, kwargs, result):
    params, tokens = args[0], args[1]
    vocab_rows = len(params.vocab)
    oov = np.fromiter((t not in params.vocab for t in tokens), dtype=bool, count=len(tokens))
    tracer.counts["encoder.bucket_indices.tokens"] += len(tokens)
    tracer.counts["encoder.oov_tokens"] += int(oov.sum())
    tracer.counts["encoder.oov_vocab_collisions"] += int((oov & (result < vocab_rows)).sum())


def _embedded_doc(tracer, span, args, kwargs, result):
    scope = span.parent
    while scope is not None and scope.name != "inference.evaluate_episodes":
        scope = scope.parent
    tracer.embedded.add((id(scope), args[1].doc_id))


def _kmeans_iters(tracer, span, args, kwargs, result):
    tracer.counts["heads.kmeans_nota.iters"] += result.n_iter


def _episode_count(tracer, span, args, kwargs, result):
    tracer.counts["sampler.generate_episode_set.episodes"] += len(result)


def _cli_span(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def _targets() -> list[Target]:
    t = Target
    targets = [
        t("epiarg.trainer", "train", "trainer.train"),
        t("epiarg.cli", "train", "trainer.train"),
        t("epiarg.trainer", "forward_backward", "trainer.forward_backward", _head_of, peak=True),
        t("epiarg.trainer", "step", "trainer.step", _step_rows),
        t("epiarg.trainer", "apply_update", "trainer.apply_update"),
        t("epiarg.trainer", "clip_global_norm", "trainer.clip_global_norm"),
        t("epiarg.trainer:Gradients", "zero_", "trainer.grad_zero_scale"),
        t("epiarg.trainer:Gradients", "scale_", "trainer.grad_zero_scale"),
        t("epiarg.trainer", "episode_tensors", "trainer.episode_tensors", _episode_rows),
        t("epiarg.cli", "save_checkpoint", "trainer.save_checkpoint"),
        t("epiarg.cli", "load_checkpoint", "trainer.load_checkpoint"),
        t("epiarg.trainer", "window_means", "encoder.window_means"),
        t("epiarg.encoder", "window_means", "encoder.window_means"),
        t("epiarg.trainer", "window_means_backward", "encoder.window_means_backward"),
        t("epiarg.inference", "embed_tokens", "encoder.embed_tokens", _embedded_doc),
        t("epiarg.cli", "embed_tokens", "encoder.embed_tokens", _embedded_doc),
        t("epiarg.encoder:ToyEncoderParams", "bucket_indices", "encoder.bucket_indices", _bucket_stats),
        t("epiarg.trainer", "io_labels", "heads.io_labels"),
        t("epiarg.inference", "io_labels", "heads.io_labels"),
        t("epiarg.trainer", "kmeans_nota", "heads.kmeans_nota", _kmeans_iters),
        t("epiarg.heads", "kmeans_nota", "heads.kmeans_nota", _kmeans_iters),
        t("epiarg.inference", "compute_prototypes", "heads.compute_prototypes"),
        t("epiarg.heads", "compute_prototypes", "heads.compute_prototypes"),
        t("epiarg.inference", "protonet_classify", "heads.classify"),
        t("epiarg.inference", "mnav_classify", "heads.classify"),
        t("epiarg.inference", "nnshot_classify", "heads.nnshot_classify"),
        t("epiarg.inference", "evaluate_episodes", "inference.evaluate_episodes"),
        t("epiarg.cli", "evaluate_episodes", "inference.evaluate_episodes"),
        t("epiarg.inference", "run_episode", "inference.run_episode", peak=True),
        t("epiarg.sampler", "generate_episode_set", "sampler.generate_episode_set", _episode_count),
        t("epiarg.trainer", "generate_episode_set", "sampler.generate_episode_set", _episode_count),
        t("epiarg.cli", "generate_episode_set", "sampler.generate_episode_set", _episode_count),
        t("epiarg.sampler", "sample_episode", "sampler.sample_episode"),
        t("epiarg.trainer", "sample_episode", "sampler.sample_episode"),
        t("epiarg.cli", "write_episodes", "sampler.write_episodes"),
        t("epiarg.cli", "read_episodes", "sampler.read_episodes"),
        t("epiarg.cli", "write_external_embeddings", "encoder.write_embeddings"),
        t("epiarg.cli", "write_prototypes_csv", "heads.write_prototypes"),
        t("epiarg.cli", "parse_corpus", "corpus.parse_corpus"),
        t("epiarg.cli", "write_corpus", "corpus.write_corpus"),
        t("epiarg.cli", "compute_split", "corpus.split"),
        t("epiarg.cli", "filter_rare_types", "corpus.split"),
        t("epiarg.cli", "apply_leakage_mask", "corpus.split"),
        t("epiarg.cli", "main", _cli_span),
    ]
    for name in ("labels_to_strings", "decode_spans", "fp_fn_counts", "score_episode", "aggregate"):
        targets.append(t("epiarg.inference", name, "evaluation.scoring"))
    return targets


TARGETS = _targets()

CLI_COMMANDS = (
    "ingest", "split", "sample", "train", "eval", "export-embeddings", "export-prototypes", "report",
)

# Per-layer metrics: name -> (unit, span names it is computed from). -----------------

_S, _N, _MB_UNIT = "s", "count", "MB"
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "trainer.apply_update.self_s": (_S, ("trainer.apply_update",)),
    "trainer.clip_global_norm.s": (_S, ("trainer.clip_global_norm",)),
    "trainer.grad_zero_scale.s": (_S, ("trainer.grad_zero_scale",)),
    "trainer.step.self_s": (_S, ("trainer.step",)),
    "trainer.optimizer_steps": (_N, ("trainer.apply_update",)),
    "trainer.rows_touched_per_step": (_N, ("trainer.episode_tensors", "trainer.step")),
    "trainer.forward_backward.self_s": (_S, ("trainer.forward_backward",)),
    "trainer.forward_backward.peak_mb": (_MB_UNIT, ("trainer.forward_backward",)),
    "trainer.episode_tensors.self_s": (_S, ("trainer.episode_tensors",)),
    "trainer.validation.s": (_S, ("trainer.train", "inference.evaluate_episodes")),
    "trainer.save_checkpoint.s": (_S, ("trainer.save_checkpoint",)),
    "trainer.load_checkpoint.s": (_S, ("trainer.load_checkpoint",)),
    "heads.nnshot_classify.s": (_S, ("heads.nnshot_classify",)),
    "heads.kmeans_nota.s": (_S, ("heads.kmeans_nota",)),
    "heads.kmeans_nota.iters": (_N, ("heads.kmeans_nota",)),
    "heads.compute_prototypes.s": (_S, ("heads.compute_prototypes",)),
    "heads.classify.s": (_S, ("heads.classify",)),
    "heads.io_labels.s": (_S, ("heads.io_labels",)),
    "heads.write_prototypes.s": (_S, ("heads.write_prototypes",)),
    "encoder.embed_tokens.s": (_S, ("encoder.embed_tokens",)),
    "encoder.embed_tokens.calls": (_N, ("encoder.embed_tokens",)),
    "encoder.embed_tokens.unique_docs": (_N, ("encoder.embed_tokens",)),
    "encoder.window_means.s": (_S, ("encoder.window_means",)),
    "encoder.window_means_backward.s": (_S, ("encoder.window_means_backward",)),
    "encoder.write_embeddings.s": (_S, ("encoder.write_embeddings",)),
    "encoder.bucket_indices.s": (_S, ("encoder.bucket_indices",)),
    "encoder.bucket_indices.tokens": (_N, ("encoder.bucket_indices",)),
    "encoder.oov_tokens": (_N, ("encoder.bucket_indices",)),
    "encoder.oov_vocab_collisions": (_N, ("encoder.bucket_indices",)),
    "inference.run_episode.self_s": (_S, ("inference.run_episode",)),
    "inference.run_episode.calls": (_N, ("inference.run_episode",)),
    "inference.run_episode.peak_mb": (_MB_UNIT, ("inference.run_episode",)),
    "evaluation.scoring.s": (_S, ("evaluation.scoring",)),
    "sampler.generate_episode_set.s": (_S, ("sampler.generate_episode_set",)),
    "sampler.generate_episode_set.episodes": (_N, ("sampler.generate_episode_set",)),
    "sampler.sample_episode.s": (_S, ("sampler.sample_episode",)),
    "sampler.sample_episode.calls": (_N, ("sampler.sample_episode",)),
    "sampler.sample_episode.calls_in_cli_train": (_N, ("sampler.sample_episode", "epiarg.cli.main")),
    "sampler.write_episodes.s": (_S, ("sampler.write_episodes",)),
    "sampler.read_episodes.s": (_S, ("sampler.read_episodes",)),
    "corpus.parse_corpus.s": (_S, ("corpus.parse_corpus",)),
    "corpus.write_corpus.s": (_S, ("corpus.write_corpus",)),
    "corpus.split.s": (_S, ("corpus.split",)),
}
for _command in CLI_COMMANDS:
    PER_LAYER[f"cli.{_command}.s"] = (_S, ("epiarg.cli.main",))


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced round; metrics whose spans were not installed are absent."""
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        total[span.name] += span.duration
        self_s[span.name] += span.duration - span.child_s
    counts = tracer.counts
    validation = sum(
        s.duration for s in tracer.spans
        if s.name == "inference.evaluate_episodes" and s.has_ancestor({"trainer.train"})
    )
    in_cli_train = sum(
        1 for s in tracer.spans if s.name == "sampler.sample_episode" and s.has_ancestor({"cli.train"})
    )
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = total[layer]
        elif kind == "self_s":
            values[metric] = self_s[layer]
        elif kind == "peak_mb":
            values[metric] = tracer.peaks.get(layer, 0.0)
        else:
            values[metric] = counts[metric]
    values["trainer.validation.s"] = validation
    values["trainer.optimizer_steps"] = counts["trainer.apply_update.calls"]
    values["trainer.rows_touched_per_step"] = (
        float(np.mean(tracer.rows_per_step)) if tracer.rows_per_step else 0.0
    )
    values["encoder.embed_tokens.unique_docs"] = len(tracer.embedded)
    values["sampler.sample_episode.calls_in_cli_train"] = in_cli_train
    return {
        name: value for name, value in values.items()
        if all(source in tracer.installed for source in PER_LAYER[name][1])
    }


def covered_s(tracer: Tracer, selected: Callable[[Span], bool]) -> float:
    """Wall time covered by the selected spans, counting nested selected spans once."""
    total = 0.0
    for span in tracer.spans:
        if not selected(span):
            continue
        node = span.parent
        while node is not None and not selected(node):
            node = node.parent
        if node is None:
            total += span.duration
    return total


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    names = [name for name in PER_LAYER if all(name in r for r in rounds)]
    return {name: float(statistics.median(r[name] for r in rounds)) for name in names}

"""Span decoding and span-exact scoring with macro averaging over argument types.

Token labels use the heads' IO convention: every token of an argument carries
its active-type index ``0..N-1``, and any other label is O. A prediction counts
only when start, end, and role all match a gold span.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Span = tuple[int, int, str]


def decode_spans(labels: Sequence[int], active_types: Sequence[str]) -> set[Span]:
    """Maximal runs of one active-type index ``0..N-1`` become one span of that role; any other label
    is O and breaks runs; a change of type splits."""
    n = len(active_types)
    spans: set[Span] = set()
    start, current = 0, -1
    for i, label in enumerate(labels):
        if label != current:
            if 0 <= current < n:
                spans.add((start, i, active_types[current]))
            start, current = i, label
    if 0 <= current < n:
        spans.add((start, len(labels), active_types[current]))
    return spans


class MatchCounts:
    """Per-role TP/FP/FN counters; merges associatively across episodes."""

    def __init__(self):
        self.tp: Counter = Counter()
        self.fp: Counter = Counter()
        self.fn: Counter = Counter()

    def merge(self, other: "MatchCounts") -> "MatchCounts":
        self.tp.update(other.tp)
        self.fp.update(other.fp)
        self.fn.update(other.fn)
        return self

    def roles(self) -> set[str]:
        return set(self.tp) | set(self.fp) | set(self.fn)


def score_episode(
    pred: Sequence[set[Span]],
    gold: Sequence[set[Span]],
    active_types: Sequence[str],
) -> MatchCounts:
    """Span-exact counts over aligned per-document span sets."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold must cover the same documents")
    active = set(active_types)
    counts = MatchCounts()
    for pred_spans, gold_spans in zip(pred, gold):
        for span in pred_spans:
            if span[2] not in active:
                continue
            if span in gold_spans:
                counts.tp[span[2]] += 1
            else:
                counts.fp[span[2]] += 1
        for span in gold_spans:
            if span[2] in active and span not in pred_spans:
                counts.fn[span[2]] += 1
    return counts


class FpFnCounts:
    """Token-level confusion counts against the O class."""

    def __init__(self, fp: int = 0, gold_o: int = 0, fn: int = 0, gold_arg: int = 0):
        self.fp = fp
        self.gold_o = gold_o
        self.fn = fn
        self.gold_arg = gold_arg

    def merge(self, other: "FpFnCounts") -> "FpFnCounts":
        self.fp += other.fp
        self.gold_o += other.gold_o
        self.fn += other.fn
        self.gold_arg += other.gold_arg
        return self

    def rates(self) -> tuple[float, float]:
        fp_rate = 100.0 * self.fp / self.gold_o if self.gold_o else 0.0
        fn_rate = 100.0 * self.fn / self.gold_arg if self.gold_arg else 0.0
        return fp_rate, fn_rate


def fp_fn_counts(pred: Sequence[int], gold: Sequence[int], n_types: int) -> FpFnCounts:
    """Token confusion counts against O, where labels ``0..n_types-1`` are arguments and any other is O."""
    if len(pred) != len(gold):
        raise ValueError("pred and gold label sequences must align")
    counts = FpFnCounts()
    for p, g in zip(pred, gold):
        if 0 <= g < n_types:
            counts.gold_arg += 1
            if not 0 <= p < n_types:
                counts.fn += 1
        else:
            counts.gold_o += 1
            if 0 <= p < n_types:
                counts.fp += 1
    return counts


def fp_fn_analysis(pred: Sequence[int], gold: Sequence[int], n_types: int) -> tuple[float, float]:
    """FP rate: gold-O tokens predicted as an argument; FN rate: argument tokens predicted O.

    Both are percentages of their own gold class size.
    """
    return fp_fn_counts(pred, gold, n_types).rates()


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class TypeScore:
    precision: float
    recall: float
    f1: float
    gold_count: int


@dataclass(frozen=True)
class EvalReport:
    """Macro P/R/F1 (percent) over argument types plus token FP/FN rates."""

    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_type: dict[str, TypeScore] = field(default_factory=dict)
    token_fp_rate: float = 0.0
    token_fn_rate: float = 0.0
    episode_count: int = 0

    def to_dict(self) -> dict:
        return {
            "macro": {
                "p": self.macro_precision,
                "r": self.macro_recall,
                "f1": self.macro_f1,
            },
            "per_type": [
                {
                    "role": role,
                    "p": 100.0 * score.precision,
                    "r": 100.0 * score.recall,
                    "f1": 100.0 * score.f1,
                    "gold": score.gold_count,
                }
                for role, score in sorted(self.per_type.items())
            ],
            "fp_rate": self.token_fp_rate,
            "fn_rate": self.token_fn_rate,
            "episode_count": self.episode_count,
        }


def aggregate(
    counts: MatchCounts | Iterable[MatchCounts],
    *,
    token_counts: FpFnCounts | None = None,
    episode_count: int = 0,
) -> EvalReport:
    """Reduce match counts to an EvalReport.

    Counts are pooled globally per type, then macro-averaged over the types
    with gold support in the evaluated set.
    """
    if isinstance(counts, MatchCounts):
        counts_list = [counts]
    else:
        counts_list = list(counts)
    if not counts_list:
        raise ValueError("no episodes to aggregate")

    total = MatchCounts()
    for c in counts_list:
        total.merge(c)

    gold_roles = sorted(r for r in total.roles() if total.tp[r] + total.fn[r] > 0)
    scores = [_prf(total.tp[r], total.fp[r], total.fn[r]) for r in gold_roles]
    macro_p, macro_r, macro_f1 = (float(np.mean([s[i] for s in scores])) if scores else 0.0 for i in range(3))
    per_type = {r: TypeScore(*s, total.tp[r] + total.fn[r]) for r, s in zip(gold_roles, scores)}

    fp_rate, fn_rate = token_counts.rates() if token_counts is not None else (0.0, 0.0)
    return EvalReport(
        macro_precision=100.0 * macro_p,
        macro_recall=100.0 * macro_r,
        macro_f1=100.0 * macro_f1,
        per_type=per_type,
        token_fp_rate=fp_rate,
        token_fn_rate=fn_rate,
        episode_count=episode_count or len(counts_list),
    )


def report_json(
    report: EvalReport,
    *,
    setting: str,
    split: str,
    model: str,
    seed: int,
    config: dict | None = None,
) -> dict:
    payload = {"setting": setting, "split": split, "model": model}
    payload.update(report.to_dict())
    payload["seed"] = seed
    if config is not None:
        payload["config"] = config
    return payload


def render_results_table(results: dict[str, dict[str, tuple[float, float, float]]]) -> str:
    """Aligned plain-text table: one row per setting, P/R/F1 columns per model."""
    settings = list(results)
    models: list[str] = []
    for row in results.values():
        for model in row:
            if model not in models:
                models.append(model)
    col_width = 7
    name_width = max([len(s) for s in settings] + [len("Setting")]) + 2
    group_width = 3 * col_width + 2

    def center(text: str, width: int) -> str:
        return text.center(width)

    lines = []
    header1 = "Setting".ljust(name_width) + "|" + "|".join(center(m, group_width) for m in models)
    header2 = " " * name_width + "|" + "|".join(
        center("P", col_width) + center("R", col_width) + center("F1", col_width) + "  " for _ in models
    )
    rule = "-" * len(header1)
    lines.extend([header1, header2, rule])
    for setting in settings:
        cells = []
        for model in models:
            triple = results[setting].get(model)
            if triple is None:
                cells.append(center("-", group_width))
            else:
                cells.append(
                    "".join(f"{v:{col_width}.2f}" for v in triple) + "  "
                )
        lines.append(setting.ljust(name_width) + "|" + "|".join(cells))
    return "\n".join(lines) + "\n"

"""Output checks that the benchmark computes on its own.

Nothing here calls the package's heads, decoding or scoring: labels,
prototypes, distances, spans and scores are recomputed from the encoder's
embeddings and the gold spans with plain numpy. Every check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

TIE_RTOL = 1e-9
SCORE_ATOL = 1e-9


@dataclass(frozen=True)
class EpisodeView:
    """What the N-Way-D-Doc invariants need from one episode."""

    episode_id: int
    active_types: tuple[str, ...]
    support: tuple[tuple[str, frozenset[str]], ...]  # (doc_id, roles of retained spans)
    query: tuple[tuple[str, frozenset[str]], ...]


def view_of_episode(episode) -> EpisodeView:
    def docs(items):
        return tuple((d.doc_id, frozenset(s.role for s in d.arguments)) for d in items)

    return EpisodeView(episode.episode_id, tuple(episode.active_types), docs(episode.support), docs(episode.query))


def view_of_record(record: dict) -> EpisodeView:
    def docs(items):
        return tuple((d["doc_id"], frozenset(a["role"] for a in d["arguments"])) for d in items)

    return EpisodeView(record["episode_id"], tuple(record["active_types"]), docs(record["support"]), docs(record["query"]))


def check_episode(ep: EpisodeView, n_ways: int, d_docs: int) -> list[str]:
    """Exactly D support documents whose retained roles are the N active types,
    support and query disjoint, and an active-type span in every query document."""
    where = f"episode {ep.episode_id}"
    problems = []
    active = set(ep.active_types)
    if len(ep.active_types) != n_ways or len(active) != n_ways:
        problems.append(f"{where}: {len(active)} active types, expected {n_ways}")
    if len(ep.support) != d_docs:
        problems.append(f"{where}: {len(ep.support)} support documents, expected {d_docs}")
    support_roles = set().union(*(roles for _, roles in ep.support)) if ep.support else set()
    if support_roles != active:
        problems.append(f"{where}: support roles {sorted(support_roles)} != active {sorted(active)}")
    support_ids = [doc_id for doc_id, _ in ep.support]
    if len(set(support_ids)) != len(support_ids):
        problems.append(f"{where}: a support document repeats")
    shared = set(support_ids) & {doc_id for doc_id, _ in ep.query}
    if shared:
        problems.append(f"{where}: documents {sorted(shared)} are both support and query")
    for doc_id, roles in ep.query:
        if not roles & active:
            problems.append(f"{where}: query document {doc_id} holds no active-type span")
    return problems


def doc_labels(doc, active_types: Sequence[str]) -> np.ndarray:
    """Gold IO labels of a document: the active-type index on span tokens, N elsewhere."""
    labels = np.full(len(doc.tokens), len(active_types), dtype=np.int64)
    for span in doc.arguments:
        if span.role in active_types:
            labels[span.start : span.end] = active_types.index(span.role)
    return labels


def prototype_distances(
    support_rows: np.ndarray,
    support_labels: np.ndarray,
    query_rows: np.ndarray,
    n_types: int,
    nota: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared L2 from each query row to the class means (types first), then to
    the O mean or, when given, to each NOTA centroid; and the class of each column."""
    classes = range(n_types) if nota is not None else range(n_types + 1)
    means = np.array([support_rows[support_labels == c].mean(axis=0) for c in classes])
    rows = np.vstack([means, nota]) if nota is not None else means
    diff = query_rows[:, None, :] - rows[None, :, :]
    column_labels = np.minimum(np.arange(rows.shape[0]), n_types)
    return (diff * diff).sum(axis=2), column_labels


def _class_minimum(distances: np.ndarray, column_labels: np.ndarray, label: int) -> float:
    mask = column_labels == label
    return float(distances[mask].min()) if mask.any() else np.inf


def label_disagreements(
    program: np.ndarray,
    distances: np.ndarray,
    column_labels: np.ndarray,
    tokens: np.ndarray | None = None,
) -> list[int]:
    """Tokens whose program label is not the recomputed nearest class.

    ``distances`` has one row per checked token and one column per candidate
    (prototype, NOTA centroid or support token), ``column_labels`` the class
    of each column. A label whose best distance lies within a relative
    ``TIE_RTOL`` of the overall best is accepted as a tie.
    """
    tokens = np.arange(distances.shape[0]) if tokens is None else tokens
    own = column_labels[distances.argmin(axis=1)]
    bad = []
    for row, token in enumerate(tokens):
        label = int(program[token])
        if label == own[row]:
            continue
        best = float(distances[row].min())
        if _class_minimum(distances[row], column_labels, label) - best > TIE_RTOL * max(abs(best), 1e-300):
            bad.append(int(token))
    return bad


def l1_distances(support_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
    return np.abs(query_rows[:, None, :] - support_rows[None, :, :]).sum(axis=2)


def token_sample(num_tokens: int, size: int = 48) -> np.ndarray:
    """A fixed, evenly spaced sample of token positions."""
    return np.unique(np.linspace(0, num_tokens - 1, num=min(size, num_tokens)).round().astype(np.int64))


def decode(labels: np.ndarray, o_label: int) -> set[tuple[int, int, int]]:
    """Maximal runs of one non-O label as (start, end, label) spans."""
    spans = set()
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            if labels[start] != o_label:
                spans.add((start, i, int(labels[start])))
            start = i
    return spans


class Tally:
    """Span-exact counts per role, pooled over episodes, plus token FP/FN counts."""

    def __init__(self):
        self.tp: dict[str, int] = {}
        self.fp: dict[str, int] = {}
        self.fn: dict[str, int] = {}
        self.token_fp = self.gold_o = self.token_fn = self.gold_arg = 0

    def add(self, pred: np.ndarray, gold: np.ndarray, active_types: Sequence[str]) -> None:
        n = len(active_types)
        pred_spans, gold_spans = decode(pred, n), decode(gold, n)
        for spans, other, hit, miss in ((pred_spans, gold_spans, self.tp, self.fp), (gold_spans, pred_spans, None, self.fn)):
            for span in spans:
                role = active_types[span[2]]
                if span in other:
                    if hit is not None:
                        hit[role] = hit.get(role, 0) + 1
                else:
                    miss[role] = miss.get(role, 0) + 1
        gold_is_o = gold == n
        self.gold_o += int(gold_is_o.sum())
        self.gold_arg += int((~gold_is_o).sum())
        self.token_fp += int((gold_is_o & (pred != n)).sum())
        self.token_fn += int((~gold_is_o & (pred == n)).sum())

    def scores(self) -> dict[str, float]:
        """Macro P/R/F1 over roles with gold spans, and token FP/FN rates, in percent."""
        roles = sorted(r for r in set(self.tp) | set(self.fn) if self.tp.get(r, 0) + self.fn.get(r, 0) > 0)
        per_role = []
        for role in roles:
            tp, fp, fn = self.tp.get(role, 0), self.fp.get(role, 0), self.fn.get(role, 0)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            per_role.append((p, r, 2 * p * r / (p + r) if p + r else 0.0))
        macro = [100.0 * sum(x[i] for x in per_role) / len(per_role) if per_role else 0.0 for i in range(3)]
        return {
            "p": macro[0],
            "r": macro[1],
            "f1": macro[2],
            "fp_rate": 100.0 * self.token_fp / self.gold_o if self.gold_o else 0.0,
            "fn_rate": 100.0 * self.token_fn / self.gold_arg if self.gold_arg else 0.0,
        }


def score_disagreements(reported: dict[str, float], own: dict[str, float]) -> list[str]:
    return [
        f"reported {key} {reported[key]!r} != recomputed {own[key]!r}"
        for key in own
        if abs(reported[key] - own[key]) > SCORE_ATOL
    ]


def report_scores(report) -> dict[str, float]:
    """The program's EvalReport in the keys of ``Tally.scores``."""
    return {
        "p": report.macro_precision,
        "r": report.macro_recall,
        "f1": report.macro_f1,
        "fp_rate": report.token_fp_rate,
        "fn_rate": report.token_fn_rate,
    }


def kmeans_problems(history: Sequence[float]) -> list[str]:
    """Lloyd iterations never raise the k-means inertia."""
    return [
        f"k-means inertia rose from {a!r} to {b!r} at iteration {i + 1}"
        for i, (a, b) in enumerate(zip(history, history[1:]))
        if b > a + TIE_RTOL * abs(a)
    ]


def finite_problems(name: str, arrays: dict[str, np.ndarray]) -> list[str]:
    return [f"{name} {key} holds non-finite values" for key, arr in arrays.items() if not np.all(np.isfinite(arr))]

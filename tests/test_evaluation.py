from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from epiarg.evaluation import (
    MatchCounts,
    aggregate,
    decode_spans,
    fp_fn_analysis,
    fp_fn_counts,
    render_results_table,
    report_json,
    score_episode,
)

ACTIVE = ("A", "B", "C")
O = len(ACTIVE)  # the heads' O label; any label outside 0..N-1 reads as O


def as_strings(labels, active):
    """Test-local view of integer labels as role names, for the string oracles."""
    return [active[i] if 0 <= i < len(active) else "O" for i in labels]


def encode_spans(spans, num_tokens, active):
    """Inverse of ``decode_spans`` for non-overlapping span sets."""
    labels = [len(active)] * num_tokens
    for start, end, role in spans:
        labels[start:end] = [active.index(role)] * (end - start)
    return labels


def oracle_spans(labels):
    """Independent IO decoder: explicit index walk, no state machine reuse."""
    spans = set()
    i = 0
    while i < len(labels):
        if labels[i] == "O":
            i += 1
            continue
        j = i
        while j < len(labels) and labels[j] == labels[i]:
            j += 1
        spans.add((i, j, labels[i]))
        i = j
    return spans


def oracle_counts(pred_labels, gold_labels):
    pred, gold = oracle_spans(pred_labels), oracle_spans(gold_labels)
    tp, fp, fn = Counter(), Counter(), Counter()
    for s in pred & gold:
        tp[s[2]] += 1
    for s in pred - gold:
        fp[s[2]] += 1
    for s in gold - pred:
        fn[s[2]] += 1
    return tp, fp, fn


def oracle_fp_fn(pred_labels, gold_labels):
    """(fp, gold_o, fn, gold_arg) counted on role-name labels."""
    pairs = list(zip(pred_labels, gold_labels))
    return (
        sum(g == "O" and p != "O" for p, g in pairs),
        sum(g == "O" for _, g in pairs),
        sum(g != "O" and p == "O" for p, g in pairs),
        sum(g != "O" for _, g in pairs),
    )


def random_labels(rng, n_types, length):
    """Integer labels with active types, the heads' O (n_types), and O values above it and below 0."""
    return [int(v) for v in rng.integers(-2, n_types + 3, size=length)]


class TestDecodeSpans:
    def test_all_o(self):
        assert decode_spans([O, O, O], ACTIVE) == set()

    def test_basic_runs(self):
        assert decode_spans([O, 0, 0, O, 1], ACTIVE) == {(1, 3, "A"), (4, 5, "B")}

    def test_type_change_splits(self):
        assert decode_spans([0, 1, 1], ACTIVE) == {(0, 1, "A"), (1, 3, "B")}

    def test_out_of_range_labels_are_o(self):
        """Labels >= N and < 0 are O: they make no span, and they break a run even where two
        different O values meet."""
        assert decode_spans([0, 2, 1, 5], ["A", "B"]) == {(0, 1, "A"), (2, 3, "B")}
        assert decode_spans([-1, 0, 0, 7, 0, -3, 2, 3], ["A", "B"]) == {(1, 3, "A"), (4, 5, "A")}
        assert decode_spans([2, 3, -1, 4], ["A", "B"]) == set()

    def test_decode_encode_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            labels = [int(rng.integers(4)) for _ in range(n)]
            spans = decode_spans(labels, ACTIVE)
            assert decode_spans(encode_spans(spans, n, ACTIVE), ACTIVE) == spans

    @pytest.mark.parametrize(
        "labels",
        [
            [0, 0, O, 1, 1],  # runs touching both ends
            [0, 0, 1, 1, 2],  # adjacent runs of two roles, to the last token
            [O, O, O, O],  # all O
            [O + 4, -1, O, -2],  # all O, out of range both ways
            [1],  # one token, an argument
            [O],  # one token, O
            [-5],  # one token, below 0
        ],
    )
    def test_edge_cases_match_oracle(self, labels):
        assert decode_spans(labels, ACTIVE) == oracle_spans(as_strings(labels, ACTIVE))

    def test_random_integer_labels_match_oracle(self):
        rng = np.random.default_rng(5)
        roles = ["A", "B", "C", "D", "E", "F"]
        for _ in range(1000):
            active = roles[: int(rng.integers(1, 7))]
            labels = random_labels(rng, len(active), int(rng.integers(1, 201)))
            assert decode_spans(labels, active) == oracle_spans(as_strings(labels, active))


class TestScoreEpisode:
    def test_exact_match(self):
        counts = score_episode([{(1, 3, "A")}], [{(1, 3, "A")}], ["A"])
        assert (counts.tp["A"], counts.fp["A"], counts.fn["A"]) == (1, 0, 0)

    def test_partial_overlap_is_wrong(self):
        counts = score_episode([{(1, 2, "A")}], [{(1, 3, "A")}], ["A"])
        assert (counts.tp["A"], counts.fp["A"], counts.fn["A"]) == (0, 1, 1)

    def test_bruteforce_oracle_on_random_pairs(self):
        """Oracle: independent span decoding and set comparison on the role names of 1000 random
        integer label-sequence pairs."""
        rng = np.random.default_rng(1)
        roles = ["A", "B", "C", "D", "E", "F"]
        for _ in range(1000):
            n_types = int(rng.integers(1, 7))
            active = roles[:n_types]
            length = int(rng.integers(1, 201))
            pred = random_labels(rng, n_types, length)
            gold = random_labels(rng, n_types, length)
            counts = score_episode([decode_spans(pred, active)], [decode_spans(gold, active)], active)
            tp, fp, fn = oracle_counts(as_strings(pred, active), as_strings(gold, active))
            assert counts.tp == tp
            assert counts.fp == fp
            assert counts.fn == fn

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        length = 60
        active = ["A", "B"]
        pred = [int(rng.integers(3)) for _ in range(length)]
        gold = [int(rng.integers(3)) for _ in range(length)]
        counts = score_episode([decode_spans(pred, active)], [decode_spans(gold, active)], active)
        swap = {0: 1, 1: 0, 2: 2}
        pred2 = [swap[l] for l in pred]
        gold2 = [swap[l] for l in gold]
        counts2 = score_episode([decode_spans(pred2, active)], [decode_spans(gold2, active)], active)
        for role, other in (("A", "B"), ("B", "A")):
            assert counts.tp[role] == counts2.tp[other]
            assert counts.fp[role] == counts2.fp[other]
            assert counts.fn[role] == counts2.fn[other]


class TestAggregate:
    def test_perfect_predictions(self):
        counts = score_episode([{(0, 2, "A"), (3, 4, "B")}], [{(0, 2, "A"), (3, 4, "B")}], ["A", "B"])
        report = aggregate(counts)
        assert report.macro_precision == report.macro_recall == report.macro_f1 == 100.0

    def test_no_predictions(self):
        counts = score_episode([set()], [{(0, 2, "A")}], ["A"])
        report = aggregate(counts)
        assert report.macro_precision == 0.0
        assert report.macro_recall == 0.0
        assert report.macro_f1 == 0.0

    def test_hand_scored_three_episode_fixture(self):
        """Oracle: hand computation.

        A: TP=2 -> P=R=F1=1; B: one spurious, one missed -> 0; C: missed -> 0.
        Macro over {A, B, C} = 1/3.
        """
        ep1 = score_episode([{(1, 3, "A")}], [{(1, 3, "A")}], ["A"])
        ep2 = score_episode(
            [{(0, 1, "A"), (2, 3, "B")}], [{(0, 1, "A"), (4, 5, "B")}], ["A", "B"]
        )
        ep3 = score_episode([set()], [{(0, 2, "C")}], ["C"])
        report = aggregate([ep1, ep2, ep3])
        assert report.macro_f1 == pytest.approx(100.0 / 3)
        assert report.macro_precision == pytest.approx(100.0 / 3)
        assert report.macro_recall == pytest.approx(100.0 / 3)
        assert report.per_type["A"].f1 == 1.0
        assert report.per_type["B"].f1 == 0.0
        assert report.per_type["C"].gold_count == 1

    def test_single_episode_equals_direct_scores(self):
        counts = score_episode(
            [{(0, 1, "A"), (2, 3, "B")}], [{(0, 1, "A"), (5, 6, "B")}], ["A", "B"]
        )
        report = aggregate(counts)
        direct = np.mean([1.0, 0.0])
        assert report.macro_f1 == pytest.approx(100.0 * direct)

    def test_types_without_gold_excluded_from_macro(self):
        counts = MatchCounts()
        counts.tp["A"] = 1
        counts.fp["B"] = 5  # B never appears in gold
        report = aggregate(counts)
        assert set(report.per_type) == {"A"}
        assert report.macro_f1 == 100.0

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestFpFn:
    def test_identical_labels(self):
        assert fp_fn_analysis([O, 0, 0], [O, 0, 0], O) == (0.0, 0.0)

    def test_all_o_predictions(self):
        fp, fn = fp_fn_analysis([O, O, O, O], [O, 0, 0, 1], O)
        assert fp == 0.0
        assert fn == 100.0

    def test_rates_are_per_class_percentages(self):
        # 4 gold-O tokens, 1 predicted non-O -> 25%; 2 gold args, 1 predicted O -> 50%
        pred = [0, O, O, O, 0, O]
        gold = [O, O, O, O, 0, 0]
        assert fp_fn_analysis(pred, gold, O) == (25.0, 50.0)

    def test_out_of_range_labels_are_o(self):
        # gold: -1 and 9 are O, 1 is an argument; pred: 7 is O, -2 is O, 0 is an argument
        counts = fp_fn_counts([0, 7, -2, 1], [-1, 9, 1, 1], 2)
        assert (counts.fp, counts.gold_o, counts.fn, counts.gold_arg) == (1, 2, 1, 2)

    def test_random_integer_labels_match_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n_types = int(rng.integers(1, 7))
            length = int(rng.integers(1, 120))
            pred, gold = random_labels(rng, n_types, length), random_labels(rng, n_types, length)
            active = [f"T{i}" for i in range(n_types)]
            counts = fp_fn_counts(pred, gold, n_types)
            expected = oracle_fp_fn(as_strings(pred, active), as_strings(gold, active))
            assert (counts.fp, counts.gold_o, counts.fn, counts.gold_arg) == expected

    def test_misaligned_sequences_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fp_fn_counts([0, 1], [0], 2)


class TestReportRendering:
    def test_report_json_schema(self):
        counts = score_episode([{(0, 1, "A")}], [{(0, 1, "A")}], ["A"])
        report = aggregate(counts)
        payload = report_json(report, setting="3w1d", split="in_domain_small", model="protonet", seed=7)
        for key in ("setting", "split", "model", "macro", "per_type", "fp_rate", "fn_rate", "episode_count", "seed"):
            assert key in payload
        assert payload["macro"]["f1"] == 100.0

    def test_results_table_layout(self):
        table = render_results_table(
            {
                "3-Way-1-Doc": {"Baseline": (0.88, 2.50, 1.30), "ProtoNet": (4.83, 15.67, 7.39)},
                "3-Way-2-Doc": {"Baseline": (1.22, 12.99, 2.23), "ProtoNet": (5.88, 14.65, 8.34)},
            }
        )
        assert "Baseline" in table and "ProtoNet" in table
        assert "1.30" in table and "8.34" in table
        lines = table.strip().splitlines()
        assert len(lines) == 5  # two header rows, one rule, two data rows

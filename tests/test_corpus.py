from __future__ import annotations

import json
from collections import Counter

import pytest

from epiarg.corpus import (
    ArgumentSpan,
    Corpus,
    CorpusFormatError,
    Document,
    SplitSpec,
    SplitSpecError,
    apply_leakage_mask,
    compute_split,
    corpus_stats,
    filter_rare_types,
    parse_corpus,
    span_from_chars,
    write_corpus,
)
from epiarg.synthetic import synthetic_corpus, three_way_specs


def make_doc(doc_id, event, spans, n_tokens=20):
    return Document(
        doc_id=doc_id,
        title=f"title {doc_id}",
        event_type=event,
        tokens=tuple(f"t{i}" for i in range(n_tokens)),
        arguments=tuple(ArgumentSpan(s, e, r) for s, e, r in spans),
    )


class TestParsing:
    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = parse_corpus(path)
        assert len(corpus) == 0
        stats = corpus_stats(corpus)
        assert stats.num_docs == 0
        assert stats.arg_instances == 0
        assert stats.tokens_per_doc == 0.0

    def test_span_out_of_bounds_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "doc_id": "d1",
            "title": "x",
            "event_type": "e",
            "tokens": ["a", "b"],
            "arguments": [{"start": 0, "end": 3, "role": "R"}],
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match="line 1.*out of bounds"):
            parse_corpus(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        record = {
            "doc_id": "d1",
            "title": "x",
            "event_type": "e",
            "tokens": ["a"],
            "arguments": [],
        }
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            parse_corpus(path)

    def test_duplicate_doc_id_names_both_lines(self, tmp_path):
        records = [
            {"doc_id": doc_id, "title": "x", "event_type": "e", "tokens": ["a"], "arguments": []}
            for doc_id in ("d1", "d2", "d1")
        ]
        path = tmp_path / "dup.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(CorpusFormatError, match=r"^line 3: duplicate doc_id 'd1', first on line 1$") as info:
            parse_corpus(path)
        assert info.value.line == 3

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"doc_id": "d1"\n')
        with pytest.raises(CorpusFormatError, match="line 1"):
            parse_corpus(path)

    @pytest.mark.parametrize(
        "line, match",
        [
            ("[1, 2]", "must be a JSON object"),
            ({"doc_id": 5}, "field 'doc_id' must be a string"),
            ({"title": ["t"]}, "field 'title' must be a string"),
            ({"event_type": None}, "field 'event_type' must be a string"),
            ({"arguments": 5}, "arguments must be a list"),
            ({"arguments": [{"start": 0, "end": 1, "role": 7}]}, "malformed argument record"),
            ({"arguments": [{"start": True, "end": 2, "role": "R"}]}, "malformed argument record"),
            ({"arguments": [{"start": 0, "end": 2.7, "role": "R"}]}, "malformed argument record"),
            ({"arguments": [{"start": 0.9, "end": 2, "role": "R"}]}, "malformed argument record"),
            ({"arguments": [{"start": "0", "end": 2, "role": "R"}]}, "malformed argument record"),
        ],
        ids=["list", "doc_id-int", "title-list", "event_type-null", "arguments-int", "role-int", "start-true",
             "end-fraction", "start-fraction", "start-str"],
    )
    def test_malformed_record_rejected_with_line_number(self, tmp_path, line, match):
        """A record of the wrong JSON shape or with a field of the wrong JSON type is an error naming
        its line, not a traceback or a silently coerced document."""
        good = {"doc_id": "d1", "title": "x", "event_type": "e", "tokens": ["a", "b", "c"], "arguments": []}
        bad = line if isinstance(line, str) else json.dumps({**good, "doc_id": "d2", **line})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        with pytest.raises(CorpusFormatError, match=f"^line 2: .*{match}"):
            parse_corpus(path)

    def test_overlapping_spans_rejected(self):
        with pytest.raises(CorpusFormatError, match="overlap"):
            make_doc("d1", "e", [(0, 3, "A"), (2, 5, "B")])

    def test_empty_tokens_rejected(self):
        with pytest.raises(CorpusFormatError, match="no tokens"):
            Document("d", "t", "e", (), ())

    def test_char_offset_adapter(self):
        # "the flood hit" -> tokens at chars (0,3), (4,9), (10,13)
        offsets = [(0, 3), (4, 9), (10, 13)]
        span = span_from_chars(4, 9, offsets, "Causes")
        assert (span.start, span.end, span.role) == (1, 2, "Causes")
        # partial character overlap still claims the token
        assert span_from_chars(6, 12, offsets, "X") == ArgumentSpan(1, 3, "X")
        with pytest.raises(CorpusFormatError, match="covers no tokens"):
            span_from_chars(3, 4, offsets, "X")

    def test_roundtrip_is_identity(self, tmp_path):
        corpus = synthetic_corpus(seed=7, n_docs=40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        again = parse_corpus(path)
        assert again == corpus
        # serialize -> parse -> serialize is byte-stable
        path2 = tmp_path / "corpus2.jsonl"
        write_corpus(again, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestFilterRareTypes:
    def test_threshold_removes_single_occurrence(self):
        docs = [
            make_doc("d1", "e1", [(0, 1, "A"), (2, 3, "B")]),
            make_doc("d2", "e1", [(0, 1, "A")]),
        ]
        corpus = Corpus(tuple(docs))
        filtered = filter_rare_types(corpus, min_count=2)
        assert filtered.arg_types == {"A"}

    def test_min_count_one_is_identity(self):
        corpus = synthetic_corpus(seed=3, n_docs=30)
        assert filter_rare_types(corpus, 1) == corpus

    def test_matches_bruteforce_recount(self):
        """Oracle: iterate count-and-drop by hand until stable, then compare."""
        corpus = synthetic_corpus(seed=11, n_docs=10, n_event_types=4, roles_per_event=4)
        min_count = 2

        docs = list(corpus.documents)
        while True:
            ev = Counter(d.event_type for d in docs)
            rl = Counter(s.role for d in docs for s in d.arguments)
            new_docs = []
            for d in docs:
                if ev[d.event_type] < min_count:
                    continue
                spans = tuple(s for s in d.arguments if rl[s.role] >= min_count)
                if not spans:
                    continue
                new_docs.append(d.with_arguments(spans))
            if new_docs == docs:
                break
            docs = new_docs
        expected = Corpus(tuple(docs))

        assert filter_rare_types(corpus, min_count) == expected

    def test_idempotent(self):
        corpus = synthetic_corpus(seed=5, n_docs=60)
        once = filter_rare_types(corpus, 2)
        twice = filter_rare_types(once, 2)
        assert once == twice

    def test_surviving_types_meet_threshold(self):
        corpus = synthetic_corpus(seed=9, n_docs=80)
        filtered = filter_rare_types(corpus, 3)
        assert all(c >= 3 for c in Counter(doc.event_type for doc in filtered).values())
        assert all(c >= 3 for c in filtered.role_counts().values())


class TestSplits:
    def test_event_types_partition_pools(self):
        corpus = synthetic_corpus(seed=2, n_docs=120)
        spec = three_way_specs(corpus, seed=2)["in_domain_small"]
        split = compute_split(corpus, spec)
        train_ids = {d.doc_id for d in split.train}
        dev_ids = {d.doc_id for d in split.dev}
        test_ids = {d.doc_id for d in split.test}
        assert not (train_ids & dev_ids or train_ids & test_ids or dev_ids & test_ids)
        for pool, listed in (
            (split.train, spec.train_event_types),
            (split.dev, spec.dev_event_types),
            (split.test, spec.test_event_types),
        ):
            assert {d.event_type for d in pool} <= set(listed)

    def test_overlapping_spec_rejected(self):
        with pytest.raises(SplitSpecError, match="both"):
            SplitSpec(
                name="custom",
                train_event_types=("e1", "e2"),
                dev_event_types=("e2",),
                test_event_types=("e3",),
            )

    def test_unknown_split_name_rejected(self):
        with pytest.raises(SplitSpecError, match="split name"):
            SplitSpec(name="whatever", train_event_types=(), dev_event_types=(), test_event_types=())

    def test_unknown_event_type_rejected(self):
        corpus = synthetic_corpus(seed=2, n_docs=30)
        spec = SplitSpec(
            name="custom",
            train_event_types=("no_such_event",),
            dev_event_types=(),
            test_event_types=(),
        )
        with pytest.raises(SplitSpecError, match="absent"):
            compute_split(corpus, spec)

    def test_spec_json_roundtrip(self, tmp_path):
        spec = SplitSpec(
            name="custom",
            train_event_types=("e1",),
            dev_event_types=("e2",),
            test_event_types=("e3",),
            frequent_roles=("Date",),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SplitSpec.from_json(path) == spec
        assert SplitSpec.from_json(path, "custom") == spec
        with pytest.raises(SplitSpecError, match="holds split 'custom', not 'cross_domain'"):
            SplitSpec.from_json(path, "cross_domain")

    @pytest.mark.parametrize(
        "field, value", [("train_event_types", "attack"), ("mask_frequent_in_dev", "false"), ("dev_event_types", None)]
    )
    def test_spec_json_values_are_type_checked(self, tmp_path, field, value):
        """A string where a list of event types belongs, a string flag or a missing field (None here)
        is an error naming the field, not a misread spec."""
        data = {**SplitSpec("custom", ("attack",), ("e2",), ("e3",)).to_dict(), field: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
        with pytest.raises(SplitSpecError, match=f"field '{field}'"):
            SplitSpec.from_json(path)

    def test_spec_json_picks_from_specs(self, tmp_path):
        """A ``{"specs": [...]}`` file yields the named spec, or its only one when no name is given."""
        small = SplitSpec("in_domain_small", ("e1",), ("e2",), ("e3",))
        cross = SplitSpec("cross_domain", ("e3",), ("e2",), ("e1",))
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"specs": [small.to_dict(), cross.to_dict()]}))
        assert SplitSpec.from_json(path, "cross_domain") == cross
        for name in (None, "custom"):
            with pytest.raises(SplitSpecError, match=r"--split must name one of \['cross_domain', 'in_domain_small'\]"):
                SplitSpec.from_json(path, name)
        path.write_text(json.dumps({"specs": [small.to_dict()]}))
        assert SplitSpec.from_json(path) == small


class TestLeakageMask:
    def test_role_only_in_test_untouched(self):
        docs = [
            make_doc("d1", "e1", [(0, 1, "TrainOnly")]),
            make_doc("d2", "e2", [(0, 1, "TestOnly")]),
        ]
        spec = SplitSpec(
            name="custom",
            train_event_types=("e1",),
            dev_event_types=(),
            test_event_types=("e2",),
            frequent_roles=(),
        )
        split = compute_split(Corpus(tuple(docs)), spec)
        masked, report = apply_leakage_mask(split, spec)
        assert masked.test.documents[0].arguments == split.test.documents[0].arguments
        assert report == {}

    def test_frequent_role_removed_from_test_kept_in_train(self):
        docs = [
            make_doc("d1", "e1", [(0, 1, "Date")]),
            make_doc("d2", "e2", [(0, 1, "Date"), (3, 4, "TestOnly")]),
        ]
        spec = SplitSpec(
            name="custom",
            train_event_types=("e1",),
            dev_event_types=(),
            test_event_types=("e2",),
        )
        split = compute_split(Corpus(tuple(docs)), spec)
        masked, report = apply_leakage_mask(split, spec)
        assert "Date" in masked.train.arg_types
        assert masked.test.arg_types == {"TestOnly"}
        assert report == {"Date": 1}

    def test_masking_preserves_tokens_and_membership(self):
        corpus = synthetic_corpus(seed=21, n_docs=60)
        spec = three_way_specs(corpus, seed=21)["cross_domain"]
        split = compute_split(corpus, spec)
        masked, _ = apply_leakage_mask(split, spec)
        for pool, masked_pool in zip(split.pools().values(), masked.pools().values()):
            assert [d.doc_id for d in pool] == [d.doc_id for d in masked_pool]
            assert [d.tokens for d in pool] == [d.tokens for d in masked_pool]

    def test_disjointness_by_set_intersection_oracle(self):
        """Oracle: exhaustive set intersection over a random 20-doc split."""
        corpus = synthetic_corpus(seed=33, n_docs=20, n_event_types=4)
        spec = three_way_specs(corpus, seed=33)["in_domain_small"]
        split = compute_split(corpus, spec)
        masked, report = apply_leakage_mask(split, spec)
        train_roles = {s.role for d in masked.train for s in d.arguments}
        eval_roles = {s.role for d in list(masked.dev) + list(masked.test) for s in d.arguments}
        assert train_roles & eval_roles == set()
        assert not eval_roles & set(spec.frequent_roles)
        # report counts exactly the spans removed
        removed = sum(len(a.arguments) for a in list(split.dev) + list(split.test)) - sum(
            len(a.arguments) for a in list(masked.dev) + list(masked.test)
        )
        assert removed == sum(report.values())


class TestStats:
    def test_three_doc_hand_count(self):
        """Oracle: counted by hand from the construction below."""
        docs = [
            make_doc("d1", "e1", [(0, 2, "A"), (5, 6, "B")], n_tokens=10),
            make_doc("d2", "e1", [(1, 2, "A")], n_tokens=20),
            make_doc("d3", "e2", [], n_tokens=30),
        ]
        stats = corpus_stats(Corpus(tuple(docs)))
        assert stats.num_docs == 3
        assert stats.num_event_types == 2
        assert stats.num_arg_types == 2
        assert stats.arg_instances == 3
        assert stats.tokens_per_doc == pytest.approx(20.0)

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from epiarg.corpus import Corpus, Document
from epiarg.encoder import (
    EmbeddingMatrix,
    EncoderConfig,
    ToyEncoderParams,
    chunk_document,
    embed_tokens,
    encode_docs,
    stable_bucket,
    window_means,
    window_means_backward,
)
from epiarg.formats import EmbeddingFormatError, load_external_embeddings, write_external_embeddings


def make_doc(doc_id, tokens):
    return Document(doc_id, doc_id, "e", tuple(tokens), ())


class TestChunkPlans:
    def test_greedy_partition(self):
        plan = chunk_document(2300, 1024)
        assert plan.chunks == ((0, 1024), (1024, 2048), (2048, 2300))

    def test_zero_tokens(self):
        assert chunk_document(0, 512).chunks == ()

    def test_exact_boundary(self):
        assert chunk_document(1024, 1024).chunks == ((0, 1024),)

    def test_partition_property_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(0, 5000))
            length = int(rng.integers(1, 1300))
            plan = chunk_document(n, length)
            cursor = 0
            for start, end in plan.chunks:
                assert start == cursor
                assert 0 < end - start <= length
                cursor = end
            assert cursor == n


class TestToyEncoder:
    def test_radius_zero_identity_projection_returns_rows(self):
        cfg = EncoderConfig(d_emb=8, d_model=8, radius=0, n_buckets=64, chunk_length=16)
        rng = np.random.default_rng(1)
        params = ToyEncoderParams.initialize(cfg, rng)
        params.projection = np.eye(8)
        doc = make_doc("d", [f"t{i}" for i in range(10)])
        plan = chunk_document(10, 16)
        out = embed_tokens(params, doc, plan)
        buckets = params.bucket_indices(doc.tokens)
        np.testing.assert_allclose(out.rows, params.table[buckets])

    def test_saturated_radius_gives_chunk_mean(self):
        cfg = EncoderConfig(d_emb=6, d_model=4, radius=50, n_buckets=32, chunk_length=8)
        rng = np.random.default_rng(2)
        params = ToyEncoderParams.initialize(cfg, rng)
        doc = make_doc("d", [f"t{i}" for i in range(20)])
        plan = chunk_document(20, 8)
        out = embed_tokens(params, doc, plan)
        buckets = params.bucket_indices(doc.tokens)
        rows = params.table[buckets]
        for start, end in plan.chunks:
            expected = rows[start:end].mean(axis=0) @ params.projection
            for t in range(start, end):
                np.testing.assert_allclose(out.rows[t], expected, atol=1e-12)

    def test_matches_independent_reimplementation(self):
        """Oracle: per-token double loop over the clipped window, no cumsum tricks."""
        cfg = EncoderConfig(d_emb=7, d_model=5, radius=2, n_buckets=48, chunk_length=9)
        rng = np.random.default_rng(3)
        params = ToyEncoderParams.initialize(cfg, rng, vocab_tokens=["a", "b"])
        tokens = [f"w{int(rng.integers(20))}" for _ in range(31)]
        doc = make_doc("d", tokens)
        plan = chunk_document(31, 9)
        out = embed_tokens(params, doc, plan)

        buckets = params.bucket_indices(tokens)
        expected = np.zeros((31, 5))
        for start, end in plan.chunks:
            for t in range(start, end):
                lo = max(start, t - cfg.radius)
                hi = min(end, t + cfg.radius + 1)
                acc = np.zeros(cfg.d_emb)
                for u in range(lo, hi):
                    acc += params.table[buckets[u]]
                expected[t] = (acc / (hi - lo)) @ params.projection
        np.testing.assert_allclose(out.rows, expected, atol=1e-9)

    def test_stacked_forward_equals_per_document(self):
        """One forward over documents stacked in order gives each document's ``embed_tokens`` rows bit for
        bit, also for a stack of more than 4096 rows: rows do not depend on the batch.
        The one-token document is encoded alone as one row, which numpy would multiply with another kernel."""
        lengths = (3, 17, 40, 9, 1, 2, 2048 - 5, 700, 2048 + 3)
        for d_emb, d_model in ((16, 12), (64, 64)):
            cfg = EncoderConfig(d_emb=d_emb, d_model=d_model, radius=2, n_buckets=64, chunk_length=9)
            rng = np.random.default_rng(6)
            params = ToyEncoderParams.initialize(cfg, rng)
            docs = [make_doc(f"d{i}", [f"w{int(rng.integers(40))}" for _ in range(n)]) for i, n in enumerate(lengths)]
            plans = [chunk_document(len(d.tokens), cfg.chunk_length) for d in docs]
            expected = np.vstack([embed_tokens(params, d, plan).rows for d, plan in zip(docs, plans)])
            assert expected.shape[0] > 2 * 2048
            rows, mixed = encode_docs(params, [params.bucket_indices(d.tokens) for d in docs], plans)
            assert np.array_equal(rows, expected)
            assert mixed.shape == (sum(lengths), cfg.d_emb)
            tail, _ = encode_docs(params, [params.bucket_indices(d.tokens) for d in docs[4:]], plans[4:])
            assert np.array_equal(tail, expected[sum(lengths[:4]) :])

    def test_context_never_crosses_chunks(self):
        cfg = EncoderConfig(d_emb=4, d_model=4, radius=3, n_buckets=32, chunk_length=5)
        rng = np.random.default_rng(4)
        params = ToyEncoderParams.initialize(cfg, rng)
        tokens = ["x"] * 10
        doc1 = make_doc("d1", tokens)
        tokens2 = list(tokens)
        tokens2[7] = "y"  # second chunk only
        doc2 = make_doc("d2", tokens2)
        plan = chunk_document(10, 5)
        a = embed_tokens(params, doc1, plan).rows
        b = embed_tokens(params, doc2, plan).rows
        np.testing.assert_array_equal(a[:5], b[:5])
        assert not np.allclose(a[5:], b[5:])

    def test_hashing_is_stable(self):
        assert stable_bucket("hello", 1024) == stable_bucket("hello", 1024)
        assert 0 <= stable_bucket("anything", 7) < 7

    def test_window_adjoint_property(self):
        rng = np.random.default_rng(5)
        plan = chunk_document(23, 7)
        for radius in (0, 1, 3, 10):
            x = rng.normal(size=(23, 4))
            y = rng.normal(size=(23, 4))
            lhs = float((window_means(x, plan, radius) * y).sum())
            rhs = float((x * window_means_backward(y, plan, radius)).sum())
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestExternalEmbeddings:
    def _matrices(self, rng, n=3, d=6):
        return [
            EmbeddingMatrix(f"doc{i}", rng.normal(size=(int(rng.integers(4, 12)), d)).astype(np.float32).astype(np.float64))
            for i in range(n)
        ]

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        mats = self._matrices(rng)
        path = tmp_path / "emb.fdae"
        write_external_embeddings(mats, path)
        provider = load_external_embeddings(path)
        for mat in mats:
            np.testing.assert_array_equal(provider.get(mat.doc_id).rows, mat.rows)

    def test_writer_holds_a_few_matrices_at_a_time(self, tmp_path):
        """The writer consumes its input as it writes, so a generator's matrices are never all held at once."""
        rows = np.random.default_rng(13).normal(size=(100, 32))
        path = tmp_path / "emb.fdae"
        tracemalloc.start()
        try:
            write_external_embeddings((EmbeddingMatrix(f"doc{i}", rows + i) for i in range(200)), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * rows.nbytes
        provider = load_external_embeddings(path)
        np.testing.assert_array_equal(provider.get("doc199").rows, (rows + 199).astype(np.float32))

    def test_empty_input_keeps_previous_files(self, tmp_path):
        path = tmp_path / "emb.fdae"
        write_external_embeddings(self._matrices(np.random.default_rng(14)), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="no matrices to write"):
            write_external_embeddings(iter(()), path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob(".*.tmp"))

    def test_missing_doc_errors(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "emb.fdae"
        write_external_embeddings(self._matrices(rng, n=2), path)
        provider = load_external_embeddings(path)
        with pytest.raises(EmbeddingFormatError, match="doc99"):
            provider.get("doc99")

    def test_scan_without_index(self, tmp_path):
        """The writer writes the one file; the reader finds documents by a scan over their headers."""
        rng = np.random.default_rng(10)
        path = tmp_path / "emb.fdae"
        mats = self._matrices(rng)
        write_external_embeddings(mats, path)
        assert [p.name for p in tmp_path.iterdir()] == ["emb.fdae"]
        provider = load_external_embeddings(path)
        np.testing.assert_array_equal(provider.get("doc2").rows, mats[2].rows)

    def test_file_replaced_after_open_is_detected(self, tmp_path):
        """``get`` reads the id at the offset found at open, and a different one there is an error."""
        mats = [EmbeddingMatrix(f"doc{i}", np.full((2, 3), float(i))) for i in range(3)]
        path = tmp_path / "emb.fdae"
        write_external_embeddings(mats, path)
        provider = load_external_embeddings(path)
        write_external_embeddings(mats[::-1], path)
        with pytest.raises(EmbeddingFormatError) as err:
            provider.get("doc0")
        assert str(err.value) == f"{path} changed since it was opened: 'doc2' for 'doc0'"
        np.testing.assert_array_equal(provider.get("doc1").rows, mats[1].rows)

    @pytest.mark.parametrize(
        "cut, what",
        [
            (2, "magic"),
            (6, "version"),
            (10, "dimension"),
            (12, "document count"),
            (22, "id length of document 0"),
            (26, "id of document 0"),
            (30, "row count of document 0"),
            (40, "rows of document 0"),
            (-3, "rows of document 2"),
        ],
    )
    def test_scan_of_truncated_file_is_reported(self, tmp_path, cut, what):
        """A file cut inside the header, an id, a row count or rows, the last document's too, fails to open
        by path and part."""
        path = tmp_path / "emb.fdae"
        write_external_embeddings(self._matrices(np.random.default_rng(10)), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(EmbeddingFormatError) as err:
            load_external_embeddings(path)
        assert str(err.value).startswith(f"{path}: truncated {what} (")

    def test_validation_against_corpus(self, tmp_path):
        """Fixture: embeddings generated offline for a 5-doc corpus are accepted."""
        rng = np.random.default_rng(11)
        docs = tuple(make_doc(f"doc{i}", [f"t{j}" for j in range(5 + i)]) for i in range(5))
        corpus = Corpus(docs)
        mats = [EmbeddingMatrix(d.doc_id, rng.normal(size=(len(d.tokens), 4))) for d in docs]
        path = tmp_path / "emb.fdae"
        write_external_embeddings(mats, path)
        provider = load_external_embeddings(path)
        for doc in corpus:  # row counts equal token counts
            assert provider.rows_of(doc).shape == (len(doc.tokens), 4)

        bad = [EmbeddingMatrix(d.doc_id, rng.normal(size=(len(d.tokens) + 1, 4))) for d in docs]
        path2 = tmp_path / "bad.fdae"
        write_external_embeddings(bad, path2)
        bad_provider = load_external_embeddings(path2)
        for doc in corpus:
            with pytest.raises(EmbeddingFormatError, match="rows"):
                bad_provider.rows_of(doc)

    def test_truncated_file_is_reported(self, tmp_path):
        """A file cut after it was opened, inside a document's id, row count or rows, fails by path, document
        and byte counts."""
        rng = np.random.default_rng(12)
        path = tmp_path / "emb.fdae"
        mats = self._matrices(rng)
        write_external_embeddings(mats, path)
        provider = load_external_embeddings(path)
        data = path.read_bytes()
        last = mats[-1]
        start = len(data) - (4 + len(last.doc_id) + 8 + 4 * last.rows.size)
        rows_at = start + 4 + len(last.doc_id) + 8
        cuts = {
            "id length": start + 2,
            "id": start + 5,
            "row count": rows_at - 3,
            "rows": rows_at + 13,
        }
        for what, cut in cuts.items():
            path.write_bytes(data[:cut])
            with pytest.raises(EmbeddingFormatError) as err:
                provider.get(last.doc_id)
            message = str(err.value)
            assert str(path) in message and repr(last.doc_id) in message and f"truncated {what} " in message
            assert re.search(r"\(\d+ of \d+ bytes at offset \d+\)", message)
            np.testing.assert_array_equal(provider.get(mats[0].doc_id).rows, mats[0].rows)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        """A write that fails part-way leaves the previous file as it was, and no temporary file."""
        rng = np.random.default_rng(13)
        path = tmp_path / "emb.fdae"
        mats = self._matrices(rng)
        write_external_embeddings(mats, path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        bad = self._matrices(rng) + [EmbeddingMatrix("wide", np.zeros((3, 7)))] + self._matrices(rng)
        with pytest.raises(ValueError, match="dim 7"):
            write_external_embeddings(bad, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        provider = load_external_embeddings(path)
        for mat in mats:
            np.testing.assert_array_equal(provider.get(mat.doc_id).rows, mat.rows)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.fdae"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(EmbeddingFormatError, match="magic"):
            load_external_embeddings(path)

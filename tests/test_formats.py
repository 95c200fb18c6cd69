"""The two binary formats: their bytes are pinned, a checkpoint without a part names it, and one checked
reader reads each file's size once per open and reports a file cut while open by its part."""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from epiarg.encoder import EmbeddingMatrix, EncoderConfig, ModelParams, ToyEncoderParams
from epiarg.formats import (
    Checkpoint,
    EmbeddingFormatError,
    _Reader,
    load_checkpoint,
    load_external_embeddings,
    save_checkpoint,
    write_external_embeddings,
)

CONFIG = EncoderConfig(d_emb=2, d_model=3, radius=1, n_buckets=4, chunk_length=8)


def small_checkpoint() -> Checkpoint:
    encoder = ToyEncoderParams(
        CONFIG, {"a": 0, "é": 1}, np.arange(8.0).reshape(4, 2) / 8, np.arange(6.0).reshape(2, 3) - 2.5
    )
    params = ModelParams(encoder, np.full((3, 2), 0.1))
    return Checkpoint(params, {"encoder": CONFIG.to_dict()}, 3, ((1, 0.5), (3, 0.25)))


def test_golden_bytes(tmp_path):
    """SHA-256 of a small checkpoint and a small embedding file pin the written bytes; a non-ASCII name
    and a reducer tensor included."""
    save_checkpoint(small_checkpoint(), tmp_path / "c.fdck")
    mats = [EmbeddingMatrix("d0", np.arange(6.0).reshape(2, 3) / 4), EmbeddingMatrix("dé", -np.ones((1, 3)))]
    write_external_embeddings(mats, tmp_path / "e.fdae")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("c.fdck", "e.fdae")}
    assert digests == {
        "c.fdck": "9c99894bd70d7588627e8089a5e93d41b9b084f113f6ab3e572f0e04495d5d9e",
        "e.fdae": "2a9c6e61f7535b2265e8b6ff3cf8d8171990e210c19989a63b12998dab1fad22",
    }


def fdck_bytes(meta: dict, tensors: dict[str, np.ndarray]) -> bytes:
    """A checkpoint written by hand from the documented layout."""
    blob = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    out = [b"FDCK", struct.pack("<IQ", 1, len(blob)), blob, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)]
        out.append(arr.astype("<f4").tobytes())
    return b"".join(out)


def small_parts() -> tuple[dict, dict[str, np.ndarray]]:
    ckpt = small_checkpoint()
    meta = {"config": ckpt.config, "episode": 3, "history": [[1, 0.5], [3, 0.25]], "vocab": ckpt.params.encoder.vocab}
    return meta, ckpt.params.arrays()


def test_hand_written_layout_is_the_written_one(tmp_path):
    save_checkpoint(small_checkpoint(), tmp_path / "c.fdck")
    assert (tmp_path / "c.fdck").read_bytes() == fdck_bytes(*small_parts())


@pytest.mark.parametrize("part", ["encoder", "vocab", "episode", "history", "table", "projection"])
def test_checkpoint_without_a_part_names_it(tmp_path, part):
    """A meta without the config's encoder, the vocabulary, the episode or the history, or tensors
    without the table or the projection."""
    meta, tensors = small_parts()
    for mapping in (meta["config"], meta, tensors):
        mapping.pop(part, None)
    path = tmp_path / "bad.fdck"
    path.write_bytes(fdck_bytes(meta, tensors))
    with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint has no {part}")):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [[], {"history": [1, 2]}, {"vocab": [1]}], ids=["list", "history", "vocab"])
def test_checkpoint_with_a_part_of_another_type_names_the_file(tmp_path, meta):
    full, tensors = small_parts()
    path = tmp_path / "bad.fdck"
    path.write_bytes(fdck_bytes(meta if isinstance(meta, list) else {**full, **meta}, tensors))
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed checkpoint meta: ")):
        load_checkpoint(path)


def test_each_open_reads_the_size_once(tmp_path, monkeypatch):
    """Opening an embedding file of many documents, loading a checkpoint and each ``get`` call ``os.fstat``
    once apiece."""
    mats = [EmbeddingMatrix(f"d{i}", np.full((3, 4), float(i))) for i in range(50)]
    write_external_embeddings(mats, tmp_path / "e.fdae")
    save_checkpoint(small_checkpoint(), tmp_path / "c.fdck")
    calls = []
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: calls.append(fd) or real_fstat(fd))
    provider = load_external_embeddings(tmp_path / "e.fdae")
    assert len(calls) == 1
    load_checkpoint(tmp_path / "c.fdck")
    assert len(calls) == 2
    for mat in mats[:3]:
        provider.get(mat.doc_id)
    assert len(calls) == 5


def test_file_cut_while_open_names_the_part(tmp_path):
    """A file cut between two reads of one reader is reported as a truncated part, like a file that was
    short when opened. The rows are larger than the read buffer, so the cut is seen by the read itself."""
    path = tmp_path / "e.fdae"
    write_external_embeddings([EmbeddingMatrix("d0", np.ones((1000, 8)))], path)
    with open(path, "rb") as handle:
        reader = _Reader(handle, EmbeddingFormatError, suffix=" of document 0")
        reader.header(b"FDAE", 1)
        reader.unpack("<IQ", "dimension and count")
        assert reader.name("id") == "d0"
        (rows,) = reader.unpack("<Q", "row count")
        os.truncate(path, handle.tell() + 100)
        with pytest.raises(EmbeddingFormatError) as err:
            reader.tensor((rows, 8), "rows")
    message = str(err.value)
    assert message.startswith(f"{path}: truncated rows of document 0 (")
    assert re.search(r"\(\d+ of 32000 bytes at offset \d+\)$", message)

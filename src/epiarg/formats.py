"""The two binary artifacts, FDCK checkpoints and FDAE embedding files, and the rules they share: a
magic and a u32 version, u32-length-prefixed UTF-8 names, and little-endian f32 tensors read as f64.
Files are written through ``atomic_write`` and read through ``_Reader``, the one checked reader.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .corpus import Document
from .encoder import EmbeddingMatrix, EncoderConfig, ModelParams, ToyEncoderParams
from .files import atomic_write

_CKPT_MAGIC = b"FDCK"
_CKPT_VERSION = 1
_EMB_MAGIC = b"FDAE"
_EMB_VERSION = 1


class EmbeddingFormatError(ValueError):
    """An external embedding file violates the declared binary format."""


def _write_header(handle: IO[bytes], magic: bytes, version: int) -> None:
    handle.write(magic + struct.pack("<I", version))


def _write_name(handle: IO[bytes], name: str) -> None:
    encoded = name.encode("utf-8")
    handle.write(struct.pack("<I", len(encoded)) + encoded)


def _write_tensor(handle: IO[bytes], arr: np.ndarray) -> None:
    handle.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


class _Reader:
    """Reads of an open file whose size is read once, here. A request past that size (refused before it allocates)
    or a read cut short while open raises ``error`` naming the file and the part between ``prefix`` and ``suffix``."""

    def __init__(self, handle: IO[bytes], error: type[Exception], prefix: str = "", suffix: str = ""):
        self.handle, self.error, self.prefix, self.suffix = handle, error, prefix, suffix
        self.size = os.fstat(handle.fileno()).st_size

    def _require(self, n: int, left: int, offset: int, part: str) -> None:
        if n > left:
            part = f"{self.prefix}{part}{self.suffix}"
            raise self.error(f"{self.handle.name}: truncated {part} ({max(0, left)} of {n} bytes at offset {offset})")

    def read(self, n: int, part: str, skip: bool = False) -> bytes:
        """The next ``n`` bytes, or with ``skip`` none and the position moved past them."""
        offset = self.handle.tell()
        self._require(n, self.size - offset, offset, part)
        if skip:
            self.handle.seek(n, 1)
            return b""
        data = self.handle.read(n)
        self._require(n, len(data), offset, part)
        return data

    def unpack(self, fmt: str, part: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), part))

    def header(self, magic: bytes, version: int) -> None:
        if (found := self.read(len(magic), "magic")) != magic:
            raise self.error(f"{self.handle.name}: bad {self.prefix}magic {found!r}")
        if (found := self.unpack("<I", "version")[0]) != version:
            raise self.error(f"{self.handle.name}: unsupported {self.prefix}version {found}")

    def name(self, part: str) -> str:
        (length,) = self.unpack("<I", f"{part} length")
        return self.read(length, part).decode("utf-8")

    def tensor(self, shape: tuple[int, ...], part: str) -> np.ndarray:
        data = self.read(4 * math.prod(shape), part)
        return np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(shape)


@dataclass
class Checkpoint:
    params: ModelParams
    config: dict
    episode: int
    history: tuple[tuple[int, float], ...] = ()

    @property
    def best_f1(self) -> float:
        return max((f1 for _, f1 in self.history), default=0.0)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Layout: magic "FDCK", u32 version, u64 length and JSON of the config, episode, history and
    vocabulary, u32 tensor count, then per tensor its name, u32 ndim, u64 dims and f32 data. Written
    through ``atomic_write``, so a failure leaves the previous checkpoint at ``path``.
    """
    meta = {
        "config": ckpt.config,
        "episode": ckpt.episode,
        "history": [[e, f] for e, f in ckpt.history],
        "vocab": ckpt.params.encoder.vocab,
    }
    blob = json.dumps(meta, ensure_ascii=False).encode("utf-8")
    tensors = ckpt.params.arrays()
    with atomic_write(path, "wb") as handle:
        _write_header(handle, _CKPT_MAGIC, _CKPT_VERSION)
        handle.write(struct.pack("<Q", len(blob)) + blob + struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            _write_name(handle, name)
            handle.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            _write_tensor(handle, arr)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``; a file cut short, or one without a part the
    model needs or with a part of the wrong type, is a ``ValueError`` naming it."""
    with open(path, "rb") as handle:
        reader = _Reader(handle, ValueError, prefix="checkpoint ")
        reader.header(_CKPT_MAGIC, _CKPT_VERSION)
        (blob_len,) = reader.unpack("<Q", "meta length")
        meta = json.loads(reader.read(blob_len, "meta").decode("utf-8"))
        (n_tensors,) = reader.unpack("<I", "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            name = reader.name("tensor name")
            (ndim,) = reader.unpack("<I", f"tensor {name!r} rank")
            tensors[name] = reader.tensor(reader.unpack(f"<{ndim}Q", f"tensor {name!r} shape"), f"tensor {name!r}")
    try:
        encoder_cfg = EncoderConfig.from_dict(meta["config"]["encoder"])
        encoder = ToyEncoderParams(encoder_cfg, dict(meta["vocab"]), tensors["table"], tensors["projection"])
        history = tuple((int(e), float(f)) for e, f in meta["history"])
        return Checkpoint(ModelParams(encoder, tensors.get("reducer")), meta["config"], meta["episode"], history)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no {exc.args[0]}") from None
    except TypeError as exc:  # a part of another JSON type than the layout's
        raise ValueError(f"{path}: malformed checkpoint meta: {exc}") from None


def write_external_embeddings(matrices: Iterable[EmbeddingMatrix], path: str | Path) -> None:
    """Layout: magic "FDAE", u32 version, u32 d_model, u64 doc count, then per document its doc_id as a
    name, u64 row count and f32 rows, row-major. Written through ``atomic_write``, so a failure leaves
    the previous file; each matrix is written as it arrives, and the dimension and count at the end.
    """
    d_model = None
    with atomic_write(path, "wb") as handle:
        _write_header(handle, _EMB_MAGIC, _EMB_VERSION)
        handle.write(bytes(12))  # d_model and count follow the last matrix
        for count, mat in enumerate(matrices, 1):
            if d_model is None:
                d_model = mat.rows.shape[1]
            elif mat.rows.shape[1] != d_model:
                raise ValueError(f"matrix {mat.doc_id!r} has dim {mat.rows.shape[1]}, expected {d_model}")
            _write_name(handle, mat.doc_id)
            handle.write(struct.pack("<Q", mat.rows.shape[0]))
            _write_tensor(handle, mat.rows)
        if d_model is None:
            raise ValueError("no matrices to write")
        handle.seek(len(_EMB_MAGIC) + 4)
        handle.write(struct.pack("<IQ", d_model, count))


class EmbeddingProvider:
    """Random access to an external embedding file by doc_id."""

    def __init__(self, path: str | Path, d_model: int, offsets: dict[str, int]):
        self.path = Path(path)
        self.d_model = d_model
        self._offsets = offsets

    def get(self, doc_id: str) -> EmbeddingMatrix:
        """The document's rows; a file cut short is an ``EmbeddingFormatError`` naming it and the document."""
        if doc_id not in self._offsets:
            raise EmbeddingFormatError(f"doc_id {doc_id!r} not present in {self.path}")
        with open(self.path, "rb") as handle:
            reader = _Reader(handle, EmbeddingFormatError, suffix=f" of doc {doc_id!r}")
            handle.seek(self._offsets[doc_id])
            if (stored_id := reader.name("id")) != doc_id:
                raise EmbeddingFormatError(f"{self.path} changed since it was opened: {stored_id!r} for {doc_id!r}")
            (rows,) = reader.unpack("<Q", "row count")
            return EmbeddingMatrix(doc_id, reader.tensor((rows, self.d_model), "rows"))

    def rows_of(self, doc: Document) -> np.ndarray:
        """The document's rows, checked to number one per token."""
        rows = self.get(doc.doc_id).rows
        if rows.shape[0] != len(doc.tokens):
            raise EmbeddingFormatError(
                f"doc {doc.doc_id!r}: {rows.shape[0]} embedding rows and {len(doc.tokens)} tokens disagree"
            )
        return rows


def load_external_embeddings(path: str | Path) -> EmbeddingProvider:
    """Open an embedding file. One pass over the document headers builds the offset table and checks
    that every document's rows are in the file."""
    with open(path, "rb") as handle:
        reader = _Reader(handle, EmbeddingFormatError)
        reader.header(_EMB_MAGIC, _EMB_VERSION)
        (d_model,) = reader.unpack("<I", "dimension")
        (doc_count,) = reader.unpack("<Q", "document count")
        offsets: dict[str, int] = {}
        for k in range(doc_count):
            reader.suffix = f" of document {k}"
            offset = handle.tell()
            offsets[reader.name("id")] = offset
            (rows,) = reader.unpack("<Q", "row count")
            reader.read(rows * d_model * 4, "rows", skip=True)
        if len(offsets) != doc_count:
            raise EmbeddingFormatError(f"{path}: header declares {doc_count} documents, found {len(offsets)}")
    return EmbeddingProvider(path, d_model, offsets)

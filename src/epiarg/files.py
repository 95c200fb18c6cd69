"""The one file writer: each artifact is written by ``atomic_write``, replacing its target whole or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle on a temporary file beside ``path`` that replaces ``path`` only when the block completes.

    ``mode`` is ``"w"`` (UTF-8 text, newlines written as given) or ``"wb"``. On an error the temporary
    file is removed and ``path`` keeps its previous contents, so a failed or killed command never
    leaves a half-written artifact for the next stage to read. A missing directory is created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": ""} if mode == "w" else {}
    try:
        with open(tmp, mode, **text) as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)

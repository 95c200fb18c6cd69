"""Corpus ingestion, filtering, domain splits, and leakage masking.

The canonical corpus format is UTF-8 JSON-lines, one document per line:

    {"doc_id": str, "title": str, "event_type": str,
     "tokens": [str, ...],
     "arguments": [{"start": int, "end": int, "role": str}, ...]}

Span offsets are token indices, half-open ``[start, end)``. Character-offset
sources must be converted on ingest (see ``span_from_chars``).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from .files import atomic_write
from .record import Record


class CorpusFormatError(ValueError):
    """A corpus file or record violates the document schema."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SplitSpecError(ValueError):
    """A split specification is inconsistent with itself or the corpus."""


# Roles that occur across all domain splits and are kept train-only.
DEFAULT_FREQUENT_ROLES = (
    "Date",
    "Causes",
    "Areas affected",
    "Location",
    "Casualties",
    "Losses",
)


@dataclass(frozen=True)
class ArgumentSpan:
    """A contiguous token range filling one argument role."""

    start: int
    end: int
    role: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise CorpusFormatError(
                f"invalid span boundaries ({self.start}, {self.end}) for role {self.role!r}"
            )


@dataclass(frozen=True)
class Document:
    """A tokenized article with one main event and its gold argument spans."""

    doc_id: str
    title: str
    event_type: str
    tokens: tuple[str, ...]
    arguments: tuple[ArgumentSpan, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise CorpusFormatError(f"document {self.doc_id!r} has no tokens")
        for span in self.arguments:
            if span.end > len(self.tokens):
                raise CorpusFormatError(
                    f"document {self.doc_id!r}: span out of bounds "
                    f"({span.start}, {span.end}) with {len(self.tokens)} tokens"
                )
        ordered = sorted(self.arguments, key=lambda s: (s.start, s.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise CorpusFormatError(
                    f"document {self.doc_id!r}: overlapping spans "
                    f"({prev.start},{prev.end},{prev.role}) and ({cur.start},{cur.end},{cur.role})"
                )

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(span.role for span in self.arguments)

    def with_arguments(self, arguments: Iterable[ArgumentSpan]) -> "Document":
        return Document(self.doc_id, self.title, self.event_type, self.tokens, tuple(arguments))

    def restricted_to(self, roles: Container[str]) -> "Document":
        """The document with only its spans whose role is in ``roles``; the document itself when none is dropped."""
        kept = tuple(span for span in self.arguments if span.role in roles)
        return self if len(kept) == len(self.arguments) else self.with_arguments(kept)


@dataclass(frozen=True)
class Corpus:
    """An immutable pool of documents with unique ids."""

    documents: tuple[Document, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for doc in self.documents:
            if doc.doc_id in seen:
                raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def role_counts(self) -> Counter:
        """Annotated-instance count per argument role."""
        counts: Counter = Counter()
        for doc in self.documents:
            for span in doc.arguments:
                counts[span.role] += 1
        return counts

    @property
    def event_types(self) -> frozenset[str]:
        return frozenset(doc.event_type for doc in self.documents)

    @property
    def arg_types(self) -> frozenset[str]:
        return frozenset(span.role for doc in self.documents for span in doc.arguments)


SPLIT_NAMES = ("in_domain_small", "in_domain_base", "cross_domain", "custom")
# A split's pools, in the order specs list their event types and commands write and report them.
POOL_NAMES = ("train", "dev", "test")


@dataclass(frozen=True)
class SplitSpec(Record):
    """Event-type assignment for train/dev/test plus roles forced train-only."""

    name: str
    train_event_types: tuple[str, ...]
    dev_event_types: tuple[str, ...]
    test_event_types: tuple[str, ...]
    frequent_roles: tuple[str, ...] = DEFAULT_FREQUENT_ROLES
    mask_frequent_in_dev: bool = True

    error = SplitSpecError  # what ``from_dict`` raises for a missing or mistyped field

    def __post_init__(self):
        if self.name not in SPLIT_NAMES:
            raise SplitSpecError(f"split name must be one of {SPLIT_NAMES}, got {self.name!r}")
        for (a, listed_a), (b, listed_b) in combinations(self.pools().items(), 2):
            shared = set(listed_a) & set(listed_b)
            if shared:
                raise SplitSpecError(
                    f"split {self.name!r}: event types {sorted(shared)} appear in both {a} and {b}"
                )

    def pools(self) -> dict[str, tuple[str, ...]]:
        """Each pool's listed event types, by pool name."""
        return {pool: getattr(self, f"{pool}_event_types") for pool in POOL_NAMES}

    @classmethod
    def from_json(cls, path: str | Path, name: str | None = None) -> "SplitSpec":
        """Read one spec, or pick spec ``name`` from a ``{"specs": [...]}`` file.

        ``name`` may be left out when the file holds a single spec; when given,
        it must match.
        """
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        listed = data.get("specs", []) if isinstance(data, dict) else None
        if not (isinstance(listed, list) and all(isinstance(s, dict) for s in listed)):
            raise SplitSpecError(f'{path} must hold a split spec object or {{"specs": [split spec objects]}}')
        if "specs" in data:
            specs: dict[str, dict] = {}
            for i, entry in enumerate(listed):
                entry_name = entry.get("name")
                if not isinstance(entry_name, str):
                    raise SplitSpecError(f"{path}: entry {i} of 'specs' needs a string field 'name'")
                if entry_name in specs:
                    raise SplitSpecError(f"{path}: split {entry_name!r} is listed more than once in 'specs'")
                specs[entry_name] = entry
            name = name or (next(iter(specs)) if len(specs) == 1 else None)
            if name is None or name not in specs:
                raise SplitSpecError(f"--split must name one of {sorted(specs)} from {path}")
            return cls.from_dict(specs[name])
        spec = cls.from_dict(data)
        if name is not None and name != spec.name:
            raise SplitSpecError(f"{path} holds split {spec.name!r}, not {name!r}")
        return spec


@dataclass(frozen=True)
class SplitCorpus:
    """Train/dev/test document pools produced by ``compute_split``."""

    train: Corpus
    dev: Corpus
    test: Corpus

    def pools(self) -> dict[str, Corpus]:
        return {pool: getattr(self, pool) for pool in POOL_NAMES}


@dataclass(frozen=True)
class CorpusStats(Record):
    num_docs: int
    num_event_types: int
    num_arg_types: int
    tokens_per_doc: float
    arg_instances: int


def span_from_chars(char_start: int, char_end: int, token_offsets: Sequence[tuple[int, int]], role: str) -> ArgumentSpan:
    """Convert a character-offset span to token offsets.

    ``token_offsets`` gives (char_start, char_end) per token. The span covers
    every token it overlaps; raises if it overlaps none.
    """
    covered = [
        i
        for i, (ts, te) in enumerate(token_offsets)
        if ts < char_end and te > char_start
    ]
    if not covered:
        raise CorpusFormatError(
            f"character span ({char_start}, {char_end}) covers no tokens"
        )
    return ArgumentSpan(covered[0], covered[-1] + 1, role)


def document_from_record(record: dict, strings: dict[str, str], line: int | None = None) -> Document:
    """Build a validated Document from one parsed JSON record.

    The record must be an object; ``doc_id``, ``title``, ``event_type`` and each role must be
    strings, ``arguments`` a list, and each offset a JSON integer (not a boolean, fraction or string).
    Each token is replaced by its entry in ``strings``, which gains the tokens it lacks: a reader
    passes one table for a whole file, so every occurrence of a word shares one ``str``.
    """
    if not isinstance(record, dict):
        raise CorpusFormatError(f"a document must be a JSON object, got {record!r}", line)
    try:
        doc_id = record["doc_id"]
        title = record.get("title", "")
        event_type = record["event_type"]
        tokens = record["tokens"]
        raw_args = record["arguments"]
    except KeyError as exc:
        raise CorpusFormatError(f"missing field {exc.args[0]!r}", line) from exc
    for name, value in (("doc_id", doc_id), ("title", title), ("event_type", event_type)):
        if not isinstance(value, str):
            raise CorpusFormatError(f"field {name!r} must be a string, got {value!r}", line)
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {str}:  # map runs in C, unlike a generator
        raise CorpusFormatError(f"document {doc_id!r}: tokens must be a list of strings", line)
    if not isinstance(raw_args, list):
        raise CorpusFormatError(f"document {doc_id!r}: arguments must be a list, got {raw_args!r}", line)
    spans = []
    for raw in raw_args:
        if not (
            isinstance(raw, dict)
            and type(raw.get("start")) is int  # a JSON integer: bool is a subclass of int
            and type(raw.get("end")) is int
            and isinstance(raw.get("role"), str)
        ):
            raise CorpusFormatError(f"document {doc_id!r}: malformed argument record {raw!r}", line)
        try:
            spans.append(ArgumentSpan(raw["start"], raw["end"], raw["role"]))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"document {doc_id!r}: {exc}", line) from exc
    try:
        return Document(doc_id, title, event_type, tuple(map(strings.setdefault, tokens, tokens)), tuple(spans))
    except CorpusFormatError as exc:
        raise CorpusFormatError(str(exc), line) from exc


def document_to_record(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "title": doc.title,
        "event_type": doc.event_type,
        "tokens": list(doc.tokens),
        "arguments": [
            {"start": s.start, "end": s.end, "role": s.role} for s in doc.arguments
        ],
    }


def read_json_lines(path: str | Path) -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSON-lines file, parsed, with its line number; a line that is not
    JSON is a ``CorpusFormatError`` naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON: {exc.msg}", line_no) from exc
            yield line_no, record


def parse_corpus(path: str | Path) -> Corpus:
    """Read a JSON-lines corpus file, rejecting malformed records.

    Raises ``CorpusFormatError`` with the offending line number rather than
    repairing anything; a repeated ``doc_id`` names its first line too.
    """
    documents = []
    first_line: dict[str, int] = {}
    strings: dict[str, str] = {}
    for line_no, record in read_json_lines(path):
        doc = document_from_record(record, strings, line_no)
        first = first_line.setdefault(doc.doc_id, line_no)
        if first != line_no:
            raise CorpusFormatError(f"duplicate doc_id {doc.doc_id!r}, first on line {first}", line_no)
        documents.append(doc)
    return Corpus(tuple(documents))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the canonical JSON-lines format (round-trips with ``parse_corpus``)."""
    with atomic_write(path) as handle:
        for doc in corpus:
            handle.write(json.dumps(document_to_record(doc), ensure_ascii=False) + "\n")


def filter_rare_types(corpus: Corpus, min_count: int) -> Corpus:
    """Drop event types and argument roles with fewer than ``min_count`` annotated examples.

    Event types are counted in documents, roles in span instances. Documents
    that lose all their arguments are dropped from the pool. Removal is
    iterated to a fixed point so the operation is idempotent.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    while True:
        event_counts = Counter(doc.event_type for doc in corpus)
        keep_events = {e for e, c in event_counts.items() if c >= min_count}
        keep_roles = {r for r, c in corpus.role_counts().items() if c >= min_count}
        views = (doc.restricted_to(keep_roles) for doc in corpus if doc.event_type in keep_events)
        kept = tuple(view for view in views if view.arguments)
        if len(kept) == len(corpus) and all(a is b for a, b in zip(kept, corpus)):
            return corpus
        corpus = Corpus(kept)


def compute_split(corpus: Corpus, spec: SplitSpec) -> SplitCorpus:
    """Assign every document to one pool by its event type."""
    present = corpus.event_types
    pools: dict[str, list[Document]] = {}
    pool_of: dict[str, list[Document]] = {}
    for pool, listed in spec.pools().items():
        missing = set(listed) - present
        if missing:
            raise SplitSpecError(
                f"split {spec.name!r}: {pool} event types {sorted(missing)} absent from corpus"
            )
        pools[pool] = []
        pool_of.update(dict.fromkeys(listed, pools[pool]))
    for doc in corpus:
        if doc.event_type in pool_of:
            pool_of[doc.event_type].append(doc)
    return SplitCorpus(**{pool: Corpus(tuple(docs)) for pool, docs in pools.items()})


def apply_leakage_mask(split: SplitCorpus, spec: SplitSpec) -> tuple[SplitCorpus, dict[str, int]]:
    """Remove dev/test argument labels that would leak training supervision.

    Two rules, applied to dev and test pools only:
      (a) spans whose role also occurs in the train pool are relabeled O
          (the span is removed, the tokens stay);
      (b) spans whose role is in ``spec.frequent_roles`` are removed
          (always from test; from dev too unless ``mask_frequent_in_dev`` is off).

    Token text and document membership are never changed. Returns the masked
    split and a report of removed-span counts per role.
    """
    train_roles = split.train.arg_types
    removed: Counter = Counter()

    def mask_pool(pool: Corpus, mask_frequent: bool) -> Corpus:
        keep = pool.arg_types - train_roles - set(spec.frequent_roles if mask_frequent else ())
        masked_pool = Corpus(tuple(doc.restricted_to(keep) for doc in pool))
        removed.update(pool.role_counts() - masked_pool.role_counts())
        return masked_pool

    masked = SplitCorpus(
        train=split.train,
        dev=mask_pool(split.dev, spec.mask_frequent_in_dev),
        test=mask_pool(split.test, True),
    )
    leaked = masked.train.arg_types & (masked.dev.arg_types | masked.test.arg_types)
    if leaked:
        raise AssertionError(f"leakage mask left shared roles {sorted(leaked)}")
    return masked, dict(sorted(removed.items()))


def corpus_stats(corpus: Corpus) -> CorpusStats:
    num_docs = len(corpus)
    total_tokens = sum(len(doc.tokens) for doc in corpus)
    return CorpusStats(
        num_docs=num_docs,
        num_event_types=len(corpus.event_types),
        num_arg_types=len(corpus.arg_types),
        tokens_per_doc=(total_tokens / num_docs) if num_docs else 0.0,
        arg_instances=sum(len(doc.arguments) for doc in corpus),
    )

"""Input generators for the benchmark workloads.

Everything here is derived from the workload seed alone; the program under
test only ever sees the generated corpora, never the generator. The
generators use their own ``numpy`` streams rather than the package's seeding
helpers, so a change to the package cannot silently change the inputs.
"""

from __future__ import annotations

import numpy as np

from epiarg.corpus import DEFAULT_FREQUENT_ROLES, ArgumentSpan, Corpus, Document, SplitSpec


def _rng(seed: int, name: str) -> np.random.Generator:
    tag = sum((i + 1) * ord(c) for i, c in enumerate(name))
    return np.random.default_rng([seed & 0xFFFFFFFF, tag])


def _layout(rng: np.random.Generator, n_spans: int, span_len: int, doc_len: int, min_gap: int) -> list[int]:
    """Start offsets of ``n_spans`` non-overlapping spans spread over the document."""
    slack = doc_len - n_spans * (span_len + min_gap) - min_gap
    cuts = np.sort(rng.integers(0, slack + 1, size=n_spans))
    return [min_gap + int(c) + i * (span_len + min_gap) for i, c in enumerate(cuts)]


# doc-heads: DocEE-like long documents ------------------------------------------------

DOC_EVENT_TYPES = 8
DOC_DOCS_PER_EVENT = 16
DOC_ROLES_PER_EVENT = 4
DOC_LENGTH = (780, 821)
DOC_SHARED_VOCAB = 1500
DOC_PRIVATE_VOCAB = 400
DOC_PRIVATE_SHARE = 0.3


def doc_corpus(seed: int, radius: int = 3) -> tuple[Corpus, SplitSpec]:
    """Long documents whose argument spans are centred on a role marker.

    A span of an event's j-th role is ``2 * radius + 1`` tokens with marker
    ``m<j>`` in the middle, so at the encoder radius every span token sees its
    marker and no O token does. Filler draws from a vocabulary shared by all
    event types and, with probability ``DOC_PRIVATE_SHARE``, from one private
    to the document's event type: the private words of dev and test events are
    out of vocabulary for the trained table.
    """
    rng = _rng(seed, "doc-heads")
    span_len = 2 * radius + 1
    events = [f"event_{e}" for e in range(DOC_EVENT_TYPES)]
    shared = np.array([f"s{i}" for i in range(DOC_SHARED_VOCAB)])
    docs = []
    for e, event in enumerate(events):
        private = np.array([f"e{e}w{i}" for i in range(DOC_PRIVATE_VOCAB)])
        for d in range(DOC_DOCS_PER_EVENT):
            length = int(rng.integers(*DOC_LENGTH))
            use_private = rng.random(length) < DOC_PRIVATE_SHARE
            tokens = np.where(
                use_private,
                private[rng.integers(DOC_PRIVATE_VOCAB, size=length)],
                shared[rng.integers(DOC_SHARED_VOCAB, size=length)],
            ).tolist()
            n_roles = int(rng.integers(2, 4))
            role_ids = [int(j) for j in rng.choice(DOC_ROLES_PER_EVENT, size=n_roles, replace=False)]
            role_of_span = [j for j in role_ids for _ in range(int(rng.integers(1, 4)))]
            rng.shuffle(role_of_span)
            starts = _layout(rng, len(role_of_span), span_len, length, min_gap=radius + 2)
            spans = []
            for start, j in zip(starts, role_of_span):
                tokens[start + radius] = f"m{j}"
                spans.append(ArgumentSpan(start, start + span_len, f"{event}_role{j}"))
            docs.append(Document(f"{event}_doc{d:03d}", f"long {event} {d}", event, tuple(tokens), tuple(spans)))
    spec = SplitSpec(
        name="custom",
        train_event_types=tuple(events[:-2]),
        dev_event_types=(events[-2],),
        test_event_types=(events[-1],),
        frequent_roles=(),
    )
    return Corpus(tuple(docs)), spec


# cli-pipeline: many short documents with calibrated argument density ----------------

CLI_EVENT_TYPES = 10
CLI_DOCS = 3000
CLI_ROLES_PER_EVENT = 10
CLI_VOCAB = 5000
CLI_FREQUENT_RATE = 0.35
# Distinct-role count weights over 1..7, as in ``epiarg.synthetic.calibrated_corpus``.
CLI_ROLE_WEIGHTS = np.array([0.10, 0.22, 0.26, 0.20, 0.12, 0.07, 0.03])


def cli_corpus(seed: int) -> tuple[Corpus, SplitSpec]:
    """Short documents with calibrated argument density and event-private role names.

    Role names are private to each event type, so the leakage mask removes
    only the frequent roles from dev and test. Roles shared across event
    types would strip dev down to too few roles to sample 3-way episodes.
    """
    rng = _rng(seed, "cli-pipeline")
    events = [f"event_{e}" for e in range(CLI_EVENT_TYPES)]
    # Exact shares rather than independent draws, so that every seed yields the
    # same mix of documents and pool sizes; only which roles and tokens vary.
    counts = np.floor(CLI_ROLE_WEIGHTS / CLI_ROLE_WEIGHTS.sum() * CLI_DOCS).astype(int)
    counts[2] += CLI_DOCS - counts.sum()
    role_counts = rng.permutation(np.repeat(np.arange(1, 8), counts))
    frequent = rng.permutation(np.arange(CLI_DOCS) < round(CLI_FREQUENT_RATE * CLI_DOCS))
    docs = []
    for d in range(CLI_DOCS):
        event = events[d % CLI_EVENT_TYPES]
        n_roles = int(role_counts[d])
        roles = [f"{event}_r{int(j)}" for j in rng.choice(CLI_ROLES_PER_EVENT, size=n_roles, replace=False)]
        if frequent[d]:
            roles.append(DEFAULT_FREQUENT_ROLES[int(rng.integers(len(DEFAULT_FREQUENT_ROLES)))])
        repeat_rate = max(0.0, 0.9 - 0.145 * n_roles)
        role_of_span = [r for r in roles for _ in range(1 + int(rng.poisson(repeat_rate)))]
        rng.shuffle(role_of_span)
        lengths = [int(rng.integers(1, 4)) for _ in role_of_span]
        spans, cursor = [], int(rng.integers(2, 8))
        for length, role in zip(lengths, role_of_span):
            spans.append(ArgumentSpan(cursor, cursor + length, role))
            cursor += length + 2 + int(rng.integers(0, 6))
        length = cursor + int(rng.integers(10, 40))
        tokens = tuple(f"tok{int(t)}" for t in rng.integers(CLI_VOCAB, size=length))
        docs.append(Document(f"cli{d:05d}", f"short article {d}", event, tokens, tuple(spans)))
    spec = SplitSpec(
        name="custom",
        train_event_types=tuple(events[:6]),
        dev_event_types=tuple(events[6:8]),
        test_event_types=tuple(events[8:]),
    )
    return Corpus(tuple(docs)), spec

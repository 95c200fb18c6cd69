"""Synthetic corpora: randomized pools for invariant checks, a role-density
calibrated pool for sampling statistics, and a marker-separable pool on which
the toy encoder can actually learn the task.
"""

from __future__ import annotations

import numpy as np

from .corpus import ArgumentSpan, Corpus, Document, SplitSpec, DEFAULT_FREQUENT_ROLES
from .seeds import substream


def _place_spans(rng: np.random.Generator, lengths: list[int], min_gap: int, tail: int) -> tuple[list[tuple[int, int]], int]:
    """Lay spans left to right with random gaps; returns spans and the doc length."""
    spans = []
    gaps = rng.integers(0, 6, size=len(lengths) + 1).tolist()
    cursor = min_gap + gaps[0]
    for length, gap in zip(lengths, gaps[1:]):
        spans.append((cursor, cursor + length))
        cursor += length + min_gap + gap
    return spans, cursor + tail


def synthetic_corpus(
    seed: int,
    n_docs: int = 500,
    n_event_types: int = 10,
    roles_per_event: int = 8,
    shared_pool: int = 40,
    frequent_roles: tuple[str, ...] = DEFAULT_FREQUENT_ROLES,
    frequent_rate: float = 0.35,
) -> Corpus:
    """Randomized corpus with cross-event role sharing and the frequent roles sprinkled in.

    Documents carry 1-6 distinct roles with 1-3 spans each, which makes all
    of 3w1d / 3w2d / 6w2d feasible on a few hundred documents.
    """
    if not 1 <= roles_per_event <= shared_pool:
        raise ValueError(f"roles_per_event must be in [1, shared_pool={shared_pool}], got {roles_per_event}")
    rng = substream(seed, "synthetic")
    pool = [f"role_{i}" for i in range(shared_pool)]
    inventories = {
        f"event_{e}": sorted(rng.choice(shared_pool, size=roles_per_event, replace=False))
        for e in range(n_event_types)
    }
    docs = []
    for d in range(n_docs):
        event = f"event_{int(rng.integers(n_event_types))}"
        inventory = [pool[i] for i in inventories[event]]
        n_roles = int(rng.integers(1, 7))
        roles = [str(r) for r in rng.choice(inventory, size=min(n_roles, len(inventory)), replace=False)]
        if frequent_roles and rng.random() < frequent_rate:
            roles.append(frequent_roles[int(rng.integers(len(frequent_roles)))])
        counts = rng.integers(1, 4, size=len(roles)).tolist()
        role_of_span = [role for role, count in zip(roles, counts) for _ in range(count)]
        rng.shuffle(role_of_span)
        lengths = rng.integers(1, 4, size=len(role_of_span)).tolist()
        positions, doc_len = _place_spans(rng, lengths, min_gap=1, tail=int(rng.integers(5, 30)))
        tokens = [f"tok{t}" for t in rng.integers(2000, size=doc_len).tolist()]
        spans = tuple(
            ArgumentSpan(start, end, role) for (start, end), role in zip(positions, role_of_span)
        )
        docs.append(Document(f"doc{d:05d}", f"synthetic article {d}", event, tuple(tokens), spans))
    return Corpus(tuple(docs))


def calibrated_corpus(seed: int, n_docs: int = 800, n_event_types: int = 8) -> Corpus:
    """Corpus whose argument density is calibrated to document-level EAE data.

    Distinct-role counts per document follow a unimodal distribution over
    1..7 and per-role span counts shrink as documents spread over more
    roles; documents with exactly three distinct roles then carry about 4.4
    argument instances on average, the value the 3w1d sampling statistic is
    checked against (calibration-dependent, not a universal constant).
    """
    rng = substream(seed, "calibrated")
    n_role_weights = np.array([0.10, 0.22, 0.26, 0.20, 0.12, 0.07, 0.03])
    n_role_weights = n_role_weights / n_role_weights.sum()
    roles_per_event = 10
    pool = [f"role_{i}" for i in range(60)]
    inventories = {
        f"event_{e}": sorted(rng.choice(len(pool), size=roles_per_event, replace=False))
        for e in range(n_event_types)
    }
    docs = []
    for d in range(n_docs):
        event = f"event_{int(rng.integers(n_event_types))}"
        inventory = [pool[i] for i in inventories[event]]
        n_roles = int(rng.choice(7, p=n_role_weights)) + 1
        roles = [str(r) for r in rng.choice(inventory, size=n_roles, replace=False)]
        repeat_rate = max(0.0, 0.9 - 0.145 * n_roles)
        repeats = rng.poisson(repeat_rate, size=len(roles)).tolist()
        role_of_span = [role for role, extra in zip(roles, repeats) for _ in range(1 + extra)]
        rng.shuffle(role_of_span)
        lengths = rng.integers(1, 4, size=len(role_of_span)).tolist()
        positions, doc_len = _place_spans(rng, lengths, min_gap=2, tail=int(rng.integers(10, 40)))
        tokens = [f"tok{t}" for t in rng.integers(5000, size=doc_len).tolist()]
        spans = tuple(
            ArgumentSpan(start, end, role) for (start, end), role in zip(positions, role_of_span)
        )
        docs.append(Document(f"cal{d:05d}", f"calibrated article {d}", event, tuple(tokens), spans))
    return Corpus(tuple(docs))


def separable_corpus(
    seed: int,
    n_event_types: int = 6,
    roles_per_event: int = 4,
    docs_per_event: int = 40,
    radius: int = 1,
    n_fillers: int = 12,
) -> tuple[Corpus, SplitSpec]:
    """Corpus where token labels are perfectly determined by nearby marker tokens.

    A span of an event's j-th role is ``2*radius + 1`` tokens with the shared
    marker token ``m<j>`` at its center, so at the matching encoder radius
    every span token's context window contains the marker and no O token's
    window does. Role names are disjoint across event types (an event-type
    split is leakage-free by construction), but the j-th roles of all events
    reuse the same marker surface form: an encoder that learns to contrast
    the handful of markers against the small filler vocabulary on training
    events transfers that geometry unchanged to the unseen dev/test role
    names. Co-active roles within an event carry distinct markers, so
    episodes stay unambiguous.
    """
    for name, value, bound in (
        ("n_event_types", n_event_types, 2),
        ("roles_per_event", roles_per_event, 3),
        ("docs_per_event", docs_per_event, 1),
        ("radius", radius, 0),
        ("n_fillers", n_fillers, 1),
    ):
        if value < bound:
            raise ValueError(f"{name} must be >= {bound}, got {value}")
    rng = substream(seed, "separable")
    span_len = 2 * radius + 1
    fillers = [f"w{i}" for i in range(n_fillers)]
    events = [f"event_{e}" for e in range(n_event_types)]
    roles = {e: [f"{e}_role{j}" for j in range(roles_per_event)] for e in events}
    marker = {f"{e}_role{j}": f"m{j}" for e in events for j in range(roles_per_event)}
    docs = []
    for event in events:
        for d in range(docs_per_event):
            distinct = [roles[event][j] for j in rng.choice(roles_per_event, size=3, replace=False).tolist()]
            role_of_span = list(distinct)
            if rng.random() < 0.5:
                role_of_span.append(distinct[int(rng.integers(3))])
            rng.shuffle(role_of_span)
            positions, doc_len = _place_spans(
                rng, [span_len] * len(role_of_span), min_gap=radius + 2, tail=radius + 4
            )
            tokens = [fillers[i] for i in rng.integers(n_fillers, size=doc_len).tolist()]
            for (start, end), role in zip(positions, role_of_span):
                tokens[(start + end) // 2] = marker[role]
            spans = tuple(
                ArgumentSpan(start, end, role) for (start, end), role in zip(positions, role_of_span)
            )
            docs.append(
                Document(f"{event}_doc{d:04d}", f"separable {event} {d}", event, tuple(tokens), spans)
            )
    n_train = max(1, n_event_types - 2)
    spec = SplitSpec(
        name="custom",
        train_event_types=tuple(events[:n_train]),
        dev_event_types=(events[n_train],),
        test_event_types=(events[n_train + 1],) if n_train + 1 < n_event_types else (),
        frequent_roles=(),
    )
    return Corpus(tuple(docs)), spec


def three_way_specs(corpus: Corpus, seed: int, frequent_roles: tuple[str, ...] = DEFAULT_FREQUENT_ROLES) -> dict[str, SplitSpec]:
    """Three split specs over the corpus's event types, echoing the published settings.

    ``in_domain_small`` leaves roughly half the event types for training;
    the other two use a larger training base. Partitions are random but
    deterministic in the seed.
    """
    rng = substream(seed, "splits")
    events = sorted(corpus.event_types)
    fractions = {
        "in_domain_small": (0.50, 0.24),
        "in_domain_base": (0.70, 0.15),
        "cross_domain": (0.70, 0.15),
    }
    specs = {}
    for name, (train_frac, dev_frac) in fractions.items():
        order = list(events)
        rng.shuffle(order)
        n_train = max(1, int(round(train_frac * len(order))))
        n_dev = max(1, int(round(dev_frac * len(order))))
        n_train = min(n_train, len(order) - 2)
        specs[name] = SplitSpec(
            name=name,
            train_event_types=tuple(sorted(order[:n_train])),
            dev_event_types=tuple(sorted(order[n_train : n_train + n_dev])),
            test_event_types=tuple(sorted(order[n_train + n_dev :])),
            frequent_roles=frequent_roles,
        )
    return specs

"""Episode generation: exactly N active roles spread over exactly D support documents.

The per-type shot count K is emergent, not a constraint: a support document
keeps every span whose role is active, however many there are.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, CorpusFormatError, Document, document_from_record, document_to_record, read_json_lines
from .files import atomic_write
from .record import Record
from .seeds import substream

# Rejected draws tolerated before the support candidate is rebuilt from scratch.
_RESET_FACTOR = 10
# Draw budget for one stratified attempt before falling back to uniform sampling.
_STRATUM_ATTEMPTS = 2000


class InfeasibleSamplingError(RuntimeError):
    """The pool cannot satisfy the requested episode shape."""


@dataclass(frozen=True)
class SamplerConfig(Record):
    n_ways: int
    d_docs: int
    query_size: int = 1
    seed: int = 0
    max_attempts: int = 100_000

    def __post_init__(self):
        if self.n_ways < 1 or self.d_docs < 1 or self.query_size < 1 or self.max_attempts < 1:
            raise ValueError(f"invalid sampler config {self}")

    @property
    def setting(self) -> str:
        return f"{self.n_ways}w{self.d_docs}d"


@dataclass(frozen=True)
class Episode:
    """One few-shot task: a labeled support set and query documents to tag.

    Support and query documents carry only the spans whose role is active;
    everything else is O by construction.
    """

    episode_id: int
    active_types: tuple[str, ...]
    support: tuple[Document, ...]
    query: tuple[Document, ...]

    def support_doc_ids(self) -> frozenset[str]:
        return frozenset(d.doc_id for d in self.support)

    def query_doc_ids(self) -> frozenset[str]:
        return frozenset(d.doc_id for d in self.query)


@dataclass(frozen=True)
class EpisodeSet:
    episodes: tuple[Episode, ...]
    config: SamplerConfig

    def __len__(self) -> int:
        return len(self.episodes)

    def __iter__(self):
        return iter(self.episodes)


@dataclass(frozen=True)
class EpisodeStats:
    """Support-argument density statistics over an episode set."""

    n_episodes: int
    micro_avg_args: float
    macro_avg_args: float
    k_shot_distribution: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "n_episodes": self.n_episodes,
            "micro_avg_args": self.micro_avg_args,
            "macro_avg_args": self.macro_avg_args,
            "k_shot_distribution": {str(k): v for k, v in sorted(self.k_shot_distribution.items())},
        }


class PoolIndex:
    """Precomputed lookup structures for one sampling pool."""

    def __init__(self, pool: Corpus):
        self.docs = pool.documents
        self.doc_roles = [doc.roles for doc in self.docs]
        self.docs_with_role: dict[str, list[int]] = {}
        for i, roles in enumerate(self.doc_roles):
            for role in sorted(roles):
                self.docs_with_role.setdefault(role, []).append(i)
        self.all_roles = frozenset(self.docs_with_role)
        by_event: dict[str, list[int]] = {}
        for i, doc in enumerate(self.docs):
            by_event.setdefault(doc.event_type, []).append(i)
        self.docs_by_event = by_event


def _sample_support(
    index: PoolIndex,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    candidates: Sequence[int],
    seed_role: str | None,
    budget: int,
) -> tuple[list[int], set[str], int] | None:
    """Run the rejection loop over ``candidates``; returns (support, roles, draws used).

    A draw that would push the distinct-role count over N or the document
    count over D is discarded; after 10*D consecutive discards the candidate
    support is rebuilt from scratch. ``seed_role``, when given, forces the
    first accepted document to contain that role.
    """
    n, d = cfg.n_ways, cfg.d_docs
    if len(candidates) < d:
        return None
    seed_candidates: list[int] | None = None
    if seed_role is not None:
        role_docs = set(index.docs_with_role.get(seed_role, ()))
        seed_candidates = [i for i in candidates if i in role_docs]
        if not seed_candidates:
            return None
    candidates = list(candidates)
    draws = 0
    while draws < budget:
        support: list[int] = []
        chosen: set[int] = set()
        roles: set[str] = set()
        rejects = 0
        while draws < budget:
            source = seed_candidates if (seed_candidates is not None and not support) else candidates
            pick = source[int(rng.integers(len(source)))]
            draws += 1
            if pick in chosen:
                continue
            new_roles = roles | index.doc_roles[pick]
            if len(new_roles) > n or len(support) + 1 > d:
                rejects += 1
                if rejects >= _RESET_FACTOR * d:
                    break
                continue
            support.append(pick)
            chosen.add(pick)
            roles = new_roles
            rejects = 0
            if len(support) == d and len(roles) == n:
                return support, roles, draws
    return None


def _query_candidates(index: PoolIndex, active: Iterable[str], support: set[int]) -> list[int]:
    eligible: set[int] = set()
    for role in active:
        eligible.update(index.docs_with_role.get(role, ()))
    return sorted(eligible - support)


def sample_episode(
    pool: Corpus | PoolIndex,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    *,
    episode_id: int = 0,
    support_candidates: Sequence[int] | None = None,
    seed_role: str | None = None,
    budget: int | None = None,
) -> Episode:
    """Sample one episode from the pool.

    Raises ``InfeasibleSamplingError`` when the pool cannot yield exactly
    ``n_ways`` roles over ``d_docs`` support documents plus ``query_size``
    disjoint query documents within the draw budget.
    """
    index = pool if isinstance(pool, PoolIndex) else PoolIndex(pool)
    if len(index.docs) == 0:
        raise InfeasibleSamplingError("empty pool")
    if cfg.n_ways > len(index.all_roles):
        raise InfeasibleSamplingError(
            f"N={cfg.n_ways} exceeds the {len(index.all_roles)} argument types in the pool"
        )
    if len(index.docs) < cfg.d_docs + cfg.query_size:
        raise InfeasibleSamplingError(
            f"pool of {len(index.docs)} documents cannot hold D={cfg.d_docs} support "
            f"plus {cfg.query_size} disjoint query documents"
        )
    if support_candidates is None:
        support_candidates = range(len(index.docs))
    remaining = cfg.max_attempts if budget is None else budget
    while remaining > 0:
        result = _sample_support(index, cfg, rng, support_candidates, seed_role, remaining)
        if result is None:
            break
        support_idx, roles, used = result
        remaining -= used
        eligible = _query_candidates(index, roles, set(support_idx))
        if len(eligible) < cfg.query_size:
            continue
        query_idx = [int(i) for i in rng.choice(len(eligible), size=cfg.query_size, replace=False)]
        return Episode(
            episode_id=episode_id,
            active_types=tuple(sorted(roles)),
            support=tuple(index.docs[i].restricted_to(roles) for i in support_idx),
            query=tuple(index.docs[eligible[i]].restricted_to(roles) for i in query_idx),
        )
    raise InfeasibleSamplingError(
        f"exhausted the draw budget without an episode satisfying "
        f"N={cfg.n_ways}, D={cfg.d_docs}, query_size={cfg.query_size}"
    )


def generate_episode_set(
    pool: Corpus,
    cfg: SamplerConfig,
    count: int,
    balance: bool = False,
    *,
    label: str = "episodes",
) -> EpisodeSet:
    """Generate ``count`` episodes, deterministically for a given (pool, cfg, seed).

    With ``balance`` on, episodes rotate over event-type strata and, within a
    stratum, over anchor argument roles, before falling back to uniform
    draws for strata the pool cannot satisfy. ``label`` keeps train/dev/test
    streams independent under the same seed. Each episode draws from its own
    derived substream, so the first k episodes of a set do not depend on
    ``count``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    index = PoolIndex(pool)
    strata = sorted(index.docs_by_event)
    stratum_roles = {
        e: sorted({r for d in docs for r in index.doc_roles[d]}) for e, docs in index.docs_by_event.items()
    }
    warned: set[str] = set()
    episodes = []
    for i in range(count):
        rng = substream(cfg.seed, "sampler", label, i)
        episode = None
        if balance:
            event = strata[i % len(strata)]
            candidates = index.docs_by_event[event]
            roles = stratum_roles[event]
            anchor = roles[(i // len(strata)) % len(roles)] if roles else None
            if len(candidates) >= cfg.d_docs and len(roles) >= cfg.n_ways:
                try:
                    episode = sample_episode(
                        index,
                        cfg,
                        rng,
                        episode_id=i,
                        support_candidates=candidates,
                        seed_role=anchor,
                        budget=min(cfg.max_attempts, _STRATUM_ATTEMPTS),
                    )
                except InfeasibleSamplingError:
                    pass
            if episode is None and event not in warned:
                warned.add(event)
                warnings.warn(
                    f"stratum {event!r} unreachable for {cfg.setting}; falling back to uniform sampling",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if episode is None:
            episode = sample_episode(index, cfg, rng, episode_id=i)
        episodes.append(episode)
    return EpisodeSet(tuple(episodes), cfg)


def episode_stats(episode_set: EpisodeSet | Sequence[Episode]) -> EpisodeStats:
    """Support-argument density averages and the emergent K-shot distribution.

    The measured quantity is the retained support-span count of an episode.
    Micro averages it across all episodes. Macro groups episodes by active
    argument type, takes each type's group mean, and averages the group
    means, so types active in argument-dense episodes pull the macro up.
    The K-shot distribution histograms per-type span counts over every
    (episode, active type) pair.
    """
    episodes = list(episode_set)
    if not episodes:
        raise ValueError("episode set is empty")
    total_args = 0
    per_role_totals: dict[str, list[int]] = {}
    k_shot: Counter = Counter()
    for ep in episodes:
        counts: Counter = Counter()
        for doc in ep.support:
            for span in doc.arguments:
                counts[span.role] += 1
        episode_args = sum(counts.values())
        total_args += episode_args
        for role in ep.active_types:
            per_role_totals.setdefault(role, []).append(episode_args)
            k_shot[counts.get(role, 0)] += 1
    role_means = [sum(v) / len(v) for v in per_role_totals.values()]
    return EpisodeStats(
        n_episodes=len(episodes),
        micro_avg_args=total_args / len(episodes),
        macro_avg_args=sum(role_means) / len(role_means),
        k_shot_distribution=dict(k_shot),
    )


def write_episodes(episodes: EpisodeSet | Sequence[Episode], path: str | Path) -> None:
    """Write episodes as JSON-lines; document records use the corpus schema."""
    with atomic_write(path) as handle:
        for ep in episodes:
            record = {
                "episode_id": ep.episode_id,
                "active_types": list(ep.active_types),
                "support": [document_to_record(d) for d in ep.support],
                "query": [document_to_record(d) for d in ep.query],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_episodes(path: str | Path) -> list[Episode]:
    """Read episodes written by ``write_episodes``; a malformed line is a ``CorpusFormatError`` naming it."""
    episodes = []
    strings: dict[str, str] = {}
    for line_no, record in read_json_lines(path):
        if not isinstance(record, dict):
            raise CorpusFormatError(f"an episode must be a JSON object, got {record!r}", line_no)
        for name, valid, kind in (
            ("episode_id", lambda v: type(v) is int, "an integer"),  # bool is a subclass of int
            ("active_types", lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "a list of strings"),
            ("support", lambda v: isinstance(v, list), "a list of documents"),
            ("query", lambda v: isinstance(v, list), "a list of documents"),
        ):
            if name not in record:
                raise CorpusFormatError(f"missing field {name!r}", line_no)
            if not valid(record[name]):
                raise CorpusFormatError(f"{name} must be {kind}, got {record[name]!r}", line_no)
        support, query = (
            tuple(document_from_record(r, strings, line_no) for r in record[side]) for side in ("support", "query")
        )
        episodes.append(Episode(record["episode_id"], tuple(record["active_types"]), support, query))
    return episodes

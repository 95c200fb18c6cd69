"""The seeded corpora: pinned bytes, the stream property their array draws rest on, argument checks."""

from __future__ import annotations

import hashlib
import json

import pytest

from epiarg.corpus import document_to_record
from epiarg.seeds import substream
from epiarg.synthetic import calibrated_corpus, separable_corpus, synthetic_corpus, three_way_specs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _records(corpus) -> list[dict]:
    return [document_to_record(doc) for doc in corpus]


def _separable(seed: int, radius: int) -> list:
    corpus, spec = separable_corpus(seed, radius=radius)
    return [_records(corpus), spec.to_dict()]


def _specs(seed: int) -> dict:
    return {name: spec.to_dict() for name, spec in three_way_specs(synthetic_corpus(seed), seed).items()}


# SHA-256 of each generator's canonical JSON at seeds 0, 1 and 2, with default arguments.
GOLDEN = {
    "synthetic": (
        lambda seed: _records(synthetic_corpus(seed)),
        (
            "159d2ba8c211b660020d847afceda36c9e7d0562a1674913300e85b250411ed1",
            "db2fa12b58af1852fa00d37e882a499062679ac264c6630d91d9e17453178eb9",
            "e828c3fa34497dd29e6808f3e5573db33ba58dee2d074fa38ae6f4653a0be059",
        ),
    ),
    "calibrated": (
        lambda seed: _records(calibrated_corpus(seed)),
        (
            "c7c9b3373ac431615d8e559f53bc4ea9070a5794b371060c761d19b9d42efb14",
            "a11e9efd42dfc9371be4ce96a35e223438321239beab4ff94a2a1323d85a3cb0",
            "b9ebf2461c222cd36438fe323423e6f950e031c74d16ca7fcbd5d59f7bcbea8f",
        ),
    ),
    "separable_radius1": (
        lambda seed: _separable(seed, 1),
        (
            "5b5305bec40d6bd12128c1b1bde2e27a481f141de702e5daaa5a77689d046852",
            "f066967d06ca5692d08a0cdf22d5472aeed0a2c7ef80291be86a4a130c1a3e01",
            "1233dda8f85b40858de20be05d294cc369b137f8ec3c0a3db8a0532f7dd24cc6",
        ),
    ),
    "separable_radius3": (
        lambda seed: _separable(seed, 3),
        (
            "13e8abb7d0d2a42ca4f31a3e0b8b2d0b871b13e263665e83814ee688699e77f2",
            "6ad1e0534613c2227d3bd978cf5038f88c177a7614260bc119100909d3d53573",
            "2769573e06a4f93c5b0a87ea8aca0cd5914b5a83515df4276c39ec918d036c76",
        ),
    ),
    "three_way_specs": (
        _specs,
        (
            "b8ac09c8985a34cdc9cc0d089ca1a92ffefa1af651b5e901bc2e877209b7b712",
            "ba9c4d6b57af00968c0d966fcf8be9ff7930bbf61c5e5ea3a8fedd9a4b16545d",
            "1249a7aa81a6209054105129b772d39b485152d100d1177fa31f1ed436be96e6",
        ),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", GOLDEN)
def test_corpus_bytes_are_pinned(name, seed):
    build, digests = GOLDEN[name]
    assert _digest(build(seed)) == digests[seed]


# Every (low, high) that the generators draw as one array of bounded integers: gaps, span
# lengths and per-role span counts, the token vocabularies, and the default and smallest filler vocabularies.
INTEGER_BOUNDS = ((0, 6), (1, 4), (0, 2000), (0, 5000), (0, 12), (0, 1))
# ``calibrated_corpus``'s per-role repeat rates, for 1..7 distinct roles.
POISSON_RATES = tuple(max(0.0, 0.9 - 0.145 * n) for n in range(1, 8))
SIZES = (0, 1, 2, 7, 40)


def _scalar_then_array(draw_one, draw_many, k: int, seed: int):
    """The values and final stream state of k scalar draws, then of one size-k draw."""
    scalar_rng, array_rng = substream(seed, "scalar"), substream(seed, "scalar")
    scalar = [draw_one(scalar_rng) for _ in range(k)]
    array = draw_many(array_rng, k).tolist()
    return (scalar, scalar_rng.bit_generator.state), (array, array_rng.bit_generator.state)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("low, high", INTEGER_BOUNDS)
def test_integer_array_draw_consumes_the_stream_like_scalar_draws(low, high, k):
    for seed in range(20):
        scalar, array = _scalar_then_array(
            lambda rng: int(rng.integers(low, high)), lambda rng, n: rng.integers(low, high, size=n), k, seed
        )
        assert scalar == array


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("rate", POISSON_RATES)
def test_poisson_array_draw_consumes_the_stream_like_scalar_draws(rate, k):
    for seed in range(20):
        scalar, array = _scalar_then_array(
            lambda rng: int(rng.poisson(rate)), lambda rng, n: rng.poisson(rate, size=n), k, seed
        )
        assert scalar == array


def test_offset_bound_draws_like_the_zero_bound_plus_offset():
    """``integers(m, m + 6)`` draws ``m + integers(0, 6)``: the first gap of ``_place_spans``."""
    for seed in range(20):
        for min_gap in (1, 2, 3, 5):
            offset, zero = substream(seed, "gap"), substream(seed, "gap")
            assert int(offset.integers(min_gap, min_gap + 6)) == min_gap + int(zero.integers(0, 6))
            assert offset.bit_generator.state == zero.bit_generator.state


@pytest.mark.parametrize("n", (3, 4, 6, 10))
def test_choice_of_indices_draws_like_choice_of_names(n):
    names = [f"role{j}" for j in range(n)]
    for seed in range(20):
        by_index, by_name = substream(seed, "choice"), substream(seed, "choice")
        picked = [names[j] for j in by_index.choice(n, size=3, replace=False).tolist()]
        assert picked == [str(r) for r in by_name.choice(names, size=3, replace=False)]
        assert by_index.bit_generator.state == by_name.bit_generator.state


@pytest.mark.parametrize(
    "build, argument",
    [
        (lambda: separable_corpus(1, n_event_types=1), "n_event_types"),
        (lambda: separable_corpus(1, roles_per_event=2), "roles_per_event"),
        (lambda: separable_corpus(1, docs_per_event=0), "docs_per_event"),
        (lambda: separable_corpus(1, radius=-1), "radius"),
        (lambda: separable_corpus(1, n_fillers=0), "n_fillers"),
        (lambda: synthetic_corpus(1, roles_per_event=50), "roles_per_event"),
        (lambda: synthetic_corpus(1, roles_per_event=0), "roles_per_event"),
        (lambda: synthetic_corpus(1, n_event_types=0), "n_event_types"),
        (lambda: synthetic_corpus(1, n_docs=-1), "n_docs"),
        (lambda: calibrated_corpus(1, n_event_types=0), "n_event_types"),
        (lambda: calibrated_corpus(1, n_docs=-1), "n_docs"),
    ],
    ids=[
        "separable-one-event-type",
        "separable-two-roles",
        "separable-no-documents",
        "separable-negative-radius",
        "separable-no-fillers",
        "synthetic-more-roles-than-pool",
        "synthetic-no-roles",
        "synthetic-no-event-types",
        "synthetic-negative-documents",
        "calibrated-no-event-types",
        "calibrated-negative-documents",
    ],
)
def test_generator_arguments_are_checked_before_drawing(build, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        build()


def test_smallest_allowed_separable_arguments_build_a_corpus():
    corpus, spec = separable_corpus(1, n_event_types=2, roles_per_event=3, docs_per_event=1, radius=0, n_fillers=1)
    assert len(corpus) == 2 and spec.test_event_types == ()

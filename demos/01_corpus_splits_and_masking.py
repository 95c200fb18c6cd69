"""Corpus handling from ingest to leakage-masked pools.

Builds a synthetic annotated corpus, round-trips it through the JSON-lines
format, filters rare types, splits by event type, and applies the leakage
mask that keeps evaluation argument types genuinely unseen.
"""

import json
import tempfile
from pathlib import Path

from epiarg import (
    apply_leakage_mask,
    compute_split,
    corpus_stats,
    filter_rare_types,
    parse_corpus,
    write_corpus,
)
from epiarg.synthetic import synthetic_corpus, three_way_specs

# --- 1. a corpus on disk -------------------------------------------------
corpus = synthetic_corpus(seed=7, n_docs=300)
with tempfile.TemporaryDirectory(prefix="epiarg_demo_") as workdir:
    path = Path(workdir) / "corpus.jsonl"
    write_corpus(corpus, path)
    corpus = parse_corpus(path)
    first_record = path.read_text().splitlines()[0]

stats = corpus_stats(corpus)
print("corpus:", json.dumps(stats.to_dict(), indent=2))
print("first record:", first_record[:120], "...")

# --- 2. rare-type filtering ----------------------------------------------
filtered = filter_rare_types(corpus, min_count=2)
print(
    f"\nfilter_rare_types(min_count=2): {len(corpus)} -> {len(filtered)} docs, "
    f"{stats.num_arg_types} -> {len(filtered.arg_types)} argument types"
)

# --- 3. event-type splits -------------------------------------------------
specs = three_way_specs(filtered, seed=7)
spec = specs["in_domain_small"]
split = compute_split(filtered, spec)
print(f"\nsplit '{spec.name}':")
for name, pool in split.pools().items():
    print(f"  {name}: {len(pool)} docs, {len(pool.event_types)} event types, {len(pool.arg_types)} arg types")

# --- 4. leakage masking ---------------------------------------------------
masked, report = apply_leakage_mask(split, spec)
print(f"\nmasking removed {sum(report.values())} spans over {len(report)} roles")
print("most-masked roles:", dict(sorted(report.items(), key=lambda kv: -kv[1])[:5]))
leak = masked.train.arg_types & (masked.dev.arg_types | masked.test.arg_types)
print("train/eval argument-type overlap after masking:", sorted(leak) or "none")

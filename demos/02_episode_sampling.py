"""Episode generation: fixed N argument types over fixed D support documents.

Shows the rejection sampler, the emergent (variable) K-shot counts, the
density statistics, and the determinism contract.
"""

import tempfile
from pathlib import Path

from epiarg import SamplerConfig, episode_stats, generate_episode_set, sample_episode, write_episodes
from epiarg.seeds import substream
from epiarg.synthetic import calibrated_corpus

corpus = calibrated_corpus(seed=123)
print(f"pool: {len(corpus)} docs, {len(corpus.arg_types)} argument types")

# --- 1. one episode, dissected --------------------------------------------
cfg = SamplerConfig(n_ways=3, d_docs=2, query_size=1, seed=99)
episode = sample_episode(corpus, cfg, substream(99, "demo"))
print(f"\nactive types: {episode.active_types}")
for doc in episode.support:
    kept = [(s.role, s.start, s.end) for s in doc.arguments]
    print(f"  support {doc.doc_id} ({len(doc.tokens)} tokens): {kept}")
for doc in episode.query:
    print(f"  query   {doc.doc_id}: {[(s.role, s.start, s.end) for s in doc.arguments]}")

# --- 2. density statistics over many episodes ------------------------------
for n, d in ((3, 1), (3, 2), (6, 2)):
    cfg = SamplerConfig(n_ways=n, d_docs=d, seed=99)
    episodes = generate_episode_set(corpus, cfg, 2000, label=cfg.setting)
    st = episode_stats(episodes)
    shots = sorted(st.k_shot_distribution.items())
    print(
        f"\n{cfg.setting}: micro {st.micro_avg_args:.2f} args/episode, "
        f"macro {st.macro_avg_args:.2f}; K-shot histogram {shots[:6]}..."
    )

# --- 3. determinism ---------------------------------------------------------
cfg = SamplerConfig(n_ways=3, d_docs=1, seed=41)
with tempfile.TemporaryDirectory(prefix="epiarg_demo_") as tmp:
    workdir = Path(tmp)
    for name in ("a", "b"):
        write_episodes(generate_episode_set(corpus, cfg, 200, label="det"), workdir / f"{name}.jsonl")
    same = (workdir / "a.jsonl").read_bytes() == (workdir / "b.jsonl").read_bytes()
print(f"\nsame seed twice -> byte-identical episode files: {same}")

# --- 4. balanced generation -------------------------------------------------
balanced = generate_episode_set(corpus, cfg, 200, balance=True, label="bal")
events = {}
for ep in balanced:
    for doc in ep.support:
        events[doc.event_type] = events.get(doc.event_type, 0) + 1
print("support event-type spread with balance=True:", dict(sorted(events.items())))

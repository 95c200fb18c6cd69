"""The three classification heads and span-exact scoring on one episode.

Lowers an episode with the shared lowering, embeds it with a freshly
initialized toy encoder, classifies query tokens with ProtoNet, NNShot, and
the multi-NOTA-vector variant, then decodes spans from the heads' integer
labels (the active-type index, N for O) and scores them. Every
head takes the support set as one (rows, labels) pair: the tokens of all
support documents stacked in document order.
"""

import numpy as np

from epiarg import (
    EncoderConfig,
    HeadConfig,
    SamplerConfig,
    aggregate,
    build_mnav_prototypes,
    compute_prototypes,
    decode_spans,
    encode_docs,
    episode_tensors,
    mnav_classify,
    nnshot_classify,
    protonet_classify,
    sample_episode,
    score_episode,
)
from epiarg.evaluation import fp_fn_analysis
from epiarg.heads import kmeans_nota
from epiarg.seeds import substream
from epiarg.synthetic import separable_corpus
from epiarg.trainer import initialize_params

corpus, _ = separable_corpus(11)
encoder_cfg = EncoderConfig(d_emb=32, d_model=32, radius=1, n_buckets=2048, chunk_length=256)
params = initialize_params(encoder_cfg, HeadConfig("nnshot", d_reduced=8), substream(1, "init"))

episode = sample_episode(corpus, SamplerConfig(n_ways=3, d_docs=2, seed=3), substream(3, "demo"))
active = episode.active_types
print("active types:", active)

# Bucket indices, chunk plans and IO labels of every document; one stacked forward per side.
tensors = episode_tensors(episode, params, chunk_length=256)
support = (encode_docs(params.encoder, tensors.support_buckets, tensors.support_plans)[0], tensors.support_labels)
query, _ = encode_docs(params.encoder, tensors.query_buckets, tensors.query_plans)  # the one query document
gold = tensors.query_labels.tolist()  # IO labels: the active-type index, O = 3
print(f"support: {support[0].shape[0]} tokens from {len(episode.support)} documents")

# --- 1. prototypes and ProtoNet --------------------------------------------
protos = compute_prototypes(support, active)
print("\nprototype norms:", np.linalg.norm(protos.matrix, axis=1).round(3))
assignment = protonet_classify(protos, query)
pred = assignment.labels.tolist()
print("protonet spans:", sorted(decode_spans(pred, active)))
print("gold spans:    ", sorted(decode_spans(gold, active)))

# --- 2. NNShot in a reduced space -------------------------------------------
reduced_support = (support[0] @ params.reducer, support[1])
nn = nnshot_classify(reduced_support, query @ params.reducer, n_types=3)
print("\nnnshot spans:  ", sorted(decode_spans(nn.labels.tolist(), active)))

# --- 3. multiple NOTA vectors via k-means ------------------------------------
o_rows = support[0][support[1] == 3]
km = kmeans_nota(o_rows, k=4, seed=0)
print(f"\nk-means over {o_rows.shape[0]} O tokens: inertia {km.inertia_history[0]:.3f} -> {km.inertia:.3f}")
mnav_protos = build_mnav_prototypes(support, active, k=4, seed=0)
mn = mnav_classify(mnav_protos, query)
print("mnav spans:    ", sorted(decode_spans(mn.labels.tolist(), active)))

# --- 4. span-exact scoring ----------------------------------------------------
counts = score_episode([decode_spans(pred, active)], [decode_spans(gold, active)], active)
report = aggregate(counts)
fp, fn = fp_fn_analysis(pred, gold, n_types=len(active))
print(
    f"\nuntrained protonet: macro P {report.macro_precision:.1f} R {report.macro_recall:.1f} "
    f"F1 {report.macro_f1:.1f}; token FP {fp:.1f}% FN {fn:.1f}%"
)
print("(untrained encoders stay far below the trained runs in demo 04)")

"""Episodic few-shot sequence labeling for document-level event argument extraction."""

from .corpus import (
    ArgumentSpan,
    Corpus,
    CorpusFormatError,
    CorpusStats,
    Document,
    SplitCorpus,
    SplitSpec,
    SplitSpecError,
    apply_leakage_mask,
    compute_split,
    corpus_stats,
    filter_rare_types,
    parse_corpus,
    span_from_chars,
    write_corpus,
)
from .encoder import (
    ChunkPlan,
    EmbeddingMatrix,
    EncoderConfig,
    ModelParams,
    ToyEncoderParams,
    chunk_document,
    embed_tokens,
    encode_docs,
)
from .evaluation import (
    EvalReport,
    aggregate,
    decode_spans,
    fp_fn_analysis,
    score_episode,
)
from .formats import (
    Checkpoint,
    EmbeddingProvider,
    load_checkpoint,
    load_external_embeddings,
    save_checkpoint,
    write_external_embeddings,
)
from .heads import (
    HeadConfig,
    PrototypeSet,
    TokenAssignment,
    build_mnav_prototypes,
    compute_prototypes,
    kmeans_nota,
    mnav_classify,
    nnshot_classify,
    protonet_classify,
)
from .inference import evaluate_episodes, run_episode
from .sampler import (
    Episode,
    EpisodeSet,
    EpisodeStats,
    InfeasibleSamplingError,
    SamplerConfig,
    episode_stats,
    generate_episode_set,
    read_episodes,
    sample_episode,
    write_episodes,
)
from .trainer import (
    NumericalError,
    TrainConfig,
    episode_loss,
    episode_tensors,
    forward_backward,
    step,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

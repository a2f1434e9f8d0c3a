"""Residual vector quantization toolkit.

Building blocks for hierarchical (residual) vector quantization of latent
vectors: single-layer codebooks with EMA updates and dead-code restarts,
low-dimensional projected quantization, training loops for both regimes,
code-utilization analytics, and two token-generation schedulers (masked
parallel decoding with annealed classifier-free guidance, and AR + NAR
layer-wise generation) driven by pluggable score models.
"""

from .analytics import UtilizationReport, rank_frequency, utilization
from .arnar import (
    ArModel,
    ArNarStats,
    GenConfig,
    NarModel,
    NgramArModel,
    OracleArModel,
    OracleNarModel,
    generate_ar,
    generate_nar,
    generate_text_to_tokens,
    sample_with_temperature,
    sequence_perplexity,
    train_ngram_ar,
)
from .errors import EmptyGenerationError, FormatError, NumericalError
from .io import (
    load_quantizer,
    read_token_streams,
    read_vectors,
    save_quantizer,
    write_token_streams,
    write_vectors,
)
from .mlm import (
    MASKED,
    DecodeSchedule,
    GenerationStats,
    OracleScoreModel,
    ScoreModel,
    anneal_coeff,
    cfg_combine,
    confidence_select,
    cosine_unmask_fractions,
    generate_parallel,
)
from .rvq import (
    RvqQuantizer,
    TokenStream,
    bitrate_bps,
    code_bits,
    rvq_decode,
    rvq_decode_batch,
    rvq_encode,
    rvq_encode_batch,
)
from .training import (
    CorpusSpec,
    ProjectedParams,
    TrainConfig,
    TrainReport,
    make_corpus,
    projected_assign,
    projected_grads,
    projected_loss,
    train_quantizer,
)
from .vq import (
    Codebook,
    ProjectionPair,
    ema_update,
    kmeans_init,
    nearest_codes,
    restart_dead_codes,
)

__version__ = "0.1.0"

__all__ = [
    "ArModel",
    "ArNarStats",
    "Codebook",
    "CorpusSpec",
    "DecodeSchedule",
    "EmptyGenerationError",
    "FormatError",
    "GenConfig",
    "GenerationStats",
    "MASKED",
    "NarModel",
    "NgramArModel",
    "NumericalError",
    "OracleArModel",
    "OracleNarModel",
    "OracleScoreModel",
    "ProjectedParams",
    "ProjectionPair",
    "RvqQuantizer",
    "ScoreModel",
    "TokenStream",
    "TrainConfig",
    "TrainReport",
    "UtilizationReport",
    "anneal_coeff",
    "bitrate_bps",
    "cfg_combine",
    "code_bits",
    "confidence_select",
    "cosine_unmask_fractions",
    "ema_update",
    "generate_ar",
    "generate_nar",
    "generate_parallel",
    "generate_text_to_tokens",
    "kmeans_init",
    "load_quantizer",
    "make_corpus",
    "nearest_codes",
    "projected_assign",
    "projected_grads",
    "projected_loss",
    "rank_frequency",
    "read_token_streams",
    "read_vectors",
    "restart_dead_codes",
    "rvq_decode",
    "rvq_decode_batch",
    "rvq_encode",
    "rvq_encode_batch",
    "sample_with_temperature",
    "save_quantizer",
    "sequence_perplexity",
    "train_ngram_ar",
    "train_quantizer",
    "utilization",
    "write_token_streams",
    "write_vectors",
]

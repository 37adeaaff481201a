"""Fisheye camera geometry, angular rotary position embeddings, and BEV lifting."""

from .angular import BevGrid, BevGridSpec, PatchGrid, bev_angles, patch_angles
from .attention import (
    AttentionConfig,
    ProjectionWeights,
    TokenGrid,
    cross_attention,
    logit_argmax,
    logit_matrix,
    self_attention,
    self_attention_jacobian,
    tokens_from_bev,
    tokens_from_patches,
)
from .camera import (
    Extrinsics,
    InverseLut,
    KannalaBrandtCamera,
)
from .errors import (
    ConfigError,
    DomainError,
    EmptyAttentionError,
    EmptyOverlapError,
    FishropeError,
    FormatError,
    OutOfImageCircleError,
    ShapeError,
)
from .experiments import (
    BenchReport,
    CheckerPattern,
    LiftConfig,
    LiftReport,
    RetrievalBenchConfig,
    bev_roundtrip,
    retrieval_bench,
    selfcheck,
)
from .rope import (
    ENCODINGS,
    FrequencySchedule,
    RotaryConfig,
    make_schedule,
    relative_logit,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "BenchReport",
    "BevGrid",
    "BevGridSpec",
    "CheckerPattern",
    "ConfigError",
    "DomainError",
    "EmptyAttentionError",
    "EmptyOverlapError",
    "ENCODINGS",
    "Extrinsics",
    "FishropeError",
    "FormatError",
    "FrequencySchedule",
    "InverseLut",
    "KannalaBrandtCamera",
    "LiftConfig",
    "LiftReport",
    "OutOfImageCircleError",
    "PatchGrid",
    "ProjectionWeights",
    "RetrievalBenchConfig",
    "RotaryConfig",
    "ShapeError",
    "TokenGrid",
    "bev_angles",
    "bev_roundtrip",
    "cross_attention",
    "logit_argmax",
    "logit_matrix",
    "make_schedule",
    "patch_angles",
    "relative_logit",
    "retrieval_bench",
    "self_attention",
    "self_attention_jacobian",
    "selfcheck",
    "tokens_from_bev",
    "tokens_from_patches",
]

"""Feature synthesis for unseen classes and adaptive self-distillation over
embedding spaces, with a reproducible desk-scale training harness."""

__version__ = "0.1.0"

from .embedding_store import (
    ClassSplit,
    EmbeddingSet,
    SynthConfig,
    load_embeddings,
    make_synthetic,
    save_embeddings,
)
from .errors import ConfigError, DataError, NumericalError
from .generator import (
    ForwardTape,
    GeneratorParams,
    backward,
    extrapolate_jointly,
    extrapolate_per_class,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .distillation import (
    ScheduleConfig,
    TeacherQueue,
    almt_teacher,
    ema_mean_teacher,
    push_checkpoint,
    window_size,
)
from .objective import (
    class_probabilities,
    distill_mse,
    prob_joint_scheme,
    prob_per_class_scheme,
)
from .retrieval import NeighborContext, retrieve_knn, sample_support
from .trainer import (
    EpochMetrics,
    TrainConfig,
    TrainResult,
    ablate,
    evaluate,
    harmonic_mean,
    train,
)

__all__ = [
    "ClassSplit",
    "ConfigError",
    "DataError",
    "EmbeddingSet",
    "EpochMetrics",
    "ForwardTape",
    "GeneratorParams",
    "NeighborContext",
    "NumericalError",
    "ScheduleConfig",
    "SynthConfig",
    "TeacherQueue",
    "TrainConfig",
    "TrainResult",
    "ablate",
    "almt_teacher",
    "backward",
    "class_probabilities",
    "distill_mse",
    "ema_mean_teacher",
    "evaluate",
    "extrapolate_jointly",
    "extrapolate_per_class",
    "harmonic_mean",
    "init_params",
    "load_checkpoint",
    "load_embeddings",
    "make_synthetic",
    "prob_joint_scheme",
    "prob_per_class_scheme",
    "push_checkpoint",
    "retrieve_knn",
    "sample_support",
    "save_checkpoint",
    "save_embeddings",
    "train",
    "window_size",
]

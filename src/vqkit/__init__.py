"""Vector-quantization optimization toolkit: a tape-based autodiff core, a
codebook layer with straight-through gradient routing, commitment losses,
EMA / affine / replacement codebook maintenance, training-health metrics, and
joint / alternating training loops for desk-scale experiments."""

from .autodiff import Node, Tape, as_matrix
from .codebook import (
    DISTANCE_KINDS,
    Codebook,
    assign,
    group_split,
    nearest_code,
    normalize_rows,
    pairwise_distances_chunked,
    sample_code_stochastic,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DegenerateInput,
    NumericFailure,
    VQKitError,
)
from .experiments import (
    MixtureSpec,
    build_codebook,
    collapse_config,
    gen_mixture,
    load_config,
    resolve_config,
    run_ablation,
    run_affine_toy,
    run_init_study,
    run_toy_trajectory,
    run_training,
)
from .initialization import LLOYD_TOL, init_codebook, kmeans, kmeans_pp_seed, lloyd_step
from .metrics import (
    METRICS_HEADER,
    ActivationProbability,
    MetricsRecord,
    activation_probability,
    active_ratio,
    divergence,
    gradient_gap,
    perplexity,
    write_metrics_csv,
)
from .models import MLPAutoencoder
from .training import (
    SGD,
    Schedule,
    TrainResult,
    lr_at,
    smoothness_loss,
    train_alternating,
    train_joint,
)
from .vqlayer import (
    VQConfig,
    VQOutput,
    affine_update_ema,
    codebook_param_grads,
    commitment_codebook_grads,
    ema_update,
    kmeans_reset,
    lru_replace,
    quantize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

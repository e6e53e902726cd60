"""Vector-quantization optimization toolkit: a tape-based autodiff core, a
codebook layer with straight-through gradient routing, commitment losses,
EMA / affine / replacement codebook maintenance, training-health metrics, and
joint / alternating training loops for desk-scale experiments. The top level
holds the documented API; every other name is imported from its module."""

from .autodiff import Tape
from .codebook import Codebook
from .errors import ConfigError, ContractViolation, DegenerateInput, NumericFailure, VQKitError
from .experiments import (collapse_config, resolve_config, run_affine_toy, run_init_study,
                          run_toy_trajectory, run_training)
from .vqlayer import VQConfig, quantize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Each library argument check raises its own exception and message: the shape
and range checks of the tape primitives, the codebook, the initializers, the
metrics, the trainers and the codebook maintenance."""
import re

import numpy as np
import pytest

from vqkit import Codebook, ContractViolation, DegenerateInput, Tape, VQConfig
from vqkit.codebook import assign, pairwise_distances_chunked, quantize_row_factors
from vqkit.initialization import kmeans, lloyd_step
from vqkit.metrics import activation_probability, divergence
from vqkit.training import Schedule, _batches, lr_at, train_alternating
from vqkit.vqlayer import lru_replace


def zeros(tape, rows, cols):
    return tape.leaf(np.zeros((rows, cols)))


def rng():
    return np.random.default_rng(0)


# (id, call of a fresh tape, the exception, its whole message)
_CASES = [
    # autodiff
    ("matmul-shape", lambda t: t.matmul(zeros(t, 2, 3), zeros(t, 2, 3)),
     ContractViolation, "matmul shape mismatch (2, 3) x (2, 3)"),
    ("add-shape", lambda t: t.add(zeros(t, 2, 3), zeros(t, 3, 2)),
     ContractViolation, "add shape mismatch (2, 3) + (3, 2)"),
    ("sub-shape", lambda t: t.sub(zeros(t, 2, 3), zeros(t, 3, 2)),
     ContractViolation, "sub shape mismatch (2, 3) - (3, 2)"),
    ("mul-shape", lambda t: t.mul(zeros(t, 2, 3), zeros(t, 3, 2)),
     ContractViolation, "mul shape mismatch (2, 3) * (3, 2)"),
    ("mse-shape", lambda t: t.mse(zeros(t, 2, 3), zeros(t, 3, 2)),
     ContractViolation, "mse shape mismatch (2, 3) vs (3, 2)"),
    ("straight-through-shape", lambda t: t.straight_through(zeros(t, 2, 3), zeros(t, 3, 2)),
     ContractViolation, "straight_through shape mismatch (2, 3) vs (3, 2)"),
    ("straight-through-nu-negative",
     lambda t: t.straight_through(zeros(t, 2, 3), zeros(t, 2, 3), nu=-0.5),
     ContractViolation, "straight_through requires nu >= 0"),
    ("gather-rows-2d-indices", lambda t: t.gather_rows(zeros(t, 3, 2), [[0]]),
     ContractViolation, "gather_rows expects a 1-D index array"),
    ("gather-rows-index-out-of-range", lambda t: t.gather_rows(zeros(t, 3, 2), [0, 3]),
     ContractViolation, "gather_rows index out of range"),
    ("slice-rows-out-of-range", lambda t: t.slice_rows(zeros(t, 3, 2), 2, 4),
     ContractViolation, "slice_rows out of range"),
    ("reshape-size", lambda t: t.reshape(zeros(t, 2, 3), 4, 2),
     ContractViolation, "reshape (2, 3) -> (4,2) size mismatch"),
    ("row-scale-length", lambda t: t.row_scale(zeros(t, 3, 2), [1.0, 2.0]),
     ContractViolation, "row_scale factor length mismatch"),
    ("affine-rows-shape",
     lambda t: t.affine_rows(zeros(t, 4, 2), zeros(t, 1, 3), zeros(t, 1, 2)),
     ContractViolation, "affine_rows expects 1xd scale and bias rows"),
    # codebook
    ("codebook-no-codes", lambda t: Codebook(np.zeros((0, 2))),
     ContractViolation, "codebook must be m x d with m,d >= 1, got (0, 2)"),
    ("distances-unknown-kind",
     lambda t: pairwise_distances_chunked(np.ones((2, 2)), np.ones((3, 2)), "manhattan"),
     ContractViolation, "unknown distance kind 'manhattan'"),
    ("distances-dimension",
     lambda t: pairwise_distances_chunked(np.ones((2, 2)), np.ones((3, 3))),
     ContractViolation, "dimension mismatch: queries d=2, codes d=3"),
    ("distances-out-shape",
     lambda t: pairwise_distances_chunked(np.ones((2, 2)), np.ones((3, 2)),
                                          out=np.empty((3, 2))),
     ContractViolation, "out must be a 2 x 3 float64 array, got float64 (3, 2)"),
    ("assign-unknown-kind", lambda t: assign(np.ones((2, 2)), np.ones((3, 2)), "manhattan"),
     ContractViolation, "unknown distance kind 'manhattan'"),
    ("row-factors-zero-norm-code",
     lambda t: quantize_row_factors(np.ones((1, 2)), np.zeros((1, 2)), [0], "cosine_unit_norm"),
     DegenerateInput, "zero-norm code under cosine distance"),
    ("row-factors-unknown-kind",
     lambda t: quantize_row_factors(np.ones((1, 2)), np.ones((1, 2)), [0], "manhattan"),
     ContractViolation, "unknown distance kind 'manhattan'"),
    # initialization
    ("lloyd-step-no-centers", lambda t: lloyd_step(np.zeros((0, 2)), np.ones((4, 2))),
     ContractViolation, "lloyd_step requires at least one center"),
    ("kmeans-iters-0", lambda t: kmeans(np.ones((4, 2)), 2, rng(), iters=0),
     ContractViolation, "kmeans requires iters >= 1"),
    ("kmeans-sample-below-m", lambda t: kmeans(np.ones((1, 2)), 2, rng()),
     ContractViolation, "kmeans needs a sample with >= 2 rows"),
    # metrics
    ("divergence-empty-sample", lambda t: divergence(np.zeros((0, 2)), np.ones((3, 2))),
     ContractViolation, "divergence requires nonempty sample and codes"),
    ("activation-probability-no-codes",
     lambda t: activation_probability(4, 4, 8, 0, 0, 1, 1),
     ContractViolation, "m_codes must be >= 1"),
    ("activation-probability-negative-count",
     lambda t: activation_probability(4, 4, -8, 16, 0, 1, 1),
     ContractViolation, "counts must be nonnegative"),
    # training
    ("lr-at-negative-step", lambda t: lr_at(Schedule(), 0.1, -1),
     ContractViolation, "t must be >= 0"),
    ("batches-above-data", lambda t: _batches(np.zeros((4, 2)), 5, rng()),
     ContractViolation, "batch_size must be in [1, len(data)]"),
    ("alternating-inner-k-0",
     lambda t: train_alternating(None, None, VQConfig(), np.zeros((4, 2)), steps=1,
                                 batch_size=2, inner_k=0),
     ContractViolation, "inner_k and outer_k must be >= 1"),
    # codebook maintenance
    ("lru-replace-empty-batch",
     lambda t: lru_replace(Codebook(np.ones((2, 2))), np.zeros((0, 2)), 5, 1, rng()),
     ContractViolation, "lru_replace requires a nonempty batch"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_each_library_check_raises_its_own_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(Tape())

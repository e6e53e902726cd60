"""Diagnostics: perplexity, divergence, activation probability, gradient gap,
and the metrics CSV layout."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqkit import Codebook, ContractViolation, Tape, VQConfig
from vqkit.metrics import (
    METRICS_HEADER,
    MetricsRecord,
    activation_probability,
    active_ratio,
    divergence,
    gradient_gap,
    perplexity,
    write_metrics_csv,
)
from vqkit.models import MLPAutoencoder
from vqkit.training import SGD, train_joint


# -- perplexity ----------------------------------------------------------------

def test_perplexity_uniform_equals_m():
    for m in (1, 2, 7, 64, 1000):
        assert abs(perplexity(np.ones(m)) - m) <= 1e-9


def test_perplexity_single_code_is_one():
    counts = np.zeros(16)
    counts[3] = 42
    assert perplexity(counts) == 1.0


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=64)
       .filter(lambda c: sum(c) > 0))
@settings(max_examples=200, deadline=None)
def test_perplexity_bounds(counts):
    p = perplexity(counts)
    nonzero = sum(1 for c in counts if c > 0)
    assert 1.0 - 1e-9 <= p <= nonzero + 1e-9


def test_perplexity_rejects_degenerate_counts():
    with pytest.raises(ContractViolation):
        perplexity(np.zeros(4))
    with pytest.raises(ContractViolation):
        perplexity([1, -1, 2])


# -- divergence and active ratio ------------------------------------------------

def test_divergence_matches_brute_force():
    rng = np.random.default_rng(0)
    sample = rng.standard_normal((100, 5))
    codes = rng.standard_normal((9, 5))
    brute = np.mean([min(0.5 * ((s - c) ** 2).sum() for c in codes) for s in sample])
    assert abs(divergence(sample, codes) - brute) < 1e-12


def test_divergence_zero_when_codes_cover_sample():
    sample = np.arange(12.0).reshape(4, 3)
    assert divergence(sample, sample) == 0.0


def test_active_ratio_counting():
    assert active_ratio([1, 0, 3, 0, 0, 0, 0, 2]) == 0.375
    assert active_ratio([5]) == 1.0
    with pytest.raises(ContractViolation):
        active_ratio([])


# -- activation probability ------------------------------------------------------

def test_activation_probability_direct_formula():
    # N = 32*32*1024/2^0 * 1 trials... use the documented degenerate case:
    # b=1024, h=w=32 pooled down to N=1024 trials over m=1024 codes, k=1
    got = activation_probability(h=32, w=32, b=1024, m_codes=1024, n_pool=10,
                                 n_groups=1, k=1)
    direct = 1.0 - (1.0 - 1.0 / 1024) ** 1024
    assert abs(got.binomial - direct) <= 1e-12
    assert abs(got.linear - 1.0) <= 1e-12


def test_activation_probability_linear_scales_with_groups():
    a = activation_probability(4, 4, 8, 4096, 0, 1, 1)
    b = activation_probability(4, 4, 8, 4096, 0, 2, 1)
    assert abs(b.linear - 2 * a.linear) <= 1e-15


def test_activation_probability_k_zero_and_pooling():
    got = activation_probability(4, 4, 2, 16, 1, 1, 0)
    assert got.binomial == 1.0
    with pytest.raises(ContractViolation):
        activation_probability(3, 3, 1, 16, 1, 1, 1)  # 9/2 trials, not integral


def test_activation_probability_monotone_in_k():
    vals = [activation_probability(8, 8, 4, 64, 0, 1, k).binomial for k in (1, 2, 5)]
    assert vals[0] > vals[1] > vals[2]


def _exact_activation_probability(n_trials, m_codes, k):
    """P(X >= k) for X ~ Binomial(n_trials, 1/m_codes) in exact rationals."""
    p = Fraction(1, m_codes)
    return sum(math.comb(n_trials, j) * p ** j * (1 - p) ** (n_trials - j)
               for j in range(k, n_trials + 1))


# the criterion-11 and activation-probability cases above, plus both
# branches of the tail (k - 1 below and at or past the mean N/m), k > N and m = 1
@pytest.mark.parametrize("h,w,b,m_codes,n_pool,n_groups,k", [
    (4, 4, 8, 4096, 0, 1, 1), (4, 4, 8, 4096, 0, 2, 1), (32, 32, 1, 1024, 0, 1, 1),
    (32, 32, 1024, 1024, 10, 1, 1), (8, 8, 4, 64, 0, 1, 1), (8, 8, 4, 64, 0, 1, 2),
    (8, 8, 4, 64, 0, 1, 5), (8, 8, 4, 64, 0, 1, 40), (32, 32, 1, 16, 0, 1, 64),
    (32, 32, 1, 16, 0, 1, 65), (2, 2, 1, 3, 0, 1, 5), (2, 2, 1, 1, 0, 1, 4),
])
def test_activation_probability_matches_exact_binomial_tail(h, w, b, m_codes, n_pool,
                                                            n_groups, k):
    n_trials = b * h * w * n_groups // 2 ** n_pool
    exact = _exact_activation_probability(n_trials, m_codes, k)
    got = activation_probability(h, w, b, m_codes, n_pool, n_groups, k).binomial
    if exact == 0:
        assert got == 0.0
    else:
        assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 12) * exact


# -- gradient gap -----------------------------------------------------------------

class LinearEncoderIdentityDecoder:
    """Linear encoder, identity decoder: a model whose gradient gap has a
    closed form, the oracle of the tests below."""

    encoder_param_names = ("enc_w",)

    def __init__(self, d_in: int, d_code: int, rng: np.random.Generator):
        self.params = {"enc_w": rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_code))}

    def make_nodes(self, tape: Tape) -> dict:
        return {name: tape.leaf(value, name=name)
                for name, value in self.params.items()}

    def encode(self, tape: Tape, x, nodes: dict):
        return tape.matmul(x, nodes["enc_w"])

    def decode(self, tape: Tape, z, nodes: dict):
        return z


def test_gradient_gap_zero_when_quantization_exact():
    rng = np.random.default_rng(1)
    model = LinearEncoderIdentityDecoder(4, 3, rng=rng)
    batch = rng.standard_normal((6, 4))
    z_e = batch @ model.params["enc_w"]
    cb = Codebook(z_e)  # every embedding is a code -> zero quantization error
    gap = gradient_gap(model, cb, VQConfig(), batch, targets=np.zeros((6, 3)))
    assert gap <= 1e-20


def test_gradient_gap_closed_form_linear_model():
    # decoder = identity, loss = mean-row half sq error vs target t:
    # bypass grad = X^T (Z - T)/n, quantized grad = X^T (Zq - T)/n
    # gap = || X^T (Z - Zq)/n ||_F^2
    rng = np.random.default_rng(2)
    model = LinearEncoderIdentityDecoder(5, 3, rng=rng)
    batch = rng.standard_normal((8, 5))
    targets = rng.standard_normal((8, 3))
    cb = Codebook(rng.standard_normal((4, 3)))
    z = batch @ model.params["enc_w"]
    d = ((z[:, None, :] - cb.codes[None, :, :]) ** 2).sum(-1)
    idx = d.argmin(axis=1)
    z_q = cb.codes[idx]
    expected = ((batch.T @ (z - z_q) / 8) ** 2).sum()
    got = gradient_gap(model, cb, VQConfig(), batch, targets=targets)
    assert abs(got - expected) < 1e-12


def test_gradient_gap_grows_with_quantization_error():
    rng = np.random.default_rng(3)
    model = LinearEncoderIdentityDecoder(4, 2, rng=rng)
    batch = rng.standard_normal((10, 4))
    z = batch @ model.params["enc_w"]
    targets = rng.standard_normal((10, 2))
    near = Codebook(z + 0.01 * rng.standard_normal(z.shape))
    far = Codebook(z + 1.0 * rng.standard_normal(z.shape))
    assert gradient_gap(model, near, VQConfig(), batch, targets=targets) < \
        gradient_gap(model, far, VQConfig(), batch, targets=targets)


@pytest.mark.parametrize("n_group", [1, 2])
@pytest.mark.parametrize("distance", ["euclidean", "cosine_renorm"])
@pytest.mark.parametrize("affine_mode", ["off", "learnable", "ema"])
def test_gradient_gap_on_step_forward_matches_standalone(monkeypatch, affine_mode,
                                                          distance, n_group):
    """train_joint hands its own tape to gradient_gap; the gap taken there
    equals the one gradient_gap records by itself at the same parameters."""
    import vqkit.metrics as mtr

    real = mtr.gradient_gap
    pairs = []

    def both(model, cb, config, batch, targets=None, *, forward=None):
        assert forward is not None
        standalone = real(model, cb, config, batch, targets)
        reused = real(model, cb, config, batch, targets, forward=forward)
        pairs.append((reused, standalone))
        return reused

    monkeypatch.setattr(mtr, "gradient_gap", both)
    rng = np.random.default_rng(40)
    data = rng.standard_normal((128, 16)) * 0.5
    model = MLPAutoencoder(rng=np.random.default_rng(41))
    cb = Codebook(rng.standard_normal((8, 8 // n_group)) * 0.3)
    cfg = VQConfig(alpha=1.0, affine_mode=affine_mode, distance=distance, n_group=n_group)
    # the smoothness term on the same tape must not leak into the gap
    train_joint(model, cb, cfg, data, steps=12, batch_size=32,
                optimizer=SGD(lr=0.1, momentum=0.5), smooth_gamma=0.1)
    assert len(pairs) == 12
    for reused, standalone in pairs:
        assert standalone > 0.0
        assert abs(reused - standalone) <= 1e-12 * standalone


# -- CSV format -------------------------------------------------------------------

def test_metrics_csv_layout(tmp_path):
    rec = MetricsRecord(step=3, task_loss=0.1, commit_loss=0.2, perplexity=4.0,
                        active_ratio=0.5, quant_error=1e-17, grad_gap=0.0,
                        divergence_cq=1.0 / 3.0)
    path = tmp_path / "metrics.csv"
    write_metrics_csv([rec], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,task_loss,commit_loss,perplexity,active_ratio," \
                       "quant_error,grad_gap,divergence_cq"
    cells = lines[1].split(",")
    assert cells[0] == "3"
    # %.17g round-trips float64 exactly
    assert float(cells[7]) == 1.0 / 3.0
    assert float(cells[5]) == 1e-17
    assert METRICS_HEADER[0] == "step"

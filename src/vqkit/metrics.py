"""Training-health diagnostics: perplexity, divergence, gradient gap,
activation probability, active ratio, and the metrics CSV format."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import codebook as cbk
from .artifacts import write_csv
from .autodiff import Node, Tape
from .errors import ContractViolation
from .vqlayer import VQConfig, VQOutput, quantize


@dataclass
class MetricsRecord:
    step: int
    task_loss: float
    commit_loss: float
    perplexity: float
    active_ratio: float
    quant_error: float
    grad_gap: float
    divergence_cq: float


METRICS_HEADER = tuple(f.name for f in fields(MetricsRecord))


def write_metrics_csv(records, path) -> None:
    """Write one row per record under METRICS_HEADER. A non-finite value is
    a NumericFailure, and `path` is not written."""
    write_csv(path, METRICS_HEADER,
              [[getattr(r, name) for name in METRICS_HEADER] for r in records])


def perplexity(usage_counts) -> float:
    """2^H(p) of the usage histogram, with 0 * log 0 := 0."""
    counts = np.asarray(usage_counts, dtype=np.float64)
    if counts.size == 0 or counts.sum() <= 0.0:
        raise ContractViolation("perplexity requires counts with positive sum")
    if np.any(counts < 0.0):
        raise ContractViolation("perplexity requires nonnegative counts")
    p = counts / counts.sum()
    nz = p[p > 0.0]
    entropy = -(nz * np.log2(nz)).sum()
    return float(2.0 ** entropy)


def divergence(sample, codes) -> float:
    """Mean over the sample of the min half squared distance to any code."""
    sample = np.asarray(sample, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if sample.shape[0] == 0 or codes.shape[0] == 0:
        raise ContractViolation("divergence requires nonempty sample and codes")
    return float(cbk.assign(sample, codes, "euclidean")[1].mean())


def active_ratio(usage_counts) -> float:
    """Fraction of codes used at least once within the window the counts cover."""
    counts = np.asarray(usage_counts)
    if counts.size == 0:
        raise ContractViolation("active_ratio requires at least one code")
    return float((counts > 0).mean())


@dataclass
class ActivationProbability:
    binomial: float
    linear: float


def activation_probability(h: int, w: int, b: int, m_codes: int, n_pool: int,
                           n_groups: int, k: int) -> ActivationProbability:
    """Probability a given code activates at least k times in one batch, under
    i.i.d. uniform selection over N = b*h*w*n_groups / 2^n_pool trials.

    Also reports the linear approximation N / m (clipped to 1)."""
    if m_codes < 1:
        raise ContractViolation("m_codes must be >= 1")
    if min(h, w, b, n_pool, n_groups, k) < 0:
        raise ContractViolation("counts must be nonnegative")
    raw = b * h * w * n_groups / (2 ** n_pool)
    if raw != int(raw):
        raise ContractViolation(
            f"trial count {raw} is not an integer; pooling inconsistent with image size")
    n_trials = int(raw)
    linear = min(n_trials / m_codes, 1.0)
    if k == 0:
        return ActivationProbability(binomial=1.0, linear=linear)
    return ActivationProbability(binomial=_binomial_sf(k, n_trials, 1.0 / m_codes),
                                 linear=linear)


def _binomial_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p) and k >= 1, from log-space pmf terms.

    Past the mean (k - 1 >= n p) the upper tail is summed: its terms only
    fall, so the sum stops once they no longer count. Below it the result is
    1 - cdf(k - 1). The binomial coefficient is an exact integer before its
    log is taken, so no lgamma(n + 1) - lgamma(n - j + 1) cancellation costs
    digits: against an exact rational tail the relative error stays near
    1e-13 up to n = 2048, and at n = 1e6 it is 2e-13."""
    if k > n:
        return 0.0
    if p == 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)

    def pmf(j: int) -> float:
        return math.exp(math.log(math.comb(n, j)) + j * log_p + (n - j) * log_q)

    if k - 1 < n * p:
        return 1.0 - math.fsum(pmf(j) for j in range(k))
    terms = [pmf(k)]
    for j in range(k + 1, n + 1):
        terms.append(pmf(j))
        if terms[-1] < terms[0] * 2.0 ** -60:
            break
    return math.fsum(terms)


class Forward(NamedTuple):
    """One recorded forward pass, encode -> quantize -> decode: the model's
    parameter nodes, the encoder output `z_e`, the quantizer output `out`
    and `task = mse(decode(out.z_q), target)`."""
    tape: Tape
    nodes: dict
    target: Node
    z_e: Node
    out: VQOutput
    task: Node


def record_forward(model, cb, config: VQConfig, batch, targets=None, *, step: int = 0,
                   rng: Optional[np.random.Generator] = None) -> Forward:
    """Record encode -> quantize -> decode -> task loss on a new tape, with
    `targets` defaulting to the batch itself. Codebook usage is not marked."""
    tape = Tape()
    nodes = model.make_nodes(tape)
    x = tape.leaf(batch)
    target = x if targets is None else tape.leaf(targets)
    z_e = model.encode(tape, x, nodes)
    out = quantize(tape, z_e, cb, config, step=step, rng=rng)
    return Forward(tape, nodes, target, z_e, out,
                   tape.mse(model.decode(tape, out.z_q, nodes), target))


def gradient_gap(model, cb, config: VQConfig, batch, targets=None, *,
                 forward: Optional[Forward] = None) -> float:
    """Sum over encoder parameters of ||g - g_hat||^2 where g is the task-loss
    gradient with quantization bypassed (z_q := z_e) and g_hat the gradient
    through the straight-through quantizer.

    Both are J^T u for the encoder Jacobian J at the same z_e, with u the task
    gradient at the decoder input: u_e at z_e, u_q at the quantized z. The
    encoder pull-back is linear, so the gap is ||J^T (u_e - u_q)||^2: one
    decoder pass on a constant copy of z_e and three `Tape.vjp` calls. With
    `forward` (a training step's own recorded forward) `batch`,
    `targets` and `config` are not used and nothing but that decoder pass is
    recorded; without it, the forward is recorded here with deterministic
    assignment."""
    if forward is None:
        forward = record_forward(model, cb, replace(config, sampling="deterministic"),
                                 batch, targets)
    tape, nodes, target, z_e, out, task = forward
    z_e_const = tape.leaf(z_e.value)
    task_e = tape.mse(model.decode(tape, z_e_const, nodes), target)
    one = np.ones((1, 1))
    [u_q] = tape.vjp(task, one, [out.z_q])
    [u_e] = tape.vjp(task_e, one, [z_e_const])
    encoder = [nodes[name] for name in model.encoder_param_names]
    gap = 0.0
    for g in tape.vjp(z_e, u_e - u_q, encoder):
        gap += float((g * g).sum())
    return gap

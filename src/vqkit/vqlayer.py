"""The quantization layer: forward quantize with grouping and straight-through
routing, commitment loss, EMA updates, affine reparameterization, LRU
replacement, and K-means reset."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codebook as cbk
from . import initialization
from .autodiff import Node, Tape, scatter_add_rows
from .errors import (COUNT, FRACTION, INT, NONNEG, REAL, UNIT, ContractViolation, check_kinds,
                     from_strict_dict, one_of)


@dataclass
class VQConfig:
    alpha: float = 5.0
    beta: float = 0.9
    nu: float = 0.0
    distance: str = "euclidean"
    n_group: int = 1
    sampling: str = "deterministic"
    tau0: float = 1.0
    tau_decay: float = 0.9995
    affine_mode: str = "off"
    affine_lr_scale: float = 1.0
    affine_momentum: float = 0.1
    replacement: str = "off"
    lifespan: int = 20
    reset_every: int = 0              # K-means reset period in steps; 0 = off

    _KINDS = {"alpha": REAL, "beta": UNIT, "nu": NONNEG, "distance": one_of(*cbk.DISTANCE_KINDS),
              "n_group": INT, "sampling": one_of("deterministic", "stochastic"),
              "tau0": REAL, "tau_decay": REAL, "affine_mode": one_of("off", "learnable", "ema"),
              "affine_lr_scale": REAL, "affine_momentum": FRACTION,
              "replacement": one_of("off", "lru"), "lifespan": INT, "reset_every": COUNT}

    def __post_init__(self):
        check_kinds(vars(self), self._KINDS, "vq")
        if self.sampling == "stochastic" and not (self.tau0 > 0.0 and self.tau_decay > 0.0):
            raise ContractViolation("stochastic sampling requires tau0 > 0 and tau_decay > 0")

    def sampling_tau(self, step: int) -> Optional[float]:
        """Temperature for `codebook.assign` at `step`, `tau0 · tau_decay^step`
        under stochastic sampling; None selects the nearest code. A temperature
        past the float range or rounded to 0 is a ContractViolation."""
        if self.sampling != "stochastic":
            return None
        try:
            tau = self.tau0 * self.tau_decay ** step
        except OverflowError:
            tau = math.inf
        if not 0.0 < tau < math.inf:
            raise ContractViolation(f"the temperature vq.tau0 * vq.tau_decay ** {step} is {tau}; "
                                    f"stochastic sampling needs it finite and > 0")
        return tau

    @classmethod
    def from_dict(cls, raw: dict) -> "VQConfig":
        return from_strict_dict(cls, raw, "vq")


@dataclass
class VQOutput:
    indices: np.ndarray          # per sub-vector row, in [0, m)
    z_q: Node                    # tape node; forward value = selected effective codes
    commit_loss: Node            # scalar node
    distances: np.ndarray        # per sub-vector half squared distance
    effective_codes: Node = field(repr=False)   # leaf, m x d
    z_e_grouped: Node = field(repr=False)
    z_q_grouped: Node = field(repr=False)


def quantize(tape: Tape, z_e: Node, cb: cbk.Codebook, config: VQConfig, *,
             step: int = 0, rng: Optional[np.random.Generator] = None) -> VQOutput:
    """Group-split, assign, gather effective codes, record the commitment
    loss on the grouped rows, group-concat with the 1/sqrt(n_group)
    normalization, and wire the straight-through composite.

    The effective codes are one leaf (`VQOutput.effective_codes`);
    `codebook_param_grads` maps a gradient for it to the raw codebook
    parameters. Usage is not marked: the trainers call `mark_used`."""
    n, d = z_e.shape
    g = config.n_group
    if d % g != 0:
        raise ContractViolation(f"n_group={g} must divide embedding dim {d}")
    if cb.d != d // g:
        raise ContractViolation(
            f"codebook dim {cb.d} must equal embedding dim / n_group = {d // g}")

    zs = tape.reshape(z_e, n * g, d // g)
    eff = tape.leaf(cb.effective_codes(config.affine_mode, config.affine_lr_scale),
                    name="effective_codes")
    indices, row_dists = cbk.assign(zs.value, eff.value, config.distance,
                                    tau=config.sampling_tau(step), rng=rng)
    z_q_rows = tape.gather_rows(eff, indices)
    if config.distance != "euclidean":
        factors = cbk.quantize_row_factors(zs.value, eff.value, indices, config.distance)
        z_q_rows = tape.row_scale(z_q_rows, factors)

    commit = tape.commitment(zs, z_q_rows, config.alpha, config.beta)
    z_q_full = tape.scale(tape.reshape(z_q_rows, n, d), 1.0 / np.sqrt(g))
    out = tape.straight_through(z_e, z_q_full, config.nu)
    return VQOutput(indices=indices, z_q=out, commit_loss=commit, distances=row_dists,
                    effective_codes=eff, z_e_grouped=zs, z_q_grouped=z_q_rows)


def codebook_param_grads(cb: cbk.Codebook, eff_grad, config: VQConfig) -> dict:
    """Pull the gradient of the effective codes back to the raw codebook
    parameters of `Codebook.affine`'s a * c + b: {"codes": eff_grad * a}, plus
    {"affine_scale", "affine_bias"} in learnable affine mode. The EMA map is a
    constant of the step."""
    a, _ = cb.affine(config.affine_mode, config.affine_lr_scale)
    grads = {"codes": eff_grad * a}
    if config.affine_mode == "learnable":
        ls = config.affine_lr_scale
        grads["affine_scale"] = ls * (eff_grad * cb.codes).sum(axis=0)
        grads["affine_bias"] = ls * eff_grad.sum(axis=0)
    return grads


def ema_update(cb: cbk.Codebook, z_rows, assignments, gamma: float) -> None:
    """c <- (1 - gamma) * c + gamma * mean(assigned rows) for each code with at
    least one assignment; unassigned codes are untouched."""
    if not 0.0 < gamma <= 1.0:
        raise ContractViolation("gamma must lie in (0, 1]")
    z_rows = np.asarray(z_rows, dtype=np.float64)
    idx = np.asarray(assignments, dtype=np.int64)
    sums = scatter_add_rows(idx, z_rows, cb.m)
    counts = np.bincount(idx, minlength=cb.m)
    updated = np.nonzero(counts > 0)[0]
    means = sums[updated] / counts[updated, None]
    cb.codes[updated] = (1.0 - gamma) * cb.codes[updated] + gamma * means


def affine_update_ema(cb: cbk.Codebook, z_e_rows, z_q_rows, momentum: float) -> None:
    """Accumulate running per-dimension mean/variance of z_e and z_q."""
    if not 0.0 < momentum <= 1.0:
        raise ContractViolation("momentum must lie in (0, 1]")
    z_e_rows = np.asarray(z_e_rows, dtype=np.float64)
    z_q_rows = np.asarray(z_q_rows, dtype=np.float64)
    m = momentum
    cb.ema_mean_e = m * z_e_rows.mean(axis=0) + (1.0 - m) * cb.ema_mean_e
    cb.ema_var_e = m * z_e_rows.var(axis=0) + (1.0 - m) * cb.ema_var_e
    cb.ema_mean_q = m * z_q_rows.mean(axis=0) + (1.0 - m) * cb.ema_mean_q
    cb.ema_var_q = m * z_q_rows.var(axis=0) + (1.0 - m) * cb.ema_var_q


def lru_replace(cb: cbk.Codebook, z_batch, step: int, lifespan: int,
                rng: np.random.Generator) -> list[int]:
    """Overwrite every code whose last-used step is older than `lifespan` with a
    sampled row of the batch; reset its usage to the current step."""
    z_batch = np.asarray(z_batch, dtype=np.float64)
    if z_batch.shape[0] < 1:
        raise ContractViolation("lru_replace requires a nonempty batch")
    stale = np.nonzero(cb.last_used < step - lifespan)[0]
    if stale.size == 0:
        return []
    n = z_batch.shape[0]
    replace_with = rng.choice(n, size=stale.size, replace=stale.size > n)
    cb.codes[stale] = z_batch[replace_with]
    cb.last_used[stale] = step
    return stale.tolist()


def kmeans_reset(cb: cbk.Codebook, sample) -> None:
    """Refit the raw codes with Lloyd iterations warm-started from the current
    codes. Affine parameters and usage state are preserved."""
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape[0] < cb.m:
        raise ContractViolation(f"kmeans_reset needs a sample with >= {cb.m} rows")
    cb.codes = initialization.lloyd(cb.codes.copy(), sample, initialization.LLOYD_ITERS)


def commitment_codebook_grads(tape: Tape, out: VQOutput, cb: cbk.Codebook,
                              config: VQConfig) -> dict:
    """Gradient of the commitment loss of `quantize`'s output `out` (recorded on
    `tape`) for the raw codebook parameters, as `codebook_param_grads` returns
    it. Used by the alternating-optimization inner step."""
    [eff_grad] = tape.vjp(out.commit_loss, np.ones((1, 1)), [out.effective_codes])
    return codebook_param_grads(cb, eff_grad, config)

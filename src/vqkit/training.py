"""Optimizers, learning-rate schedules, and the joint / alternating training
loops for the desk-scale quantized autoencoder."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codebook as cbk
from . import metrics as mtr
from . import vqlayer as vql
from .autodiff import Node, Tape, _finite
from .errors import (COUNT, REAL, ContractViolation, NumericFailure, check_kinds,
                     from_strict_dict, is_int, one_of)

CODEBOOK_PARAM_NAMES = ("codes", "affine_scale", "affine_bias")


@dataclass
class SGD:
    """SGD with momentum and weight decay: v <- mu*v + g + lambda*theta;
    theta <- theta - lr*v. Codebook parameters are exempt from weight decay.
    `lr` is the base rate the trainers scale by their `Schedule`."""
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocities: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: Optional[float] = None) -> None:
        eta = self.lr if lr is None else lr
        given = [g for g in map(grads.get, params) if g is not None]
        # one test of every gradient; the loop tests again only to name the failing one
        finite = not given or _finite(np.concatenate([g.ravel() for g in given]))
        for name, theta in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(theta)
            elif not finite and not _finite(g):
                raise NumericFailure(f"non-finite gradient for parameter {name!r}")
            if self.weight_decay != 0.0 and name not in CODEBOOK_PARAM_NAMES:
                g = g + self.weight_decay * theta
            v = self.velocities.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocities[name] = v
            params[name] = theta - eta * v


@dataclass
class Schedule:
    kind: str = "constant"
    milestones: tuple = ()
    factor: float = 0.1
    warmup_steps: int = 0
    total_steps: int = 0

    _KINDS = {"kind": one_of("constant", "step", "cosine_warmup"),
              "milestones": ("a list of integers", lambda v: isinstance(v, (list, tuple))
                             and all(map(is_int, v))),
              "factor": REAL, "warmup_steps": COUNT, "total_steps": COUNT}

    def __post_init__(self):
        check_kinds(vars(self), self._KINDS, "schedule")
        self.milestones = tuple(self.milestones)
        if self.kind == "cosine_warmup" and not 0 < self.total_steps >= self.warmup_steps:
            raise ContractViolation("a cosine_warmup schedule needs total_steps >= 1 and "
                                    "warmup_steps <= total_steps")

    @classmethod
    def from_dict(cls, raw: dict) -> "Schedule":
        return from_strict_dict(cls, raw, "schedule")


def lr_at(schedule: Schedule, base_lr: float, t: int) -> float:
    """The learning rate of step `t`: `base_lr` as `schedule` scales it."""
    if t < 0:
        raise ContractViolation("t must be >= 0")
    if schedule.kind == "constant":
        return base_lr
    if schedule.kind == "step":
        hits = sum(1 for ms in schedule.milestones if t >= ms)
        return base_lr * schedule.factor ** hits
    # cosine_warmup: linear ramp 0 -> base over warmup, then cosine to 0
    if schedule.warmup_steps > 0 and t < schedule.warmup_steps:
        return base_lr * t / schedule.warmup_steps
    denom = max(schedule.total_steps - schedule.warmup_steps, 1)
    progress = min((t - schedule.warmup_steps) / denom, 1.0)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def smoothness_loss(tape: Tape, model, nodes, z_e: Node, z_q: Node,
                    gamma: float) -> Node:
    """gamma * mean-row half squared distance between decoder outputs on z_q
    and z_e; requires the second decoder forward pass."""
    return tape.scale(tape.mse(model.decode(tape, z_q, nodes),
                               model.decode(tape, z_e, nodes)), gamma)


@dataclass
class TrainResult:
    records: list
    codebook: cbk.Codebook
    model: object
    replacement_events: list


def _batches(data: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Deterministic shuffled batches: whole batches of one permutation of the
    rows, then of a fresh one each epoch. batch_size is checked at the call."""
    n = data.shape[0]
    if batch_size < 1 or batch_size > n:
        raise ContractViolation("batch_size must be in [1, len(data)]")

    def stream():
        while True:
            order = rng.permutation(n)
            for start in range(0, n - batch_size + 1, batch_size):
                yield data[order[start:start + batch_size]]

    return stream()


def _apply(optimizer: SGD, model, cb: cbk.Codebook, grads: dict, eta: float) -> None:
    """One optimizer step on exactly the parameters named in `grads`: codebook
    parameters (`CODEBOOK_PARAM_NAMES`) on `cb`, the rest in `model.params`.
    A None gradient still moves its parameter under momentum."""
    params = {name: getattr(cb, name) if name in CODEBOOK_PARAM_NAMES else model.params[name]
              for name in grads}
    optimizer.step(params, grads, lr=eta)
    for name, value in params.items():
        if name in CODEBOOK_PARAM_NAMES:
            setattr(cb, name, value)
        else:
            model.params[name] = value


def _post_step_hooks(cb: cbk.Codebook, config: vql.VQConfig, z_rows, z_q_rows,
                     step: int, rng: np.random.Generator, events: list) -> None:
    if config.affine_mode == "ema":
        vql.affine_update_ema(cb, z_rows, z_q_rows, config.affine_momentum)
    if config.replacement == "lru":
        replaced = vql.lru_replace(cb, z_rows, step, config.lifespan, rng)
        if replaced:
            events.append({"step": step, "replaced_indices": replaced})
    if config.reset_every and (step + 1) % config.reset_every == 0:
        vql.kmeans_reset(cb, z_rows)


def _record(step, out: vql.VQOutput, task: Node, gap, cb, config, window):
    eff = cb.effective_codes(config.affine_mode, config.affine_lr_scale)
    window_used = (cb.last_used >= step - window + 1).astype(np.int64)
    return mtr.MetricsRecord(
        step=step,
        task_loss=float(task.value[0, 0]),
        commit_loss=float(out.commit_loss.value[0, 0]),
        perplexity=mtr.perplexity(np.bincount(out.indices, minlength=cb.m)),
        active_ratio=mtr.active_ratio(window_used),
        quant_error=float(np.mean(out.distances)),
        grad_gap=gap,
        divergence_cq=mtr.divergence(eff, eff[np.unique(out.indices)]),
    )


def _train_loop(model, cb: cbk.Codebook, config: vql.VQConfig, data, step_fn, *,
                steps: int, batch_size: int, optimizer: SGD,
                schedule: Optional[Schedule], seed: int) -> TrainResult:
    """The loop both trainers share. Each step draws a batch and calls
    `step_fn(batch, t, eta, rng_vq)`, which updates the model and codebook and
    returns (out, task, gap): the `quantize` output and task-loss node of the
    step's last sub-batch, and the gradient gap. The replacement / affine-EMA /
    k-means hooks and the metrics record follow."""
    data = np.asarray(data, dtype=np.float64)
    schedule = schedule or Schedule()
    # active-ratio window: one epoch of steps, stretched to cover the LRU
    # lifespan when replacement is on (a refreshed code counts as used)
    window = max(1, data.shape[0] // batch_size)
    if config.replacement == "lru":
        window = max(window, config.lifespan + 1)
    batches = _batches(data, batch_size, np.random.default_rng(
        np.random.SeedSequence([seed, 1])))
    rng_vq = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    records, events = [], []
    for t in range(steps):
        out, task, gap = step_fn(next(batches), t, lr_at(schedule, optimizer.lr, t), rng_vq)
        _post_step_hooks(cb, config, out.z_e_grouped.value, out.z_q_grouped.value, t,
                         rng_vq, events)
        records.append(_record(t, out, task, gap, cb, config, window))
    return TrainResult(records, cb, model, events)


def train_joint(model, cb: cbk.Codebook, config: vql.VQConfig, data, *,
                steps: int, batch_size: int, optimizer: Optional[SGD] = None,
                schedule: Optional[Schedule] = None, seed: int = 0,
                track_grad_gap: bool = True, smooth_gamma: float = 0.0) -> TrainResult:
    """Joint training: one optimizer step per mini-batch over the
    encoder, decoder, and codebook simultaneously, followed by the
    replacement / affine-EMA hooks."""
    optimizer = optimizer or SGD()

    def step(batch, t, eta, rng):
        forward = mtr.record_forward(model, cb, config, batch, step=t, rng=rng)
        tape, nodes, _, z_e, out, task = forward
        cb.mark_used(out.indices, t)
        loss = tape.add(task, out.commit_loss)
        if smooth_gamma:
            loss = tape.add(loss, smoothness_loss(tape, model, nodes, z_e, out.z_q,
                                                  smooth_gamma))
        # at the pre-step parameters
        gap = (mtr.gradient_gap(model, cb, config, batch, forward=forward)
               if track_grad_gap else 0.0)
        *model_grads, eff_grad = tape.backward(loss, [*nodes.values(), out.effective_codes])
        grads = dict(zip(nodes, model_grads))
        grads.update(vql.codebook_param_grads(cb, eff_grad, config))
        _apply(optimizer, model, cb, grads, eta)
        return out, task, gap

    return _train_loop(model, cb, config, data, step, steps=steps, batch_size=batch_size,
                       optimizer=optimizer, schedule=schedule, seed=seed)


def train_alternating(model, cb: cbk.Codebook, config: vql.VQConfig, data, *,
                      steps: int, batch_size: int, inner_k: int = 1, outer_k: int = 1,
                      optimizer: Optional[SGD] = None,
                      schedule: Optional[Schedule] = None, seed: int = 0,
                      track_grad_gap: bool = True) -> TrainResult:
    """Alternating optimization: per cycle, inner_k codebook-only steps on the
    codebook-facing commitment term, then outer_k encoder/decoder-only steps on
    the task loss. Each sub-step consumes a distinct slice of the mini-batch so
    the example count matches train_joint. The encoder does not move during
    the inner steps, so one encoder pass over their rows serves them all."""
    if inner_k < 1 or outer_k < 1:
        raise ContractViolation("inner_k and outer_k must be >= 1")
    n_sub = inner_k + outer_k
    if batch_size % n_sub != 0:
        raise ContractViolation(
            f"batch_size {batch_size} must divide into {n_sub} sub-batches")
    sub = batch_size // n_sub
    # one SGD for both phases: codebook and model parameter names never clash
    optimizer = optimizer or SGD()

    def step(batch, t, eta, rng):
        z_inner = model.encode_values(batch[:inner_k * sub])
        for i in range(inner_k):
            _inner_step(model, cb, config, z_inner[i * sub:(i + 1) * sub], eta, t, rng,
                        optimizer)
        # the gap of the codebook the outer steps train against
        gap = mtr.gradient_gap(model, cb, config, batch) if track_grad_gap else 0.0
        for i in range(inner_k, n_sub):
            out, task = _outer_step(model, cb, config, batch[i * sub:(i + 1) * sub], eta, t,
                                    rng, optimizer)
        return out, task, gap

    return _train_loop(model, cb, config, data, step, steps=steps, batch_size=batch_size,
                       optimizer=optimizer, schedule=schedule, seed=seed)


def _inner_step(model, cb, config, z_e_rows, eta, step, rng, optimizer):
    """Codebook-only step on the commitment loss of the encoder rows
    `z_e_rows`; the model's parameters stay untouched."""
    tape = Tape()
    out = vql.quantize(tape, tape.leaf(z_e_rows), cb, config, step=step, rng=rng)
    cb.mark_used(out.indices, step)
    _apply(optimizer, model, cb, vql.commitment_codebook_grads(tape, out, cb, config), eta)


def _outer_step(model, cb, config, sub_batch, eta, step, rng, optimizer):
    """Task-loss step over encoder/decoder only; raw codes stay untouched."""
    tape, nodes, _, _, out, task = mtr.record_forward(model, cb, config, sub_batch,
                                                      step=step, rng=rng)
    cb.mark_used(out.indices, step)
    grads = dict(zip(nodes, tape.backward(task, nodes.values())))
    _apply(optimizer, model, cb, grads, eta)
    return out, task

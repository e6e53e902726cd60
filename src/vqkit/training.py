"""Optimizers, learning-rate schedules, and the joint / alternating training
loops for the desk-scale quantized autoencoder."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codebook as cbk
from . import metrics as mtr
from . import vqlayer as vql
from .autodiff import Node, Tape
from .errors import ContractViolation, NumericFailure

CODEBOOK_PARAM_NAMES = ("codes", "affine_scale", "affine_bias")


@dataclass
class SGD:
    """SGD with momentum and weight decay: v <- mu*v + g + lambda*theta;
    theta <- theta - lr*v. Codebook parameters are exempt from weight decay."""
    lr: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocities: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: Optional[float] = None, decay_exempt=CODEBOOK_PARAM_NAMES) -> None:
        eta = self.lr if lr is None else lr
        for name, theta in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(theta)
            if not np.isfinite(g).all():
                raise NumericFailure(f"non-finite gradient for parameter {name!r}")
            if self.weight_decay != 0.0 and name not in decay_exempt:
                g = g + self.weight_decay * theta
            v = self.velocities.get(name)
            v = g if v is None else self.momentum * v + g
            self.velocities[name] = v
            params[name] = theta - eta * v


@dataclass
class Schedule:
    kind: str = "constant"            # constant | step | cosine_warmup
    base_lr: float = 0.1
    milestones: tuple = ()
    factor: float = 0.1
    warmup_steps: int = 0
    total_steps: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "step", "cosine_warmup"):
            raise ContractViolation(f"unknown schedule kind {self.kind!r}")
        if self.kind == "cosine_warmup" and self.warmup_steps > self.total_steps:
            raise ContractViolation("warmup_steps must be <= total_steps")
        if self.base_lr < 0.0:
            raise ContractViolation("base_lr must be >= 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "Schedule":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ContractViolation(f"unknown Schedule keys: {sorted(unknown)}")
        raw = dict(raw)
        if "milestones" in raw:
            raw["milestones"] = tuple(raw["milestones"])
        return cls(**raw)


def lr_at(schedule: Schedule, t: int) -> float:
    if t < 0:
        raise ContractViolation("t must be >= 0")
    if schedule.kind == "constant":
        return schedule.base_lr
    if schedule.kind == "step":
        hits = sum(1 for ms in schedule.milestones if t >= ms)
        return schedule.base_lr * schedule.factor ** hits
    # cosine_warmup: linear ramp 0 -> base over warmup, then cosine to 0
    if schedule.warmup_steps > 0 and t < schedule.warmup_steps:
        return schedule.base_lr * t / schedule.warmup_steps
    denom = max(schedule.total_steps - schedule.warmup_steps, 1)
    progress = min((t - schedule.warmup_steps) / denom, 1.0)
    return schedule.base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


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


class _BatchStream:
    """Deterministic shuffled batch iterator; reshuffles each epoch."""

    def __init__(self, data: np.ndarray, batch_size: int, rng: np.random.Generator):
        if batch_size < 1 or batch_size > data.shape[0]:
            raise ContractViolation("batch_size must be in [1, len(data)]")
        self.data = data
        self.batch_size = batch_size
        self.rng = rng
        self._order = rng.permutation(data.shape[0])
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos + self.batch_size > self.data.shape[0]:
            self._order = self.rng.permutation(self.data.shape[0])
            self._pos = 0
        idx = self._order[self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        return self.data[idx]


def _collect_grads(nodes: dict[str, Node]) -> dict[str, np.ndarray]:
    return {name: node.grad for name, node in nodes.items() if node.is_param}


def _post_step_hooks(cb: cbk.Codebook, config: vql.VQConfig, z_rows, z_q_rows,
                     step: int, rng: np.random.Generator, events: list) -> None:
    if config.affine_mode == "ema" and z_q_rows is not None:
        vql.affine_update_ema(cb, z_rows, z_q_rows, config.affine_momentum)
    if config.replacement == "lru":
        replaced = vql.lru_replace(cb, z_rows, step, config.lifespan, rng)
        if replaced:
            events.append({"step": step, "replaced_indices": replaced})
    if config.reset_every and (step + 1) % config.reset_every == 0:
        if z_rows.shape[0] >= cb.m:
            vql.kmeans_reset(cb, z_rows)


def _record(step, task, commit, cb, config, indices, row_dists, gap, window):
    counts = np.bincount(indices, minlength=cb.m)
    eff = cb.effective_codes(config.affine_mode, config.affine_lr_scale)
    selected = eff[np.unique(indices)]
    window_used = (cb.last_used >= step - window + 1).astype(np.int64)
    return mtr.MetricsRecord(
        step=step,
        task_loss=task,
        commit_loss=commit,
        perplexity=mtr.perplexity(counts) if counts.sum() else 1.0,
        active_ratio=mtr.active_ratio(window_used),
        quant_error=float(np.mean(row_dists)) if len(row_dists) else 0.0,
        grad_gap=gap,
        divergence_cq=mtr.divergence(eff, selected) if selected.shape[0] else 0.0,
    )



def _default_window(n: int, batch_size: int, config: vql.VQConfig) -> int:
    """Active-ratio window: one epoch of steps, stretched to cover the LRU
    lifespan when replacement is on (a refreshed code counts as used)."""
    window = max(1, n // batch_size)
    if config.replacement == "lru":
        window = max(window, config.lifespan + 1)
    return window


def train_joint(model, cb: cbk.Codebook, config: vql.VQConfig, data, *,
                steps: int, batch_size: int, optimizer: Optional[SGD] = None,
                schedule: Optional[Schedule] = None, seed: int = 0,
                bypass_vq: bool = False, track_grad_gap: bool = True,
                smooth_gamma: float = 0.0,
                active_window: Optional[int] = None) -> TrainResult:
    """Joint training: one optimizer step per mini-batch over the
    encoder, decoder, and codebook simultaneously, followed by the
    replacement / affine-EMA hooks."""
    data = np.asarray(data, dtype=np.float64)
    optimizer = optimizer or SGD()
    schedule = schedule or Schedule(base_lr=optimizer.lr)
    window = active_window or _default_window(data.shape[0], batch_size, config)
    stream = _BatchStream(data, batch_size, np.random.default_rng(
        np.random.SeedSequence([seed, 1])))
    rng_vq = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    records, events = [], []
    for t in range(steps):
        batch = stream.next()
        tape = Tape()
        nodes = model.make_nodes(tape)
        codes_node = tape.leaf(cb.codes, param=True, name="codes")
        scale_node = bias_node = None
        if config.affine_mode == "learnable":
            scale_node = tape.leaf(cb.affine_scale.reshape(1, -1), param=True,
                                   name="affine_scale")
            bias_node = tape.leaf(cb.affine_bias.reshape(1, -1), param=True,
                                  name="affine_bias")
        x = tape.leaf(batch)
        z_e = model.encode(tape, x, nodes)

        if bypass_vq:
            z = z_e
            commit = tape.leaf([[0.0]])
            indices = np.zeros(0, dtype=np.int64)
            row_dists = np.zeros(0)
            z_rows = z_e.value
            z_q_rows = None
        else:
            out = vql.quantize(tape, z_e, cb, config, step=t, rng=rng_vq,
                               codes_node=codes_node, affine_scale_node=scale_node,
                               affine_bias_node=bias_node)
            z = out.z_q
            commit = out.commit_loss
            indices = out.indices
            row_dists = out.distances
            z_rows = out.z_e_grouped.value
            z_q_rows = out.z_q_grouped.value

        y = model.decode(tape, z, nodes)
        task = tape.mse(y, x)
        loss = tape.add(task, commit)
        if smooth_gamma and not bypass_vq:
            loss = tape.add(loss, smoothness_loss(tape, model, nodes, z_e, z, smooth_gamma))
        gap = 0.0
        if track_grad_gap and not bypass_vq:
            # pre-step parameters; the step's tape is the gap's forward only
            # when its assignment is the deterministic one the gap is defined on
            forward = None
            if config.sampling == "deterministic":
                forward = mtr.GapForward(tape, nodes, x, z_e, z, task)
            gap = mtr.gradient_gap(model, cb, config, batch, forward=forward)
        tape.backward(loss)

        params = dict(model.params)
        grads = _collect_grads(nodes)
        params["codes"] = cb.codes
        grads["codes"] = codes_node.grad
        if scale_node is not None:
            params["affine_scale"] = cb.affine_scale
            grads["affine_scale"] = None if scale_node.grad is None else scale_node.grad.reshape(-1)
            params["affine_bias"] = cb.affine_bias
            grads["affine_bias"] = None if bias_node.grad is None else bias_node.grad.reshape(-1)

        optimizer.step(params, grads, lr=lr_at(schedule, t))
        for name in model.params:
            model.params[name] = params[name]
        cb.codes = params["codes"]
        if scale_node is not None:
            cb.affine_scale = params["affine_scale"]
            cb.affine_bias = params["affine_bias"]

        if not bypass_vq:
            _post_step_hooks(cb, config, z_rows, z_q_rows, t, rng_vq, events)
        records.append(_record(t, float(task.value[0, 0]), float(commit.value[0, 0]),
                               cb, config, indices, row_dists, gap, window))
    return TrainResult(records, cb, model, events)


def train_alternating(model, cb: cbk.Codebook, config: vql.VQConfig, data, *,
                      steps: int, batch_size: int, inner_k: int = 1, outer_k: int = 1,
                      optimizer: Optional[SGD] = None,
                      codebook_optimizer: Optional[SGD] = None,
                      schedule: Optional[Schedule] = None, seed: int = 0,
                      track_grad_gap: bool = True,
                      active_window: Optional[int] = None) -> TrainResult:
    """Alternating optimization: per cycle, inner_k codebook-only steps on the
    codebook-facing commitment term, then outer_k encoder/decoder-only steps on
    the task loss. Each sub-step consumes a distinct slice of the mini-batch so
    the example count matches train_joint."""
    if inner_k < 1 or outer_k < 1:
        raise ContractViolation("inner_k and outer_k must be >= 1")
    n_sub = inner_k + outer_k
    if batch_size % n_sub != 0:
        raise ContractViolation(
            f"batch_size {batch_size} must divide into {n_sub} sub-batches")
    sub = batch_size // n_sub

    data = np.asarray(data, dtype=np.float64)
    optimizer = optimizer or SGD()
    codebook_optimizer = codebook_optimizer or SGD(lr=optimizer.lr,
                                                   momentum=optimizer.momentum)
    schedule = schedule or Schedule(base_lr=optimizer.lr)
    window = active_window or _default_window(data.shape[0], batch_size, config)
    stream = _BatchStream(data, batch_size, np.random.default_rng(
        np.random.SeedSequence([seed, 1])))
    rng_vq = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    records, events = [], []
    for t in range(steps):
        batch = stream.next()
        eta = lr_at(schedule, t)
        gap = 0.0
        if track_grad_gap:
            gap = mtr.gradient_gap(model, cb, config, batch)

        for i in range(inner_k):
            _inner_step(model, cb, config, batch[i * sub:(i + 1) * sub], eta, t,
                        rng_vq, codebook_optimizer)
        for i in range(inner_k, n_sub):
            task_val, commit_val, indices, row_dists, z_rows, z_q_rows = _outer_step(
                model, cb, config, batch[i * sub:(i + 1) * sub], eta, t, rng_vq,
                optimizer)

        _post_step_hooks(cb, config, z_rows, z_q_rows, t, rng_vq, events)
        records.append(_record(t, task_val, commit_val, cb, config, indices,
                               row_dists, gap, window))
    return TrainResult(records, cb, model, events)


def _encode_values(model, batch) -> np.ndarray:
    tape = Tape()
    nodes = model.make_nodes(tape, trainable=set())
    return model.encode(tape, tape.leaf(batch), nodes).value


def _apply_codebook_step(cb, config, z_rows, indices, eta, codebook_optimizer):
    codes_grad, scale_grad, bias_grad = vql.commitment_codebook_grads(
        cb, z_rows, indices, config)
    params = {"codes": cb.codes}
    grads = {"codes": codes_grad}
    if config.affine_mode == "learnable":
        params["affine_scale"] = cb.affine_scale
        grads["affine_scale"] = scale_grad
        params["affine_bias"] = cb.affine_bias
        grads["affine_bias"] = bias_grad
    codebook_optimizer.step(params, grads, lr=eta)
    cb.codes = params["codes"]
    if config.affine_mode == "learnable":
        cb.affine_scale = params["affine_scale"]
        cb.affine_bias = params["affine_bias"]


def _inner_step(model, cb, config, sub_batch, eta, step, rng, codebook_optimizer):
    z_e = _encode_values(model, sub_batch)
    z_rows = cbk.group_split(z_e, config.n_group)
    eff = cb.effective_codes(config.affine_mode, config.affine_lr_scale)
    indices, _ = cbk.assign(z_rows, eff, config.distance,
                            tau=config.sampling_tau(step), rng=rng)
    cb.mark_used(indices, step)
    _apply_codebook_step(cb, config, z_rows, indices, eta, codebook_optimizer)


def _outer_step(model, cb, config, sub_batch, eta, step, rng, optimizer):
    """Task-loss step over encoder/decoder only; raw codes stay untouched."""
    tape = Tape()
    nodes = model.make_nodes(tape)
    x = tape.leaf(sub_batch)
    z_e = model.encode(tape, x, nodes)
    out = vql.quantize(tape, z_e, cb, config, step=step, rng=rng)
    y = model.decode(tape, out.z_q, nodes)
    task = tape.mse(y, x)
    tape.backward(task)
    params = dict(model.params)
    optimizer.step(params, _collect_grads(nodes), lr=eta)
    for name in model.params:
        model.params[name] = params[name]
    return (float(task.value[0, 0]), float(out.commit_loss.value[0, 0]),
            out.indices, out.distances, out.z_e_grouped.value, out.z_q_grouped.value)


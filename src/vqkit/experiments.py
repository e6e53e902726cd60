"""Scenario definitions, JSON config parsing, synthetic data generation, and
artifact emission for the desk-scale experiments."""
from __future__ import annotations

import copy
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import initialization, metrics as mtr, vqlayer as vql
from .artifacts import read_json
from .autodiff import Tape
from .codebook import Codebook, assign
from .errors import (BOOL, COUNT, FRACTION, INT, NONNEG, REAL, UNIT, ConfigError,
                     ContractViolation, check_kinds, from_strict_dict, is_finite_number,
                     list_of, one_of, strict_keys)
from .models import MLPAutoencoder
from .training import (SGD, Schedule, TrainResult, _inner_step, lr_at, train_alternating,
                       train_joint)

TOY_MODES = ("no_vq", "joint", "alternated", "lookahead")
SCENARIOS = ("train", "toy-trajectory", "affine-toy", "ablation", "init-study")


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class MixtureSpec:
    dim: int
    n: int
    means: list
    cov_scales: list
    weights: list

    _KINDS = {"dim": INT, "n": INT, "means": list_of(list_of(REAL)),
              "cov_scales": list_of(NONNEG), "weights": list_of(NONNEG)}

    def __post_init__(self):
        check_kinds(vars(self), self._KINDS, "data")
        k = len(self.means)
        if any(len(row) != self.dim for row in self.means):
            raise ContractViolation("mixture means must be k x dim")
        if len(self.cov_scales) != k or len(self.weights) != k:
            raise ContractViolation("cov_scales and weights must have one entry per component")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ContractViolation("mixture weights must sum to 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "MixtureSpec":
        return from_strict_dict(cls, raw, "data")


def gen_mixture(spec: MixtureSpec, rng: np.random.Generator) -> np.ndarray:
    """Seeded draws from an isotropic Gaussian mixture; covariance of component
    i is cov_scales[i] * I."""
    means = np.asarray(spec.means, dtype=np.float64)
    comps = rng.choice(means.shape[0], size=spec.n, p=np.asarray(spec.weights))
    noise = rng.standard_normal((spec.n, spec.dim))
    stds = np.sqrt(np.asarray(spec.cov_scales, dtype=np.float64))
    return means[comps] + stds[comps, None] * noise


def _default_mixture(dim: int) -> dict:
    half = dim // 2
    base = np.full(dim, 0.8)
    split = np.concatenate([np.full(half, 0.8), np.full(dim - half, -0.8)])
    means = [base.tolist(), (-base).tolist(), split.tolist(), (-split).tolist()]
    return {"dim": dim, "n": 1024, "means": means,
            "cov_scales": [0.1, 0.1, 0.1, 0.1], "weights": [0.25, 0.25, 0.25, 0.25]}


# ---------------------------------------------------------------------------
# config handling

# Each config section's keys, as key -> (kind, default): resolve_config checks
# a set key with `errors.check_kinds`. A key without a default is optional: the
# codebook's are init_codebook's options, and the grid's are fields a grid may
# sweep.
_CELLS = ("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0)   # a grid field
_SECTIONS = {
    "optimizer": {"lr": (NONNEG, SGD.lr), "momentum": (REAL, SGD.momentum),
                  "weight_decay": (REAL, SGD.weight_decay)},
    "model": {"d_in": (INT, 16), "hidden": (INT, 32), "d_code": (INT, 8)},
    "codebook": {"m": (INT, 32), "init": (one_of(*initialization.INIT_METHODS), "normal_kaiming"),
                 "fan": (INT,), "low": (REAL,), "high": (REAL,), "iters": (INT,)},
    "toy": {"steps": (INT, 500), "lr": (REAL, 0.1), "alpha": (REAL, 1.0),
            "beta": (UNIT, 0.95), "nu": (NONNEG, 0.5),
            "target": (("a list of two finite numbers", lambda v: isinstance(v, list)
                        and len(v) == 2 and all(map(is_finite_number, v))), [2.0, 1.0]),
            "tol": (REAL, 1e-3)},
    "affine_toy": {"n_points": (INT, 512), "m": (INT, 128), "updates": (INT, 20),
                   "lr": (FRACTION, 0.1), "momentum": (FRACTION, 0.1),
                   "point_cov": (NONNEG, 0.1), "code_cov": (NONNEG, 0.05)},
    "init_study": {"n": (INT, 2048), "d": (INT, 8), "m": (INT, 64), "n_seeds": (INT, 5),
                   "methods": (list_of(one_of(*initialization.INIT_METHODS), distinct=True),
                               ["kmeans", "data_subset", "normal_kaiming"])},
    "grid": {"affine_mode": (_CELLS, ["off", "learnable"]),
             "replacement": (_CELLS, ["off", "lru"]), "inner_k": (list_of(COUNT),),
             **dict.fromkeys(("init", "nu", "distance", "n_group"), (_CELLS,))},
}

# The top-level keys, as key -> (kind, default); scenario and seed have no
# default. The last key sets no term any more: every config.json written before
# it was dropped holds it at 0.0, so it is kept, as 0 only, for those to re-run.
_TOP_LEVEL = {
    "scenario": (one_of(*SCENARIOS),), "seed": (COUNT,), "steps": (INT, 300),
    "batch_size": (INT, 64), "train_mode": (one_of("joint", "alternating"), "joint"),
    "inner_k": (INT, 1), "outer_k": (INT, 1), "track_grad_gap": (BOOL, True),
    "seeds_per_cell": (INT, 5),
    "smooth_gamma": (("the number 0", lambda v: is_finite_number(v) and v == 0),),
}

_DEFAULTS = {
    **{key: spec[1] for key, spec in _TOP_LEVEL.items() if len(spec) == 2},
    "vq": {},
    "schedule": None,
    "data": None,
    **{section: {key: spec[1] for key, spec in keys.items() if len(spec) == 2}
       for section, keys in _SECTIONS.items()},
}

_DATA_INITS = {"data_subset", "kmeans"}


def _kinds(keys: dict) -> dict:
    return {key: spec[0] for key, spec in keys.items()}


def _init_options(cb_cfg: dict) -> dict:
    """The optional codebook keys `cb_cfg` sets: init_codebook's options."""
    return {key: cb_cfg[key] for key, spec in _SECTIONS["codebook"].items()
            if len(spec) == 1 and key in cb_cfg}


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in defaults. Unknown keys anywhere
    are rejected; seed and scenario are mandatory. Every failed check is a
    ConfigError."""
    try:
        strict_keys(raw, {*_TOP_LEVEL, *_DEFAULTS}, "config", required=("scenario", "seed"))
        cfg = copy.deepcopy(_DEFAULTS)
        for key, value in raw.items():
            # a grid the user sets replaces the default grid
            if isinstance(value, dict) and isinstance(cfg.get(key), dict) and key != "grid":
                cfg[key] = {**cfg[key], **value}
            else:
                cfg[key] = copy.deepcopy(value)
        check_kinds(cfg, _kinds(_TOP_LEVEL), "config")
        for section, keys in _SECTIONS.items():
            check_kinds(strict_keys(cfg[section], keys, section), _kinds(keys), section)
        if cfg["scenario"] == "ablation" and not cfg["grid"]:
            raise ConfigError("ablation grid must be nonempty")
        if cfg["data"] is None:
            cfg["data"] = _default_mixture(cfg["model"]["d_in"])
        vq = vql.VQConfig.from_dict(cfg["vq"])
        cfg["vq"] = asdict(vq)
        MixtureSpec.from_dict(cfg["data"])
        if cfg["schedule"] is not None:
            cfg["schedule"] = asdict(Schedule.from_dict(cfg["schedule"]))
        # the temperature and a step schedule's rate are monotone in the step
        # (the other schedules stay within optimizer.lr), so the last step's
        # stand for every step's
        vq.sampling_tau(cfg["steps"] - 1)
        lr_at(Schedule.from_dict(cfg["schedule"] or {}), cfg["optimizer"]["lr"], cfg["steps"] - 1)
        if cfg["data"]["dim"] != cfg["model"]["d_in"]:
            raise ConfigError(f"data.dim={cfg['data']['dim']} must equal "
                              f"model.d_in={cfg['model']['d_in']}")
        if cfg["batch_size"] > cfg["data"]["n"]:
            raise ConfigError(
                f"batch_size={cfg['batch_size']} exceeds data.n={cfg['data']['n']}")
        # an alternating run splits each batch into inner_k + outer_k sub-batches
        sub_batches = cfg["inner_k"] + cfg["outer_k"]
        if cfg["train_mode"] == "alternating" and cfg["batch_size"] % sub_batches:
            raise ConfigError(f"batch_size={cfg['batch_size']} must divide into inner_k + "
                              f"outer_k = {sub_batches} sub-batches")
        d_code, n_group = cfg["model"]["d_code"], cfg["vq"]["n_group"]
        if d_code % n_group:
            raise ConfigError(f"n_group={n_group} must divide model.d_code={d_code}")
        # a k-means reset refits the codes on the step's last sub-batch
        hook_rows = n_group * (cfg["batch_size"] // sub_batches
                               if cfg["train_mode"] == "alternating" else cfg["batch_size"])
        if cfg["vq"]["reset_every"] and cfg["codebook"]["m"] > hook_rows:
            raise ConfigError(f"codebook.m={cfg['codebook']['m']} exceeds the {hook_rows} encoder "
                              f"rows (last sub-batch x n_group) a vq.reset_every reset refits on")
        study, cb_cfg = cfg["init_study"], cfg["codebook"]
        # init_codebook's check of the uniform bounds, before anything is written
        if cb_cfg["init"] == "uniform":
            initialization.init_codebook("uniform", 1, 1, rng=np.random.default_rng(0),
                                         **_init_options(cb_cfg))
        # a data-driven init draws m distinct codes from data.n * n_group encoder rows
        rows = cfg["data"]["n"] * n_group
        if cb_cfg["init"] in _DATA_INITS and cb_cfg["m"] > rows:
            raise ConfigError(f"codebook.m={cb_cfg['m']} exceeds the {rows} encoder rows "
                              f"(data.n x n_group) a kmeans or data_subset init draws from")
        if _DATA_INITS & set(study["methods"]) and study["m"] > study["n"]:
            raise ConfigError(f"init_study.m={study['m']} exceeds the "
                              f"init_study.n={study['n']} sample rows a kmeans or "
                              f"data_subset init draws from")
    except ContractViolation as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["scenario"] == "ablation":
        for cell, cell_cfg in _grid_cells(cfg):
            try:
                resolve_config(cell_cfg)
            except ConfigError as exc:
                raise ConfigError(f"grid cell {cell}: {exc}") from exc
    return cfg


def load_config(path, seed: int | None = None) -> dict:
    """Read a config with `artifacts.read_json` and resolve it. A `seed`
    replaces the config's own, and is checked like it."""
    try:
        raw = read_json(path)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON, or not finite
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed is not None and isinstance(raw, dict) and "seed" in raw:
        raw["seed"] = seed
    return resolve_config(raw)


# ---------------------------------------------------------------------------
# scenario building blocks

def _cell_rng(base_seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([base_seed, *keys]))


def build_codebook(cfg: dict, data: np.ndarray, model: MLPAutoencoder,
                   rng: np.random.Generator) -> Codebook:
    cb_cfg = cfg["codebook"]
    vq = vql.VQConfig.from_dict(cfg["vq"])
    d_code = cfg["model"]["d_code"] // vq.n_group
    sample = None
    if cb_cfg["init"] in _DATA_INITS:
        sample = model.encode_values(data).reshape(-1, d_code)
    codes = initialization.init_codebook(cb_cfg["init"], cb_cfg["m"], d_code, sample=sample,
                                         rng=rng, **_init_options(cb_cfg))
    return Codebook(codes)


def run_training(cfg: dict, seed: int | None = None) -> TrainResult:
    """Train the default toy autoencoder under the resolved config."""
    seed = cfg["seed"] if seed is None else seed
    data = gen_mixture(MixtureSpec.from_dict(cfg["data"]), _cell_rng(seed, 10))
    model = MLPAutoencoder(rng=_cell_rng(seed, 11), **cfg["model"])
    cb = build_codebook(cfg, data, model, _cell_rng(seed, 12))
    vq = vql.VQConfig.from_dict(cfg["vq"])
    opt = SGD(**cfg["optimizer"], schedule=Schedule.from_dict(cfg["schedule"] or {}))
    common = dict(steps=cfg["steps"], batch_size=cfg["batch_size"], optimizer=opt, seed=seed,
                  track_grad_gap=cfg["track_grad_gap"])
    if cfg["train_mode"] == "alternating":
        return train_alternating(model, cb, vq, data, inner_k=cfg["inner_k"],
                                 outer_k=cfg["outer_k"], **common)
    return train_joint(model, cb, vq, data, **common)


def collapse_config(seed: int, **overrides) -> dict:
    """Resolved config for the mismatched-initialization scenario: the codebook
    starts far from the encoder output distribution (uniform in [2.5, 3.5] per
    coordinate versus near-zero embeddings), so without mitigation nearly all
    probability mass lands on a handful of codes."""
    raw = {
        "scenario": "train",
        "seed": seed,
        "steps": 150,
        "batch_size": 64,
        "codebook": {"m": 32, "init": "uniform", "low": 2.5, "high": 3.5},
        "optimizer": {"lr": 0.05, "momentum": 0.0, "weight_decay": 0.0},
    }
    raw.update(overrides)
    return resolve_config(raw)


# ---------------------------------------------------------------------------
# two-dimensional toy trajectory

@dataclass
class ToyTrajectory:
    mode: str
    rows: list            # per step: (z_e_x, z_e_y, z_q_x, z_q_y, task_loss)
    path_length: float
    steps_to_tol: int     # first step after which task loss stays <= tol


def run_toy_trajectory(mode: str, seed: int, *, steps: int = 500, lr: float = 0.1,
                       alpha: float = 1.0, beta: float = 0.95, nu: float = 0.5,
                       target=(2.0, 1.0), tol: float = 1e-3) -> ToyTrajectory:
    """Single 2-D embedding chasing a stationary target through the code of a
    one-code codebook, SGD with a fixed learning rate; every update is a tape
    pull-back through `quantize`. Modes: no_vq bypasses quantization; joint
    descends task + commitment; alternated takes the alternating trainer's
    inner commitment step on the code, then a task-only embedding step;
    lookahead is joint with the synchronized (nu) codebook term."""
    if mode not in TOY_MODES:
        raise ContractViolation(f"unknown toy mode {mode!r}")
    rng = _cell_rng(seed, 3)
    z_e = rng.normal(0.0, 1.0, size=(1, 2))
    cb = Codebook(rng.normal(0.0, 1.0, size=(1, 2)))
    config = vql.VQConfig(alpha=alpha, beta=beta, nu=nu if mode == "lookahead" else 0.0)
    tgt = np.asarray(target, dtype=np.float64).reshape(1, 2)

    rows = []
    path_length = 0.0
    for t in range(steps):
        z_q = cb.codes
        if mode == "alternated":
            # train_alternating's inner step: the code against a constant embedding
            _inner_step(None, cb, config, z_e, t, None, SGD(lr=lr))
        tape = Tape()
        ze_node = tape.leaf(z_e)
        if mode == "no_vq":
            task = loss = tape.mse(ze_node, tape.leaf(tgt))
            [ze_grad] = tape.backward(loss, [ze_node])
        else:
            out = vql.quantize(tape, ze_node, cb, config)
            task = tape.mse(out.z_q, tape.leaf(tgt))
            # alternated: task only, through straight-through to the embedding
            loss = task if mode == "alternated" else tape.add(task, out.commit_loss)
            ze_grad, eff_grad = tape.backward(loss, [ze_node, out.effective_codes])
        z_e_new = z_e - lr * ze_grad
        if mode == "no_vq":
            cb.codes = z_e_new
        elif mode != "alternated":
            cb.codes = z_q - lr * vql.codebook_param_grads(cb, eff_grad, config)["codes"]

        rows.append((float(z_e[0, 0]), float(z_e[0, 1]),
                     float(z_q[0, 0]), float(z_q[0, 1]), float(task.value[0, 0])))
        path_length += float(np.linalg.norm(z_e_new - z_e))
        z_e = z_e_new

    for t in range(steps - 1, -1, -1):
        if rows[t][4] > tol:
            steps_to_tol = t + 1
            break
    else:
        steps_to_tol = 0
    return ToyTrajectory(mode, rows, path_length, steps_to_tol)


# ---------------------------------------------------------------------------
# distribution-mismatch toy for the affine reparameterization

def run_affine_toy(seed: int, *, n_points: int = 512, m: int = 128,
                   updates: int = 20, lr: float = 0.1, momentum: float = 0.1,
                   point_cov: float = 0.1, code_cov: float = 0.05) -> dict:
    """2-D moment-matching toy: embeddings around the origin, codes around
    (-1, -1) (mean gap sqrt(2)). Runs the standard EMA codebook update and the
    affine-EMA variant side by side for `updates` steps.

    The affine variant accumulates moments of the embedding batch and of the
    codebook itself, so the shared transform re-centers every code even though
    only the selected few receive the sparse EMA update."""
    rng = _cell_rng(seed, 4)
    points = rng.normal(0.0, np.sqrt(point_cov), size=(n_points, 2))
    init_codes = rng.normal(-1.0, np.sqrt(code_cov), size=(m, 2))

    def run(affine: bool):
        cb = Codebook(init_codes.copy())
        affine_mode = "ema" if affine else "off"
        gap_history = []
        for _ in range(updates):
            eff = cb.effective_codes(affine_mode)
            gap_history.append(float(np.linalg.norm(eff.mean(axis=0) - points.mean(axis=0))))
            indices = assign(points, eff, "euclidean")[0]
            vql.ema_update(cb, points, indices, lr)
            if affine:
                vql.affine_update_ema(cb, points, cb.codes, momentum)
        eff_final = cb.effective_codes(affine_mode)
        # initial effective codes equal the raw init codes (identity transform)
        displacement = np.linalg.norm(eff_final - init_codes, axis=1)
        gap_history.append(float(np.linalg.norm(eff_final.mean(axis=0) - points.mean(axis=0))))
        return {
            "fraction_moved": float((displacement > 0.0).mean()),
            "fraction_static": float((displacement == 0.0).mean()),
            "initial_gap": gap_history[0],
            "final_gap": gap_history[-1],
            "gap_history": gap_history,
            "divergence": float(mtr.divergence(points, eff_final)),
        }

    return {"standard": run(affine=False), "affine": run(affine=True)}


# ---------------------------------------------------------------------------
# ablation grid

def _grid_cells(cfg: dict):
    """Yield (cell, cell_cfg) for each cell of the grid's Cartesian product, in
    sorted-field order. cell_cfg is the `train` config the cell runs: `init`
    goes to `codebook`, an `inner_k` >= 1 trains alternating with that inner_k
    and 0 trains joint, every other field goes to `vq`, and the gap is off."""
    fields = sorted(cfg["grid"])
    for combo in itertools.product(*(cfg["grid"][f] for f in fields)):
        cell = dict(zip(fields, combo))
        cell_cfg = copy.deepcopy(cfg)
        cell_cfg.update(scenario="train", track_grad_gap=False)
        for f, v in cell.items():
            if f == "init":
                cell_cfg["codebook"]["init"] = v
            elif f == "inner_k" and v >= 1:
                cell_cfg.update(train_mode="alternating", inner_k=v)
            elif f == "inner_k":
                cell_cfg["train_mode"] = "joint"
            else:
                cell_cfg["vq"][f] = v
        yield cell, cell_cfg


def run_ablation(cfg: dict) -> list[dict]:
    """Each cell of the grid trains the toy autoencoder with `seeds_per_cell`
    seeds and reports mean/sd of the final task loss, perplexity, and active
    ratio."""
    results = []
    for cell_id, (cell, cell_cfg) in enumerate(_grid_cells(cfg)):
        lasts = []
        for s in range(cfg["seeds_per_cell"]):
            seed = int(np.random.SeedSequence([cfg["seed"], cell_id, s]).generate_state(1)[0])
            lasts.append(run_training(cell_cfg, seed=seed).records[-1])
        row = dict(cell)
        for key in ("task_loss", "perplexity", "active_ratio"):
            values = [getattr(last, key) for last in lasts]
            row[f"{key}_mean"] = float(np.mean(values))
            row[f"{key}_sd"] = float(np.std(values))
        results.append(row)
    return results


# ---------------------------------------------------------------------------
# initialization divergence study

def run_init_study(cfg: dict) -> list[dict]:
    """Divergence between a post-ReLU Gaussian embedding sample and codebooks
    produced by each initialization method, per seed."""
    study = cfg["init_study"]
    rows = []
    for s in range(study["n_seeds"]):
        rng = _cell_rng(cfg["seed"], 5, s)
        sample = np.maximum(rng.standard_normal((study["n"], study["d"])), 0.0)
        row = {"seed": s}
        for i, method in enumerate(study["methods"]):
            codes = initialization.init_codebook(
                method, study["m"], study["d"], sample=sample,
                rng=_cell_rng(cfg["seed"], 6, s, i))
            row[method] = mtr.divergence(sample, codes)
        rows.append(row)
    return rows

"""Config resolution, data generation, scenario runners, and the command-line
entry point (exit codes and byte-identical reruns)."""
import contextlib
import copy
import errno
import filecmp
import functools
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vqkit.cli as cli_mod
import vqkit.experiments as exp
import vqkit.training as training
from vqkit import (
    Codebook,
    ConfigError,
    ContractViolation,
    NumericFailure,
    VQConfig,
    collapse_config,
    resolve_config,
    run_affine_toy,
    run_init_study,
    run_toy_trajectory,
    run_training,
)
from vqkit.artifacts import atomic_open, commit, staged, write_csv, write_json, write_jsonl
from vqkit.cli import main as cli_main
from vqkit.codebook import DISTANCE_KINDS
from vqkit.experiments import (
    _DEFAULTS,
    _SECTIONS,
    _TOP_LEVEL,
    SCENARIOS,
    TOY_MODES,
    MixtureSpec,
    gen_mixture,
    run_ablation,
)
from vqkit.metrics import METRICS_HEADER, write_metrics_csv
from vqkit.models import MLPAutoencoder
from vqkit.training import SGD, Schedule


def minimal(scenario="train", **extra):
    raw = {"scenario": scenario, "seed": 0}
    raw.update(extra)
    return raw


def mixture(**overrides):
    """A one-component data section that fits the default model (d_in = 16)."""
    return {"dim": 16, "n": 256, "means": [[0.0] * 16], "cov_scales": [0.1],
            "weights": [1.0], **overrides}


# -- config resolution ------------------------------------------------------------

def test_config_requires_scenario_and_integer_seed():
    with pytest.raises(ConfigError):
        resolve_config({"seed": 1})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "train"})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "train", "seed": "1"})
    with pytest.raises(ConfigError):
        resolve_config({"scenario": "bogus", "seed": 1})


def test_config_rejects_unknown_keys_at_every_level():
    with pytest.raises(ConfigError):
        resolve_config(minimal(extra_key=1))
    with pytest.raises(ConfigError):
        resolve_config(minimal(optimizer={"lr": 0.1, "nesterov": True}))
    with pytest.raises(ConfigError):
        resolve_config(minimal(vq={"alpha": 1.0, "alfa": 2.0}))
    with pytest.raises(ConfigError):
        resolve_config(minimal(codebook={"m": 8, "shape": "round"}))
    with pytest.raises(ConfigError):
        resolve_config(minimal(grid={"unknown_field": [1]}))
    with pytest.raises(ConfigError):
        resolve_config(minimal(data={"dim": 2, "n": 4, "means": [[0, 0]],
                                     "cov_scales": [1.0], "weights": [1.0],
                                     "skew": 3}))


def test_every_from_dict_is_strict_and_raises_contract_violation():
    for cls, name, raw in ((VQConfig, "vq", {"alpha": 1.0}), (Schedule, "schedule", {}),
                           (MixtureSpec, "data", mixture())):
        assert cls.from_dict(raw) == cls(**raw)
        with pytest.raises(ContractViolation, match=rf"^unknown {name} keys: \['skew'\]$"):
            cls.from_dict({**raw, "skew": 3})
        with pytest.raises(ContractViolation, match=f"^{name} must be an object, got list$"):
            cls.from_dict([raw])
    with pytest.raises(ContractViolation, match=r"^data keys missing: \['n', 'means'"):
        MixtureSpec.from_dict({"dim": 16})


def test_config_fills_defaults_and_keeps_overrides():
    cfg = resolve_config(minimal(steps=42))
    assert cfg["steps"] == 42
    assert cfg["batch_size"] == 64
    assert cfg["train_mode"] == "joint"
    assert cfg["codebook"]["m"] == 32
    assert cfg["data"]["dim"] == cfg["model"]["d_in"]
    # nested overrides merge with the remaining defaults
    cfg = resolve_config(minimal(optimizer={"lr": 0.7}))
    assert cfg["optimizer"]["lr"] == 0.7
    assert cfg["optimizer"]["momentum"] == 0.0


def test_the_library_optimizer_defaults_are_the_cli_defaults():
    """`train_joint` and `train_alternating` called without an optimizer train
    at the rate a config without an `optimizer` section gets."""
    optimizer = resolve_config(minimal())["optimizer"]
    assert SGD().lr == optimizer["lr"]
    assert SGD(**optimizer) == SGD()


def test_each_cli_default_is_the_default_of_the_library_call_it_feeds():
    """A key a config leaves out takes the default of the library argument it
    feeds (the optimizer section: the test above)."""
    toy = run_toy_trajectory.__kwdefaults__
    assert _DEFAULTS["toy"] == {**toy, "target": list(toy["target"])}
    assert _DEFAULTS["affine_toy"] == run_affine_toy.__kwdefaults__
    model = inspect.signature(MLPAutoencoder).parameters
    assert _DEFAULTS["model"] == {key: model[key].default for key in _DEFAULTS["model"]}
    for trainer, keys in ((training.train_alternating, ("inner_k", "outer_k", "track_grad_gap")),
                          (training.train_joint, ("track_grad_gap",))):
        assert {key: _DEFAULTS[key] for key in keys} == \
            {key: trainer.__kwdefaults__[key] for key in keys}


def test_a_kmeans_reset_needs_m_rows_in_the_hooks_sub_batch():
    """The reset refits on n_group times the rows of the step's last sub-batch:
    64 / (3 + 1) = 16 in an alternating run, against m = 32. Equality passes."""
    alternating = minimal(train_mode="alternating", inner_k=3, outer_k=1,
                          vq={"reset_every": 10})
    with pytest.raises(ConfigError, match="^codebook.m=32 exceeds the 16 encoder rows"):
        resolve_config(alternating)
    resolve_config({**alternating, "batch_size": 128})
    resolve_config({**alternating, "vq": {"reset_every": 10, "n_group": 2}})
    resolve_config({**alternating, "vq": {"reset_every": 0}})
    resolve_config(minimal(batch_size=32, vq={"reset_every": 10}))
    with pytest.raises(ConfigError, match="exceeds the 31 encoder rows"):
        resolve_config(minimal(batch_size=31, vq={"reset_every": 10}))


def test_collapse_config_shape():
    cfg = collapse_config(3)
    assert cfg["codebook"]["init"] == "uniform"
    assert cfg["codebook"]["low"] == 2.5
    cfg = collapse_config(3, vq={"replacement": "lru", "lifespan": 20})
    assert cfg["vq"]["replacement"] == "lru"


# -- mixture data ------------------------------------------------------------------

def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ContractViolation):
        MixtureSpec.from_dict({"dim": 2, "n": 10, "means": [[0, 0], [1, 1]],
                               "cov_scales": [1.0, 1.0], "weights": [0.7, 0.7]})


def test_mixture_zero_covariance_pins_rows_to_means():
    spec = MixtureSpec(dim=2, n=50, means=[[3.0, -1.0]], cov_scales=[0.0],
                       weights=[1.0])
    data = gen_mixture(spec, np.random.default_rng(0))
    assert np.allclose(data, [3.0, -1.0])


def test_mixture_component_frequencies_follow_weights():
    spec = MixtureSpec(dim=1, n=20000, means=[[-10.0], [10.0]],
                       cov_scales=[0.01, 0.01], weights=[0.25, 0.75])
    data = gen_mixture(spec, np.random.default_rng(1))
    right = (data[:, 0] > 0).mean()
    assert abs(right - 0.75) < 0.02


def test_mixture_generation_is_deterministic():
    spec = MixtureSpec.from_dict(resolve_config(minimal())["data"])
    a = gen_mixture(spec, np.random.default_rng(9))
    b = gen_mixture(spec, np.random.default_rng(9))
    assert np.array_equal(a, b)


# -- scenario runners ----------------------------------------------------------------

def test_toy_trajectory_no_vq_converges():
    traj = run_toy_trajectory("no_vq", seed=0)
    assert traj.rows[-1][4] <= 1e-6
    assert 0 < traj.steps_to_tol < 500
    with pytest.raises(ContractViolation):
        run_toy_trajectory("sideways", seed=0)


def test_toy_trajectory_within_tol_from_the_first_step_has_steps_to_tol_0():
    assert run_toy_trajectory("joint", 0, tol=1e9).steps_to_tol == 0


def test_toy_trajectory_quantized_modes_track_target():
    for mode in ("joint", "alternated", "lookahead"):
        traj = run_toy_trajectory(mode, seed=1)
        assert traj.rows[-1][4] < traj.rows[0][4]
        assert traj.path_length > 0.0


@pytest.mark.parametrize("mode", TOY_MODES)
def test_every_toy_mode_that_overflows_is_a_numeric_failure(mode):
    """Every mode steps through the tape, so every mode meets its finiteness
    checks instead of returning rows of inf."""
    with np.errstate(all="ignore"), pytest.raises(NumericFailure):
        run_toy_trajectory(mode, 0, lr=1e154)


def test_the_toy_alternated_code_step_is_the_alternating_inner_step():
    """On a one-code codebook, the alternating trainer's inner step with plain
    SGD moves each recorded code to exactly the one the toy records next."""
    traj = run_toy_trajectory("alternated", 3, steps=40, lr=0.3, alpha=2.0, beta=0.8)
    for before, after in zip(traj.rows, traj.rows[1:]):
        cb = Codebook([before[2:4]])
        training._inner_step(None, cb, VQConfig(alpha=2.0, beta=0.8), np.array([before[:2]]),
                             0, None, SGD(lr=0.3))
        assert cb.codes.tolist() == [list(after[2:4])]


def test_affine_toy_recloses_the_gap():
    out = run_affine_toy(0, n_points=128, m=32, updates=10)
    assert out["affine"]["final_gap"] < out["standard"]["final_gap"]
    assert out["affine"]["fraction_moved"] == 1.0
    assert out["standard"]["fraction_static"] > 0.5


def test_init_study_rows_cover_methods():
    cfg = resolve_config(minimal("init-study",
                                 init_study={"n": 256, "d": 4, "m": 8,
                                             "n_seeds": 2,
                                             "methods": ["kmeans", "normal_kaiming"]}))
    rows = run_init_study(cfg)
    assert len(rows) == 2
    assert all({"seed", "kmeans", "normal_kaiming"} <= set(r) for r in rows)
    assert all(r["kmeans"] >= 0.0 for r in rows)


def test_run_training_deterministic_for_seed(metrics_bytes):
    cfg = resolve_config(minimal(steps=8, track_grad_gap=False))
    a = run_training(cfg)
    b = run_training(cfg)
    assert metrics_bytes(a.records) == metrics_bytes(b.records)
    assert np.array_equal(a.codebook.codes, b.codebook.codes)


def test_an_empty_null_or_constant_schedule_trains_at_optimizer_lr(metrics_bytes):
    """`optimizer.lr` is the one base rate: a constant schedule leaves it as
    it is, however the schedule is written."""
    runs = {metrics_bytes(run_training(resolve_config(
        minimal(steps=6, optimizer={"lr": 0.07}, schedule=schedule))).records)
        for schedule in ({}, None, {"kind": "constant"})}
    assert len(runs) == 1


def test_the_resolved_config_states_a_given_schedule_in_full():
    assert resolve_config(minimal())["schedule"] is None
    assert resolve_config(minimal(schedule={"kind": "step", "milestones": [3]}))["schedule"] \
        == {"kind": "step", "milestones": (3,), "factor": 0.1, "warmup_steps": 0,
            "total_steps": 0}


# -- CLI ---------------------------------------------------------------------------

def write_cfg(tmp_path, name, raw):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def run_dirs_identical(a, b):
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


def test_cli_exit_codes(tmp_path):
    good = write_cfg(tmp_path, "toy.json",
                     {"scenario": "toy-trajectory", "seed": 1,
                      "toy": {"steps": 50}})
    assert cli_main(["toy-trajectory", "--config", good,
                     "--out", str(tmp_path / "ok")]) == 0
    # malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli_main(["toy-trajectory", "--config", str(bad),
                     "--out", str(tmp_path / "x1")]) == 2
    # scenario does not match the subcommand
    assert cli_main(["train", "--config", good,
                     "--out", str(tmp_path / "x2")]) == 2
    # numerically divergent run
    blowup = write_cfg(tmp_path, "blowup.json",
                       minimal(steps=40, track_grad_gap=False,
                               optimizer={"lr": 1e6}))
    with np.errstate(over="ignore"):
        assert cli_main(["train", "--config", blowup,
                         "--out", str(tmp_path / "x3")]) == 3


def _wrong_kind_cases():
    """One bad config per kinded key, from the kind tables: the key set to "x",
    which no kind accepts. Each case is (command, overrides, the key's name)."""
    tables = [("config", _TOP_LEVEL, lambda key: {key: "x"})]
    tables += [(section, keys, lambda key, section=section: {section: {key: "x"}})
               for section, keys in _SECTIONS.items()]
    tables += [("vq", VQConfig._KINDS, lambda key: {"vq": {key: "x"}}),
               ("schedule", Schedule._KINDS, lambda key: {"schedule": {key: "x"}}),
               ("data", MixtureSpec._KINDS, lambda key: {"data": mixture(**{key: "x"})})]
    return [("train", override(key), f"{name}.{key}")
            for name, keys, override in tables for key in keys]


_WRONG_KINDS = _wrong_kind_cases()


@pytest.mark.parametrize("command,overrides,named", [(*case, None) for case in [
    ("train", {"steps": 0}),
    ("ablation", {"grid": {"nu": []}}),
    ("train", {"batch_size": 0}),
    ("ablation", {"seeds_per_cell": 0}),
    ("train", {"seed": True}),
    ("train", {"fused": True}),
    ("train", {"optimizer": {"lr": "x"}}),
    ("train", {"optimizer": {"lr": float("nan")}}),
    ("train", {"optimizer": {"lr": float("inf")}}),
    ("train", {"optimizer": {"momentum": True}}),
    ("train", {"optimizer": {"weight_decay": None}}),
    ("train", {"vq": {"tau0": "x"}}),
    ("train", {"vq": {"tau_decay": "x"}}),
    ("train", {"vq": {"alpha": "x"}}),
    ("train", {"vq": {"alpha": float("inf")}}),
    ("train", {"vq": {"beta": True}}),
    ("train", {"vq": {"lifespan": "x"}}),
    ("train", {"vq": {"reset_every": "x"}}),
    ("train", {"vq": {"reset_every": -1}}),
    ("train", {"vq": {"n_group": 1.0}}),
    ("train", {"vq": {"sampling": "stochastic", "tau0": 0}}),
    ("train", {"vq": {"sampling": "stochastic", "tau_decay": 0.0}}),
    ("toy-trajectory", {"toy": {"lr": "x"}}),
    ("toy-trajectory", {"toy": {"steps": 0}}),
    ("toy-trajectory", {"toy": {"steps": 2.5}}),
    ("toy-trajectory", {"toy": {"tol": float("nan")}}),
    ("toy-trajectory", {"toy": {"target": ["a", 1.0]}}),
    ("toy-trajectory", {"toy": {"target": [1.0, 2.0, 3.0]}}),
    ("affine-toy", {"affine_toy": {"lr": "x"}}),
    ("affine-toy", {"affine_toy": {"m": 0}}),
    ("affine-toy", {"affine_toy": {"updates": True}}),
    ("affine-toy", {"affine_toy": {"n_points": "64"}}),
    ("affine-toy", {"affine_toy": {"point_cov": float("inf")}}),
    ("affine-toy", {"affine_toy": {"point_cov": -0.1}}),
    ("affine-toy", {"affine_toy": {"momentum": 0.0}}),
    ("train", {"codebook": {"m": "x"}}),
    ("train", {"codebook": {"m": 0}}),
    ("train", {"codebook": {"m": True}}),
    ("train", {"codebook": {"init": "kmeans", "iters": 2.5}}),
    ("train", {"codebook": {"fan": 0}}),
    ("train", {"codebook": {"init": "uniform", "low": float("nan")}}),
    ("train", {"codebook": {"init": "uniform", "high": "x"}}),
    ("init-study", {"init_study": {"n": "x"}}),
    ("init-study", {"init_study": {"d": 0}}),
    ("init-study", {"init_study": {"m": 1.5}}),
    ("init-study", {"init_study": {"n_seeds": False}}),
    ("toy-trajectory", {"mode": "joint"}),
    ("train", {"train_mode": "sequential"}),
    ("train", {"train_mode": "alternating", "smooth_gamma": 0.1}),
    ("train", {"smooth_gamma": "x"}),
    ("train", {"model": {"hidden": "x"}}),
    ("train", {"model": {"d_code": 0}}),
    ("train", {"model": {"d_in": 16.0}}),
    ("train", {"track_grad_gap": "no"}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"inner_k": ["x"]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"inner_k": [-1]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"affine_mode": ["sideways"]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"nu": [0.5, -0.5]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"n_group": [2.0]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "smooth_gamma": 0.1,
                  "grid": {"inner_k": [0, 1]}}),
    ("train", {"vq": {"n_group": 3}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"n_group": [1, 3]}}),
    ("train", {"codebook": {"init": "bogus"}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"init": ["bogus"]}}),
    ("init-study", {"init_study": {"methods": ["kmeans", "bogus"]}}),
    ("init-study", {"init_study": {"methods": "kmeans"}}),
    ("train", {"train_mode": "alternating", "inner_k": "x"}),
    ("train", {"train_mode": "alternating", "outer_k": 1.0}),
    ("train", {"inner_k": True}),
    ("train", {"train_mode": "alternating", "inner_k": 2, "outer_k": 1}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "grid": {"inner_k": [0, 2]}}),
    ("train", {"schedule": {"kind": "step", "milestones": 5}}),
    ("train", {"schedule": {"kind": "step", "milestones": ["a"]}}),
    ("train", {"schedule": {"base_lr": "x"}}),
    ("train", {"schedule": {"kind": "step", "milestones": [1], "factor": "x"}}),
    ("train", {"schedule": {"kind": "cosine_warmup", "warmup_steps": "a",
                            "total_steps": 10}}),
    ("train", {"schedule": 5}),
    ("train", {"schedule": []}),
    ("train", {"data": mixture(n=-5)}),
    ("train", {"data": mixture(cov_scales=["x"])}),
    ("train", {"data": mixture(dim=4, means=[[0.0] * 4])}),
    ("train", {"data": mixture(n=32)}),
    ("train", {"vq": []}),
    ("ablation", {"grid": []}),
    ("train", {"codebook": {"init": "uniform", "low": 5.0, "high": 1.0}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "codebook": {"low": 0.5, "high": 0.0},
                  "grid": {"init": ["normal_kaiming", "uniform"]}}),
    ("train", {"codebook": {"m": 65, "init": "kmeans"}, "data": mixture(n=64)}),
    ("train", {"vq": {"n_group": 2}, "codebook": {"m": 129, "init": "data_subset"},
               "data": mixture(n=64)}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "codebook": {"m": 65},
                  "data": mixture(n=64), "grid": {"init": ["kmeans"]}}),
    ("ablation", {"steps": 2, "seeds_per_cell": 1, "vq": {"n_group": 2},
                  "codebook": {"m": 100, "init": "kmeans"}, "data": mixture(n=64),
                  "grid": {"n_group": [2, 1]}}),
    ("init-study", {"init_study": {"n": 16, "m": 17, "methods": ["data_subset"]}}),
    ("init-study", {"init_study": {"n": 16, "m": 17,
                                   "methods": ["normal_kaiming", "kmeans"]}}),
    ("train", {"optimizer": {"lr": -0.1}}),
    ("init-study", {"init_study": {"methods": []}}),
    ("affine-toy", {"affine_toy": {"lr": 7}}),
    ("affine-toy", {"affine_toy": {"lr": 0}}),
    ("affine-toy", {"affine_toy": {"lr": -0.5}}),
    ("toy-trajectory", {"toy": {"nu": -0.5}}),
    ("toy-trajectory", {"toy": {"beta": 1.5}}),
    ("ablation", {"grid": {}}),
    ("train", {"data": {"dim": 16, "n": 256}}),
    ("train", {"seed": -1}),
    ("init-study", {"init_study": {"methods": ["kmeans", "data_subset", "kmeans"]}}),
    ("train", {"data": mixture(means=[[0.0] * 16, [1.0] * 16], cov_scales=[0.1, 0.1],
                               weights=[1.5, -0.5])}),
    ("train", {"steps": 100, "train_mode": "alternating", "inner_k": 3, "outer_k": 1,
               "vq": {"reset_every": 10}}),
    ("train", {"schedule": {"kind": "cosine_warmup"}}),
    ("train", {"schedule": {"base_lr": 0.1}}),
    ("train", {"codebook": {"fan": 10 ** 400}}),
    ("train", {"schedule": {"kind": "cosine_warmup", "warmup_steps": 10 ** 400,
                            "total_steps": 10 ** 400}}),
    # the temperature at the last step overflows, underflows to 0, or decays to 0
    ("train", {"steps": 40, "vq": {"sampling": "stochastic", "tau_decay": 1e10}}),
    ("train", {"steps": 40, "vq": {"sampling": "stochastic", "tau0": 1e-300,
                                   "tau_decay": 1e-10}}),
    ("train", {"steps": 3000, "vq": {"sampling": "stochastic", "tau_decay": 0.5}}),
    ("train", {"steps": 5, "optimizer": {"lr": 0.0},
               "schedule": {"kind": "step", "milestones": [1, 2], "factor": 1e300}}),
    ("train", {"codebook": {"init": "uniform", "low": -1e308, "high": 1e308}}),
    ("ablation", {"codebook": {"init": "uniform", "low": -1e308, "high": 1e308}}),
]] + _WRONG_KINDS, ids=[
        "steps-0", "empty-grid-list", "batch-size-0", "seeds-per-cell-0", "bool-seed",
        "removed-fused-key", "lr-string", "lr-nan", "lr-infinity", "momentum-bool",
        "weight-decay-null", "vq-tau0-string", "vq-tau-decay-string", "vq-alpha-string",
        "vq-alpha-infinity", "vq-beta-bool", "vq-lifespan-string", "vq-reset-every-string",
        "vq-reset-every-negative", "vq-n-group-float", "vq-stochastic-tau0-0",
        "vq-stochastic-tau-decay-0", "toy-lr-string", "toy-steps-0", "toy-steps-float",
        "toy-tol-nan", "toy-target-string", "toy-target-length-3", "affine-toy-lr-string",
        "affine-toy-m-0", "affine-toy-updates-bool", "affine-toy-n-points-string",
        "affine-toy-point-cov-infinity", "affine-toy-point-cov-negative",
        "affine-toy-momentum-0", "codebook-m-string", "codebook-m-0", "codebook-m-bool",
        "codebook-iters-float", "codebook-fan-0", "codebook-low-nan", "codebook-high-string",
        "init-study-n-string", "init-study-d-0", "init-study-m-float",
        "init-study-n-seeds-bool", "removed-mode-key", "train-mode-unknown",
        "smooth-gamma-alternating", "smooth-gamma-string", "model-hidden-string",
        "model-d-code-0", "model-d-in-float", "track-grad-gap-string",
        "grid-inner-k-string", "grid-inner-k-negative", "grid-affine-mode-unknown",
        "grid-nu-negative", "grid-n-group-float", "grid-smooth-gamma-alternating",
        "vq-n-group-not-dividing-d-code", "grid-n-group-not-dividing-d-code",
        "codebook-init-unknown", "grid-init-unknown", "init-study-method-unknown",
        "init-study-methods-string", "inner-k-string", "outer-k-float", "inner-k-bool",
        "alternating-batch-not-divisible", "grid-inner-k-batch-not-divisible",
        "schedule-milestones-int", "schedule-milestones-string", "schedule-base-lr-string",
        "schedule-factor-string", "schedule-warmup-steps-string", "schedule-int",
        "schedule-list", "data-n-negative", "data-cov-scales-string",
        "data-dim-not-model-d-in", "batch-size-above-data-n", "vq-list", "grid-list",
        "uniform-low-above-high", "grid-uniform-low-above-high", "kmeans-m-above-data-n",
        "data-subset-m-above-grouped-rows", "grid-kmeans-m-above-data-n",
        "grid-n-group-m-above-grouped-rows", "init-study-data-subset-m-above-n",
        "init-study-kmeans-m-above-n", "lr-negative", "init-study-methods-empty",
        "affine-toy-lr-7", "affine-toy-lr-0", "affine-toy-lr-negative", "toy-nu-negative",
        "toy-beta-above-1", "grid-empty", "data-keys-missing", "seed-negative",
        "init-study-methods-repeated", "data-weights-negative", "reset-rows-below-m",
        "cosine-warmup-total-steps-0", "removed-schedule-base-lr-key",
        "codebook-fan-past-float-range", "schedule-warmup-steps-past-float-range",
        "stochastic-tau-overflows", "stochastic-tau-underflows",
        "stochastic-tau-decays-to-0", "step-schedule-rate-overflows",
        "uniform-range-past-float-range", "grid-uniform-range-past-float-range",
        *(f"{named}-x" for _, _, named in _WRONG_KINDS)])
def test_cli_rejects_bad_config(tmp_path, capsys, command, overrides, named):
    """`named`, when given, is the key the one-line report must name."""
    cfgp = write_cfg(tmp_path, "bad.json",
                     {**minimal(command, track_grad_gap=False), **overrides})
    assert cli_main([command, "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()   # rejected before any artifact is written
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named is None or f" {named} must be " in err


@pytest.mark.parametrize("overrides", [
    {"optimizer": {"lr": 1e308}},
    {"data": mixture(means=[[1e308] * 16], cov_scales=[1e308])},
    {"train_mode": "alternating", "inner_k": 2, "outer_k": 1, "batch_size": 63,
     "optimizer": {"lr": 0.5, "momentum": 0.9}, "vq": {"affine_mode": "learnable"}},
], ids=["lr-1e308", "data-1e308", "alternating-learnable-diverges"])
def test_cli_numeric_failure_prints_one_line(tmp_path, overrides):
    """numpy's overflow warnings do not reach stderr ahead of the report."""
    cfgp = write_cfg(tmp_path, "big.json", minimal(**overrides))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "vqkit.cli", "train", "--config", cfgp,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric failure:") and proc.stderr.count("\n") == 1


def test_cli_toy_trajectory_outputs_and_rerun_identical(tmp_path):
    cfgp = write_cfg(tmp_path, "toy.json",
                     {"scenario": "toy-trajectory", "seed": 2,
                      "toy": {"steps": 120}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["toy-trajectory", "--config", cfgp, "--out", str(a)]) == 0
    assert cli_main(["toy-trajectory", "--config", cfgp, "--out", str(b)]) == 0
    names = {p.name for p in a.iterdir()}
    assert {"config.json", "summary.json", "trajectory_no_vq.csv",
            "trajectory_joint.csv", "trajectory_alternated.csv",
            "trajectory_lookahead.csv"} <= names
    assert run_dirs_identical(a, b)


def test_cli_train_outputs_and_config_roundtrip(tmp_path):
    cfgp = write_cfg(tmp_path, "train.json",
                     minimal(steps=10, track_grad_gap=False))
    a = tmp_path / "a"
    assert cli_main(["train", "--config", cfgp, "--out", str(a)]) == 0
    assert {"config.json", "metrics.csv", "codebook.bin", "codebook.bin.json",
            "replacements.jsonl", "summary.json"} <= {p.name for p in a.iterdir()}
    # re-running from the emitted effective config reproduces every byte
    b = tmp_path / "b"
    assert cli_main(["train", "--config", str(a / "config.json"),
                     "--out", str(b)]) == 0
    assert run_dirs_identical(a, b)


def test_a_config_with_the_legacy_smooth_gamma_key_at_0_trains_the_same_bytes(tmp_path):
    """Every config.json written while the key set a decoder term holds
    `"smooth_gamma": 0.0`: such a config trains exactly as one without the
    key, its config.json echoes the key, and a re-run from it reproduces
    every byte."""
    resolved = resolve_config(minimal(steps=10))
    assert "smooth_gamma" not in resolved
    runs = {}
    for name, raw in (("plain", resolved), ("legacy", {**resolved, "smooth_gamma": 0.0})):
        runs[name] = tmp_path / name
        assert cli_main(["train", "--config", write_cfg(tmp_path, f"{name}.json", raw),
                         "--out", str(runs[name])]) == 0
    for artifact in ("metrics.csv", "codebook.bin", "codebook.bin.json", "summary.json"):
        assert (runs["plain"] / artifact).read_bytes() == \
            (runs["legacy"] / artifact).read_bytes()
    assert json.loads((runs["legacy"] / "config.json").read_text())["smooth_gamma"] == 0.0
    assert "smooth_gamma" not in json.loads((runs["plain"] / "config.json").read_text())
    rerun = tmp_path / "rerun"
    assert cli_main(["train", "--config", str(runs["legacy"] / "config.json"),
                     "--out", str(rerun)]) == 0
    assert run_dirs_identical(runs["legacy"], rerun)


def test_artifact_writer_failing_mid_file_leaves_nothing_behind(tmp_path, monkeypatch):
    target = tmp_path / "a.csv"
    with pytest.raises(ValueError, match="mid-file"):
        with atomic_open(target) as fh:
            fh.write("x,y\n1,")
            raise ValueError("mid-file")
    assert list(tmp_path.iterdir()) == []
    target.write_text("old\n")
    with pytest.raises(ValueError, match="mid-file"):
        with atomic_open(target) as fh:
            fh.write("new")
            raise ValueError("mid-file")
    assert list(tmp_path.iterdir()) == [target] and target.read_text() == "old\n"

    # through the CLI: the metrics writer raises on the third of its rows
    out, real_run_training = tmp_path / "o", exp.run_training

    class FailsWhenWritten:
        def __str__(self):
            # the header and two rows went to the temp file, under no final name
            assert len(list(out.glob(".metrics.csv.*.tmp"))) == 1
            assert not (out / "metrics.csv").exists()
            raise ValueError("mid-file")

    def run_training(cfg):
        result = real_run_training(cfg)
        result.records[2].divergence_cq = FailsWhenWritten()
        return result

    monkeypatch.setattr(exp, "run_training", run_training)
    cfgp = write_cfg(tmp_path, "train.json", minimal(steps=4, track_grad_gap=False))
    with pytest.raises(ValueError, match="mid-file"):
        cli_main(["train", "--config", cfgp, "--out", str(out)])
    assert [p.name for p in out.iterdir()] == []


def test_cli_seed_flag_overrides_config(tmp_path):
    cfgp = write_cfg(tmp_path, "train.json",
                     minimal(steps=6, track_grad_gap=False))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", cfgp, "--out", str(a)]) == 0
    assert cli_main(["train", "--config", cfgp, "--out", str(b),
                     "--seed", "99"]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
    assert json.loads((b / "config.json").read_text())["seed"] == 99


def test_cli_seed_flag_is_checked_like_the_config_seed(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, "train.json", minimal(steps=6))
    out = tmp_path / "o"
    assert cli_main(["train", "--config", cfgp, "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == \
        "config error: config.seed must be an integer in [0, float max], got -1\n"


def test_cli_affine_toy_and_ablation_smoke(tmp_path):
    cfgp = write_cfg(tmp_path, "aff.json",
                     {"scenario": "affine-toy", "seed": 3,
                      "affine_toy": {"n_points": 64, "m": 16, "updates": 5}})
    out = tmp_path / "aff"
    assert cli_main(["affine-toy", "--config", cfgp, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert {"standard", "affine"} <= set(summary)

    abl = write_cfg(tmp_path, "abl.json",
                    minimal("ablation", steps=6, seeds_per_cell=2,
                            track_grad_gap=False,
                            grid={"affine_mode": ["off", "learnable"],
                                  "replacement": ["off"]}))
    out2 = tmp_path / "abl"
    assert cli_main(["ablation", "--config", abl, "--out", str(out2)]) == 0
    lines = (out2 / "ablation.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one row per grid cell


def test_cli_metrics_replay(tmp_path):
    cfgp = write_cfg(tmp_path, "train.json",
                     minimal(steps=12, track_grad_gap=False))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", cfgp, "--out", str(run)]) == 0
    out = tmp_path / "replay"
    assert cli_main(["metrics-replay", "--config", cfgp, "--out", str(out),
                     "--metrics", str(run / "metrics.csv")]) == 0
    summary = json.loads((out / "replay_summary.json").read_text())
    assert summary["n_steps"] == 12
    assert summary["task_loss"]["min"] <= summary["task_loss"]["final"] or True
    assert 0 <= summary["best_task_loss_step"] < 12
    # a CSV with the wrong header is a config error
    mangled = tmp_path / "mangled.csv"
    text = (run / "metrics.csv").read_text().splitlines()
    text[0] = text[0].replace("task_loss", "loss")
    mangled.write_text("\n".join(text) + "\n")
    assert cli_main(["metrics-replay", "--config", cfgp, "--out", str(out),
                     "--metrics", str(mangled)]) == 2


@pytest.mark.parametrize("mangle", ["non_numeric", "short_row", "nan", "-inf"])
def test_cli_metrics_replay_rejects_bad_rows(tmp_path, capsys, mangle):
    cfgp = write_cfg(tmp_path, "train.json", minimal(steps=3, track_grad_gap=False))
    run = tmp_path / "run"
    assert cli_main(["train", "--config", cfgp, "--out", str(run)]) == 0
    lines = (run / "metrics.csv").read_text().splitlines()
    cells = lines[2].split(",")
    if mangle == "non_numeric":
        cells[1] = "oops"
    elif mangle == "short_row":
        cells = cells[:4]
    else:
        cells[2] = mangle
    lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli_main(["metrics-replay", "--config", cfgp, "--out", str(out),
                     "--metrics", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: metrics CSV line 3") and err.count("\n") == 1
    assert not out.exists()


def test_cli_metrics_replay_rejects_a_csv_with_no_data_rows(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, "train.json", minimal())
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(METRICS_HEADER) + "\n")
    assert cli_main(["metrics-replay", "--config", cfgp, "--out", str(tmp_path / "r"),
                     "--metrics", str(empty)]) == 2
    assert capsys.readouterr().err == "config error: metrics CSV has no data rows\n"


def test_cli_metrics_replay_rejects_a_csv_that_is_not_utf8(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, "train.json", minimal())
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"step,task_loss\xff\n")
    assert cli_main(["metrics-replay", "--config", cfgp, "--out", str(tmp_path / "r"),
                     "--metrics", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read metrics CSV: ") and err.count("\n") == 1


@functools.cache
def _real_metrics_csv() -> bytes:
    """The metrics.csv of a six-step default run."""
    records = run_training(resolve_config(minimal(steps=6))).records
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        write_metrics_csv(records, path)
        return path.read_bytes()


_CELL_EDITS = st.tuples(st.sampled_from(["drop", "extra", "nan", "inf", "-inf", "NaN",
                                         "Infinity"]),
                        st.integers(0, 63), st.integers(0, 63))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_CELL_EDITS, max_size=3),
       flips=st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(1, 255)), max_size=3),
       cut=st.none() | st.integers(0, 1 << 12))
@example(edits=[], flips=[], cut=None)  # the file as written
def test_cli_metrics_replay_of_a_mutated_csv_exits_0_or_2_with_one_line(edits, flips, cut):
    """Cell edits (a dropped or extra cell, a nan or inf cell) on a line,
    then byte flips (XOR masks), then truncation."""
    lines = [line.split(b",") for line in _real_metrics_csv().split(b"\n")]
    for edit, line, cell in edits:
        cells = lines[line % len(lines)]
        j = cell % (len(cells) + 1)
        if edit == "drop":
            del cells[j:j + 1]
        elif edit == "extra":
            cells.insert(j, b"1")
        else:
            cells[j:j + 1] = [edit.encode()]
    data = bytearray(b"\n".join(b",".join(cells) for cells in lines))
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        metrics = Path(tmp) / "metrics.csv"
        metrics.write_bytes(bytes(data[:cut]))
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps(minimal()))
        with contextlib.redirect_stderr(err):
            code = cli_main(["metrics-replay", "--config", str(cfgp),
                             "--out", str(Path(tmp) / "o"), "--metrics", str(metrics)])
        if code == 0:
            assert_strict_outputs(Path(tmp) / "o")
    err = err.getvalue()
    assert code in (0, 2)
    assert err.count("\n") == (code != 0) and "Traceback" not in err


# -- ablation grid -------------------------------------------------------------------

def test_ablation_rows_equal_train_runs_of_hand_written_cell_configs():
    """Each cell of a grid over init, inner_k, n_group and a vq field is a
    `train` run: its row is the mean and sd over seeds of run_training on the
    cell's config, written out by hand."""
    grid = {"init": ["normal_kaiming", "kmeans"], "inner_k": [0, 1], "n_group": [1, 2],
            "nu": [0.0, 0.5]}
    common = {"seed": 7, "steps": 3, "batch_size": 16, "data": mixture(n=64)}
    rows = run_ablation(resolve_config({"scenario": "ablation", "seeds_per_cell": 2,
                                        "grid": grid, **common}))
    fields = sorted(grid)
    assert [tuple(row[f] for f in fields) for row in rows] == \
        list(itertools.product(*(grid[f] for f in fields)))
    for cell_id, row in enumerate(rows):
        raw = {"scenario": "train", "track_grad_gap": False, **common,
               "codebook": {"init": row["init"]},
               "vq": {"n_group": row["n_group"], "nu": row["nu"]}}
        if row["inner_k"] >= 1:
            raw.update(train_mode="alternating", inner_k=row["inner_k"])
        cfg = resolve_config(raw)
        finals = []
        for s in range(2):
            seed = int(np.random.SeedSequence([7, cell_id, s]).generate_state(1)[0])
            finals.append(run_training(cfg, seed=seed).records[-1])
        for key in ("task_loss", "perplexity", "active_ratio"):
            values = [getattr(final, key) for final in finals]
            assert row[f"{key}_mean"] == float(np.mean(values))
            assert row[f"{key}_sd"] == float(np.std(values))


def test_a_grid_the_user_sets_replaces_the_default_grid(tmp_path):
    raw = minimal("ablation", steps=2, seeds_per_cell=1, grid={"nu": [0.0, 0.5]})
    assert resolve_config(raw)["grid"] == {"nu": [0.0, 0.5]}
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["ablation", "--config", write_cfg(tmp_path, "abl.json", raw),
                     "--out", str(a)]) == 0
    header, *rows = (a / "ablation.csv").read_text().splitlines()
    assert len(rows) == 2
    assert "nu" in header.split(",") and "affine_mode" not in header.split(",")
    # config.json records the whole grid, so a rerun from it runs the same cells
    assert cli_main(["ablation", "--config", str(a / "config.json"), "--out", str(b)]) == 0
    assert run_dirs_identical(a, b)
    full = resolve_config(minimal("ablation"))
    assert resolve_config(full)["grid"] == full["grid"] == _DEFAULTS["grid"]


def test_a_failing_grid_cell_names_itself():
    with pytest.raises(ConfigError, match=r"^grid cell \{'inner_k': 2\}: batch_size=64 "):
        resolve_config(minimal("ablation", grid={"inner_k": [0, 2]}))
    with pytest.raises(ConfigError, match=r"^grid cell \{'init': 'bogus', 'nu': 0.0\}: "):
        resolve_config(minimal("ablation", grid={"nu": [0.0], "init": ["kmeans", "bogus"]}))


# -- CLI fuzz: every config exits 0, 2 or 3, and a failure prints one line ------------

_FUZZ_BASE = {
    "steps": 2, "batch_size": 8, "seeds_per_cell": 1,
    "model": {"d_in": 4, "hidden": 4, "d_code": 2}, "codebook": {"m": 4},
    "data": {"dim": 4, "n": 32, "means": [[0.0] * 4], "cov_scales": [0.1], "weights": [1.0]},
    "toy": {"steps": 5}, "affine_toy": {"n_points": 8, "m": 4, "updates": 2},
    "init_study": {"n": 16, "d": 2, "m": 4, "n_seeds": 1}, "grid": {"inner_k": [0, 1]},
}
# every key a config may set, the legacy smooth_gamma included
_FUZZ_KEYS = sorted({(key,) for key in {*_TOP_LEVEL, *_DEFAULTS} - {"scenario", "seed"}}
                    | {(section, key) for section, keys in _SECTIONS.items() for key in keys}
                    | {("vq", field) for field in VQConfig.__dataclass_fields__})
_FUZZ_VALUES = [True, False, None, 0, 1, 2, -1, -0.5, 0.5, 1e154, -1e154, 1e308, "", "x",
                "kmeans", "alternating", [], [0], [1, 2], {}]
# hazard moves: keys that must change together to reach a numeric hazard, each
# a list of (key path, value) pairs applied as one mutation
_FUZZ_HAZARDS = [
    *[[(("codebook", "init"), "uniform"), (("codebook", "low"), -1e154),
       (("codebook", "high"), 1e154), (("vq", "distance"), kind)] for kind in DISTANCE_KINDS],
    [(("affine_toy", "point_cov"), 1e308)],
    [(("optimizer", "lr"), 1e154), (("vq", "affine_mode"), "ema")],
    [(("vq", "sampling"), "stochastic"), (("vq", "tau_decay"), 1e10), (("steps",), 40)],
    [(("schedule", "kind"), "step"), (("schedule", "milestones"), [0, 1]),
     (("schedule", "factor"), 1e300), (("optimizer", "lr"), 0)],
    [(("codebook", "init"), "uniform"), (("codebook", "low"), -1e308),
     (("codebook", "high"), 1e308)],
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scenario=st.sampled_from(SCENARIOS),
       mutations=st.lists(st.one_of(
           st.tuples(st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES)).map(
               lambda move: [move]),
           st.sampled_from(_FUZZ_HAZARDS)), max_size=3))
def test_cli_fuzzed_config_exits_0_2_or_3_with_one_line(scenario, mutations):
    raw = {"scenario": scenario, "seed": 0, **copy.deepcopy(_FUZZ_BASE)}
    for path, value in itertools.chain.from_iterable(mutations):
        section = raw
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = copy.deepcopy(value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps(raw))
        with contextlib.redirect_stderr(err):
            code = cli_main([scenario, "--config", str(cfgp), "--out", str(Path(tmp) / "o")])
        if code == 0:
            assert_strict_outputs(Path(tmp) / "o")
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert err.count("\n") == (code != 0) and "Traceback" not in err


class _TrustingFinite:
    """A stand-in for a module whose finiteness test always passes."""

    def __init__(self, module, **overrides):
        self._module, self._overrides = module, overrides

    def __getattr__(self, name):
        return self._overrides.get(name, getattr(self._module, name))


def test_the_fuzz_search_finds_a_non_finite_output_once_the_finiteness_checks_are_gone(
        monkeypatch):
    """The fuzz test can catch something: with the artifact writers' and the
    distance kernel's finiteness checks made no-ops, the same derandomized
    search reaches a run that exits 0 and writes a non-finite value."""
    import math

    import vqkit.artifacts as artifacts_mod
    import vqkit.codebook as cbk_mod

    def dumps(obj, **kwargs):
        return json.dumps(obj, **{**kwargs, "allow_nan": True})

    monkeypatch.setattr(artifacts_mod, "math", _TrustingFinite(math, isfinite=lambda v: True))
    monkeypatch.setattr(artifacts_mod, "json", _TrustingFinite(json, dumps=dumps))
    monkeypatch.setattr(cbk_mod, "np", _TrustingFinite(
        np, isfinite=lambda a: np.ones(np.shape(a), dtype=bool)))
    with pytest.raises(AssertionError, match=r"in JSON output|\.csv: "):
        test_cli_fuzzed_config_exits_0_2_or_3_with_one_line()


def _no_constant(name):
    raise AssertionError(f"{name} in JSON output")


def assert_strict_outputs(out):
    """Every JSON file is strict JSON (no NaN or Infinity), and every CSV
    cell that reads as a number is finite."""
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_no_constant)
        elif path.suffix == ".csv":
            for line in path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(value), f"{path.name}: {line}"


def test_affine_toy_with_overflowing_points_exits_3_and_writes_no_nan(tmp_path, capsys):
    """Points drawn with covariance 1e308 overflow to inf: the run is a numeric
    failure, not a success whose summary holds NaN and Infinity."""
    raw = {"scenario": "affine-toy", "seed": 0,
           "affine_toy": {"point_cov": 1e308, "n_points": 16, "m": 4, "updates": 2}}
    out = tmp_path / "o"
    assert cli_main(["affine-toy", "--config", write_cfg(tmp_path, "at.json", raw),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert not (out / "summary.json").exists()
    assert not [p for p in out.iterdir() if p.name.startswith(".")]  # no temporary file
    assert_strict_outputs(out)


def test_toy_trajectory_that_overflows_exits_3_and_leaves_only_its_config(tmp_path, capsys):
    raw = {"scenario": "toy-trajectory", "seed": 0, "toy": {"lr": 1e154}}
    out = tmp_path / "o"
    assert cli_main(["toy-trajectory", "--config", write_cfg(tmp_path, "toy.json", raw),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "numeric failure: non-finite forward value at node 2 (mse)\n"
    assert [p.name for p in out.iterdir()] == ["config.json"]


@pytest.mark.parametrize("distance, message", [
    ("cosine_renorm", "non-finite norm under cosine distance"),
    ("cosine_unit_norm", "non-finite norm under cosine distance"),
    ("euclidean", "non-finite half squared norm in the distance kernel"),
], ids=["cosine_renorm", "cosine_unit_norm", "euclidean"])
def test_train_with_overflowing_code_norms_exits_3_and_writes_no_metrics(
        tmp_path, capsys, distance, message):
    """Codes uniform in +-1e154 overflow the kernel's norms, which would give
    NaN distances and arbitrary assignments: the first kernel call is a
    numeric failure, not a run whose metrics.csv holds nan."""
    raw = {"scenario": "train", "seed": 0, "steps": 3, "vq": {"distance": distance},
           "codebook": {"m": 32, "init": "uniform", "low": -1e154, "high": 1e154}}
    out = tmp_path / "o"
    assert cli_main(["train", "--config", write_cfg(tmp_path, "t.json", raw),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"numeric failure: {message}\n"
    # no metrics.csv, summary.json or temporary file
    assert [p.name for p in out.iterdir()] == ["config.json"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_csv_the_cli_writes_ends_its_lines_with_newline_only(tmp_path, scenario):
    raw = {"scenario": scenario, "seed": 0, **copy.deepcopy(_FUZZ_BASE)}
    out = tmp_path / "o"
    assert cli_main([scenario, "--config", write_cfg(tmp_path, "c.json", raw),
                     "--out", str(out)]) == 0
    written = sorted(out.glob("*.csv"))
    assert written
    for path in written:
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


def test_non_finite_json_output_is_a_numeric_failure(tmp_path):
    from vqkit.errors import NumericFailure
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericFailure, match="^s.json: Out of range float"):
            write_json(tmp_path / "s.json", {"a": [1.0, value]})
    assert list(tmp_path.iterdir()) == []


def test_non_finite_csv_or_jsonl_value_is_a_numeric_failure_and_keeps_the_file(tmp_path):
    csv_path, jsonl_path = tmp_path / "m.csv", tmp_path / "r.jsonl"
    csv_path.write_text("old\n")
    jsonl_path.write_text("old\n")
    with pytest.raises(NumericFailure, match="^m.csv: non-finite value nan$"):
        write_csv(csv_path, ["a", "b"], [[0, 0.5], [1, float("nan")]])
    with pytest.raises(NumericFailure, match="^r.jsonl: Out of range float"):
        write_jsonl(jsonl_path, [{"a": 0.5}, {"a": float("nan")}])
    assert csv_path.read_text() == jsonl_path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "r.jsonl"]


def test_a_config_nested_too_deeply_for_the_parser_is_a_config_error(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_text("[" * 100_000)
    assert cli_main(["train", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config {cfgp}: JSON nested too deeply\n"
    assert not (tmp_path / "o").exists()


def test_a_vqkit_error_outside_the_config_and_numeric_kinds_exits_2(tmp_path, capsys):
    """An all-zero codebook under cosine distance is a DegenerateInput, which
    the CLI reports on one `error:` line."""
    cfgp = write_cfg(tmp_path, "c.json", minimal(
        steps=2, vq={"distance": "cosine_unit_norm"},
        codebook={"init": "uniform", "low": 0.0, "high": 0.0}))
    out = tmp_path / "o"
    assert cli_main(["train", "--config", cfgp, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_run_that_exits_2_removes_only_the_directories_it_created(tmp_path, capsys):
    """The outermost directory the run made goes; one that existed before
    the run stays, with what it held."""
    cfgp = write_cfg(tmp_path, "c.json", minimal(
        steps=2, vq={"distance": "cosine_unit_norm"},
        codebook={"init": "uniform", "low": 0.0, "high": 0.0}))
    assert cli_main(["train", "--config", cfgp, "--out", str(tmp_path / "a" / "b")]) == 2
    assert not (tmp_path / "a").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    assert cli_main(["train", "--config", cfgp, "--out", str(kept)]) == 2
    assert (kept / "notes.txt").read_text() == "mine"
    assert capsys.readouterr().err.count("\n") == 2


def test_a_run_that_exits_2_removes_each_directory_it_made_past_a_dotdot(tmp_path, capsys):
    """`--out a/../b` with `a` absent makes `a`, then `b` beside it: the run
    removes both. A directory reached through `..` that existed before stays."""
    cfgp = write_cfg(tmp_path, "c.json", minimal(
        steps=2, vq={"distance": "cosine_unit_norm"},
        codebook={"init": "uniform", "low": 0.0, "high": 0.0}))
    assert cli_main(["train", "--config", cfgp, "--out", str(tmp_path / "a" / ".." / "b")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    (tmp_path / "kept").mkdir()
    out = tmp_path / "a" / ".." / "kept" / "c"
    assert cli_main(["train", "--config", cfgp, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "kept"]
    assert not any((tmp_path / "kept").iterdir())


@pytest.mark.parametrize("out,directory,path,reason", [
    ("afile/x", None, "afile/x", "Not a directory"),
    ("afile", None, "afile/config.json", "Not a directory"),
    ("od", "od/metrics.csv", "od/metrics.csv", "Is a directory"),
    ("od", "od/config.json", "od/config.json", "Is a directory")])
def test_an_out_that_cannot_be_written_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          out, directory, path, reason):
    """`--out` under a regular file or a regular file itself, and an artifact
    name that is already a directory: one line naming the path, exit 2,
    every path that existed before the run kept and no temporary file left."""
    monkeypatch.chdir(tmp_path)
    cfgp = write_cfg(tmp_path, "c.json", minimal(steps=2))
    Path("afile").write_text("mine")
    if directory:
        Path(directory).mkdir(parents=True)
    before = set(tmp_path.rglob("*"))
    assert cli_main(["train", "--config", cfgp, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {path}: {reason}\n"
    after = set(tmp_path.rglob("*"))
    assert before <= after and not any(p.name.endswith(".tmp") for p in after)
    assert Path("afile").read_text() == "mine"


def test_a_run_that_exits_2_removes_each_file_it_wrote_into_an_existing_out(tmp_path, capsys):
    """A run that fails after it staged config.json into an `--out` that
    existed before commits no file there and keeps what the directory held; a
    run that exits 3 commits its config.json there."""
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    zero = write_cfg(tmp_path, "zero.json", minimal(
        steps=2, vq={"distance": "cosine_unit_norm"},
        codebook={"init": "uniform", "low": 0.0, "high": 0.0}))
    assert cli_main(["train", "--config", zero, "--out", str(kept)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]
    overflow = write_cfg(tmp_path, "overflow.json", minimal(
        steps=2, codebook={"init": "uniform", "low": -1e154, "high": 1e154}))
    assert cli_main(["train", "--config", overflow, "--out", str(kept)]) == 3
    assert sorted(p.name for p in kept.iterdir()) == ["config.json", "notes.txt"]


def test_a_run_that_exits_2_puts_back_the_config_json_of_an_earlier_run(tmp_path, capsys):
    """An earlier run's directory keeps its config.json bytes, so the file
    still matches the metrics.csv and codebook.bin beside it: the failed run
    committed nothing."""
    od = tmp_path / "od"
    two = write_cfg(tmp_path, "two.json", minimal(steps=2))
    assert cli_main(["train", "--config", two, "--out", str(od)]) == 0
    before = {p.name: p.read_bytes() for p in od.iterdir()}
    zero = write_cfg(tmp_path, "zero.json", minimal(
        steps=2, vq={"distance": "cosine_unit_norm"},
        codebook={"init": "uniform", "low": 0.0, "high": 0.0}))
    assert cli_main(["train", "--config", zero, "--out", str(od)]) == 2
    assert capsys.readouterr().err == "error: zero-norm vector under cosine distance\n"
    assert {p.name: p.read_bytes() for p in od.iterdir()} == before


def _tree(root):
    """Each path under `root` with its kind, a regular file with its bytes,
    symlinks not followed."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for path in (Path(dirpath, name) for name in dirnames + filenames):
            tree[path] = ("symlink" if path.is_symlink() else "dir" if path.is_dir()
                          else ("file", path.read_bytes()))
    return tree


# --out shapes: the --out argument, and the paths that exist before the run,
# made in order (a name ending in "/" is a directory, which replaces a file of
# that name, "name->target" a symlink, and "name<-run" the --out of an earlier
# 3-step run)
_OUT_SHAPES = {
    "new": ("made/deeper", []),
    "existing-dir": ("odir", ["odir/"]),
    "regular-file": ("afile", ["afile"]),
    "under-a-file": ("afile/x", ["afile"]),
    "dotdot-past-a-missing-level": ("gone/../made", []),
    "metrics-csv-is-a-dir": ("od", ["od/metrics.csv/", "od/notes.txt"]),
    "config-json-is-a-dir": ("od", ["od/config.json/"]),
    "dangling-symlink": ("link", ["link->nowhere"]),
    "under-a-dangling-symlink": ("link/x", ["link->nowhere"]),
    "symlink-to-a-file": ("link", ["afile", "link->afile"]),
    "under-a-symlink-to-a-file": ("link/x", ["afile", "link->afile"]),
    "symlink-to-a-dir": ("link", ["odir/", "link->odir"]),
    "earlier-run-summary-json-is-a-dir": ("od", ["od<-run", "od/summary.json/"]),
}


@pytest.mark.parametrize("shape", _OUT_SHAPES)
def test_cli_fuzzed_out_exits_0_or_2_and_keeps_every_path_it_found(tmp_path, monkeypatch,
                                                                  capsys, shape):
    """Each --out shape of the pool exits 0 or 2. On exit 2 the run prints one
    `config error:` line and leaves the tree as it found it; on either, every
    path that existed before keeps its kind."""
    monkeypatch.chdir(tmp_path)
    out, paths = _OUT_SHAPES[shape]
    for spec in paths:
        name, _, target = spec.partition("->")
        if spec.endswith("<-run"):
            earlier = write_cfg(tmp_path, "earlier.json", minimal(steps=3))
            assert cli_main(["train", "--config", earlier, "--out", spec[:-len("<-run")]]) == 0
        elif target:
            Path(name).symlink_to(target)
        elif name.endswith("/"):
            Path(name).unlink(missing_ok=True)
            Path(name).mkdir(parents=True)
        else:
            Path(name).parent.mkdir(parents=True, exist_ok=True)
            Path(name).write_text("mine")
    cfgp = write_cfg(tmp_path, "c.json", minimal(steps=2))
    before = _tree(tmp_path)
    code = cli_main(["train", "--config", cfgp, "--out", out])
    after, err = _tree(tmp_path), capsys.readouterr().err
    assert code in (0, 2)
    assert {path: after.get(path) for path in before} == before
    if code == 2:
        assert err.startswith("config error:") and err.count("\n") == 1
        assert after == before
    else:
        assert err == ""


def test_a_failed_run_into_an_earlier_runs_out_changes_no_byte_of_it(tmp_path, capsys,
                                                                    monkeypatch):
    """A seed-1, 5-step run into the --out of a seed-0, 3-step run whose
    summary.json is now a directory fails on that name after it has rendered
    metrics.csv and codebook.bin, and commits none of them."""
    monkeypatch.chdir(tmp_path)
    three = write_cfg(tmp_path, "three.json", minimal(steps=3))
    assert cli_main(["train", "--config", three, "--out", "od"]) == 0
    Path("od/summary.json").unlink()
    Path("od/summary.json").mkdir()
    before = _tree(tmp_path / "od")
    five = write_cfg(tmp_path, "five.json", minimal(steps=5))
    assert cli_main(["train", "--config", five, "--seed", "1", "--out", "od"]) == 2
    assert capsys.readouterr().err == "config error: cannot write od/summary.json: Is a directory\n"
    assert _tree(tmp_path / "od") == before


def test_a_run_that_exits_3_into_an_earlier_runs_out_changes_only_config_json(
        tmp_path, capsys, monkeypatch):
    """A writer that fails numerically after metrics.csv and codebook.bin are
    staged: the run commits its own config.json and nothing else."""
    od = tmp_path / "od"
    assert cli_main(["train", "--config", write_cfg(tmp_path, "two.json", minimal(steps=2)),
                     "--out", str(od)]) == 0
    before = {p.name: p.read_bytes() for p in od.iterdir()}

    def fails(path, records):
        assert (od / f".metrics.csv.{os.getpid()}.tmp").exists()
        raise NumericFailure(f"{path.name}: non-finite value nan")

    monkeypatch.setattr(cli_mod, "write_jsonl", fails)
    three = write_cfg(tmp_path, "three.json", minimal(steps=3))
    assert cli_main(["train", "--config", three, "--out", str(od)]) == 3
    assert capsys.readouterr().err == "numeric failure: replacements.jsonl: non-finite value nan\n"
    after = {p.name: p.read_bytes() for p in od.iterdir()}
    assert json.loads(after.pop("config.json"))["steps"] == 3
    before.pop("config.json")
    assert after == before


def test_a_stage_replaces_no_target_when_one_is_a_directory(tmp_path):
    """`commit` replaces no chosen target when one has become a directory since
    it was staged, raises the OSError a failed `os.replace` raises, naming that
    target, and the stage's end removes every file it did not commit. A target
    that is a directory when it is written fails at once, as outside a stage."""
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text("old\n")
    with pytest.raises(OSError) as raised, staged() as written:
        write_json(a, [1])
        write_json(b, [2])
        assert a.read_text() == "old\n" and not b.exists()   # staged, not replaced
        b.mkdir()
        commit(written)
    assert (raised.value.errno, raised.value.strerror, raised.value.filename) == \
        (errno.EISDIR, "Is a directory", str(b))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
    assert a.read_text() == "old\n" and not any(b.iterdir())
    with pytest.raises(OSError, match="Is a directory") as raised, staged():
        write_json(a, [1])
        write_json(b, [2])
    assert raised.value.filename == str(b) and a.read_text() == "old\n"
    with staged():
        write_json(a, [1])
        write_json(c, [3])
        commit([a])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]
    assert a.read_text() == "[\n  1\n]\n"


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfgp = tmp_path / "c.json"
    cfgp.write_bytes(b'{"scenario": "train", "seed": 0\xff}')
    assert cli_main(["train", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_a_non_finite_config_constant_is_a_config_error(tmp_path, capsys, constant):
    """`artifacts.read_json` rejects it while reading, a number past the float
    range included."""
    cfgp = tmp_path / "c.json"
    cfgp.write_text('{"scenario": "train", "seed": 0, "optimizer": {"lr": %s}}' % constant)
    assert cli_main(["train", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config ") and err.count("\n") == 1
    assert f"non-finite number {constant}" in err

"""Optimizer, schedules, and the joint / alternating training loops."""
from dataclasses import replace

import numpy as np
import pytest

from vqkit import Codebook, ContractViolation, NumericFailure, Tape, VQConfig
from vqkit.metrics import gradient_gap
from vqkit.models import MLPAutoencoder
from vqkit.training import SGD, Schedule, lr_at, smoothness_loss, train_alternating, train_joint


def toy_setup(seed=0, m=8, n=256):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, 16)) * 0.5
    model = MLPAutoencoder(rng=np.random.default_rng(seed + 1))
    cb = Codebook(rng.standard_normal((m, 8)) * 0.3)
    return data, model, cb


# -- SGD -----------------------------------------------------------------------

def test_sgd_plain_step():
    opt = SGD(lr=0.1)
    params = {"w": np.array([[1.0, 2.0]])}
    opt.step(params, {"w": np.array([[10.0, -10.0]])})
    assert np.allclose(params["w"], [[0.0, 3.0]])


def test_sgd_momentum_accumulates():
    opt = SGD(lr=1.0, momentum=0.5)
    params = {"w": np.zeros((1, 1))}
    g = {"w": np.ones((1, 1))}
    opt.step(params, g)   # v=1, w=-1
    opt.step(params, g)   # v=1.5, w=-2.5
    assert np.allclose(params["w"], -2.5)


def test_sgd_weight_decay_exempts_codebook_params():
    opt = SGD(lr=1.0, weight_decay=0.1)
    params = {"w": np.ones((1, 1)), "codes": np.ones((1, 1))}
    zero = {"w": np.zeros((1, 1)), "codes": np.zeros((1, 1))}
    opt.step(params, zero)
    assert np.allclose(params["w"], 0.9)       # decayed
    assert np.allclose(params["codes"], 1.0)   # exempt


def test_sgd_none_gradient_means_zero():
    opt = SGD(lr=0.5, momentum=0.9)
    params = {"w": np.full((2, 2), 3.0)}
    opt.step(params, {"w": None})
    assert np.allclose(params["w"], 3.0)


def test_sgd_rejects_nonfinite_gradient():
    opt = SGD()
    with pytest.raises(NumericFailure):
        opt.step({"w": np.zeros((1, 1))}, {"w": np.array([[np.nan]])})


def test_sgd_names_the_first_nonfinite_gradient():
    params = {"a": np.zeros((1, 2)), "b": np.zeros((2, 1)), "c": np.zeros((1, 1))}
    grads = {"a": np.ones((1, 2)), "b": np.array([[1.0], [np.inf]]),
             "c": np.array([[np.nan]])}
    with pytest.raises(NumericFailure, match="parameter 'b'$"):
        SGD().step(params, grads)
    # finite gradients whose sum overflows are finite
    params = {"a": np.zeros((1, 1)), "b": np.zeros((1, 1))}
    with np.errstate(over="ignore"):
        SGD(lr=1e-300).step(params, {"a": np.array([[1e308]]), "b": np.array([[1e308]])})
    assert params["a"][0, 0] == params["b"][0, 0] == -1e8


# -- schedules ------------------------------------------------------------------

def test_constant_schedule():
    s = Schedule()
    assert lr_at(s, 0.3, 0) == lr_at(s, 0.3, 1000) == 0.3


def test_step_schedule_milestones():
    s = Schedule(kind="step", milestones=(10, 20), factor=0.1)
    assert lr_at(s, 1.0, 9) == 1.0
    assert abs(lr_at(s, 1.0, 10) - 0.1) < 1e-15
    assert abs(lr_at(s, 1.0, 25) - 0.01) < 1e-15


def test_cosine_warmup_endpoints():
    s = Schedule(kind="cosine_warmup", warmup_steps=10, total_steps=110)
    assert lr_at(s, 2.0, 0) == 0.0
    assert abs(lr_at(s, 2.0, 5) - 1.0) < 1e-15       # linear ramp midpoint
    assert lr_at(s, 2.0, 10) == 2.0                   # end of warmup
    assert abs(lr_at(s, 2.0, 60) - 1.0) < 1e-12       # cosine midpoint
    assert abs(lr_at(s, 2.0, 110)) < 1e-12            # decayed to zero


def test_cosine_warmup_needs_total_steps():
    """total_steps defaults to 0, which would decay the rate to 0 from step 1."""
    with pytest.raises(ContractViolation, match="total_steps >= 1"):
        Schedule(kind="cosine_warmup")
    assert lr_at(Schedule(kind="cosine_warmup", total_steps=1), 1.0, 0) == 1.0


def test_schedule_from_dict_strict():
    with pytest.raises(ContractViolation):
        Schedule.from_dict({"kind": "constant", "oops": 1})
    with pytest.raises(ContractViolation):
        Schedule.from_dict({"kind": "cosine_warmup", "warmup_steps": 5, "total_steps": 1})
    # the base rate is the optimizer's lr, not a schedule key
    with pytest.raises(ContractViolation, match=r"^unknown schedule keys: \['base_lr'\]$"):
        Schedule.from_dict({"kind": "step", "base_lr": 0.5})
    s = Schedule.from_dict({"kind": "step", "milestones": [3]})
    assert s.milestones == (3,)


def test_smoothness_loss_value():
    data, model, _ = toy_setup()
    tape = Tape()
    nodes = model.make_nodes(tape)
    z_e = model.encode(tape, tape.leaf(data[:4]), nodes)
    z_q = tape.leaf(z_e.value + 0.1)
    loss = smoothness_loss(tape, model, nodes, z_e, z_q, gamma=2.0)
    ya = model.decode(Tape(), Tape().leaf(z_e.value), {k: Tape().leaf(v) for k, v in model.params.items()})
    assert loss.value.shape == (1, 1) and loss.value[0, 0] >= 0.0


# -- joint training ---------------------------------------------------------------

def test_train_joint_is_deterministic(metrics_bytes):
    r1 = train_joint(*_fresh(), steps=5, batch_size=32, seed=7)
    r2 = train_joint(*_fresh(), steps=5, batch_size=32, seed=7)
    assert metrics_bytes(r1.records) == metrics_bytes(r2.records)
    assert np.array_equal(r1.codebook.codes, r2.codebook.codes)
    r3 = train_joint(*_fresh(), steps=5, batch_size=32, seed=8)
    assert metrics_bytes(r3.records) != metrics_bytes(r1.records)


def _fresh(seed=0, config=None):
    data, model, cb = toy_setup(seed)
    return model, cb, config or VQConfig(alpha=1.0), data


def test_train_joint_unassigned_codes_bit_unchanged():
    data, model, cb = toy_setup(3)
    # put two codes far away so they are never selected
    cb.codes[0] = 100.0
    cb.codes[1] = -100.0
    frozen = cb.codes[:2].copy()
    result = train_joint(model, cb, VQConfig(alpha=1.0), data, steps=10,
                         batch_size=64, track_grad_gap=False)
    assert np.array_equal(result.codebook.codes[:2], frozen)


def test_train_joint_learns_on_toy_task():
    # low-rank data so the bottleneck autoencoder can actually fit it
    rng = np.random.default_rng(4)
    data = rng.standard_normal((256, 3)) @ rng.standard_normal((3, 16)) * 0.3
    model = MLPAutoencoder(rng=np.random.default_rng(5))
    cb = Codebook(rng.standard_normal((16, 8)) * 0.3)
    result = train_joint(model, cb, VQConfig(alpha=1.0), data, steps=400,
                         batch_size=64, optimizer=SGD(lr=0.05, momentum=0.9),
                         track_grad_gap=False)
    first = np.mean([r.task_loss for r in result.records[:10]])
    last = np.mean([r.task_loss for r in result.records[-10:]])
    assert last < 0.5 * first


def test_train_joint_lru_emits_replacement_events():
    data, model, cb = toy_setup(6)
    cb.codes[:4] = 50.0  # dead codes
    cfg = VQConfig(alpha=1.0, replacement="lru", lifespan=3)
    result = train_joint(model, cb, cfg, data, steps=12, batch_size=32,
                         track_grad_gap=False)
    assert result.replacement_events
    replaced = {i for e in result.replacement_events for i in e["replaced_indices"]}
    assert replaced & {0, 1, 2, 3}
    assert not np.any(cb.codes > 40.0)  # dead codes were overwritten


def test_a_scheduled_kmeans_reset_on_fewer_rows_than_codes_raises():
    """The hook sees the last sub-batch: 8 // (3 + 1) = 2 rows against m = 8."""
    data, model, cb = toy_setup(m=8)
    with pytest.raises(ContractViolation, match="kmeans_reset needs a sample with >= 8 rows"):
        train_alternating(model, cb, VQConfig(reset_every=1), data, steps=1, batch_size=8,
                          inner_k=3, outer_k=1, track_grad_gap=False)


def test_train_joint_affine_ema_hook_moves_stats():
    data, model, cb = toy_setup(7)
    cfg = VQConfig(alpha=1.0, affine_mode="ema", affine_momentum=0.2)
    train_joint(model, cb, cfg, data, steps=5, batch_size=32, track_grad_gap=False)
    assert not np.allclose(cb.ema_mean_e, 0.0)
    assert not np.allclose(cb.ema_var_e, 1.0)


def test_train_joint_zero_lr_changes_nothing():
    data, model, cb = toy_setup(8)
    params_before = {k: v.copy() for k, v in model.params.items()}
    codes_before = cb.codes.copy()
    train_joint(model, cb, VQConfig(alpha=1.0), data, steps=3, batch_size=32,
                optimizer=SGD(lr=0.0), track_grad_gap=False)
    assert np.array_equal(cb.codes, codes_before)
    for k in params_before:
        assert np.array_equal(model.params[k], params_before[k])


@pytest.mark.parametrize("trainer,sampling", [
    ("joint", "deterministic"), ("joint", "stochastic"),
    ("alternating", "deterministic"), ("alternating", "stochastic"),
], ids=["deterministic", "stochastic", "alternating-deterministic", "alternating-stochastic"])
def test_train_joint_gap_never_touches_the_trajectory(trainer, sampling):
    """Taking the gradient gap (on the step's own tape, or on a tape of its
    own under stochastic sampling or alternating training) leaves every other
    record, the model, the codebook and the events bit-identical to a run
    with the gap off."""
    runs = []
    for track in (True, False):
        data, model, cb = toy_setup(15)
        cfg = VQConfig(alpha=1.0, nu=0.5, sampling=sampling, affine_mode="learnable",
                       replacement="lru", lifespan=3)
        common = dict(steps=15, batch_size=32, optimizer=SGD(lr=0.1, momentum=0.9),
                      track_grad_gap=track)
        if trainer == "joint":
            runs.append(train_joint(model, cb, cfg, data, smooth_gamma=0.1, **common))
        else:
            runs.append(train_alternating(model, cb, cfg, data, inner_k=2, outer_k=2,
                                          **common))
    on, off = runs
    assert all(r.grad_gap > 0.0 for r in on.records)
    assert [replace(r, grad_gap=0.0) for r in on.records] == off.records
    assert on.replacement_events == off.replacement_events
    for name in on.model.params:
        assert np.array_equal(on.model.params[name], off.model.params[name])
    for attr in ("codes", "affine_scale", "affine_bias", "last_used"):
        assert np.array_equal(getattr(on.codebook, attr), getattr(off.codebook, attr))


# -- alternating training ----------------------------------------------------------

def test_alternating_batch_divisibility_enforced():
    data, model, cb = toy_setup(9)
    with pytest.raises(ContractViolation):
        train_alternating(model, cb, VQConfig(), data, steps=1, batch_size=33,
                          inner_k=1, outer_k=1)


def test_alternating_phase_isolation():
    """Inner steps touch only the codebook; outer steps touch only the model."""
    from vqkit.training import _inner_step, _outer_step

    data, model, cb = toy_setup(11)
    cfg = VQConfig(alpha=1.0)
    params_before = {k: v.copy() for k, v in model.params.items()}
    _inner_step(model, cb, cfg, model.encode_values(data[:32]), 0.1, 0,
                np.random.default_rng(0), SGD(lr=0.1))
    for k in params_before:
        assert np.array_equal(model.params[k], params_before[k])

    codes_before = cb.codes.copy()
    _outer_step(model, cb, cfg, data[32:64], 0.1, 0, np.random.default_rng(0), SGD(lr=0.1))
    assert np.array_equal(cb.codes, codes_before)
    changed = any(not np.array_equal(model.params[k], params_before[k])
                  for k in params_before)
    assert changed


def test_alternating_gap_is_taken_after_the_inner_steps():
    """An alternating step records the full-batch gap of the codebook its
    inner steps leave, the one its outer steps train against: a standalone
    `gradient_gap` call between the two phases, replayed step by step."""
    from vqkit.training import _batches, _inner_step, _outer_step

    cfg = VQConfig(alpha=1.0, sampling="stochastic")
    data, model, cb = toy_setup(16)
    result = train_alternating(model, cb, cfg, data, steps=4, batch_size=48, inner_k=2,
                               outer_k=1, optimizer=SGD(lr=0.1, momentum=0.9), seed=5)

    data, model, cb = toy_setup(16)
    opt = SGD(lr=0.1, momentum=0.9)
    batches = _batches(data, 48, np.random.default_rng(np.random.SeedSequence([5, 1])))
    rng = np.random.default_rng(np.random.SeedSequence([5, 2]))
    for t, record in enumerate(result.records):
        batch = next(batches)
        before = gradient_gap(model, cb, cfg, batch)
        z = model.encode_values(batch[:32])
        for i in range(2):
            _inner_step(model, cb, cfg, z[i * 16:(i + 1) * 16], 0.1, t, rng, opt)
        after = gradient_gap(model, cb, cfg, batch)
        assert record.grad_gap == after != before
        _outer_step(model, cb, cfg, batch[32:], 0.1, t, rng, opt)
    assert np.array_equal(cb.codes, result.codebook.codes)


def test_alternating_step_encodes_its_inner_rows_once():
    """The encoder does not move during the inner steps: one alternating step
    encodes the rows of all its inner sub-batches in one call."""
    data, model, cb = toy_setup(12)
    encode, calls = model.encode_values, []

    def spy(x):
        calls.append(x.shape[0])
        return encode(x)

    model.encode_values = spy
    train_alternating(model, cb, VQConfig(alpha=1.0), data, steps=2, batch_size=60,
                      inner_k=3, outer_k=2, track_grad_gap=False)
    assert calls == [36, 36]


def test_alternating_multi_inner_outer_runs():
    data, model, cb = toy_setup(13)
    result = train_alternating(model, cb, VQConfig(alpha=1.0), data, steps=6,
                               batch_size=60, inner_k=2, outer_k=3,
                               track_grad_gap=False)
    assert len(result.records) == 6
    assert all(np.isfinite(r.task_loss) for r in result.records)

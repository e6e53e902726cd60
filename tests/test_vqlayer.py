"""Quantization layer: forward contract, commitment loss, EMA/affine/LRU
updates, and the codebook gradients against the tape composite."""
import dataclasses

import numpy as np
import pytest

from vqkit import Codebook, ContractViolation, Tape, VQConfig, quantize
from vqkit.autodiff import scatter_add_rows
from vqkit.codebook import assign, nearest_code, quantize_row_factors
from vqkit.models import MLPAutoencoder
from vqkit.training import train_alternating, train_joint
from vqkit.vqlayer import (
    affine_update_ema,
    codebook_param_grads,
    commitment_codebook_grads,
    ema_update,
    kmeans_reset,
    lru_replace,
)


def make_cb(m=6, d=4, seed=0):
    return Codebook(np.random.default_rng(seed).standard_normal((m, d)))


# -- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ContractViolation):
        VQConfig(beta=1.5)
    with pytest.raises(ContractViolation):
        VQConfig(nu=-0.1)
    with pytest.raises(ContractViolation):
        VQConfig(distance="manhattan")
    with pytest.raises(ContractViolation):
        VQConfig(lifespan=0)
    with pytest.raises(ContractViolation):
        VQConfig(affine_momentum=0.0)
    with pytest.raises(ContractViolation):
        VQConfig.from_dict({"alpha": 1.0, "typo_key": 2})
    for bad in ({"alpha": "x"}, {"nu": float("nan")}, {"tau0": None}, {"beta": False},
                {"n_group": 2.0}, {"lifespan": True}, {"reset_every": -1}, {"alpha": 10 ** 400},
                {"sampling": "stochastic", "tau0": 0.0},
                {"sampling": "stochastic", "tau_decay": -0.5}):
        with pytest.raises(ContractViolation):
            VQConfig.from_dict(bad)
    # the deterministic path never reads the temperature, and ints pass as reals
    assert VQConfig(tau0=0.0, alpha=5, n_group=np.int64(2)).n_group == 2
    cfg = VQConfig.from_dict({"alpha": 2.0, "beta": 0.5})
    assert cfg.alpha == 2.0 and cfg.beta == 0.5
    assert VQConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_tau_schedule_is_geometric():
    cfg = VQConfig(sampling="stochastic", tau0=2.0, tau_decay=0.5)
    assert cfg.sampling_tau(0) == 2.0
    assert cfg.sampling_tau(3) == 2.0 * 0.5 ** 3
    assert VQConfig(tau0=2.0, tau_decay=0.5).sampling_tau(3) is None
    # a temperature past the float range, or rounded to 0, is no temperature
    with pytest.raises(ContractViolation, match=r"\*\* 39 is inf;"):
        VQConfig(sampling="stochastic", tau_decay=1e10).sampling_tau(39)
    with pytest.raises(ContractViolation, match=r"\*\* 2999 is 0.0;"):
        cfg.sampling_tau(2999)


# -- commitment loss ----------------------------------------------------------

def test_commitment_loss_value():
    rng = np.random.default_rng(1)
    z_e, z_q = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    alpha, beta = 5.0, 0.9
    tape = Tape()
    loss = tape.commitment(tape.leaf(z_e), tape.leaf(z_q), alpha, beta)
    mse = 0.5 * ((z_e - z_q) ** 2).sum() / 5
    assert abs(loss.value[0, 0] - alpha * mse) < 1e-12  # terms share the value


def test_commitment_loss_gradient_split():
    rng = np.random.default_rng(2)
    z_e, z_q = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    alpha, beta = 3.0, 0.25
    tape = Tape()
    e, q = tape.leaf(z_e), tape.leaf(z_q)
    e_grad, q_grad = tape.backward(tape.commitment(e, q, alpha, beta), [e, q])
    assert np.allclose(e_grad, alpha * (1 - beta) / 4 * (z_e - z_q))
    assert np.allclose(q_grad, alpha * beta / 4 * (z_q - z_e))


# -- forward quantize ---------------------------------------------------------

def test_quantize_forward_matches_nearest_code():
    rng = np.random.default_rng(3)
    cb = make_cb()
    z = rng.standard_normal((10, 4))
    tape = Tape()
    out = quantize(tape, tape.leaf(z), cb, VQConfig())
    idx, z_q, dist = nearest_code(z, cb.codes, "euclidean")
    assert np.array_equal(out.indices, idx)
    assert np.array_equal(out.z_q.value, z_q)
    assert np.allclose(out.distances, dist)


def trainer_setup(seed=4, m=8, n_group=1):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((128, 16)) * 0.5
    model = MLPAutoencoder(rng=np.random.default_rng(seed + 1))
    cb = Codebook(rng.standard_normal((m, 8 // n_group)) * 0.3)
    return data, model, cb


@pytest.mark.parametrize("sampling", ["deterministic", "stochastic"])
@pytest.mark.parametrize("mode", ["joint", "alternating"])
def test_usage_is_marked_by_the_trainers_not_quantize(mode, sampling):
    """quantize leaves usage alone; each trainer marks the rows it assigns,
    with the gap on (whose own forward marks nothing)."""
    data, model, cb = trainer_setup(n_group=2)
    config = VQConfig(n_group=2, sampling=sampling)
    last_used = cb.last_used.copy()
    tape = Tape()
    quantize(tape, tape.leaf(model.encode_values(data[:10])), cb, config,
             step=5, rng=np.random.default_rng(0))
    assert np.array_equal(cb.last_used, last_used)

    steps, batch = 4, 24
    if mode == "joint":
        result = train_joint(model, cb, config, data, steps=steps, batch_size=batch,
                             track_grad_gap=True)
    else:
        result = train_alternating(model, cb, config, data, steps=steps, batch_size=batch,
                                   inner_k=2, outer_k=1, track_grad_gap=True)
    assert all(r.grad_gap > 0.0 for r in result.records)
    assert cb.last_used.max() == steps - 1


def test_quantize_grouping_degenerate_case_bit_exact():
    rng = np.random.default_rng(5)
    cb = make_cb()
    z = rng.standard_normal((8, 4))
    t1, t2 = Tape(), Tape()
    a = quantize(t1, t1.leaf(z), cb, VQConfig(n_group=1))
    b = quantize(t2, t2.leaf(z), cb, VQConfig(n_group=1))
    assert np.array_equal(a.z_q.value, b.z_q.value)
    assert np.array_equal(a.indices, b.indices)


def test_quantize_group_split_and_scaling():
    rng = np.random.default_rng(6)
    cb = Codebook(rng.standard_normal((5, 2)))   # sub-vector dim 2
    z = rng.standard_normal((4, 8))              # n_group = 4
    tape = Tape()
    out = quantize(tape, tape.leaf(z), cb, VQConfig(n_group=4))
    assert out.indices.shape == (16,)
    rows = z.reshape(16, 2)
    idx = nearest_code(rows, cb.codes, "euclidean")[0]
    assert np.array_equal(out.indices, idx)
    expected = cb.codes[idx].reshape(4, 8) / np.sqrt(4)
    assert np.allclose(out.z_q.value, expected)


def test_quantize_dimension_mismatch_rejected():
    cb = make_cb(d=4)
    tape = Tape()
    with pytest.raises(ContractViolation):
        quantize(tape, tape.leaf(np.zeros((2, 6))), cb, VQConfig())
    with pytest.raises(ContractViolation):
        quantize(tape, tape.leaf(np.zeros((2, 5))), cb, VQConfig(n_group=2))


def test_quantize_stochastic_requires_rng():
    cb = make_cb()
    tape = Tape()
    with pytest.raises(ContractViolation):
        quantize(tape, tape.leaf(np.zeros((2, 4))), cb, VQConfig(sampling="stochastic"))


def test_quantize_codebook_gradient_reaches_codes():
    rng = np.random.default_rng(7)
    cb = make_cb()
    z = rng.standard_normal((10, 4))
    cfg = VQConfig(alpha=2.0, beta=0.75)
    tape = Tape()
    out = quantize(tape, tape.leaf(z), cb, cfg)
    [eff_grad] = tape.backward(out.commit_loss, [out.effective_codes])
    expected = np.zeros_like(cb.codes)
    np.add.at(expected, out.indices,
              cfg.alpha * cfg.beta / 10 * (cb.codes[out.indices] - z))
    assert np.allclose(eff_grad, expected)
    assert codebook_param_grads(cb, eff_grad, cfg).keys() == {"codes"}


@pytest.mark.parametrize("affine_mode", ["off", "learnable", "ema"])
def test_the_codes_gradient_is_scaled_by_the_affine_map(affine_mode):
    rng = np.random.default_rng(8)
    cb = make_cb()
    cb.affine_scale, cb.ema_var_q = rng.standard_normal(4), rng.random(4) + 0.1
    cfg = VQConfig(affine_mode=affine_mode, affine_lr_scale=0.5)
    eff_grad = rng.standard_normal(cb.codes.shape)
    a, _ = cb.affine(affine_mode, 0.5)
    grads = codebook_param_grads(cb, eff_grad, cfg)
    assert np.array_equal(grads["codes"], eff_grad * a)
    assert grads.keys() == ({"codes", "affine_scale", "affine_bias"}
                            if affine_mode == "learnable" else {"codes"})


def test_codebook_param_grads_rejects_an_unknown_affine_mode():
    cfg = VQConfig()
    cfg.affine_mode = "sideways"  # past VQConfig's own check
    with pytest.raises(ContractViolation, match="unknown affine mode 'sideways'"):
        codebook_param_grads(make_cb(), np.zeros((6, 4)), cfg)


# -- EMA update ---------------------------------------------------------------

def test_ema_update_moves_to_per_code_means():
    cb = Codebook(np.zeros((3, 2)))
    z = np.array([[1.0, 1.0], [3.0, 3.0], [10.0, 0.0]])
    ema_update(cb, z, [0, 0, 2], gamma=0.5)
    assert np.allclose(cb.codes[0], [1.0, 1.0])   # halfway to mean (2,2) from 0
    assert np.allclose(cb.codes[1], [0.0, 0.0])   # unassigned, untouched
    assert np.allclose(cb.codes[2], [5.0, 0.0])


def test_ema_update_gamma_validation():
    cb = make_cb()
    with pytest.raises(ContractViolation):
        ema_update(cb, np.zeros((1, 4)), [0], gamma=0.0)
    with pytest.raises(ContractViolation):
        ema_update(cb, np.zeros((1, 4)), [0], gamma=1.5)


def test_ema_update_gamma_one_jumps_to_mean():
    cb = make_cb(seed=8)
    rng = np.random.default_rng(9)
    z = rng.standard_normal((20, 4))
    idx = nearest_code(z, cb.codes, "euclidean")[0]
    ema_update(cb, z, idx, gamma=1.0)
    for j in np.unique(idx):
        assert np.allclose(cb.codes[j], z[idx == j].mean(axis=0))


# -- affine updates -----------------------------------------------------------

def test_affine_ema_constant_offset_removed_at_converged_stats():
    rng = np.random.default_rng(10)
    cb = Codebook(rng.standard_normal((4, 3)))
    offset = np.array([2.0, -1.0, 0.5])
    z_e = rng.standard_normal((200, 3))
    z_q = z_e + offset
    # converged statistics: drive the EMA with the same batch until stable
    for _ in range(2000):
        affine_update_ema(cb, z_e, z_q, momentum=0.5)
    a, b = cb.affine("ema")
    assert np.allclose(a, 1.0, atol=1e-9)
    assert np.allclose(b, -offset, atol=1e-9)
    assert np.allclose(cb.effective_codes("ema"), cb.codes - offset, atol=1e-8)


def test_affine_ema_momentum_validation():
    cb = make_cb()
    with pytest.raises(ContractViolation):
        affine_update_ema(cb, np.zeros((2, 4)), np.zeros((2, 4)), momentum=0.0)


# -- replacement and reset ----------------------------------------------------

def test_lru_replaces_only_stale_codes():
    cb = Codebook(np.zeros((5, 2)))
    cb.last_used = np.array([100, 100, 10, 100, 5], dtype=np.int64)
    batch = np.arange(20.0).reshape(10, 2)
    replaced = lru_replace(cb, batch, step=100, lifespan=20, rng=np.random.default_rng(0))
    assert sorted(replaced) == [2, 4]
    assert np.all(cb.last_used[[2, 4]] == 100)
    for j in replaced:
        assert any(np.array_equal(cb.codes[j], row) for row in batch)
    assert np.allclose(cb.codes[[0, 1, 3]], 0.0)


def test_lru_noop_when_all_fresh():
    cb = Codebook(np.zeros((3, 2)))
    cb.last_used[:] = 50
    assert lru_replace(cb, np.ones((4, 2)), 60, 20, np.random.default_rng(0)) == []


def test_kmeans_reset_is_identity_at_fixed_point():
    rng = np.random.default_rng(11)
    codes = rng.standard_normal((4, 2))
    cb = Codebook(codes)
    cb.affine_scale[:] = 0.5
    kmeans_reset(cb, codes.copy())  # sample equals current codes
    assert np.array_equal(cb.codes, codes)
    assert np.all(cb.affine_scale == 0.5)  # affine params preserved


def test_kmeans_reset_refits_centers():
    rng = np.random.default_rng(12)
    a = rng.normal(0.0, 0.01, size=(30, 2))
    b = rng.normal(4.0, 0.01, size=(30, 2))
    cb = Codebook(np.array([[1.0, 1.0], [3.0, 3.0]]))
    kmeans_reset(cb, np.vstack([a, b]))
    got = cb.codes[np.argsort(cb.codes[:, 0])]
    assert np.allclose(got[0], a.mean(axis=0), atol=1e-6)
    assert np.allclose(got[1], b.mean(axis=0), atol=1e-6)


# -- codebook gradients vs the composite oracle ---------------------------------

def commitment_composite(tape, z_e, z_q, alpha, beta):
    """The commitment loss from primitives: two stop-gradients, two mse,
    three scales and an add."""
    encoder_term = tape.mse(z_e, tape.stop_gradient(z_q))
    codebook_term = tape.mse(tape.stop_gradient(z_e), z_q)
    mix = tape.add(tape.scale(encoder_term, 1.0 - beta), tape.scale(codebook_term, beta))
    return tape.scale(mix, alpha)


def closed_form_codebook_grads(cb, z_rows, indices, cfg):
    """The codebook-facing commitment gradient in closed form: the residual
    alpha * beta / n * (z_q - z) per row, through the cosine re-norm factor
    (a constant of the step), summed per code."""
    eff = cb.effective_codes(cfg.affine_mode, cfg.affine_lr_scale)
    factors = quantize_row_factors(z_rows, eff, indices, cfg.distance)
    z_q = eff[indices] * factors[:, None]
    residual = (z_q - z_rows) * (cfg.alpha * cfg.beta / z_rows.shape[0]) * factors[:, None]
    return codebook_param_grads(cb, scatter_add_rows(indices, residual, cb.m), cfg)


def composite_oracle(cb, z, target, cfg, with_task):
    """The tape composite a quantizer with differentiable codes and affine
    parameters records: affine_rows -> gather_rows -> row_scale ->
    commitment composite -> straight_through. Backward of task + commit (or of
    commit alone); returns the gradients of z_e, codes, affine scale and bias."""
    tape = Tape()
    z_e = tape.leaf(z)
    codes = tape.leaf(cb.codes)
    scale = tape.leaf(cb.affine_scale.reshape(1, -1))
    bias = tape.leaf(cb.affine_bias.reshape(1, -1))
    if cfg.affine_mode == "learnable":
        eff = tape.affine_rows(codes, scale, bias, cfg.affine_lr_scale)
    elif cfg.affine_mode == "ema":
        a, b = cb.affine("ema")
        eff = tape.affine_rows(codes, tape.leaf(a - 1.0), tape.leaf(b), 1.0)
    else:
        eff = codes
    n, d = z.shape
    g = cfg.n_group
    zs = tape.reshape(z_e, n * g, d // g)
    idx = assign(zs.value, eff.value, cfg.distance)[0]
    rows = tape.gather_rows(eff, idx)
    if cfg.distance != "euclidean":
        rows = tape.row_scale(rows, quantize_row_factors(zs.value, eff.value, idx,
                                                         cfg.distance))
    commit = commitment_composite(tape, zs, rows, cfg.alpha, cfg.beta)
    z_q = tape.straight_through(z_e, tape.scale(tape.reshape(rows, n, d), 1.0 / np.sqrt(g)),
                                cfg.nu)
    loss = tape.add(tape.mse(z_q, tape.leaf(target)), commit) if with_task else commit
    z_grad, codes_grad, scale_grad, bias_grad = tape.backward(loss, [z_e, codes, scale, bias])
    grads = {"codes": codes_grad}
    if cfg.affine_mode == "learnable":
        grads.update(affine_scale=scale_grad.reshape(-1), affine_bias=bias_grad.reshape(-1))
    return z_grad, grads, idx


@pytest.mark.parametrize("affine_mode", ["off", "learnable", "ema"])
@pytest.mark.parametrize("distance", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_commitment_codebook_grads_match_tape(affine_mode, distance):
    """The joint path (quantize + codebook_param_grads) and the alternating
    pull-back (commitment_codebook_grads) both match the composite oracle, for
    every nu and n_group; the pull-back has the bits of the closed form."""
    rng = np.random.default_rng(13)
    cb = Codebook(rng.standard_normal((5, 3)) + 0.2)
    cb.affine_scale = rng.standard_normal(3) * 0.1
    cb.affine_bias = rng.standard_normal(3) * 0.1
    cb.ema_mean_e = rng.standard_normal(3) * 0.1
    cb.ema_var_q = rng.random(3) + 0.5
    for n_group in (1, 2):
        z = rng.standard_normal((12, 3 * n_group)) + 0.2
        target = rng.standard_normal(z.shape)
        for nu in (0.0, 0.5, 1.0):
            cfg = VQConfig(alpha=2.0, beta=0.8, nu=nu, distance=distance, n_group=n_group,
                           affine_mode=affine_mode, affine_lr_scale=0.5)
            z_grad, oracle, idx = composite_oracle(cb, z, target, cfg, with_task=True)

            tape = Tape()
            z_e = tape.leaf(z)
            out = quantize(tape, z_e, cb, cfg)
            z_e_grad, eff_grad = tape.backward(
                tape.add(tape.mse(out.z_q, tape.leaf(target)), out.commit_loss),
                [z_e, out.effective_codes])
            assert np.array_equal(out.indices, idx)
            assert np.allclose(z_e_grad, z_grad, rtol=0, atol=1e-12)
            joint = codebook_param_grads(cb, eff_grad, cfg)
            assert joint.keys() == oracle.keys()
            for name, grad in oracle.items():
                assert np.allclose(joint[name], grad, rtol=0, atol=1e-12), name

            _, commit_only, _ = composite_oracle(cb, z, target, cfg, with_task=False)
            tape = Tape()
            out = quantize(tape, tape.leaf(z), cb, cfg)
            pulled = commitment_codebook_grads(tape, out, cb, cfg)
            closed = closed_form_codebook_grads(cb, z.reshape(12 * n_group, 3), idx, cfg)
            assert pulled.keys() == commit_only.keys() == closed.keys()
            for name, grad in commit_only.items():
                assert np.allclose(pulled[name], grad, rtol=0, atol=1e-12), name
                assert np.array_equal(pulled[name], closed[name]), name


def test_joint_ema_step_decodes_the_codes_it_assigned_with():
    """With a component of a = sigma_e / sigma_q below 0.5, (1 + (a - 1)) c
    differs from a c in the last bit; the rows a joint step feeds the decoder
    are exactly rows of cb.effective_codes("ema")."""
    data, model, cb = trainer_setup(m=16)
    cb.ema_var_e = np.full(8, 0.01)
    cb.ema_var_q = np.linspace(0.5, 4.0, 8)
    decode, seen = model.decode, []

    def spy(tape, z, nodes):
        a, _ = cb.affine("ema")
        assert (a < 0.5).any()
        seen.append((z.value.copy(), cb.effective_codes("ema")))
        return decode(tape, z, nodes)

    model.decode = spy
    train_joint(model, cb, VQConfig(affine_mode="ema"), data, steps=3, batch_size=32,
                track_grad_gap=False)
    assert len(seen) == 3
    for z, eff in seen:
        idx = nearest_code(z, eff, "euclidean")[0]
        assert np.array_equal(z, eff[idx])

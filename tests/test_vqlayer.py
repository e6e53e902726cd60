"""Quantization layer: forward contract, commitment loss, EMA/affine/LRU
updates, and the closed-form codebook gradient against the tape."""
import numpy as np
import pytest

from vqkit import (
    Codebook,
    ContractViolation,
    Tape,
    VQConfig,
    affine_update_ema,
    commitment_codebook_grads,
    commitment_loss,
    ema_update,
    kmeans_reset,
    lru_replace,
    nearest_code,
    quantize,
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
                {"n_group": 2.0}, {"lifespan": True}, {"reset_every": -1},
                {"sampling": "stochastic", "tau0": 0.0},
                {"sampling": "stochastic", "tau_decay": -0.5}):
        with pytest.raises(ContractViolation):
            VQConfig.from_dict(bad)
    # the deterministic path never reads the temperature, and ints pass as reals
    assert VQConfig(tau0=0.0, alpha=5, n_group=np.int64(2)).n_group == 2
    cfg = VQConfig.from_dict({"alpha": 2.0, "beta": 0.5})
    assert cfg.alpha == 2.0 and cfg.beta == 0.5
    assert VQConfig.from_dict(cfg.to_dict()) == cfg


def test_tau_schedule_is_geometric():
    cfg = VQConfig(tau0=2.0, tau_decay=0.5)
    assert cfg.tau_at(0) == 2.0
    assert cfg.tau_at(3) == 2.0 * 0.5 ** 3


# -- commitment loss ----------------------------------------------------------

def test_commitment_loss_value():
    rng = np.random.default_rng(1)
    z_e, z_q = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    alpha, beta = 5.0, 0.9
    tape = Tape()
    loss = commitment_loss(tape, tape.leaf(z_e), tape.leaf(z_q), alpha, beta)
    mse = 0.5 * ((z_e - z_q) ** 2).sum() / 5
    assert abs(loss.value[0, 0] - alpha * mse) < 1e-12  # terms share the value


def test_commitment_loss_gradient_split():
    rng = np.random.default_rng(2)
    z_e, z_q = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    alpha, beta = 3.0, 0.25
    tape = Tape()
    e = tape.leaf(z_e, param=True)
    q = tape.leaf(z_q, param=True)
    tape.backward(commitment_loss(tape, e, q, alpha, beta))
    assert np.allclose(e.grad, alpha * (1 - beta) / 4 * (z_e - z_q))
    assert np.allclose(q.grad, alpha * beta / 4 * (z_q - z_e))


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


def test_quantize_marks_usage():
    rng = np.random.default_rng(4)
    cb = make_cb()
    z = rng.standard_normal((10, 4))
    quantize(Tape(), Tape().leaf(z), cb, VQConfig(), step=5)
    assert cb.counts.sum() == 10
    used = np.unique(nearest_code(z, cb.codes, "euclidean")[0])
    assert np.array_equal(np.nonzero(cb.last_used == 5)[0], used)


def test_quantize_grouping_degenerate_case_bit_exact():
    rng = np.random.default_rng(5)
    cb = make_cb()
    z = rng.standard_normal((8, 4))
    t1, t2 = Tape(), Tape()
    a = quantize(t1, t1.leaf(z), cb, VQConfig(n_group=1), mark_usage=False)
    b = quantize(t2, t2.leaf(z), cb, VQConfig(n_group=1), mark_usage=False)
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
    codes_node = tape.leaf(cb.codes, param=True)
    out = quantize(tape, tape.leaf(z), cb, cfg, codes_node=codes_node)
    tape.backward(out.commit_loss)
    expected = np.zeros_like(cb.codes)
    np.add.at(expected, out.indices,
              cfg.alpha * cfg.beta / 10 * (cb.codes[out.indices] - z))
    assert np.allclose(codes_node.grad, expected)


# -- EMA update ---------------------------------------------------------------

def test_ema_update_moves_to_per_code_means():
    cb = Codebook(np.zeros((3, 2)))
    z = np.array([[1.0, 1.0], [3.0, 3.0], [10.0, 0.0]])
    updated = ema_update(cb, z, [0, 0, 2], gamma=0.5)
    assert updated == [0, 2]
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
    a, b = cb.ema_transform()
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


# -- closed-form codebook gradient vs the tape --------------------------------

@pytest.mark.parametrize("affine_mode", ["off", "learnable", "ema"])
@pytest.mark.parametrize("distance", ["euclidean", "cosine_renorm"])
def test_commitment_codebook_grads_match_tape(affine_mode, distance):
    rng = np.random.default_rng(13)
    cb = Codebook(rng.standard_normal((5, 3)) + 0.2)
    cb.affine_scale = rng.standard_normal(3) * 0.1
    cb.affine_bias = rng.standard_normal(3) * 0.1
    cb.ema_mean_e = rng.standard_normal(3) * 0.1
    cb.ema_var_q = rng.random(3) + 0.5
    z = rng.standard_normal((12, 3)) + 0.2
    cfg = VQConfig(alpha=2.0, beta=0.8, distance=distance, affine_mode=affine_mode,
                   affine_lr_scale=0.5)

    tape = Tape()
    codes_node = tape.leaf(cb.codes, param=True)
    scale_node = bias_node = None
    if affine_mode == "learnable":
        scale_node = tape.leaf(cb.affine_scale.reshape(1, -1), param=True)
        bias_node = tape.leaf(cb.affine_bias.reshape(1, -1), param=True)
    out = quantize(tape, tape.leaf(z), cb, cfg, codes_node=codes_node,
                   affine_scale_node=scale_node, affine_bias_node=bias_node,
                   mark_usage=False)
    tape.backward(out.commit_loss)

    codes_grad, scale_grad, bias_grad = commitment_codebook_grads(
        cb, z, out.indices, cfg)
    assert np.allclose(codes_grad, codes_node.grad, atol=1e-12)
    if affine_mode == "learnable":
        assert np.allclose(scale_grad, scale_node.grad.reshape(-1), atol=1e-12)
        assert np.allclose(bias_grad, bias_node.grad.reshape(-1), atol=1e-12)

"""End-to-end acceptance checks. Each test covers one numbered behavioral
guarantee and prints a single pass line when it holds; tolerances are stated
inline. Oracles are independent of the implementation under test (finite
differences, naive full-matrix scans, brute-force enumeration, closed forms).
"""
import filecmp
import json

import numpy as np
import pytest

import vqkit.codebook as cbk_mod
from finite_differences import finite_difference_gradient
from vqkit import (
    Codebook,
    MLPAutoencoder,
    Tape,
    VQConfig,
    collapse_config,
    activation_probability,
    assign,
    ema_update,
    nearest_code,
    pairwise_distances_chunked,
    perplexity,
    quantize,
    resolve_config,
    run_affine_toy,
    run_init_study,
    run_toy_trajectory,
    run_training,
)
from vqkit.cli import main as cli_main


def _passed(num, name):
    print(f"criterion {num:02d} ({name}): PASS")


# -- 1. one SGD step on the codebook-side loss equals the EMA update ---------------

def test_criterion_01_ema_equals_sgd_on_codebook_loss():
    """c <- (1-gamma) c + gamma mean(assigned) must equal a single SGD step with
    lr=gamma on the per-code mean half-squared commitment term, <=1e-12."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        m, n, d = rng.integers(2, 9), rng.integers(4, 33), rng.integers(1, 6)
        codes = rng.standard_normal((m, d))
        batch = rng.standard_normal((n, d))
        gamma = float(rng.uniform(0.01, 1.0))
        idx = nearest_code(batch, codes, "euclidean")[0]

        tape = Tape()
        codes_node = tape.leaf(codes, param=True)
        total = None
        for j in np.unique(idx):
            rows = np.nonzero(idx == j)[0]
            rep = tape.gather_rows(codes_node, np.full(rows.size, j))
            term = tape.mse(rep, tape.leaf(batch[rows]))
            total = term if total is None else tape.add(total, term)
        tape.backward(total)
        sgd_codes = codes - gamma * codes_node.grad

        cb = Codebook(codes.copy())
        ema_update(cb, batch, idx, gamma)
        assert np.abs(sgd_codes - cb.codes).max() <= 1e-12
    _passed(1, "EMA update equals SGD on codebook loss")


# -- 2. gradients match central finite differences ----------------------------------

def _op_cases(tape, theta, case):
    rows, cols = theta.value.shape
    const = np.linspace(-0.7, 0.9, rows * cols).reshape(rows, cols)
    c = tape.leaf(const)
    if case == 0:
        return tape.sum(tape.matmul(theta, tape.leaf(const.T)))
    if case == 1:
        return tape.sum(tape.mul(theta, c))
    if case == 2:
        return tape.sum(tape.tanh(tape.sub(theta, c)))
    if case == 3:
        return tape.sum(tape.relu(tape.add(theta, c)))
    if case == 4:
        return tape.mse(theta, c)
    if case == 5:
        return tape.sum(tape.scale(tape.reshape(theta, rows * cols // 2, 2), -1.7))
    if case == 6:
        return tape.sum(tape.row_scale(theta, np.arange(1.0, rows + 1)))
    if case == 7:
        return tape.sum(tape.gather_rows(theta, [0, 1, 1, 0]))
    return tape.sum(tape.slice_rows(theta, 1, rows))


def test_criterion_02_finite_difference_gradients():
    """Tape gradients of every differentiable op and of the full autoencoder
    loss match central differences (h=1e-5) to relative error <=1e-6."""
    rng = np.random.default_rng(202)
    for s in range(100):
        theta = rng.standard_normal((4, 6))
        theta[np.abs(theta) < 0.05] = 0.3   # keep clear of the relu kink
        case = s % 9

        tape = Tape()
        node = tape.leaf(theta, param=True)
        tape.backward(_op_cases(tape, node, case))

        def f(th):
            t2 = Tape()
            return float(_op_cases(t2, t2.leaf(th, param=True), case).value[0, 0])

        fd = finite_difference_gradient(f, theta.copy(), h=1e-5)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(node.grad - fd) / denom <= 1e-6

    # full autoencoder + quantization loss with fixed assignments; the
    # quantized path decodes gathered codes directly so the whole composite is
    # genuinely differentiable (straight-through routing has its own check)
    for s in range(6):
        rng = np.random.default_rng(1000 + s)
        model = MLPAutoencoder(4, 5, 3, rng=rng)
        codes = rng.standard_normal((5, 3))
        batch = rng.standard_normal((6, 4))

        def graph(tape, nds, codes_node, idx):
            z_e = model.encode(tape, tape.leaf(batch), nds)
            z_q = tape.gather_rows(codes_node, idx)
            y_q = model.decode(tape, z_q, nds)
            y_e = model.decode(tape, z_e, nds)
            loss = tape.add(tape.mse(y_q, tape.leaf(batch)),
                            tape.scale(tape.mse(y_e, tape.leaf(batch)), 0.5))
            return loss, z_e, z_q

        base_tape = Tape()
        base_nodes = {k: base_tape.leaf(v) for k, v in model.params.items()}
        ze_base = model.encode(base_tape, base_tape.leaf(batch), base_nodes).value
        idx = nearest_code(ze_base, codes, "euclidean")[0]
        zq_base = codes[idx]

        tape = Tape()
        nodes = {k: tape.leaf(v, param=True) for k, v in model.params.items()}
        codes_node = tape.leaf(codes, param=True)
        loss, z_e, z_q = graph(tape, nodes, codes_node, idx)
        tape.backward(tape.add(loss, tape.commitment(z_e, z_q, 1.5, 0.7)))

        def value_with(name, arr):
            # the stop-gradient sides of the commitment loss are held at their
            # base values, matching the function the tape differentiates
            params = dict(model.params)
            cds = codes
            if name == "codes":
                cds = arr
            else:
                params = {**params, name: arr}
            t2 = Tape()
            nds = {k: t2.leaf(v) for k, v in params.items()}
            full, ze2, zq2 = graph(t2, nds, t2.leaf(cds), idx)
            enc_term = t2.mse(ze2, t2.leaf(zq_base))
            cbk_term = t2.mse(t2.leaf(ze_base), zq2)
            commit = t2.add(t2.scale(enc_term, 1.5 * 0.3),
                            t2.scale(cbk_term, 1.5 * 0.7))
            return float(t2.add(full, commit).value[0, 0])

        for name, grad in [("codes", codes_node.grad),
                           *[(k, nodes[k].grad) for k in model.params]]:
            base = codes if name == "codes" else model.params[name]
            fd = finite_difference_gradient(lambda a, n=name: value_with(n, a),
                                            base.copy(), h=1e-5)
            g = grad if grad is not None else np.zeros_like(base)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(g - fd) / denom <= 1e-6
    _passed(2, "gradients match finite differences")


# -- 3. straight-through contract ---------------------------------------------------

def test_criterion_03_straight_through_contract():
    rng = np.random.default_rng(303)
    z_e_val = rng.standard_normal((5, 3))
    z_q_val = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 3))

    for nu in (0.0, 0.3, 1.0):
        tape = Tape()
        z_e = tape.leaf(z_e_val, param=True)
        z_q = tape.leaf(z_q_val, param=True)
        st = tape.straight_through(z_e, z_q, nu)
        assert np.array_equal(st.value, z_q_val)  # forward is z_q bit-exact
        tape.backward(tape.mse(st, tape.leaf(target)))

        # the embedding receives the gradient of the loss evaluated on a
        # frozen-offset path v -> loss(v + (z_q - z_e))
        offset = z_q_val - z_e_val

        def frozen(v):
            t = Tape()
            return float(t.mse(t.leaf(v + offset), t.leaf(target)).value[0, 0])

        fd_e = finite_difference_gradient(frozen, z_e_val.copy())
        assert np.abs(z_e.grad - fd_e).max() <= 1e-6

        def direct(v):
            t = Tape()
            return float(t.mse(t.leaf(v), t.leaf(target)).value[0, 0])

        fd_q = finite_difference_gradient(direct, z_q_val.copy())
        if nu == 0.0:
            assert z_q.grad is None  # quantized side blocked
        else:
            assert np.abs(z_q.grad - nu * fd_q).max() <= 1e-6
    _passed(3, "straight-through forward and gradient routing")


# -- 4. commitment loss upper bound ---------------------------------------------------

def test_criterion_04_commitment_upper_bound():
    """With the embedding mean available as a code, the nearest-assignment
    commitment loss never exceeds half the embedding variance."""
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n, d = rng.integers(2, 40), rng.integers(1, 6)
        batch = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
        extra = rng.integers(0, 6)
        codes = np.vstack([batch.mean(axis=0, keepdims=True),
                           rng.standard_normal((extra, d))])
        _, z_q, _ = nearest_code(batch, codes, "euclidean")
        tape = Tape()
        val = tape.commitment(tape.leaf(batch), tape.leaf(z_q), 1.0, 0.5).value[0, 0]
        half_var = 0.5 * float(((batch - batch.mean(axis=0)) ** 2).sum(axis=1).mean())
        assert val <= half_var + 1e-12

    # equality when the codebook is exactly the batch mean
    batch = np.random.default_rng(7).standard_normal((64, 4))
    codes = batch.mean(axis=0, keepdims=True)
    _, z_q, _ = nearest_code(batch, codes, "euclidean")
    tape = Tape()
    val = tape.commitment(tape.leaf(batch), tape.leaf(z_q), 1.0, 0.5).value[0, 0]
    half_var = 0.5 * float(((batch - batch.mean(axis=0)) ** 2).sum(axis=1).mean())
    assert abs(val - half_var) <= 1e-9
    _passed(4, "commitment loss bounded by half the embedding variance")


# -- 5 / 6 / 7. search oracles ---------------------------------------------------------

def _naive(q, c, kind):
    if kind != "euclidean":
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        c = c / np.linalg.norm(c, axis=1, keepdims=True)
    return 0.5 * ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)


def test_criterion_05_chunked_distances_match_naive(monkeypatch):
    rng = np.random.default_rng(505)
    for i in range(50):
        n, m, d = rng.integers(1, 60, size=3)
        q = rng.standard_normal((n, d)) + 0.1
        c = rng.standard_normal((m, d)) + 0.1
        kind = ("euclidean", "cosine_unit_norm", "cosine_renorm")[i % 3]
        ref = _naive(q, c, kind)
        for chunk in (1, 7, 64, 4096):
            monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
            got = pairwise_distances_chunked(q, c, kind)
            assert np.abs(got - ref).max() <= 1e-9
    _passed(5, "chunked distances match naive full matrix")


def test_criterion_06_nearest_code_matches_exhaustive_scan():
    rng = np.random.default_rng(606)
    for kind in ("euclidean", "cosine_unit_norm", "cosine_renorm"):
        for _ in range(1000):
            n, m, d = rng.integers(1, 12, size=3)
            q = rng.standard_normal((n, d)) + 0.05
            c = rng.standard_normal((m, d)) + 0.05
            idx = nearest_code(q, c, kind)[0]
            assert np.array_equal(idx, _naive(q, c, kind).argmin(axis=1))
    q = rng.standard_normal((30, 5)) + 0.1
    c = rng.standard_normal((9, 5)) + 0.1
    for kind in ("cosine_unit_norm", "cosine_renorm"):
        assert np.array_equal(nearest_code(q, c, kind)[0],
                              nearest_code(q * 123.0, c, kind)[0])
    _passed(6, "nearest-code search matches exhaustive scan")


def test_criterion_07_stochastic_limits():
    rng = np.random.default_rng(707)
    sampler = np.random.default_rng(0)
    for _ in range(1000):
        q = rng.standard_normal((8, 3))
        c = rng.standard_normal((5, 3))
        det = pairwise_distances_chunked(q, c, "euclidean").argmin(axis=1)
        got, _ = assign(q, c, "euclidean", tau=1e-6, rng=sampler)
        assert np.array_equal(got, det)
    idx, _ = assign(np.zeros((10000, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]),
                    "euclidean", tau=1.0, rng=np.random.default_rng(11))
    assert abs((idx == 0).mean() - 0.5) <= 0.05
    _passed(7, "stochastic sampling reaches the deterministic limit")


# -- 8. 2-D trajectory ordering ---------------------------------------------------------

def test_criterion_08_trajectory_ordering():
    """Alternated updates take a shorter embedding path than joint updates, and
    the synchronized (lookahead) variant reaches tolerance at least as fast."""
    for seed in range(5):
        joint = run_toy_trajectory("joint", seed)
        alternated = run_toy_trajectory("alternated", seed)
        lookahead = run_toy_trajectory("lookahead", seed)
        assert alternated.path_length < joint.path_length
        assert lookahead.steps_to_tol <= alternated.steps_to_tol <= joint.steps_to_tol
    _passed(8, "toy trajectory path-length and speed ordering")


# -- 9. affine reparameterization re-centers the codebook ----------------------------------

def test_criterion_09_affine_recenters_static_codes():
    for seed in range(3):
        out = run_affine_toy(seed)
        std, aff = out["standard"], out["affine"]
        assert std["fraction_static"] > 0.90     # sparse EMA leaves most codes
        assert aff["fraction_moved"] == 1.0      # shared transform moves all
        assert abs(aff["initial_gap"] - np.sqrt(2.0)) < 0.1
        assert aff["final_gap"] <= 0.5 * aff["initial_gap"]
    _passed(9, "affine variant moves every code and halves the mean gap")


# -- 10. collapse and rescue -----------------------------------------------------------

def test_criterion_10_collapse_and_rescue():
    for seed in range(5):
        base = run_training(collapse_config(seed, track_grad_gap=False))
        early_active = min(r.active_ratio for r in base.records[:50])
        assert early_active < 0.5  # mismatched init collapses quickly

        lru = run_training(collapse_config(
            seed, track_grad_gap=False,
            vq={"replacement": "lru", "lifespan": 20}))
        assert lru.records[-1].active_ratio >= 0.99

        affine = run_training(collapse_config(
            seed, track_grad_gap=False, vq={"affine_mode": "learnable"}))
        assert affine.records[-1].perplexity > base.records[-1].perplexity
    _passed(10, "collapse detected, LRU and affine variants rescue it")


# -- 11. grouped quantization ------------------------------------------------------------

def test_criterion_11_grouping_degeneracy_and_activation_formula():
    rng = np.random.default_rng(1111)
    z = rng.standard_normal((12, 6))
    cb = Codebook(rng.standard_normal((9, 6)))
    cfg = VQConfig(alpha=1.0, n_group=1)
    tape = Tape()
    out = quantize(tape, tape.leaf(z), cb, cfg)
    idx, z_q, _ = nearest_code(z, cb.codes, "euclidean")
    assert np.array_equal(out.indices, idx)
    assert np.array_equal(out.z_q.value, z_q)  # n_group=1 is plain quantization

    a = activation_probability(4, 4, 8, 4096, 0, 1, 1)
    b = activation_probability(4, 4, 8, 4096, 0, 2, 1)
    assert abs(b.linear - 2 * a.linear) <= 1e-15
    got = activation_probability(32, 32, 1, 1024, 0, 1, 1)
    assert abs(got.binomial - (1.0 - (1.0 - 1.0 / 1024) ** 1024)) <= 1e-12
    _passed(11, "grouped quantization degeneracy and activation probability")


# -- 12. perplexity ---------------------------------------------------------------------

def test_criterion_12_perplexity():
    rng = np.random.default_rng(1212)
    for m in (1, 3, 17, 256):
        assert abs(perplexity(np.ones(m)) - m) <= 1e-9
    single = np.zeros(32)
    single[5] = 9
    assert perplexity(single) == 1.0
    for _ in range(1000):
        counts = rng.integers(0, 50, size=rng.integers(1, 40))
        if counts.sum() == 0:
            counts[0] = 1
        p = perplexity(counts)
        assert 1.0 - 1e-9 <= p <= (counts > 0).sum() + 1e-9
    _passed(12, "perplexity bounds and exact endpoints")


# -- 13. determinism ----------------------------------------------------------------------

def _dirs_identical(a, b):
    files = sorted(p.name for p in a.iterdir())
    if files != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


def test_criterion_13_determinism(tmp_path):
    configs = {
        "toy-trajectory": {"scenario": "toy-trajectory", "seed": 4,
                           "toy": {"steps": 120}},
        "affine-toy": {"scenario": "affine-toy", "seed": 4,
                       "affine_toy": {"n_points": 64, "m": 32, "updates": 8}},
        "train": {"scenario": "train", "seed": 4, "steps": 10,
                  "track_grad_gap": False},
        "ablation": {"scenario": "ablation", "seed": 4, "steps": 5,
                     "seeds_per_cell": 2, "track_grad_gap": False,
                     "grid": {"affine_mode": ["off", "learnable"],
                              "replacement": ["off"]}},
        "init-study": {"scenario": "init-study", "seed": 4,
                       "init_study": {"n": 256, "d": 4, "m": 8, "n_seeds": 2,
                                      "methods": ["kmeans", "normal_kaiming"]}},
    }
    for name, raw in configs.items():
        cfgp = tmp_path / f"{name}.json"
        cfgp.write_text(json.dumps(raw))
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert cli_main([name, "--config", str(cfgp), "--out", str(a)]) == 0
        assert cli_main([name, "--config", str(cfgp), "--out", str(b)]) == 0
        assert _dirs_identical(a, b), f"{name} outputs differ between runs"

    metrics = tmp_path / "train-a" / "metrics.csv"
    for tag in ("a", "b"):
        assert cli_main(["metrics-replay", "--config", str(tmp_path / "train.json"),
                         "--out", str(tmp_path / f"replay-{tag}"),
                         "--metrics", str(metrics)]) == 0
    assert _dirs_identical(tmp_path / "replay-a", tmp_path / "replay-b")

    _passed(13, "byte-identical reruns")


# -- 14. initialization quality ordering ----------------------------------------------------

def test_criterion_14_init_divergence_ordering():
    cfg = resolve_config({"scenario": "init-study", "seed": 0})
    rows = run_init_study(cfg)
    assert len(rows) == 5
    for row in rows:
        assert row["kmeans"] <= row["data_subset"] < row["normal_kaiming"]
    _passed(14, "k-means <= data subset < random init on divergence")

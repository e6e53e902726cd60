"""Distance, search, sampling, grouping, and serialization checks against
naive full-matrix oracles."""
import contextlib
import functools
import json
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vqkit.codebook as cbk_mod
import vqkit.vqlayer as vql
from vqkit import (
    Codebook,
    ContractViolation,
    DegenerateInput,
    NumericFailure,
    Tape,
    VQConfig,
    quantize,
)
from vqkit.autodiff import scatter_add_rows
from vqkit.codebook import (
    DISTANCE_KINDS,
    assign,
    nearest_code,
    normalize_rows,
    pairwise_distances_chunked,
    sample_code_stochastic,
)
from vqkit.initialization import LLOYD_TOL, lloyd
from vqkit.models import MLPAutoencoder
from vqkit.training import SGD, _inner_step


def naive_half_sq(queries, codes, kind):
    if kind != "euclidean":
        queries = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        codes = codes / np.linalg.norm(codes, axis=1, keepdims=True)
    diff = queries[:, None, :] - codes[None, :, :]
    return 0.5 * (diff ** 2).sum(axis=2)


@pytest.mark.parametrize("chunk", [1, 7, 64, 4096])
@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_chunked_matches_naive(chunk, kind, monkeypatch):
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(5):
        n, m, d = rng.integers(1, 40, size=3)
        q = rng.standard_normal((n, d)) + 0.1  # keep away from zero norm
        c = rng.standard_normal((m, d)) + 0.1
        got = pairwise_distances_chunked(q, c, kind)
        assert np.abs(got - naive_half_sq(q, c, kind)).max() <= 1e-9


@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_nearest_matches_exhaustive_scan(kind):
    rng = np.random.default_rng(DISTANCE_KINDS.index(kind))
    for _ in range(50):
        n, m, d = rng.integers(1, 20, size=3)
        q = rng.standard_normal((n, d)) + 0.05
        c = rng.standard_normal((m, d)) + 0.05
        idx, z_q, dist = nearest_code(q, c, kind)
        ref = naive_half_sq(q, c, kind)
        assert np.array_equal(idx, ref.argmin(axis=1))
        assert np.allclose(dist, ref.min(axis=1))


@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_assign_matches_per_row_scan_and_every_caller(kind, monkeypatch):
    """assign picks the first minimum of an exhaustive per-row scan, and
    nearest_code, quantize and the alternating inner step assign the same codes."""
    rng = np.random.default_rng(21)
    model = MLPAutoencoder(rng=np.random.default_rng(22))
    batch = rng.standard_normal((40, 16))
    tape = Tape()
    rows = model.encode(tape, tape.leaf(batch), model.make_nodes(tape)).value
    cb = Codebook(rng.standard_normal((11, 8)) * 0.5)
    config = VQConfig(distance=kind)

    idx, row_dists = assign(rows, cb.codes, kind)
    ref = naive_half_sq(rows, cb.codes, kind)
    scan = [min(range(cb.m), key=lambda j: ref[i, j]) for i in range(rows.shape[0])]
    assert idx.tolist() == scan
    assert np.allclose(row_dists, ref[np.arange(rows.shape[0]), idx], rtol=0, atol=1e-12)

    assert np.array_equal(nearest_code(rows, cb.codes, kind)[0], idx)
    tape = Tape()
    out = quantize(tape, tape.leaf(rows), cb, config)
    assert np.array_equal(out.indices, idx)

    seen = []
    grads = vql.commitment_codebook_grads

    def spy(tape_, out_, cb_, config_):
        seen.append(np.array(out_.indices))
        return grads(tape_, out_, cb_, config_)

    monkeypatch.setattr(vql, "commitment_codebook_grads", spy)
    _inner_step(model, cb, config, rows, 0.1, 0, np.random.default_rng(0), SGD(lr=0.1))
    assert len(seen) == 1 and np.array_equal(seen[0], idx)


@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_assign_stochastic_equals_sample_code_stochastic(kind):
    rng = np.random.default_rng(31)
    q = rng.standard_normal((300, 5)) + 0.1
    c = rng.standard_normal((17, 5)) + 0.1
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    idx, row_dists = assign(q, c, kind, tau=0.3, rng=rng_a)
    full = pairwise_distances_chunked(q, c, kind)
    assert np.array_equal(idx, sample_code_stochastic(full, 0.3, rng_b))
    assert rng_a.random() == rng_b.random()  # same draws consumed
    assert np.array_equal(row_dists, full[np.arange(q.shape[0]), idx])
    with pytest.raises(ContractViolation):
        assign(q, c, kind, tau=0.3)


def two_pass_sample(queries, codes, kind, tau, rng):
    """The sampler as first written: its own distance pass, a fresh array per
    operation, and the index as the count of cdf entries below the draw."""
    dists = pairwise_distances_chunked(queries, codes, kind)
    logits = -(dists - dists.min(axis=1, keepdims=True)) / tau
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(dists.shape[0])
    indices = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(indices, codes.shape[0] - 1).astype(np.int64)


class ConstantDraws:
    """rng stand-in whose every uniform draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, n):
        return np.full(n, self.value)


@pytest.mark.parametrize("m", [1, 2, 23])
@pytest.mark.parametrize("tau", [1.0, 0.3, 1e-3, 1e-6])
@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_sampler_bit_equals_two_pass_oracle(kind, tau, m):
    rng = np.random.default_rng(m)
    q = rng.standard_normal((400, 3)) + 0.1
    c = rng.standard_normal((m, 3)) + 0.1
    rng_o, rng_a = np.random.default_rng(5), np.random.default_rng(5)
    want = two_pass_sample(q, c, kind, tau, rng_o)
    idx, row_dists = assign(q, c, kind, tau=tau, rng=rng_a)
    assert idx.dtype == np.int64 and np.array_equal(idx, want)
    full = pairwise_distances_chunked(q, c, kind)
    assert np.array_equal(row_dists, full[np.arange(q.shape[0]), want])
    assert rng_a.random() == rng_o.random()  # one draw per query, as before
    assert np.array_equal(sample_code_stochastic(full, tau, np.random.default_rng(5)), want)


def test_sampler_takes_last_code_when_draw_exceeds_cdf():
    rng = np.random.default_rng(0)
    q, c = rng.standard_normal((40, 3)), rng.standard_normal((9, 3))
    u = 1.0 - 2.0 ** -53  # the largest double below 1
    dists = pairwise_distances_chunked(q, c)
    probs = np.exp(-(dists - dists.min(axis=1, keepdims=True)))
    probs /= probs.sum(axis=1, keepdims=True)
    short = np.cumsum(probs, axis=1)[:, -1] < u
    assert short.any()  # rounding leaves some rows' cdf below the draw
    idx = sample_code_stochastic(dists, 1.0, ConstantDraws(u))
    assert np.all(idx[short] == 8)
    assert np.array_equal(idx, two_pass_sample(q, c, "euclidean", 1.0, ConstantDraws(u)))


@pytest.mark.parametrize("u", [0.0, 0.5, 0.75, 1.0 - 2.0 ** -53])
def test_sampler_on_cdf_plateaus(u):
    # a tiny tau leaves exact zeros beside the minima: the cdf of the first row
    # is [0, 0.5, 0.5, 0.5, 1], of the second [1, 1, 1, 1, 1]
    q = np.array([[0.0, 0.0], [4.0, 0.0]])
    c = np.array([[5.0, 0.0], [1.0, 0.0], [0.0, 7.0], [0.0, -9.0], [-1.0, 0.0]])
    idx = sample_code_stochastic(pairwise_distances_chunked(q, c), 1e-6, ConstantDraws(u))
    assert np.array_equal(idx, two_pass_sample(q, c, "euclidean", 1e-6, ConstantDraws(u)))
    assert idx[0] == (0 if u == 0.0 else 1 if u <= 0.5 else 4) and idx[1] == 0


def test_stochastic_assign_computes_distances_once(monkeypatch):
    calls = []
    original = cbk_mod.pairwise_distances_chunked

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cbk_mod, "pairwise_distances_chunked", counting)
    rng = np.random.default_rng(3)
    q, c = rng.standard_normal((64, 4)), rng.standard_normal((16, 4))
    assign(q, c, "euclidean", tau=0.5, rng=np.random.default_rng(0))
    assert calls == [64]


def one_matrix_sample(dists, tau, rng):
    """The sampler over a whole n x m distance matrix, as it was before
    `assign` reduced block by block: one softmax/cdf buffer, one draw of n."""
    buf = np.subtract(dists, dists.min(axis=1, keepdims=True))
    buf /= -tau
    np.exp(buf, out=buf)
    buf /= buf.sum(axis=1, keepdims=True)
    np.cumsum(buf, axis=1, out=buf)
    u = rng.random(buf.shape[0])
    reached = buf >= u[:, None]
    indices = reached.argmax(axis=1)
    indices[~reached[:, -1]] = buf.shape[1] - 1
    return indices


@pytest.mark.parametrize("n,chunk", [(23, 1), (23, 7), (23, 22), (4099, 4096), (4099, 4098)])
@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_assign_by_blocks_bit_equals_full_matrix_oracle(kind, n, chunk, monkeypatch):
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
    rng = np.random.default_rng(n + chunk)
    q = rng.standard_normal((n, 6)) + 0.1
    c = rng.standard_normal((13, 6)) + 0.1
    full = pairwise_distances_chunked(q, c, kind)
    rows = np.arange(n)

    idx, row_dists = assign(q, c, kind)
    assert idx.dtype == np.int64 and np.array_equal(idx, full.argmin(axis=1))
    assert np.array_equal(row_dists, full[rows, idx])

    rng_o, rng_a = np.random.default_rng(9), np.random.default_rng(9)
    want = one_matrix_sample(full, 0.4, rng_o)
    idx, row_dists = assign(q, c, kind, tau=0.4, rng=rng_a)
    assert idx.dtype == np.int64 and np.array_equal(idx, want)
    assert np.array_equal(row_dists, full[rows, want])
    assert rng_a.bit_generator.state == rng_o.bit_generator.state
    # the block sampler over the whole matrix draws what assign drew block by block
    assert np.array_equal(sample_code_stochastic(full, 0.4, np.random.default_rng(9)), want)


def test_stochastic_assign_draws_the_stream_of_one_draw_of_n(monkeypatch):
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", 7)
    rng = np.random.default_rng(12)
    q, c = rng.standard_normal((50, 3)), rng.standard_normal((8, 3))
    blocked, whole = np.random.default_rng(44), np.random.default_rng(44)
    assign(q, c, "euclidean", tau=1.0, rng=blocked)
    whole.random(50)
    assert blocked.bit_generator.state == whole.bit_generator.state


# -- the block search: every row's index is the exact rule's ---------------------

@pytest.fixture
def exact_rows(monkeypatch):
    """Rows the sampler sent through its exact rule, one count per call."""
    counts = []
    original = cbk_mod._first_reach

    def spy(weights, u):
        counts.append(weights.shape[0])
        return original(weights, u)

    monkeypatch.setattr(cbk_mod, "_first_reach", spy)
    return counts


@contextlib.contextmanager
def search_on_any_block():
    """Let the block search take every block, however narrow or small,
    instead of leaving small ones to the exact rule."""
    saved = cbk_mod._SEARCH_MIN_CODES, cbk_mod._SEARCH_MIN_CELLS
    cbk_mod._SEARCH_MIN_CODES, cbk_mod._SEARCH_MIN_CELLS = 1, 0
    try:
        yield
    finally:
        cbk_mod._SEARCH_MIN_CODES, cbk_mod._SEARCH_MIN_CELLS = saved


@pytest.fixture
def search_all():
    with search_on_any_block():
        yield


def gaussian_dists(n, m, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 3)) + 0.1
    c = rng.standard_normal((m, 3)) + 0.1
    return pairwise_distances_chunked(q, c)


@pytest.mark.parametrize("forced", [False, True])  # False: the module's own bounds
@pytest.mark.parametrize("tau", [1e-300, 1e-6, 1e-2, 1.0, 1e3])
@pytest.mark.parametrize("n,m", [(300, 5), (300, 16), (300, 32), (300, 256), (300, 300),
                                 (40, 4096)])
def test_block_search_equals_the_oracles(n, m, tau, forced):
    rng = np.random.default_rng(m)
    q = rng.standard_normal((n, 3)) + 0.1
    c = rng.standard_normal((m, 3)) + 0.1
    dists = pairwise_distances_chunked(q, c)
    want = one_matrix_sample(dists, tau, np.random.default_rng(4))
    assert np.array_equal(two_pass_sample(q, c, "euclidean", tau, np.random.default_rng(4)), want)
    with search_on_any_block() if forced else contextlib.nullcontext():
        got = sample_code_stochastic(dists, tau, np.random.default_rng(4))
        idx, _ = assign(q, c, tau=tau, rng=np.random.default_rng(4))
    assert np.array_equal(got, want) and np.array_equal(idx, want)
    assert np.array_equal(two_pass_sample(q, c, "euclidean", tau, np.random.default_rng(4)), want)


def oracle_cdf(dists, tau):
    buf = np.exp((dists - dists.min(axis=1, keepdims=True)) / -tau)
    buf /= buf.sum(axis=1, keepdims=True)
    return np.cumsum(buf, axis=1)


@pytest.mark.parametrize("m", [100, 256])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_draws_on_a_cdf_value_take_the_exact_rule(search_all, exact_rows, m, step):
    """u exactly on an oracle cdf value, or one double either side, is within
    the check's margin of it: the row takes the exact rule and its index is
    the oracle's."""
    dists = gaussian_dists(50, m, m)
    for row, col in [(0, 0), (3, m // 2), (7, m - 2)]:
        value = oracle_cdf(dists, 0.5)[row, col]
        u = np.nextafter(value, value + step) if step else value
        exact_rows.clear()
        idx = sample_code_stochastic(dists, 0.5, ConstantDraws(u))
        assert np.array_equal(idx, one_matrix_sample(dists, 0.5, ConstantDraws(u)))
        assert sum(exact_rows) >= 1


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("m", [64, 256, 300])
def test_draws_at_the_ends_of_the_cdf(search_all, exact_rows, m, u):
    dists = gaussian_dists(200, m, 1)
    idx = sample_code_stochastic(dists, 1.0, ConstantDraws(u))
    assert np.array_equal(idx, one_matrix_sample(dists, 1.0, ConstantDraws(u)))
    if u == 0.0:  # every row's first cdf value reaches 0, within the margin
        assert np.all(idx == 0) and exact_rows == [200]


@pytest.mark.parametrize("m", [64, 300])
def test_rows_with_inf_and_nan_distances(search_all, exact_rows, m):
    dists = gaussian_dists(20, m, 2)
    dists[1, 5] = np.inf    # weight 0: the row stays in the search
    dists[2, :] = np.inf    # inf - inf: a NaN row
    dists[3, 9] = np.nan
    dists[4, ::2] = np.inf
    with np.errstate(invalid="ignore"):
        got = sample_code_stochastic(dists, 0.7, np.random.default_rng(3))
        want = one_matrix_sample(dists, 0.7, np.random.default_rng(3))
    assert np.array_equal(got, want)
    assert got[2] == got[3] == m - 1 and exact_rows == [2]


@pytest.mark.parametrize("m", [256, 300])
def test_no_row_of_a_random_block_takes_the_exact_rule(exact_rows, m):
    """At the training block size, the margin is far below the spacing of the
    draws: the block search places every row, a ragged last block included."""
    dists = gaussian_dists(512, m, 8)
    idx = sample_code_stochastic(dists, 1.0, np.random.default_rng(0))
    assert np.array_equal(idx, one_matrix_sample(dists, 1.0, np.random.default_rng(0)))
    assert exact_rows == []
    if m % 16:
        assert np.any(idx >= m - m % 16)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), m=st.integers(1, 200), seed=st.integers(0, 2 ** 16),
       log_tau=st.floats(-12.0, 3.0), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_block_search_equals_exact_rule_on_any_block(n, m, seed, log_tau, scale):
    rng = np.random.default_rng(seed)
    dists = scale * rng.random((n, m))
    dists[rng.random((n, m)) < 0.1] = 0.0  # ties at the minimum
    tau = 10.0 ** log_tau
    want = one_matrix_sample(dists, tau, np.random.default_rng(seed))
    with search_on_any_block():
        got = sample_code_stochastic(dists, tau, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def test_assign_reuses_one_block_buffer(monkeypatch):
    seen = []
    original = cbk_mod.pairwise_distances_chunked

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append((out.shape, out.base if out.base is not None else out))
        return out

    monkeypatch.setattr(cbk_mod, "pairwise_distances_chunked", spy)
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", 8)
    rng = np.random.default_rng(2)
    assign(rng.standard_normal((20, 3)), rng.standard_normal((5, 3)))
    assert [shape for shape, _ in seen] == [(8, 5), (8, 5), (4, 5)]
    assert all(base is seen[0][1] for _, base in seen)


def _assign_peak(monkeypatch, n, m, chunk, **kwargs):
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
    rng = np.random.default_rng(0)
    q, c = rng.standard_normal((n, 4)), rng.standard_normal((m, 4))
    tracemalloc.start()
    try:
        assign(q, c, "cosine_renorm", **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tau", [None, 0.5])
def test_assign_memory_is_bounded_by_the_block(tau, monkeypatch):
    """The peak grows with CHUNK_ROWS x m, not with n: eight times the rows
    add only the 16 bytes per row of the returned arrays."""
    m, chunk = 64, 256
    kwargs = {} if tau is None else {"tau": tau, "rng": np.random.default_rng(1)}
    small = _assign_peak(monkeypatch, 1024, m, chunk, **kwargs)
    large = _assign_peak(monkeypatch, 8192, m, chunk, **kwargs)
    assert large - small < 16 * (8192 - 1024) + 32 * 1024
    assert large < 8 * 8192 * m / 4  # a quarter of one n x m float64 matrix
    assert _assign_peak(monkeypatch, 8192, m, 4 * chunk, **kwargs) > large + 2 * 8 * chunk * m


def test_ties_break_to_lowest_index():
    q = np.array([[0.0, 0.0]])
    c = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])  # all equidistant
    idx, _, _ = nearest_code(q, c, "euclidean")
    assert idx[0] == 0


def test_cosine_invariant_under_query_scaling():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((20, 5)) + 0.1
    c = rng.standard_normal((12, 5)) + 0.1
    for kind in ("cosine_unit_norm", "cosine_renorm"):
        base = nearest_code(q, c, kind)[0]
        scaled = nearest_code(q * 37.5, c, kind)[0]
        assert np.array_equal(base, scaled)


def test_quantized_norm_conventions():
    rng = np.random.default_rng(10)
    q = rng.standard_normal((15, 4)) + 0.2
    c = rng.standard_normal((6, 4)) + 0.2
    _, z_unit, _ = nearest_code(q, c, "cosine_unit_norm")
    assert np.allclose(np.linalg.norm(z_unit, axis=1), 1.0)
    _, z_renorm, _ = nearest_code(q, c, "cosine_renorm")
    assert np.allclose(np.linalg.norm(z_renorm, axis=1), np.linalg.norm(q, axis=1))


def test_zero_norm_is_degenerate_under_cosine():
    q = np.array([[0.0, 0.0], [1.0, 0.0]])
    c = np.ones((3, 2))
    with pytest.raises(DegenerateInput):
        nearest_code(q, c, "cosine_unit_norm")
    assert nearest_code(q, c, "euclidean")[0].shape == (2,)


@pytest.mark.parametrize("kind", DISTANCE_KINDS)
@pytest.mark.parametrize("side", ["queries", "codes"])
def test_norms_past_the_float_range_are_a_numeric_failure(kind, side):
    """Rows uniform in +-1e154 have squared norms past the float range, which
    would make NaN distances and arbitrary assignments."""
    rng = np.random.default_rng(0)
    big = rng.uniform(-1e154, 1e154, size=(32, 8))
    small = rng.standard_normal((32, 8))
    q, c = (big, small) if side == "queries" else (small, big)
    with np.errstate(over="ignore"):
        for call in (pairwise_distances_chunked, assign, nearest_code):
            with pytest.raises(NumericFailure, match="non-finite"):
                call(q, c, kind)
        with pytest.raises(NumericFailure, match="non-finite"):
            assign(q, c, kind, tau=1.0, rng=np.random.default_rng(0))
        with pytest.raises(NumericFailure, match="^non-finite norm under cosine distance$"):
            normalize_rows(big)
    # a query half squared norm that the caller passes is checked too
    with pytest.raises(NumericFailure, match="^non-finite half squared norm"):
        pairwise_distances_chunked(small, small, query_half_sq=np.full(32, np.inf))


def test_normalize_rows_returns_norms():
    x = np.array([[3.0, 4.0], [0.0, 2.0]])
    unit, norms = normalize_rows(x)
    assert np.allclose(norms, [5.0, 2.0])
    assert np.allclose(np.linalg.norm(unit, axis=1), 1.0)


def test_stochastic_low_temperature_matches_argmin():
    rng = np.random.default_rng(12)
    sampler = np.random.default_rng(0)
    for _ in range(20):
        q = rng.standard_normal((50, 3))
        c = rng.standard_normal((8, 3))
        dists = pairwise_distances_chunked(q, c, "euclidean")
        got = sample_code_stochastic(dists, 1e-6, sampler)
        assert np.array_equal(got, dists.argmin(axis=1))


def test_stochastic_symmetric_two_codes_is_fair():
    q = np.zeros((10000, 2))
    c = np.array([[1.0, 0.0], [-1.0, 0.0]])
    idx, _ = assign(q, c, "euclidean", tau=1.0, rng=np.random.default_rng(42))
    freq = (idx == 0).mean()
    assert abs(freq - 0.5) <= 0.05


def test_stochastic_requires_positive_tau():
    for n in (0, 1):
        for tau in (0.0, -1.0):
            with pytest.raises(ContractViolation, match="tau > 0"):
                assign(np.zeros((n, 2)), np.ones((2, 2)), "euclidean", tau=tau,
                       rng=np.random.default_rng(0))


def test_effective_codes_identity_and_modes():
    rng = np.random.default_rng(1)
    cb = Codebook(rng.standard_normal((4, 3)))
    assert np.array_equal(cb.effective_codes("off"), cb.codes)
    # raw affine params start at zero -> learnable mode is the identity
    assert np.array_equal(cb.effective_codes("learnable"), cb.codes)
    # fresh ema stats are mean 0 / var 1 on both sides -> identity
    assert np.allclose(cb.effective_codes("ema"), cb.codes)
    cb.affine_scale = np.array([1.0, 0.0, -0.5])
    cb.affine_bias = np.array([0.0, 2.0, 0.0])
    expected = (1.0 + 0.5 * cb.affine_scale) * cb.codes + 0.5 * cb.affine_bias
    assert np.allclose(cb.effective_codes("learnable", lr_scale=0.5), expected)


@pytest.mark.parametrize("mode", ["off", "learnable", "ema"])
def test_effective_codes_are_the_affine_map(mode):
    rng = np.random.default_rng(4)
    cb = Codebook(rng.standard_normal((5, 3)))
    cb.affine_scale, cb.affine_bias = rng.standard_normal(3), rng.standard_normal(3)
    cb.ema_mean_e, cb.ema_mean_q = rng.standard_normal(3), rng.standard_normal(3)
    cb.ema_var_e, cb.ema_var_q = rng.random(3) + 0.1, rng.random(3) + 0.1
    a, b = cb.affine(mode, 0.5)
    assert np.array_equal(cb.effective_codes(mode, 0.5), a * cb.codes + b)
    if mode == "off":
        assert np.array_equal(a, np.ones(3)) and np.array_equal(b, np.zeros(3))


def test_an_unknown_affine_mode_is_a_contract_violation():
    cb = Codebook(np.ones((2, 2)))
    for call in (cb.affine, cb.effective_codes):
        with pytest.raises(ContractViolation, match="unknown affine mode 'sideways'"):
            call("sideways")


def test_ema_transform_floors_sigma():
    cb = Codebook(np.zeros((2, 2)))
    cb.ema_var_q = np.zeros(2)
    a, b = cb.affine("ema")
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


def test_mark_used_updates_counters():
    cb = Codebook(np.zeros((5, 2)))
    cb.mark_used([1, 1, 3], step=7)
    assert cb.last_used[1] == 7 and cb.last_used[3] == 7
    assert cb.last_used[0] == 0


def test_serialization_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(33)
    cb = Codebook(rng.standard_normal((7, 5)))
    cb.affine_scale = rng.standard_normal(5)
    cb.affine_bias = rng.standard_normal(5)
    cb.mark_used([0, 3, 3], 12)
    cb.ema_mean_e = rng.standard_normal(5)
    cb.ema_var_q = rng.random(5) + 0.5
    path = tmp_path / "cb.v1.bin"
    cb.save(path)
    back = Codebook.load(path)
    assert np.array_equal(back.codes, cb.codes)
    assert np.array_equal(back.affine_scale, cb.affine_scale)
    assert np.array_equal(back.affine_bias, cb.affine_bias)
    assert np.array_equal(back.last_used, cb.last_used)
    assert np.array_equal(back.ema_mean_e, cb.ema_mean_e)
    assert np.array_equal(back.ema_var_q, cb.ema_var_q)


def test_serialization_header(tmp_path):
    cb = Codebook(np.arange(6.0).reshape(3, 2))
    path = tmp_path / "cb.bin"
    cb.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"VQKB"
    m = int.from_bytes(raw[8:16], "little")
    d = int.from_bytes(raw[16:24], "little")
    assert (m, d) == (3, 2)
    with pytest.raises(ContractViolation):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXX" + raw[4:])
        Codebook.load(bad)


def test_load_rejects_a_payload_of_the_wrong_length(tmp_path):
    cb = Codebook(np.arange(6.0).reshape(3, 2))
    path = tmp_path / "cb.bin"
    cb.save(path)
    raw = path.read_bytes()
    assert len(raw) == 24 + 8 * (3 * 2 + 2 * 2)
    for bad in (raw[:-1], raw[:-8], raw[:30], raw + b"\0" * 8, raw[:12]):
        path.write_bytes(bad)
        with pytest.raises(ContractViolation):
            Codebook.load(path)


@pytest.mark.parametrize("key,length", [("last_used", 2), ("ema_mean_e", 1),
                                        ("ema_var_e", 3), ("ema_mean_q", 0),
                                        ("ema_var_q", 3)])
def test_load_rejects_sidecar_arrays_of_the_wrong_length(tmp_path, key, length):
    cb = Codebook(np.arange(6.0).reshape(3, 2))  # m = 3, d = 2
    path = tmp_path / "cb.bin"
    cb.save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar[key] = [1] * length
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ContractViolation, match=key):
        Codebook.load(path)
    for bad in ([[1, 2], [3, 4]], None, ["x", "y"]):
        sidecar[key] = bad
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(ContractViolation, match=key):
            Codebook.load(path)
    del sidecar[key]
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ContractViolation, match=key):
        Codebook.load(path)


def test_load_reads_a_sidecar_that_still_carries_usage_counts(tmp_path):
    cb = Codebook(np.arange(6.0).reshape(3, 2))
    cb.mark_used([2, 0], step=4)
    path = tmp_path / "cb.bin"
    cb.save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert "counts" not in sidecar
    sidecar_path.write_text(json.dumps({**sidecar, "counts": [1, 0, 1]}))
    back = Codebook.load(path)
    assert np.array_equal(back.last_used, [4, 0, 4])
    assert not hasattr(back, "counts")


def test_load_rejects_an_unknown_sidecar_key_other_than_counts(tmp_path):
    path = tmp_path / "cb.bin"
    Codebook(np.arange(6.0).reshape(3, 2)).save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps({**sidecar, "counts": [1, 0, 1], "usage": [1, 0, 1]}))
    with pytest.raises(ContractViolation, match=r"^unknown codebook sidecar keys: \['usage'\]$"):
        Codebook.load(path)


@pytest.mark.parametrize("raw", [b"", b"not json", b"{", b"\xff", b'{"last_used": [0, 0, 0]',
                                 pytest.param(b"[" * 100_000, id="nested-too-deep")])
def test_load_rejects_a_sidecar_that_is_not_json(tmp_path, raw):
    path = tmp_path / "cb.bin"
    Codebook(np.arange(6.0).reshape(3, 2)).save(path)
    (tmp_path / "cb.bin.json").write_bytes(raw)
    with pytest.raises(ContractViolation, match="^bad codebook sidecar: "):
        Codebook.load(path)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_rejects_a_non_finite_sidecar_number(tmp_path, number):
    """The sidecar is strict JSON both ways: `save` refuses to write a
    non-finite number and `load` refuses to read one."""
    path = tmp_path / "cb.bin"
    Codebook(np.arange(6.0).reshape(3, 2)).save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps({**sidecar, "ema_mean_e": "X"})
                            .replace('"X"', f"[{number}, 0]"))
    with pytest.raises(ContractViolation, match=f"non-finite number {number}$"):
        Codebook.load(path)


# what each sidecar list must hold, as its kind names it
_SIDECAR_VALUES = {"last_used": "an integer in [0, 2^63)", "ema_mean_e": "a finite number",
                   "ema_mean_q": "a finite number", "ema_var_e": "a finite number >= 0",
                   "ema_var_q": "a finite number >= 0"}


def _sidecar_kind_message(key: str) -> str:
    """The start of the ContractViolation message for a sidecar list `key`
    whose values do not all have its kind."""
    return "^" + re.escape(f"codebook sidecar.{key} must be a non-empty list of values, "
                           f"each {_SIDECAR_VALUES[key]}, got ")


def test_load_rejects_a_last_used_step_past_int64(tmp_path):
    path = tmp_path / "cb.bin"
    Codebook(np.arange(6.0).reshape(3, 2)).save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps({**sidecar, "last_used": [2 ** 70, 0, 0]}))
    with pytest.raises(ContractViolation, match=_sidecar_kind_message("last_used")):
        Codebook.load(path)


@pytest.mark.parametrize("key,bad,why", [
    ("last_used", [3.7, True, 0], "must hold only integers"),
    ("last_used", [3, True, 0], "must hold only integers"),
    ("last_used", [3.0, 0, 0], "must hold only integers"),
    ("ema_mean_e", ["1.5", 0], "must hold only numbers"),
    ("ema_var_q", [True, 1.0], "must hold only numbers"),
    ("ema_var_e", [1.0, -0.5], "holds a negative variance"),
    ("ema_var_q", [0, -0.5], "holds a negative variance"),
    ("last_used", [0, -1, 0], "holds a negative step")])
def test_load_rejects_sidecar_values_numpy_would_take(tmp_path, key, bad, why):
    """numpy takes each of these without complaint: a value it casts to the
    array's dtype, a negative step, or a negative variance, whose square root
    is NaN. The kind check names the key and what its values must be."""
    path = tmp_path / "cb.bin"
    Codebook(np.arange(6.0).reshape(3, 2)).save(path)
    sidecar_path = tmp_path / "cb.bin.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar_path.write_text(json.dumps({**sidecar, key: bad}))
    with pytest.raises(ContractViolation, match=_sidecar_kind_message(key)):
        Codebook.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["codes", "affine_scale", "affine_bias"])
def test_load_rejects_a_non_finite_payload_value(tmp_path, key, value):
    cb = Codebook(np.arange(6.0).reshape(3, 2))
    getattr(cb, key)[-1] = value
    path = tmp_path / "cb.bin"
    cb.save(path)  # the sidecar holds none of them
    with pytest.raises(ContractViolation, match="^codebook payload holds a non-finite value$"):
        Codebook.load(path)


def test_save_with_a_non_finite_moment_writes_neither_file(tmp_path):
    cb = Codebook(np.arange(6.0).reshape(3, 2))
    cb.ema_var_q[1] = np.inf
    with pytest.raises(NumericFailure, match="^cb.bin.json: Out of range float"):
        cb.save(tmp_path / "cb.bin")
    assert list(tmp_path.iterdir()) == []


@functools.cache
def _saved_codebook() -> dict:
    """{file name: bytes} that `save` writes for a 3 x 2 codebook with used
    codes, affine parameters and EMA moments."""
    cb = Codebook(np.arange(6.0).reshape(3, 2) / 7.0)
    cb.mark_used([2, 0], step=4)
    cb.affine_scale = np.array([0.5, -0.25])
    cb.ema_mean_e = np.array([1.5, -2.0])
    cb.ema_var_q = np.array([0.125, 3.0])
    with tempfile.TemporaryDirectory() as tmp:
        cb.save(Path(tmp) / "cb.bin")
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(target=st.sampled_from(["cb.bin", "cb.bin.json"]),
       flips=st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(1, 255)), max_size=3),
       cut=st.none() | st.integers(0, 1 << 12))
# m = 2^63 + 3 and d = 0 in a header with no payload
@example(target="cb.bin", flips=[(15, 0x80), (16, 0x02)], cut=24)
def test_a_truncated_or_byte_flipped_codebook_loads_or_raises_contract_violation(
        target, flips, cut):
    files = dict(_saved_codebook())
    data = bytearray(files[target])
    for pos, mask in flips:
        data[pos % len(data)] ^= mask
    files[target] = bytes(data[:cut])
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            (Path(tmp) / name).write_bytes(raw)
        try:
            Codebook.load(Path(tmp) / "cb.bin")
        except ContractViolation:
            pass


# -- distance kernel: halved formula, precomputed norms, two-core row split ------

def two_norm_distances(q, c, kind, chunk):
    """The kernel as it was before it worked in half norms:
    0.5 * ((||q||^2 - (2q).c) + ||c||^2), clamped at 0, chunk by chunk."""
    if kind != "euclidean":
        q = q / np.linalg.norm(q, axis=1, keepdims=True)
        c = c / np.linalg.norm(c, axis=1, keepdims=True)
    code_sq = (c * c).sum(axis=1)
    out = np.empty((q.shape[0], c.shape[0]))
    for start in range(0, q.shape[0], chunk):
        rows = q[start:start + chunk]
        q_sq = (rows * rows).sum(axis=1)
        block = out[start:start + rows.shape[0]]
        np.matmul(2.0 * rows, c.T, out=block)
        np.subtract(q_sq[:, None], block, out=block)
        block += code_sq[None, :]
        block *= 0.5
        np.maximum(block, 0.0, out=block)
    return out


def kernel_cases():
    rng = np.random.default_rng(31)
    q, c = rng.standard_normal((300, 5)), rng.standard_normal((40, 5))
    on_codes = rng.standard_normal((300, 5))
    on_codes[::3] = c[rng.integers(40, size=100)]  # exact cancellation, then the clamp
    grid = np.array([(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)],
                    dtype=np.float64)
    return {"random": (q, c), "rows-equal-codes": (on_codes, c),
            "large-norms": (1e120 * q, 1e120 * c),
            "exact-ties": (np.repeat(grid, 13, axis=0), grid[::2])}  # 312 rows


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_kernel_bit_equals_the_two_norm_formula(row_pieces, monkeypatch, case, kind, chunk,
                                                split):
    row_pieces.force(split)
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
    q, c = kernel_cases()[case]
    want = two_norm_distances(q, c, kind, chunk)
    assert np.array_equal(pairwise_distances_chunked(q, c, kind), want)
    idx, row_dists = assign(q, c, kind)
    assert np.array_equal(idx, want.argmin(axis=1))
    assert np.array_equal(row_dists, want[np.arange(q.shape[0]), idx])
    assert (row_pieces.cut > 0) == (split and chunk == 4096)
    if case == "rows-equal-codes" and kind == "euclidean":
        # most rows cancel to a tiny negative that the clamp takes to 0
        assert (want[::3].min(axis=1) == 0.0).sum() > 50 and (want >= 0.0).all()


def test_query_half_sq_gives_the_kernel_bits_and_is_checked():
    """So do the codes' half norms, and assign's query norms."""
    rng = np.random.default_rng(8)
    q, c = rng.standard_normal((9000, 6)), rng.standard_normal((3, 6))
    for key, rows in [("query_half_sq", q), ("code_half_sq", c)]:
        half = cbk_mod.half_sq_norms(rows)
        assert np.array_equal(pairwise_distances_chunked(q, c, **{key: half}),
                              pairwise_distances_chunked(q, c))
        for bad in (half[:-1], half[:, None], np.append(half, 0.0)):
            with pytest.raises(ContractViolation, match="shape"):
                pairwise_distances_chunked(q, c, **{key: bad})
        for kind in ("cosine_unit_norm", "cosine_renorm"):
            with pytest.raises(ContractViolation, match="euclidean"):
                pairwise_distances_chunked(q, c, kind, **{key: half})
    half = cbk_mod.half_sq_norms(q)
    assert all(np.array_equal(got, want) for got, want
               in zip(assign(q, c, query_half_sq=half), assign(q, c)))
    with pytest.raises(ContractViolation, match="euclidean"):
        assign(q, c, "cosine_renorm", query_half_sq=half)


@pytest.mark.parametrize("n", [1, 129, 1001, 4099])
@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_assign_bit_equal_with_pieces_off_and_on(row_pieces, kind, n):
    """Forced down to 64 cells, a piece is 64 rows, so blocks from 128 rows
    up are cut; n = 1 stays whole. A sampled piece takes the next uniform
    draws, so the stream is that of the whole block."""
    rng = np.random.default_rng(n)
    q, c = rng.standard_normal((n, 6)) + 0.1, rng.standard_normal((64, 6)) + 0.1

    def run():
        return (assign(q, c, kind), assign(q, c, kind, tau=0.5, rng=np.random.default_rng(2)),
                pairwise_distances_chunked(q, c, kind))

    row_pieces.force(False, cells=64)
    whole = run()
    assert row_pieces.cut == 0
    row_pieces.force(True, cells=64)
    cut = run()
    # the first block is cut three times: by each assign, and by the direct
    # kernel call; a 3-row tail stays whole
    assert row_pieces.cut == (0 if n == 1 else 3)
    for got, want in zip(cut[:2], whole[:2]):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(cut[2], whole[2])


def nested_row_cuts(n, cols, chunk, cells, align):
    """The cuts as two nested loops made them: CHUNK_ROWS-row chunks, and
    each chunk's own row pieces."""
    def row_pieces(lo, hi):
        if (hi - lo) * cols < 2 * cells:
            return [(lo, hi)]
        step = -(-cells // cols)
        step = -(-step // align) * align
        pieces = (hi - lo) // step
        if pieces < 2:
            return [(lo, hi)]
        cuts = [lo + i * step for i in range(pieces)]
        cuts.append(hi)
        return list(zip(cuts, cuts[1:]))

    return [piece for start in range(0, n, chunk)
            for piece in row_pieces(start, min(start + chunk, n))]


def test_row_pieces_tile_the_rows_at_aligned_cuts(monkeypatch):
    """The one block generator makes the cuts the nested loops made, with the
    real constants and with a forced small chunk and piece."""
    for chunk, cells in [(cbk_mod.CHUNK_ROWS, cbk_mod.PIECE_CELLS), (64, 1 << 10), (7, 1),
                         (4096, 1 << 16)]:
        monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", chunk)
        monkeypatch.setattr(cbk_mod, "PIECE_CELLS", cells)
        for n in (0, 1, 63, 64, 65, 4095, 4096, 4097, 16384, 50001):
            for cols in (0, 1, 32, 100, 256, 257, 4096, (1 << 17) + 1):
                blocks = cbk_mod._row_blocks(n, cols)
                assert blocks == nested_row_cuts(n, cols, chunk, cells, cbk_mod.PIECE_ALIGN)
                # contiguous, non-empty and covering 0:n; n = 0 gives no block
                edges = [0] + [hi for _, hi in blocks]
                assert [lo for lo, _ in blocks] == edges[:-1] and edges[-1] == n
                assert all(lo < hi for lo, hi in blocks)
                assert all(lo % chunk % cbk_mod.PIECE_ALIGN == 0 for lo, _ in blocks)
                per_chunk = Counter(lo // chunk for lo, _ in blocks)
                assert all((hi - lo) * cols >= cells for lo, hi in blocks
                           if per_chunk[lo // chunk] > 1)  # a cut chunk's pieces

    monkeypatch.setattr(cbk_mod, "PIECE_CELLS", 1 << 16)
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", 1001)
    # the 1001 x 300 chunk is cut into 256, 256 and 489 rows; the 100-row tail stays whole
    assert cbk_mod._row_blocks(1101, 300) == [(0, 256), (256, 512), (512, 1001), (1001, 1101)]
    # a chunk that holds fewer than two pieces stays whole
    assert cbk_mod._row_blocks(255, 1000) == [(0, 255)]
    assert cbk_mod._row_blocks(100, 10) == [(0, 100)]
    assert cbk_mod._row_blocks(7, 0) == [(0, 7)]


# -- assign clips during its row reduction ---------------------------------------

def queries_on_codes():
    """Rows and codes within 1e-9 of four anchors of norm ~1e4, so that most
    raw distances (h_q - q.c) + h_c round to about +-1e-8, far from their
    true ~1e-18: many rows are negative at several codes."""
    rng = np.random.default_rng(0)
    anchors = rng.standard_normal((4, 8)) * 1e4
    codes = np.repeat(anchors, 6, axis=0) + 1e-9 * rng.standard_normal((24, 8))
    q = anchors[rng.integers(4, size=60)] + 1e-9 * rng.standard_normal((60, 8))
    return q, codes


def test_assign_equals_the_clipped_block_where_rows_are_negative_at_several_codes():
    q, c = queries_on_codes()
    raw = pairwise_distances_chunked(q, c, clip=False)
    clipped = pairwise_distances_chunked(q, c)
    assert np.array_equal(clipped, np.maximum(raw, 0.0))
    # the rows this is about: two or more negative entries, the most
    # negative not the first, so the raw argmin is not the clipped one
    several = ((raw < 0.0).sum(axis=1) >= 2) & (raw.argmin(axis=1) != clipped.argmin(axis=1))
    assert several.sum() >= 10
    rows = np.arange(q.shape[0])

    idx, row_dists = assign(q, c)
    want = clipped.argmin(axis=1)
    assert np.array_equal(idx, want) and np.array_equal(row_dists, clipped[rows, want])

    # a tau this small tells the raw negatives apart; the clipped zeros tie
    for tau in (1e-9, 0.5):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        idx, row_dists = assign(q, c, tau=tau, rng=rng_a)
        want = sample_code_stochastic(clipped.copy(), tau, rng_b)
        assert np.array_equal(idx, want) and np.array_equal(row_dists, clipped[rows, want])
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_sampler_clips_the_rows_that_need_it_in_place():
    q, c = queries_on_codes()
    raw = pairwise_distances_chunked(q, c, clip=False)
    clipped = np.maximum(raw, 0.0)
    block = raw.copy()
    got = sample_code_stochastic(block, 1e-9, np.random.default_rng(5))
    assert np.array_equal(got, sample_code_stochastic(clipped, 1e-9, np.random.default_rng(5)))
    assert np.array_equal(block, clipped)


def reference_assign(queries, codes, kind, tau=None, rng=None):
    """`assign` as one clipped kernel call per row piece: the kernel
    normalizes the piece and the codes and takes both norms itself."""
    n = queries.shape[0]
    indices, row_dists = np.empty(n, dtype=np.int64), np.empty(n)
    for lo, hi in cbk_mod._row_blocks(n, codes.shape[0]):
        block = pairwise_distances_chunked(queries[lo:hi], codes, kind)
        idx = block.argmin(axis=1) if tau is None else sample_code_stochastic(block, tau, rng)
        indices[lo:hi] = idx
        row_dists[lo:hi] = block[np.arange(hi - lo), idx]
    return indices, row_dists


def reference_lloyd(centers, sample, iters):
    """Lloyd iterations on `reference_assign`."""
    m = centers.shape[0]
    for _ in range(iters):
        assignment, min_half = reference_assign(sample, centers, "euclidean")
        counts = np.bincount(assignment, minlength=m)
        filled = counts > 0
        new_centers = centers.copy()
        new_centers[filled] = scatter_add_rows(assignment, sample, m)[filled] / counts[filled, None]
        for j, point_idx in zip(np.nonzero(~filled)[0], np.argsort(min_half)[::-1]):
            new_centers[j] = sample[point_idx]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    return centers


@pytest.mark.parametrize("kind", ["euclidean", "cosine_unit_norm", "cosine_renorm"])
def test_assign_and_lloyd_bit_equal_a_clipped_kernel_call_per_piece(kind, monkeypatch):
    """200-row chunks of 24 codes cut into 64-row pieces: each chunk into
    64, 64 and a ragged 72, the 150-row tail into 64 and 86."""
    monkeypatch.setattr(cbk_mod, "CHUNK_ROWS", 200)
    monkeypatch.setattr(cbk_mod, "PIECE_CELLS", 64 * 24)
    n, m = 950, 24
    assert cbk_mod._row_blocks(n, m)[-5:] == [(600, 664), (664, 728), (728, 800),
                                               (800, 864), (864, 950)]
    rng = np.random.default_rng(11)
    c = rng.standard_normal((m, 5)) + 0.1
    q = rng.standard_normal((n, 5)) + 0.1
    q[::3] = c[rng.integers(m, size=q[::3].shape[0])]  # queries on codes: the clip path
    for got, want in [(assign(q, c, kind), reference_assign(q, c, kind)),
                      (assign(q, c, kind, tau=0.3, rng=np.random.default_rng(1)),
                       reference_assign(q, c, kind, tau=0.3, rng=np.random.default_rng(1)))]:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if kind == "euclidean":
        centers = c.copy()
        centers[-1] = 1e3  # an empty center, re-seeded
        assert np.array_equal(lloyd(centers, q, 6), reference_lloyd(centers, q, 6))

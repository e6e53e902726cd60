"""Initialization strategies: Lloyd iteration properties, k-means++ seeding,
and the init_codebook front end."""
import numpy as np
import pytest

from vqkit import ContractViolation, NumericFailure
from vqkit.autodiff import scatter_add_rows
from vqkit.codebook import assign, pairwise_distances_chunked
from vqkit.initialization import LLOYD_TOL, init_codebook, kmeans, kmeans_pp_seed, lloyd, lloyd_step
from vqkit.metrics import divergence


def inertia(centers, sample) -> float:
    """The mean min squared distance of the sample rows to the centers."""
    return float((2.0 * assign(sample, centers)[1]).mean())


def test_lloyd_step_moves_centers_to_member_means():
    sample = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    centers = np.array([[0.0, 1.0], [10.0, 1.0]])
    assert np.array_equal(assign(sample, centers)[0], [0, 0, 1, 1])
    assert np.allclose(lloyd_step(centers, sample), centers)  # already at the means
    assert abs(inertia(centers, sample) - 1.0) < 1e-12  # each point 1 away from its center


def test_lloyd_inertia_is_the_mean_min_squared_distance():
    rng = np.random.default_rng(17)
    sample = rng.standard_normal((500, 6))
    centers = rng.standard_normal((12, 6))
    naive = ((sample[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1).mean()
    assert abs(inertia(centers, sample) - naive) <= 1e-12 * naive


def add_at_rows(indices, rows, m):
    out = np.zeros((m, rows.shape[1]))
    np.add.at(out, indices, rows)
    return out


@pytest.mark.parametrize("n,d,m", [(0, 3, 4), (1, 1, 1), (64, 8, 32), (500, 1, 7),
                                   (512, 8, 256), (2000, 16, 40)])
def test_scatter_add_rows_bit_equals_add_at(n, d, m):
    rng = np.random.default_rng(n + d + m)
    # indices cover only the lower half of the codes, so m > max(idx) + 1
    idx = rng.integers(0, max(m // 2, 1), size=n)
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
    got = scatter_add_rows(idx, rows, m)
    assert got.shape == (m, d) and got.dtype == np.float64
    assert got.tobytes() == add_at_rows(idx, rows, m).tobytes()
    # a strided (non-contiguous) rows view takes the same path
    wide = np.repeat(rows, 2, axis=1)[:, ::2]
    assert scatter_add_rows(idx, wide, m).tobytes() == got.tobytes()


def test_lloyd_step_bit_equals_add_at_means():
    rng = np.random.default_rng(23)
    for n, m, d in [(300, 9, 4), (4099, 64, 16), (50, 50, 2)]:
        sample = rng.standard_normal((n, d))
        centers = sample[rng.choice(n, size=m, replace=False)] + 1e-3
        centers[-1] = 1e3  # an empty center, re-seeded
        new_centers = lloyd_step(centers, sample)
        assignment = assign(sample, centers)[0]
        counts = np.bincount(assignment, minlength=m)
        filled = counts > 0
        assert not filled[-1]
        want = add_at_rows(assignment, sample, m)[filled] / counts[filled, None]
        assert new_centers[filled].tobytes() == want.tobytes()


def test_lloyd_inertia_non_increasing():
    rng = np.random.default_rng(0)
    sample = rng.standard_normal((200, 3))
    centers = rng.standard_normal((8, 3))
    last = np.inf
    for _ in range(10):
        now = inertia(centers, sample)
        assert now <= last + 1e-12
        centers, last = lloyd_step(centers, sample), now


def test_lloyd_reseeds_empty_centers():
    sample = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]])
    centers = np.array([[0.4, 0.0], [100.0, 100.0]])  # second center is empty
    new_centers = lloyd_step(centers, sample)
    # the empty center lands on a sample point (the farthest one)
    assert any(np.allclose(new_centers[1], p) for p in sample)


def test_kmeans_converges_on_separated_clusters():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 0.05, size=(50, 2))
    b = rng.normal(5.0, 0.05, size=(50, 2))
    centers = kmeans(np.vstack([a, b]), 2, rng)
    centers = centers[np.argsort(centers[:, 0])]
    assert np.allclose(centers[0], a.mean(axis=0), atol=1e-6)
    assert np.allclose(centers[1], b.mean(axis=0), atol=1e-6)


def test_kmeans_fixed_point_is_stable():
    # centers already at cluster means shift by less than the tolerance
    sample = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    rng = np.random.default_rng(1)
    centers = kmeans(sample, 2, rng, iters=100)
    again = lloyd_step(centers, sample)
    assert np.abs(again - centers).max() < LLOYD_TOL


def test_kmeans_pp_seeds_are_sample_rows():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal((30, 4))
    seeds = kmeans_pp_seed(sample, 5, rng)
    for row in seeds:
        assert any(np.array_equal(row, s) for s in sample)


def test_kmeans_pp_seed_on_identical_rows_draws_each_seed_uniformly():
    """Every distance to the first seed is 0, so no row is weighted: each
    further seed is one uniform draw of a row index."""
    sample = np.full((10, 3), 2.5)
    rng, uniform = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(kmeans_pp_seed(sample, 4, rng), sample[:4])
    uniform.integers(10, size=4)
    assert rng.bit_generator.state == uniform.bit_generator.state


def test_init_normal_kaiming_std():
    codes = init_codebook("normal_kaiming", 20000, 8, rng=np.random.default_rng(0))
    assert codes.shape == (20000, 8)
    assert abs(codes.std() - np.sqrt(2.0 / 8)) < 0.01
    wide = init_codebook("normal_kaiming", 20000, 8, rng=np.random.default_rng(0), fan=2)
    assert abs(wide.std() - 1.0) < 0.02


def test_init_uniform_bounds():
    codes = init_codebook("uniform", 1000, 4, rng=np.random.default_rng(3), low=-0.25, high=0.75)
    assert codes.min() >= -0.25 and codes.max() <= 0.75


def test_init_data_subset_rows_are_distinct_sample_rows():
    rng = np.random.default_rng(4)
    sample = rng.standard_normal((50, 3))
    codes = init_codebook("data_subset", 10, 3, sample=sample, rng=np.random.default_rng(7))
    seen = set()
    for row in codes:
        matches = np.nonzero((sample == row).all(axis=1))[0]
        assert matches.size == 1
        assert matches[0] not in seen  # selection without replacement
        seen.add(int(matches[0]))


def test_init_same_seed_bit_identical():
    for method in ("normal_kaiming", "uniform"):
        a = init_codebook(method, 16, 4, rng=np.random.default_rng(11))
        b = init_codebook(method, 16, 4, rng=np.random.default_rng(11))
        assert np.array_equal(a, b)


def test_init_kmeans_beats_random_on_divergence():
    rng = np.random.default_rng(6)
    sample = np.maximum(rng.standard_normal((500, 6)), 0.0)
    km = init_codebook("kmeans", 16, 6, sample=sample, rng=np.random.default_rng(8))
    rand = init_codebook("normal_kaiming", 16, 6, rng=np.random.default_rng(8))
    assert divergence(sample, km) < divergence(sample, rand)


def test_init_errors():
    with pytest.raises(ContractViolation):
        init_codebook("data_subset", 10, 3, sample=None, rng=np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        init_codebook("data_subset", 10, 3, sample=np.zeros((5, 3)), rng=np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        init_codebook("kmeans", 10, 3, sample=np.zeros((5, 3)), rng=np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        init_codebook("nope", 4, 2, rng=np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        # above the default high of 1
        init_codebook("uniform", 4, 2, low=1.5, rng=np.random.default_rng(0))
    with pytest.raises(ContractViolation, match="finite high - low"):
        init_codebook("uniform", 4, 2, low=-1e308, high=1e308, rng=np.random.default_rng(0))


def kmeans_pp_one_call_per_centre(sample, m, rng):
    """k-means++ seeding as it was before the sample norms were computed once:
    one kernel call per centre, which recomputes the norms each time."""
    n = sample.shape[0]
    centers = np.empty((m, sample.shape[1]))
    centers[0] = sample[int(rng.integers(n))]
    closest = pairwise_distances_chunked(sample, centers[:1]).ravel()
    for j in range(1, m):
        total = closest.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=closest / total))
        centers[j] = sample[idx]
        closest = np.minimum(closest, pairwise_distances_chunked(sample, centers[j:j + 1]).ravel())
    return centers


@pytest.mark.parametrize("n,d,m", [(5000, 7, 24), (16384, 16, 32), (300, 3, 300)])
def test_kmeans_pp_seed_bit_equals_one_kernel_call_per_centre(n, d, m):
    """The oracle draws by `rng.choice(n, p=...)`; over several seeds the
    seeding draws the same indices from the same stream, which it leaves in
    the same state."""
    sample = np.random.default_rng(n).standard_normal((n, d)) * 10.0 ** np.arange(d)
    for seed in (0, 1, 4):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kmeans_pp_seed(sample, m, rng_got)
        assert np.array_equal(got, kmeans_pp_one_call_per_centre(sample, m, rng_want))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_kmeans_pp_seed_with_an_overflowing_total_is_a_numeric_failure():
    # each distance is finite, their sum is not
    sample = np.random.default_rng(0).standard_normal((200, 2)) * 2e153
    assert np.isfinite(pairwise_distances_chunked(sample, sample[:1])).all()
    with np.errstate(over="ignore"), pytest.raises(NumericFailure, match="k-means"):
        kmeans_pp_seed(sample, 3, np.random.default_rng(0))


@pytest.mark.parametrize("n,cells", [(1, 16), (1001, 16), (4099, 1 << 17)])
def test_lloyd_and_kmeans_bit_equal_with_pieces_off_and_on(row_pieces, n, cells):
    """`cells` is the smallest piece: forced down to 16 cells (a piece is then
    64 rows), or the default, of which a 4096 x 64 block holds two."""
    rng = np.random.default_rng(n)
    m = min(n, 16) if cells == 16 else 64
    sample = rng.standard_normal((n, 4))
    centers = sample[rng.choice(n, size=m, replace=False)] + 0.01
    runs = []
    for on in (False, True):
        row_pieces.force(on, cells)
        runs.append((lloyd(centers, sample, 5), kmeans(sample, m, np.random.default_rng(1), 5)))
        assert (row_pieces.cut > 0) == (on and n > 1)
    for whole, cut in zip(*runs):
        assert np.array_equal(whole, cut)

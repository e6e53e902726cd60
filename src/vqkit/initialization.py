"""Codebook initialization strategies: random draws, data-subset selection,
and k-means++ seeded Lloyd iterations."""
from __future__ import annotations

import math

import numpy as np

from .autodiff import scatter_add_rows
from .codebook import assign, half_sq_norms, pairwise_distances_chunked
from .errors import ContractViolation, NumericFailure

LLOYD_TOL = 1e-9
LLOYD_ITERS = 50   # the Lloyd budget of a k-means init and of a k-means reset
INIT_METHODS = ("normal_kaiming", "uniform", "data_subset", "kmeans")


def lloyd_step(centers: np.ndarray, sample: np.ndarray, *,
               sample_half_sq: np.ndarray | None = None) -> np.ndarray:
    """One Lloyd iteration: the new centers, each the mean of the sample rows
    `assign` gives it. Centers that end up with no members are re-seeded to
    the sample points farthest from their nearest center. `sample_half_sq` is
    `half_sq_norms(sample)`, for a caller that steps on the same sample many
    times."""
    centers = np.asarray(centers, dtype=np.float64)
    sample = np.asarray(sample, dtype=np.float64)
    if centers.shape[0] < 1:
        raise ContractViolation("lloyd_step requires at least one center")

    assignment, min_half = assign(sample, centers, "euclidean", query_half_sq=sample_half_sq)
    m = centers.shape[0]
    sums = scatter_add_rows(assignment, sample, m)
    counts = np.bincount(assignment, minlength=m)
    filled = counts > 0
    new_centers = centers.copy()
    new_centers[filled] = sums[filled] / counts[filled, None]
    empty = np.nonzero(~filled)[0]
    if empty.size:
        # re-seed empty centers to successive farthest points
        order = np.argsort(min_half)[::-1]
        for j, point_idx in zip(empty, order):
            new_centers[j] = sample[point_idx]
    return new_centers


def kmeans_pp_seed(sample: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Standard k-means++ seeding over the sample rows."""
    n = sample.shape[0]
    centers = np.empty((m, sample.shape[1]))
    first = int(rng.integers(n))
    centers[0] = sample[first]
    # the sample's norms do not change between the m kernel calls
    sample_half_sq = half_sq_norms(sample)
    # half squared distances: the sampling probabilities are ratios, unchanged by the 0.5
    closest = pairwise_distances_chunked(sample, centers[:1],
                                         query_half_sq=sample_half_sq).ravel()
    for j in range(1, m):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        elif not np.isfinite(total):
            raise NumericFailure("non-finite k-means++ distance total")
        else:
            # rng.choice(n, p=probs) without its checks of p: the same cdf
            # bits and the same draw
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[j] = sample[idx]
        np.minimum(closest, pairwise_distances_chunked(
            sample, centers[j:j + 1], query_half_sq=sample_half_sq).ravel(), out=closest)
    return centers


def kmeans(sample: np.ndarray, m: int, rng: np.random.Generator,
           iters: int = LLOYD_ITERS) -> np.ndarray:
    """k-means++ seeding followed by Lloyd iterations until the max center
    displacement drops below LLOYD_TOL or the iteration budget runs out."""
    if iters < 1:
        raise ContractViolation("kmeans requires iters >= 1")
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape[0] < m:
        raise ContractViolation(f"kmeans needs a sample with >= {m} rows")
    return lloyd(kmeans_pp_seed(sample, m, rng), sample, iters)


def lloyd(centers: np.ndarray, sample: np.ndarray, iters: int) -> np.ndarray:
    """Lloyd iterations from the given centers until the max center
    displacement drops below LLOYD_TOL or `iters` iterations have run."""
    # the sample's norms do not change between the steps
    sample_half_sq = half_sq_norms(sample)
    for _ in range(iters):
        new_centers = lloyd_step(centers, sample, sample_half_sq=sample_half_sq)
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < LLOYD_TOL:
            break
    return centers


def init_codebook(method: str, m: int, d: int, sample=None, *,
                  rng: np.random.Generator, fan: int | None = None, low: float = -1.0,
                  high: float = 1.0, iters: int = LLOYD_ITERS) -> np.ndarray:
    """Produce an m x d code matrix. The same rng state gives bit-identical
    output.

    methods: normal_kaiming (N(0, 2/fan)), uniform(low, high),
    data_subset (m distinct sample rows), kmeans (k-means++ + Lloyd)."""
    if method == "normal_kaiming":
        std = np.sqrt(2.0 / (fan if fan is not None else d))
        return rng.normal(0.0, std, size=(m, d))
    if method == "uniform":
        if low > high:
            raise ContractViolation(f"uniform init needs low <= high, got {low} > {high}")
        if not math.isfinite(high - low):
            raise ContractViolation(f"uniform init needs a finite high - low, got {high} - {low}")
        return rng.uniform(low, high, size=(m, d))
    if method == "data_subset":
        sample = _require_sample(sample, m, method)
        idx = rng.choice(sample.shape[0], size=m, replace=False)
        return sample[idx].astype(np.float64).copy()
    if method == "kmeans":
        sample = _require_sample(sample, m, method)
        return kmeans(sample, m, rng, iters=iters)
    raise ContractViolation(f"unknown init method {method!r}")


def _require_sample(sample, min_rows: int, method: str) -> np.ndarray:
    if sample is None:
        raise ContractViolation(f"init method {method!r} requires a data sample")
    sample = np.asarray(sample, dtype=np.float64)
    if sample.shape[0] < min_rows:
        raise ContractViolation(
            f"init method {method!r} needs a sample with >= {min_rows} rows")
    return sample

"""Codebook storage and query layer: distances, code assignment (nearest or
stochastic), grouped views, and binary serialization."""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, write_json
from .errors import ContractViolation, DegenerateInput, NumericFailure

DISTANCE_KINDS = ("euclidean", "cosine_unit_norm", "cosine_renorm")

_MAGIC = b"VQKB"
_VERSION = 1
# the arrays the strict-JSON sidecar holds, beside the binary codes and affine vectors
_SIDECAR_KEYS = ("last_used", "ema_mean_e", "ema_var_e", "ema_mean_q", "ema_var_q")


class Codebook:
    """m code-vectors of dimension d, shared affine parameters, the step each
    code was last used, and running embedding/code statistics.

    The raw affine parameters start at zero so the effective codes equal the
    raw codes at initialization (identity reparameterization)."""

    def __init__(self, codes):
        codes = np.array(codes, dtype=np.float64)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise ContractViolation(f"codebook must be m x d with m,d >= 1, got {codes.shape}")
        self.codes = codes
        d = codes.shape[1]
        self.affine_scale = np.zeros(d)
        self.affine_bias = np.zeros(d)
        self.last_used = np.zeros(codes.shape[0], dtype=np.int64)
        # running moments of z_e and z_q for the EMA affine variant
        self.ema_mean_e = np.zeros(d)
        self.ema_var_e = np.ones(d)
        self.ema_mean_q = np.zeros(d)
        self.ema_var_q = np.ones(d)

    @property
    def m(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    def ema_transform(self, eps: float = 1e-8):
        """Per-dimension (a, b) such that effective codes = a * codes + b,
        matching codebook moments to the embedding moments."""
        sigma_e = np.maximum(np.sqrt(self.ema_var_e), eps)
        sigma_q = np.maximum(np.sqrt(self.ema_var_q), eps)
        a = sigma_e / sigma_q
        b = self.ema_mean_e - a * self.ema_mean_q
        return a, b

    def effective_codes(self, affine_mode: str = "off", lr_scale: float = 1.0) -> np.ndarray:
        if affine_mode == "off":
            return self.codes.copy()
        if affine_mode == "learnable":
            scale = 1.0 + lr_scale * self.affine_scale
            return scale * self.codes + lr_scale * self.affine_bias
        if affine_mode == "ema":
            a, b = self.ema_transform()
            return a * self.codes + b
        raise ContractViolation(f"unknown affine mode {affine_mode!r}")

    def mark_used(self, indices, step: int) -> None:
        self.last_used[np.asarray(indices, dtype=np.int64)] = step

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        """Write `path` (`VQKB` binary) after its strict-JSON sidecar `path` +
        ".json", so a non-finite moment fails before either file is written."""
        path = Path(path)
        write_json(Path(str(path) + ".json"),
                   {key: getattr(self, key).tolist() for key in _SIDECAR_KEYS})
        with atomic_open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<QQ", self.m, self.d))
            fh.write(np.ascontiguousarray(self.codes, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.affine_scale, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.affine_bias, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Codebook":
        """Read a codebook written by `save`. A payload that is not exactly
        m x d codes plus the two affine vectors, a sidecar that is not strict
        JSON (NaN and Infinity included), or a sidecar array of the wrong
        length raises ContractViolation."""
        path = Path(path)
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ContractViolation(f"bad codebook magic {magic!r}")
            header = fh.read(20)
            if len(header) != 20:
                raise ContractViolation("truncated codebook header")
            version, m, d = struct.unpack("<IQQ", header)
            if version != _VERSION:
                raise ContractViolation(f"unsupported codebook version {version}")
            if m < 1 or d < 1:
                raise ContractViolation(f"codebook must have m, d >= 1, got m={m}, d={d}")
            payload = fh.read()
        if len(payload) != 8 * (m * d + 2 * d):
            raise ContractViolation(
                f"codebook payload is {len(payload)} bytes, expected "
                f"{8 * (m * d + 2 * d)} for m={m}, d={d}")
        values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
        cb = cls(values[:m * d].reshape(m, d))
        cb.affine_scale = values[m * d:m * d + d].copy()
        cb.affine_bias = values[m * d + d:].copy()
        sidecar_path = Path(str(path) + ".json")
        if sidecar_path.exists():
            try:
                sidecar = json.loads(sidecar_path.read_bytes(), parse_constant=_finite_float,
                                     parse_float=_finite_float)
            except ValueError as exc:
                raise ContractViolation(f"bad codebook sidecar: {exc}") from exc
            # the "counts" key that older sidecars carry is ignored
            for key in _SIDECAR_KEYS:
                # a fresh codebook's array has the shape and dtype the file must give
                fresh = getattr(cb, key)
                try:
                    value = np.asarray(sidecar[key], dtype=fresh.dtype)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ContractViolation(f"bad codebook sidecar {key!r}: {exc}") from exc
                if value.shape != fresh.shape:
                    raise ContractViolation(
                        f"codebook sidecar {key!r} must have shape {fresh.shape}, "
                        f"got {value.shape}")
                setattr(cb, key, value)
        return cb


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (unit rows, norms). Zero-norm rows are degenerate under cosine,
    and a norm that is not finite is a NumericFailure."""
    norms = np.linalg.norm(x, axis=1)
    if not np.isfinite(norms).all():
        raise NumericFailure("non-finite norm under cosine distance")
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm vector under cosine distance")
    return x / norms[:, None], norms


# Queries are taken CHUNK_ROWS rows at a time. A chunk is cut by rows into
# pieces of at least PIECE_CELLS cells when it holds two or more, so that
# each piece's passes (the matmul, the three in-place passes and, in
# `assign`, the argmin or the sampling) find it in the core's cache instead
# of in memory. Every cut is a multiple of PIECE_ALIGN rows from the chunk
# start: that keeps every row in the same position, relative to the BLAS
# kernel's row groups, that it has in the whole chunk, so a row's bits do not
# depend on the cut. All three are read at call time.
CHUNK_ROWS = 4096
PIECE_CELLS = 1 << 17
PIECE_ALIGN = 64


def half_sq_norms(x) -> np.ndarray:
    """0.5 * ||x_i||^2 per row: the distance kernel's one norm formula, taken
    CHUNK_ROWS rows at a time so no n x d temporary is made. A row's value
    does not depend on the chunking."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], CHUNK_ROWS):
        rows = x[start:start + CHUNK_ROWS]
        out[start:start + rows.shape[0]] = 0.5 * (rows * rows).sum(axis=1)
    return out


def _row_blocks(n: int, cols: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges that tile the rows of an n x cols matrix: the
    CHUNK_ROWS-row chunks, each cut into pieces of the fewest aligned rows
    that hold PIECE_CELLS cells when it holds two or more, the last piece
    taking the remainder."""
    if n <= CHUNK_ROWS and n * cols < 2 * PIECE_CELLS:  # the common small block, at once
        return [(0, n)] if n else []
    step = -(-PIECE_CELLS // cols) if cols else n + 1  # zero columns: never cut
    step = -(-step // PIECE_ALIGN) * PIECE_ALIGN
    blocks = []
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        pieces = max((stop - start) // step, 1)
        blocks += [(start + i * step, start + (i + 1) * step) for i in range(pieces - 1)]
        blocks.append((start + (pieces - 1) * step, stop))
    return blocks


def pairwise_distances_chunked(queries, codes, kind: str = "euclidean", *,
                               out: np.ndarray | None = None,
                               query_half_sq: np.ndarray | None = None) -> np.ndarray:
    """n x m matrix of half squared distances, computed over `_row_blocks`.

    euclidean: (i,j) = 0.5 * ||q_i - c_j||^2
    cosine:    (i,j) = 0.5 * ||q_i/||q_i|| - c_j/||c_j||||^2

    Each entry is max(0, (h_q - q.c) + h_c) with h = 0.5 * ||.||^2, evaluated
    in place so no block-sized temporary is allocated. Halving is exact
    outside the subnormal and overflow ranges, so this has the bits of
    0.5 * ((||q||^2 - (2q).c) + ||c||^2). The result is written into `out`
    when given (an n x m float64 array, such as a block buffer the caller
    reuses) and returned. `query_half_sq` (euclidean only) is
    `half_sq_norms(queries)`, for a caller that queries the same rows many
    times. A query or code half squared norm that is not finite is a
    NumericFailure."""
    if kind not in DISTANCE_KINDS:
        raise ContractViolation(f"unknown distance kind {kind!r}")
    queries = np.asarray(queries, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    if queries.shape[1] != codes.shape[1]:
        raise ContractViolation(
            f"dimension mismatch: queries d={queries.shape[1]}, codes d={codes.shape[1]}")
    n, m = queries.shape[0], codes.shape[0]
    if out is None:
        out = np.empty((n, m))
    elif out.shape != (n, m) or out.dtype != np.float64:
        raise ContractViolation(
            f"out must be a {n} x {m} float64 array, got {out.dtype} {out.shape}")
    if query_half_sq is not None:
        if kind != "euclidean":
            raise ContractViolation(f"query_half_sq applies to euclidean distances, not {kind!r}")
        query_half_sq = np.asarray(query_half_sq, dtype=np.float64)
        if query_half_sq.shape != (n,):
            raise ContractViolation(
                f"query_half_sq must have shape ({n},), got {query_half_sq.shape}")
    if kind != "euclidean":
        queries, _ = normalize_rows(queries)
        codes, _ = normalize_rows(codes)
    if query_half_sq is None:
        query_half_sq = half_sq_norms(queries)

    code_half_sq = half_sq_norms(codes)
    # an infinite norm would make inf - inf = NaN entries
    if not (np.isfinite(query_half_sq).all() and np.isfinite(code_half_sq).all()):
        raise NumericFailure("non-finite half squared norm in the distance kernel")
    for lo, hi in _row_blocks(n, m):
        # a strided block could make numpy leave BLAS, and with it the bits
        block = out[lo:hi]
        np.matmul(np.ascontiguousarray(queries[lo:hi]), codes.T, out=block)
        np.subtract(query_half_sq[lo:hi, None], block, out=block)
        block += code_half_sq
        np.maximum(block, 0.0, out=block)
    return out


def assign(queries, codes, kind: str = "euclidean", *, tau: float | None = None,
           rng: np.random.Generator | None = None):
    """Per-query (code index, half squared distance to that code).

    Each of the `_row_blocks` has its distances written into one reused
    min(n, CHUNK_ROWS) x m buffer and reduced while they are still in cache,
    so no n x m array is held. With tau None the index is the nearest code,
    ties breaking toward the lowest index; otherwise it is drawn by
    `sample_code_stochastic` from the block, which consumes one uniform draw
    of `rng` per query (block by block, the same stream as one draw of n)."""
    if tau is not None:
        if rng is None:
            raise ContractViolation("stochastic sampling requires an rng")
        if tau <= 0.0:
            raise ContractViolation("stochastic sampling requires tau > 0; "
                                    "use nearest_code for the deterministic limit")
    queries = np.asarray(queries, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    n, m = queries.shape[0], codes.shape[0]
    indices = np.empty(n, dtype=np.int64)
    row_dists = np.empty(n)
    # Every piece is written to the start of a buffer sized for a whole chunk.
    # A piece-sized one would do, but glibc returns freed heap memory to the
    # system above a threshold that follows the largest buffer freed so far:
    # with 1 MB instead of 8 MB buffers, the arrays an alternating training
    # step frees were faulted in afresh at every step (batch 1024, m = 256:
    # 323k minor page faults against 8k, and 40% more time).
    buf = np.empty((min(n, CHUNK_ROWS), m))
    for lo, hi in _row_blocks(n, m):
        block = pairwise_distances_chunked(queries[lo:hi], codes, kind, out=buf[:hi - lo])
        idx = block.argmin(axis=1) if tau is None else sample_code_stochastic(block, tau, rng)
        indices[lo:hi] = idx
        row_dists[lo:hi] = block[np.arange(hi - lo), idx]
    return indices, row_dists


def nearest_code(queries, codes, kind: str = "euclidean"):
    """Per-query (index, quantized row, half squared distance).

    Ties break toward the lowest index. Under cosine_renorm the returned row is
    rescaled to the query norm; under cosine_unit_norm it has unit norm."""
    queries = np.asarray(queries, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    indices, row_dists = assign(queries, codes, kind)
    z_q = codes[indices] * quantize_row_factors(queries, codes, indices, kind)[:, None]
    return indices, z_q, row_dists


def quantize_row_factors(queries, codes, indices, kind: str) -> np.ndarray:
    """Per-row multiplier turning raw selected codes into the returned z_q rows."""
    selected = codes[np.asarray(indices, dtype=np.int64)]
    if kind == "euclidean":
        return np.ones(selected.shape[0])
    norms = np.linalg.norm(selected, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm code under cosine distance")
    if kind == "cosine_unit_norm":
        return 1.0 / norms
    if kind == "cosine_renorm":
        q_norms = np.linalg.norm(np.asarray(queries, dtype=np.float64), axis=1)
        return q_norms / norms
    raise ContractViolation(f"unknown distance kind {kind!r}")


# The sampler's block search sums the softmax weights _SAMPLE_BLOCK columns
# at a time; x @ _BLOCK_PREFIX holds the prefix sums x[:0], ..., x[:16] of a
# block's entries, in one small matmul instead of a row-wise cumulative sum.
# The search has a fixed cost and a cost per row, so on narrow or small
# blocks it is no faster than the cumulative sum it replaces. On one thread,
# blocks of 2^15 cells took 0.5-0.95 of the exact rule's time with the search
# from m = 48 up, 0.9-1.3 at m = 32 and 1.7 at m = 16; below 2^15 cells the
# fixed cost ate the gain. Blocks under either bound take the exact rule
# whole. Both are read at call time; _SEARCH_MIN_CODES >= _SAMPLE_BLOCK.
_SAMPLE_BLOCK = 16
_BLOCK_PREFIX = np.triu(np.ones((_SAMPLE_BLOCK, _SAMPLE_BLOCK + 1)), 1)
_SEARCH_MIN_CODES = 64
_SEARCH_MIN_CELLS = 1 << 15


def sample_code_stochastic(dists: np.ndarray, tau: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw one code index per row of `dists`, a block of
    `pairwise_distances_chunked`, from softmax(-d / tau) with max-subtraction
    for stability; tau > 0 (`assign` checks it). One uniform draw u per row.

    The index is defined by the exact rule, `_first_reach`: normalize the
    weights, take their cumulative sum, and pick the first code whose cdf
    reaches u (the last code if rounding leaves cdf[-1] below it). On blocks
    of at least _SEARCH_MIN_CODES codes and _SEARCH_MIN_CELLS cells, the rule
    runs only on the rows that need it.
    Every other row is placed in three steps, none of which normalizes or
    takes a cumulative sum over the whole row:

    - locate: sum the weights _SAMPLE_BLOCK columns at a time (a zero-padded
      ragged last block included) in one matvec, find the first block whose
      prefix sum reaches the target u * s (s the row's total), and take the
      prefix sums of that block's entries to find the candidate code k;
    - verify: keep k only when the approximate prefix sums through k - 1 and
      through k are below and above the target by more than
      s * (m + 2) * 2^-48, that is 32 * (m + 2) units of 2^-53 * s. The
      exact rule's cdf (a sum, a division and a cumulative sum of m
      non-negative terms) is off from the true one by at most about 2m such
      units, the search's sums (any order) by less, so the margin is at
      least 16 times either error and the exact rule's cdf reaches u at k
      and not before;
    - exact rule: every row that fails the check takes `_first_reach`: a draw
      close to a cdf value, a draw at or past the total, a row with NaN
      weights (NaN fails the comparisons).

    The index therefore equals the exact rule's by construction, whatever
    the summation order of the search."""
    # (d - min) / -tau has the bits of -(d - min) / tau: negation is exact
    buf = np.subtract(dists, dists.min(axis=1, keepdims=True))
    buf /= -tau
    np.exp(buf, out=buf)
    u = rng.random(buf.shape[0])
    n, m = buf.shape
    if m < _SEARCH_MIN_CODES or n * m < _SEARCH_MIN_CELLS:
        return _first_reach(buf, u)
    n_blocks = m // _SAMPLE_BLOCK
    full = n_blocks * _SAMPLE_BLOCK
    blocks = buf[:, :full].reshape(n, n_blocks, _SAMPLE_BLOCK)
    block_sums = blocks @ np.ones(_SAMPLE_BLOCK)
    if full < m:
        # the ragged last block, padded with zeros, which add exactly
        tail = np.zeros((n, _SAMPLE_BLOCK))
        tail[:, :m - full] = buf[:, full:]
        block_sums = np.column_stack([block_sums, tail.sum(axis=1)])
    # before[:, b] is the sum of the blocks before block b
    before = np.zeros((n, block_sums.shape[1] + 1))
    np.cumsum(block_sums, axis=1, out=before[:, 1:])
    total = before[:, -1]
    target = u * total
    margin = total * ((m + 2) * 2.0 ** -48)
    # the first block at whose end the sum reaches the target, or 0 if there
    # is none (the check then fails)
    block = (before[:, 1:] >= target[:, None]).argmax(axis=1)
    rows = np.arange(n)
    entries = blocks[rows, np.minimum(block, n_blocks - 1)]
    if full < m:
        in_tail = block == n_blocks
        entries[in_tail] = tail[in_tail]
    # the rest of the target after the blocks before, and its first crossing
    # among the prefix sums of the block's entries
    rest = target - before[rows, block]
    within = entries @ _BLOCK_PREFIX
    col = (within[:, 1:] >= rest[:, None]).argmax(axis=1)
    # NaN fails both comparisons
    ok = ((within[rows, col + 1] - rest > margin)
          & (rest - within[rows, col] > margin))
    indices = block * _SAMPLE_BLOCK + col
    if not ok.all():
        redo = ~ok
        indices[redo] = _first_reach(buf[redo], u[redo])
    return indices


def _first_reach(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sampling rule: per row, the first k whose cdf of the normalized
    `weights` (overwritten) reaches u, or the last code if none does."""
    weights /= weights.sum(axis=1, keepdims=True)
    np.cumsum(weights, axis=1, out=weights)
    # a cumulative sum of non-negative terms never decreases, so the first
    # k with cdf[k] >= u is the count of k with cdf[k] < u
    reached = weights >= u[:, None]
    indices = reached.argmax(axis=1)
    indices[~reached[:, -1]] = weights.shape[1] - 1
    return indices

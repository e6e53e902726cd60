"""Codebook storage and query layer: distances, code assignment (nearest or
stochastic), grouped views, and binary serialization."""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, read_json, write_json
from .errors import (NONNEG, REAL, ContractViolation, DegenerateInput, NumericFailure,
                     check_kinds, is_int, list_of, strict_keys)

DISTANCE_KINDS = ("euclidean", "cosine_unit_norm", "cosine_renorm")

_MAGIC = b"VQKB"
_VERSION = 1
# the arrays the strict-JSON sidecar holds, beside the binary codes and affine
# vectors, each a list of its values' kind: a step fits an int64
_SIDECAR_KINDS = {
    "last_used": list_of(("an integer in [0, 2^63)", lambda v: is_int(v) and 0 <= v < 2 ** 63)),
    "ema_mean_e": list_of(REAL), "ema_var_e": list_of(NONNEG),
    "ema_mean_q": list_of(REAL), "ema_var_q": list_of(NONNEG),
}


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

    def affine(self, mode: str = "off", lr_scale: float = 1.0):
        """Per-dimension (a, b) with effective codes a * codes + b: the
        identity when off; 1 + lr_scale * affine_scale and lr_scale *
        affine_bias when learnable; for ema, the map matching the codebook
        moments to the embedding moments (each sigma floored at 1e-8)."""
        if mode == "off":
            return np.ones(self.d), np.zeros(self.d)
        if mode == "learnable":
            return 1.0 + lr_scale * self.affine_scale, lr_scale * self.affine_bias
        if mode == "ema":
            sigma_e = np.maximum(np.sqrt(self.ema_var_e), 1e-8)
            a = sigma_e / np.maximum(np.sqrt(self.ema_var_q), 1e-8)
            return a, self.ema_mean_e - a * self.ema_mean_q
        raise ContractViolation(f"unknown affine mode {mode!r}")

    def effective_codes(self, affine_mode: str = "off", lr_scale: float = 1.0) -> np.ndarray:
        a, b = self.affine(affine_mode, lr_scale)
        return a * self.codes + b

    def mark_used(self, indices, step: int) -> None:
        self.last_used[np.asarray(indices, dtype=np.int64)] = step

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        """Write `path` (`VQKB` binary) after its strict-JSON sidecar `path` +
        ".json", so a non-finite moment fails before either file is written."""
        path = Path(path)
        write_json(Path(str(path) + ".json"),
                   {key: getattr(self, key).tolist() for key in _SIDECAR_KINDS})
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
        m x d finite codes plus the two finite affine vectors, a sidecar that
        `read_json` rejects, or a sidecar whose keys or values fail
        `_SIDECAR_KINDS` or whose arrays have the wrong length raises
        ContractViolation."""
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
        if not np.isfinite(values).all():
            raise ContractViolation("codebook payload holds a non-finite value")
        cb = cls(values[:m * d].reshape(m, d))
        cb.affine_scale = values[m * d:m * d + d].copy()
        cb.affine_bias = values[m * d + d:].copy()
        sidecar_path = Path(str(path) + ".json")
        if sidecar_path.exists():
            try:
                sidecar = read_json(sidecar_path)
            except ValueError as exc:
                raise ContractViolation(f"bad codebook sidecar: {exc}") from exc
            # the "counts" key that older sidecars carry is ignored
            strict_keys(sidecar, {*_SIDECAR_KINDS, "counts"}, "codebook sidecar",
                        required=_SIDECAR_KINDS)
            check_kinds(sidecar, _SIDECAR_KINDS, "codebook sidecar")
            for key in _SIDECAR_KINDS:
                # a fresh codebook's array has the length and dtype the file must give
                fresh = getattr(cb, key)
                if len(sidecar[key]) != len(fresh):
                    raise ContractViolation(f"codebook sidecar.{key} must have {len(fresh)} "
                                            f"values, got {len(sidecar[key])}")
                setattr(cb, key, np.array(sidecar[key], dtype=fresh.dtype))
        return cb


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Return the unit rows of `x`. Zero-norm rows are degenerate under cosine,
    and a norm that is not finite is a NumericFailure."""
    norms = np.linalg.norm(x, axis=1)
    if not np.isfinite(norms).all():
        raise NumericFailure("non-finite norm under cosine distance")
    if np.any(norms == 0.0):
        raise DegenerateInput("zero-norm vector under cosine distance")
    return x / norms[:, None]


# Queries are taken CHUNK_ROWS rows at a time. A chunk is cut by rows into
# pieces of at least PIECE_CELLS cells when it holds two or more, so that
# each piece's passes (the clip and, in `assign`, the argmin or the
# sampling) find the product's block in the core's cache instead of in
# memory. Every cut is a multiple of PIECE_ALIGN rows from the chunk
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
                               query_half_sq: np.ndarray | None = None,
                               code_half_sq: np.ndarray | None = None,
                               clip: bool = True) -> np.ndarray:
    """n x m matrix of half squared distances, computed over `_row_blocks`.

    euclidean: (i,j) = 0.5 * ||q_i - c_j||^2
    cosine:    (i,j) = 0.5 * ||q_i/||q_i|| - c_j/||c_j||||^2

    Each entry is max(0, (h_q - q.c) + h_c) with h = 0.5 * ||.||^2, which
    outside the subnormal and overflow ranges (halving is exact) has the
    bits of 0.5 * ((||q||^2 - (2q).c) + ||c||^2). A row piece is one matrix
    product, [q | h_q | 1] @ [-c | 1 | h_c]^T, written into its block of the
    result, then the clip; the codes' operand is built once per call and
    the queries' in one piece-sized buffer, so no block-sized temporary is
    made. BLAS's GEMM kernel adds an entry's d + 2 terms in order, which
    gives the bits of the matmul q.c followed by the passes h_q - q.c and
    + h_c (negating c is exact). A one-row piece or a single code makes
    numpy hand BLAS a vector, and gemv keeps no such order, so that block
    takes the matmul and the two passes. Where an OpenBLAS edge kernel
    orders the terms otherwise (some ragged code counts, d of 32 or more),
    an entry is within 2 (d + 2) 2^-53 (h_q + |q|.|c| + h_c) of the passes'.

    The result is written into `out` when given (an n x m float64 array,
    such as a block buffer the caller reuses) and returned. `query_half_sq`
    and `code_half_sq` (euclidean only) are `half_sq_norms` of the queries
    and of the codes, for a caller that queries the same rows or codes many
    times. With clip False the entries stay (h_q - q.c) + h_c, negative
    where rounding takes a query on a code below 0, for `assign` to clip
    during its reduction. A query or code half squared norm that is not
    finite is a NumericFailure."""
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
    query_half_sq = _given_half_sq("query_half_sq", query_half_sq, n, kind)
    code_half_sq = _given_half_sq("code_half_sq", code_half_sq, m, kind)
    if kind != "euclidean":
        queries = normalize_rows(queries)
        codes = normalize_rows(codes)
    if query_half_sq is None:
        query_half_sq = half_sq_norms(queries)
    if code_half_sq is None:
        code_half_sq = half_sq_norms(codes)
    # an infinite norm would make inf - inf = NaN entries
    if not (np.isfinite(query_half_sq).all() and np.isfinite(code_half_sq).all()):
        raise NumericFailure("non-finite half squared norm in the distance kernel")
    blocks = _row_blocks(n, m)
    d = codes.shape[1]
    if m != 1:
        code_side = np.empty((m, d + 2))
        np.negative(codes, out=code_side[:, :d])
        code_side[:, d] = 1.0
        code_side[:, d + 1] = code_half_sq
        query_side = np.empty((max((hi - lo for lo, hi in blocks), default=0), d + 2))
        query_side[:, d + 1] = 1.0
    for lo, hi in blocks:
        block = out[lo:hi]
        if m == 1 or hi - lo == 1:
            # numpy hands BLAS a vector, and gemv keeps no term order: the
            # matmul and two passes (a strided block could make numpy leave
            # BLAS, and with it the bits)
            np.matmul(np.ascontiguousarray(queries[lo:hi]), codes.T, out=block)
            np.subtract(query_half_sq[lo:hi, None], block, out=block)
            block += code_half_sq
        else:
            operand = query_side[:hi - lo]
            operand[:, :d] = queries[lo:hi]
            operand[:, d] = query_half_sq[lo:hi]
            np.matmul(operand, code_side.T, out=block)
        if clip:
            np.maximum(block, 0.0, out=block)
    return out


def _given_half_sq(name: str, half_sq, rows: int, kind: str) -> np.ndarray | None:
    """A caller's `half_sq_norms` argument, checked to be euclidean and one
    value per row."""
    if half_sq is None:
        return None
    if kind != "euclidean":
        raise ContractViolation(f"{name} applies to euclidean distances, not {kind!r}")
    half_sq = np.asarray(half_sq, dtype=np.float64)
    if half_sq.shape != (rows,):
        raise ContractViolation(f"{name} must have shape ({rows},), got {half_sq.shape}")
    return half_sq


def assign(queries, codes, kind: str = "euclidean", *, tau: float | None = None,
           rng: np.random.Generator | None = None,
           query_half_sq: np.ndarray | None = None):
    """Per-query (code index, half squared distance to that code).

    Each of the `_row_blocks` has its distances written by one kernel call
    (one matrix product, or the matmul and two passes on a one-row piece or
    a single code) into one reused min(n, CHUNK_ROWS) x m buffer and
    reduced while they are still in cache, so no n x m array is held. The
    kernel leaves them unclipped and the reduction clips, with the clipped
    block's result. With tau None the index is the nearest code, ties
    breaking toward the lowest index; only a row whose minimum is not > 0
    can change under the clip, so only such a row is reduced again,
    clipped. Otherwise it is drawn by `sample_code_stochastic` from the
    block, which consumes one uniform draw of `rng` per query (block by
    block, the same stream as one draw of n).
    Euclidean codes' norms are taken once per call, the queries' per piece
    unless `query_half_sq` (euclidean, `half_sq_norms(queries)`) gives them;
    under cosine the kernel normalizes each piece and the codes, so with no
    query rows the codes are not checked."""
    if tau is not None:
        if rng is None:
            raise ContractViolation("stochastic sampling requires an rng")
        if tau <= 0.0:
            raise ContractViolation("stochastic sampling requires tau > 0; "
                                    "use nearest_code for the deterministic limit")
    queries = np.asarray(queries, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.float64)
    n, m = queries.shape[0], codes.shape[0]
    if kind not in DISTANCE_KINDS:
        raise ContractViolation(f"unknown distance kind {kind!r}")
    query_half_sq = _given_half_sq("query_half_sq", query_half_sq, n, kind)
    code_half_sq = half_sq_norms(codes) if kind == "euclidean" else None
    # Every piece is written to the start of a buffer sized for a whole chunk.
    # A piece-sized one would do, but glibc returns freed heap memory to the
    # system above a threshold that follows the largest buffer freed so far:
    # with 1 MB instead of 8 MB buffers, the arrays an alternating training
    # step frees were faulted in afresh at every step (batch 1024, m = 256:
    # 323k minor page faults against 8k, and 40% more time).
    buf = np.empty((min(n, CHUNK_ROWS), m))
    indices = np.empty(n, dtype=np.int64)
    row_dists = np.empty(n)
    for lo, hi in _row_blocks(n, m):
        block = pairwise_distances_chunked(
            queries[lo:hi], codes, kind, out=buf[:hi - lo], clip=False,
            code_half_sq=code_half_sq,
            query_half_sq=None if query_half_sq is None else query_half_sq[lo:hi])
        rows = np.arange(hi - lo)
        if tau is None:
            idx = block.argmin(axis=1)
            # a row whose minimum is > 0 has no entry the clip would change
            redo = ~(block[rows, idx] > 0.0)
            if redo.any():
                idx[redo] = np.maximum(block[redo], 0.0).argmin(axis=1)
        else:
            idx = sample_code_stochastic(block, tau, rng)
        indices[lo:hi] = idx
        row_dists[lo:hi] = block[rows, idx]
    np.maximum(row_dists, 0.0, out=row_dists)
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
# whole. Both are read at call time.
_SAMPLE_BLOCK = 16
_BLOCK_PREFIX = np.triu(np.ones((_SAMPLE_BLOCK, _SAMPLE_BLOCK + 1)), 1)
_SEARCH_MIN_CODES = 64
_SEARCH_MIN_CELLS = 1 << 15


def sample_code_stochastic(dists: np.ndarray, tau: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw one code index per row of `dists`, a block of
    `pairwise_distances_chunked`, from softmax(-d / tau) with max-subtraction
    for stability; tau > 0 (`assign` checks it). One uniform draw u per row.
    A row of an unclipped block whose minimum is not >= 0 (negative or NaN)
    is clipped to max(d, 0) in place first, so the draws are those of the
    clipped block.

    The index is defined by the exact rule, `_first_reach`: normalize the
    weights, take their cumulative sum, and pick the first code whose cdf
    reaches u (the last code if rounding leaves cdf[-1] below it). On blocks
    of at least _SEARCH_MIN_CODES codes and _SEARCH_MIN_CELLS cells, the rule
    runs only on the rows that need it.
    Every other row is placed in three steps, none of which normalizes or
    takes a cumulative sum over the whole row:

    - locate: sum the weights _SAMPLE_BLOCK columns at a time (the last
      block zero-padded to full width) in one matvec, find the first block whose
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
    mins = dists.min(axis=1, keepdims=True)
    clip = ~(mins[:, 0] >= 0.0)
    if clip.any():
        dists[clip] = np.maximum(dists[clip], 0.0)
        mins[clip] = dists[clip].min(axis=1, keepdims=True)
    # the weights, in a buffer zero-padded to whole blocks (the zeros add
    # exactly); (d - min) / -tau has the bits of -(d - min) / tau: negation is exact
    n, m = dists.shape
    n_blocks = -(-m // _SAMPLE_BLOCK)
    buf = np.empty((n, n_blocks * _SAMPLE_BLOCK))
    buf[:, m:] = 0.0
    weights = np.subtract(dists, mins, out=buf[:, :m])
    weights /= -tau
    np.exp(weights, out=weights)
    u = rng.random(n)
    if m < _SEARCH_MIN_CODES or n * m < _SEARCH_MIN_CELLS:
        return _first_reach(weights, u)
    blocks = buf.reshape(n, n_blocks, _SAMPLE_BLOCK)
    # before[:, b] is the sum of the blocks before block b
    before = np.zeros((n, n_blocks + 1))
    np.cumsum(blocks @ np.ones(_SAMPLE_BLOCK), axis=1, out=before[:, 1:])
    total = before[:, -1]
    target = u * total
    margin = total * ((m + 2) * 2.0 ** -48)
    # the first block at whose end the sum reaches the target, or 0 if there
    # is none (the check then fails)
    block = (before[:, 1:] >= target[:, None]).argmax(axis=1)
    rows = np.arange(n)
    entries = blocks[rows, block]
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
        indices[redo] = _first_reach(weights[redo], u[redo])
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

"""Minimal reverse-mode differentiation over dense 2-D float64 matrices.

A ``Tape`` records a topologically ordered list of nodes and stores values
only. ``vjp`` pulls a cotangent back from any node to any nodes in one reverse
walk and returns their gradients; ``backward`` is ``vjp`` from a 1x1 loss with
cotangent 1. A node the output does not reach gets None. Gradients accumulate
additively across fan-out; the tape keeps none of them, so it answers any
number of pull-backs, and the caller builds a fresh tape per optimization step.

Finiteness contract: a non-finite forward value raises ``NumericFailure`` when
its node is recorded, and a non-finite gradient before ``backward`` or ``vjp``
returns, naming the same first node as a test of every node would. Values are
tested at every leaf and op except ``reshape``, ``gather_rows``,
``slice_rows``, ``straight_through``, ``stop_gradient``, ``tanh`` and
``relu``, which copy, select or squash entries already tested. A reverse walk
tests all its gradients in one call after it ends; when that test fails, it
tests them in walk order and raises at the first non-finite one, whose
gradient and those before it are the ones a walk that stops there computes.
``training.SGD.step`` tests all of the optimizer's gradients in one call and
names the first non-finite one. The checks assume numpy's default or
``ignore`` floating-point error state (the CLI sets ``ignore``): since a walk
tests after it ends, an op that meets a non-finite gradient may warn first,
or under a ``raise`` state raise ``FloatingPointError`` instead of
``NumericFailure``.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ContractViolation, NumericFailure


_add_reduce = np.add.reduce


def _finite(a) -> bool:
    """Exactly ``np.isfinite(a).all()``, under any numpy error state: a finite
    sum proves every entry finite, and only a sum that is not finite (a
    non-finite entry, or finite entries whose sum overflows) or that numpy
    raises on takes the entrywise test."""
    try:
        if math.isfinite(_add_reduce(a, axis=None)):
            return True
    except FloatingPointError:
        pass
    return bool(np.isfinite(a).all())


def as_matrix(value) -> np.ndarray:
    """Coerce to a 2-D float64 array. 1-D input becomes a single row."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ContractViolation(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def scatter_add_rows(indices, rows, m: int) -> np.ndarray:
    """m x d sums of the n x d `rows` by index: out[k] is the sum of the rows i
    with indices[i] == k, added in row order starting from 0.0 (the bits of an
    unbuffered scatter-add into zeros). One bincount over the flat index
    indices * d + column."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    flat = np.asarray(indices, dtype=np.int64)[:, None] * d + np.arange(d)
    sums = np.bincount(flat.ravel(), weights=rows.ravel(), minlength=m * d)
    # bincount of an empty index array is int64 even with weights
    return sums.astype(np.float64, copy=False).reshape(m, d)


class Node:
    __slots__ = ("idx", "value", "parents", "grad_fn", "name")

    def __init__(self, idx, value, parents, grad_fn, name=None):
        self.idx = idx
        self.value = value
        self.parents = parents
        self.grad_fn = grad_fn
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"<Node {self.idx} {self.name or 'node'} {self.value.shape}>"


class Tape:
    """Computation-graph record of values; every pull-back returns its gradients."""

    def __init__(self):
        self.nodes: list[Node] = []

    # -- graph construction ------------------------------------------------

    def leaf(self, value, name: str | None = None) -> Node:
        return self._record(as_matrix(value).copy(), [], None, name=name)

    def _record(self, value, parents, grad_fn, name=None, check=True) -> Node:
        """Append a node. ``check=False`` is for values that only copy,
        select or squash entries of recorded (hence finite) nodes."""
        node = Node(len(self.nodes), value, parents, grad_fn, name)
        if check and not _finite(value):
            raise NumericFailure(f"non-finite forward value at node {node.idx} ({name or 'op'})")
        self.nodes.append(node)
        return node

    # -- primitives ---------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        if a.shape[1] != b.shape[0]:
            raise ContractViolation(f"matmul shape mismatch {a.shape} x {b.shape}")
        out = a.value @ b.value

        def grad_fn(g):
            return [g @ b.value.T, a.value.T @ g]

        return self._record(out, [a, b], grad_fn, name="matmul")

    def add(self, a: Node, b: Node) -> Node:
        """Elementwise add. ``b`` may be a 1xC bias row broadcast over rows of ``a``."""
        if a.shape == b.shape:
            def grad_fn(g):
                return [g, g]
        elif b.shape == (1, a.shape[1]):
            def grad_fn(g):
                return [g, g.sum(axis=0, keepdims=True)]
        else:
            raise ContractViolation(f"add shape mismatch {a.shape} + {b.shape}")
        return self._record(a.value + b.value, [a, b], grad_fn, name="add")

    def sub(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ContractViolation(f"sub shape mismatch {a.shape} - {b.shape}")
        return self._record(a.value - b.value, [a, b], lambda g: [g, -g], name="sub")

    def mul(self, a: Node, b: Node) -> Node:
        if a.shape != b.shape:
            raise ContractViolation(f"mul shape mismatch {a.shape} * {b.shape}")
        return self._record(a.value * b.value, [a, b],
                            lambda g: [g * b.value, g * a.value], name="mul")

    def scale(self, a: Node, s: float) -> Node:
        s = float(s)
        return self._record(a.value * s, [a], lambda g: [g * s], name="scale")

    def tanh(self, a: Node) -> Node:
        out = np.tanh(a.value)
        return self._record(out, [a], lambda g: [g * (1.0 - out * out)], name="tanh",
                            check=False)

    def relu(self, a: Node) -> Node:
        out = np.maximum(a.value, 0.0)
        # subgradient at 0 is 0
        mask = (a.value > 0.0).astype(np.float64)
        return self._record(out, [a], lambda g: [g * mask], name="relu", check=False)

    def sum(self, a: Node) -> Node:
        out = np.array([[a.value.sum()]])
        return self._record(out, [a], lambda g: [np.full_like(a.value, g[0, 0])], name="sum")

    def mse(self, a: Node, b: Node) -> Node:
        """Mean over rows of the half squared distance: (0.5/rows) * sum((a-b)^2)."""
        if a.shape != b.shape:
            raise ContractViolation(f"mse shape mismatch {a.shape} vs {b.shape}")
        diff = a.value - b.value
        rows = a.shape[0]
        out = np.array([[0.5 * float((diff * diff).sum()) / rows]])

        def grad_fn(g):
            scaled = (g[0, 0] / rows) * diff
            return [scaled, -scaled]

        return self._record(out, [a, b], grad_fn, name="mse")

    def stop_gradient(self, a: Node) -> Node:
        return self._record(a.value.copy(), [a], lambda g: [None], name="stop_gradient",
                            check=False)

    def straight_through(self, z_e: Node, z_q: Node, nu: float = 0.0) -> Node:
        """Forward equals z_q bit-exactly; backward routes the upstream gradient to
        z_e with factor 1 and to z_q with factor nu."""
        if z_e.shape != z_q.shape:
            raise ContractViolation(f"straight_through shape mismatch {z_e.shape} vs {z_q.shape}")
        nu = float(nu)
        if nu < 0.0:
            raise ContractViolation("straight_through requires nu >= 0")

        def grad_fn(g):
            return [g, g * nu if nu != 0.0 else None]

        return self._record(z_q.value.copy(), [z_e, z_q], grad_fn, name="straight_through",
                            check=False)

    def commitment(self, z_e: Node, z_q: Node, alpha: float, beta: float) -> Node:
        """alpha * [(1-beta) * d(z_e, sg(z_q)) + beta * d(sg(z_e), z_q)], d the mean
        over rows of the half squared distance: z_e gets the (1-beta) share of the
        gradient, z_q the beta share. Value and gradients have the bits of this
        composite of mse, stop_gradient, scale and add."""
        if z_e.shape != z_q.shape:
            raise ContractViolation(f"commitment shape mismatch {z_e.shape} vs {z_q.shape}")
        alpha, beta = float(alpha), float(beta)
        diff = z_e.value - z_q.value
        rows = z_e.shape[0]
        d = 0.5 * float((diff * diff).sum()) / rows
        out = np.array([[(d * (1.0 - beta) + d * beta) * alpha]])

        def grad_fn(g):
            g_alpha = g[0, 0] * alpha
            return [(g_alpha * (1.0 - beta) / rows) * diff, -((g_alpha * beta / rows) * diff)]

        return self._record(out, [z_e, z_q], grad_fn, name="commitment")

    def gather_rows(self, a: Node, indices) -> Node:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ContractViolation("gather_rows expects a 1-D index array")
        if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
            raise ContractViolation("gather_rows index out of range")
        out = a.value[idx]

        def grad_fn(g):
            return [scatter_add_rows(idx, g, a.shape[0])]

        return self._record(out, [a], grad_fn, name="gather_rows", check=False)

    def slice_rows(self, a: Node, start: int, stop: int) -> Node:
        if not (0 <= start <= stop <= a.shape[0]):
            raise ContractViolation("slice_rows out of range")
        out = a.value[start:stop].copy()

        def grad_fn(g):
            acc = np.zeros_like(a.value)
            acc[start:stop] = g
            return [acc]

        return self._record(out, [a], grad_fn, name="slice_rows", check=False)

    def reshape(self, a: Node, rows: int, cols: int) -> Node:
        if rows * cols != a.value.size:
            raise ContractViolation(f"reshape {a.shape} -> ({rows},{cols}) size mismatch")
        shape = a.shape
        return self._record(a.value.reshape(rows, cols).copy(), [a],
                            lambda g: [g.reshape(shape)], name="reshape", check=False)

    def row_scale(self, a: Node, factors) -> Node:
        """Multiply each row by a per-row constant. The factors carry no gradient."""
        f = np.asarray(factors, dtype=np.float64).reshape(-1, 1)
        if f.shape[0] != a.shape[0]:
            raise ContractViolation("row_scale factor length mismatch")
        return self._record(a.value * f, [a], lambda g: [g * f], name="row_scale")

    def affine_rows(self, codes: Node, scale_row: Node, bias_row: Node,
                    lr_scale: float = 1.0) -> Node:
        """Shared affine reparameterization of all codebook rows:
        out = (1 + lr_scale * scale_row) * codes + lr_scale * bias_row."""
        d = codes.shape[1]
        if scale_row.shape != (1, d) or bias_row.shape != (1, d):
            raise ContractViolation("affine_rows expects 1xd scale and bias rows")
        ls = float(lr_scale)
        eff_scale = 1.0 + ls * scale_row.value
        out = eff_scale * codes.value + ls * bias_row.value

        def grad_fn(g):
            return [g * eff_scale,
                    ls * (g * codes.value).sum(axis=0, keepdims=True),
                    ls * g.sum(axis=0, keepdims=True)]

        return self._record(out, [codes, scale_row, bias_row], grad_fn, name="affine_rows")

    # -- pull-backs ---------------------------------------------------------

    def backward(self, loss: Node, wrt) -> list[Optional[np.ndarray]]:
        """The gradient of the 1x1 ``loss`` for each node of ``wrt``:
        ``vjp(loss, [[1]], wrt)``."""
        if loss.shape != (1, 1):
            raise ContractViolation(f"loss must be a 1x1 scalar, got {loss.shape}")
        return self.vjp(loss, np.ones((1, 1)), wrt)

    def vjp(self, output: Node, cotangent, wrt) -> list[Optional[np.ndarray]]:
        """Pull ``cotangent`` back from ``output`` to each node of ``wrt``
        (leaves or intermediates): the one reverse walk, over the nodes from
        the first of ``wrt`` to ``output``, each gradient fully accumulated
        over fan-out. A node ``output`` does not reach gets None. Tests all
        the gradients the walk computes in one call and, if one is not
        finite, raises at the first in walk order."""
        wrt = list(wrt)
        if not wrt:
            raise ContractViolation("vjp needs at least one node to differentiate against")
        for node in [output, *wrt]:
            if node.idx >= len(self.nodes) or self.nodes[node.idx] is not node:
                raise ContractViolation(f"{node!r} is not recorded on this tape")
        cotangent = np.asarray(cotangent, dtype=np.float64)
        if cotangent.shape != output.shape:
            raise ContractViolation(
                f"cotangent shape {cotangent.shape} does not match output {output.shape}")
        wanted = {node.idx: None for node in wrt}
        pending: dict[int, np.ndarray] = {output.idx: cotangent}
        reached = []
        for node in reversed(self.nodes[min(output.idx, *wanted): output.idx + 1]):
            g = pending.pop(node.idx, None)
            if g is None:
                continue
            reached.append((node, g))
            if node.idx in wanted:
                wanted[node.idx] = g
            if node.grad_fn is None:
                continue
            for parent, pg in zip(node.parents, node.grad_fn(g)):
                if pg is None:
                    continue
                if parent.idx in pending:
                    pending[parent.idx] = pending[parent.idx] + pg
                else:
                    pending[parent.idx] = pg
        if not _finite(np.concatenate([g.ravel() for _, g in reached])):
            for node, g in reached:
                if not _finite(g):
                    raise NumericFailure(f"non-finite gradient at node {node.idx} ({node.name})")
        return [wanted[node.idx] for node in wrt]

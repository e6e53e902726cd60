"""Gradient checks for the tape engine against central finite differences,
and its finiteness checks against a test of every node."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vqkit.autodiff as autodiff_mod
from finite_differences import finite_difference_gradient
from vqkit import (
    ContractViolation,
    NumericFailure,
    Tape,
    as_matrix,
)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def check_grad(build, theta, h=1e-5, tol=1e-6):
    """build(tape, theta_node) -> scalar loss node; compares the tape gradient
    of theta against finite differences."""
    tape = Tape()
    node = tape.leaf(theta, param=True)
    loss = build(tape, node)
    # the non-destructive pull-back must agree bit for bit with backward
    [pulled] = tape.vjp(loss, np.ones((1, 1)), [node])
    assert node.grad is None
    tape.backward(loss)
    assert np.array_equal(pulled, node.grad)

    def f(th):
        t2 = Tape()
        return float(build(t2, t2.leaf(th, param=True)).value[0, 0])

    fd = finite_difference_gradient(f, theta.copy(), h=h)
    assert node.grad is not None
    assert rel_err(node.grad, fd) <= tol


def test_as_matrix_promotes_vectors():
    m = as_matrix([1.0, 2.0, 3.0])
    assert m.shape == (1, 3)
    with pytest.raises(ContractViolation):
        as_matrix(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("seed", range(10))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    check_grad(lambda t, n: t.sum(t.matmul(n, t.leaf(b))), a)
    check_grad(lambda t, n: t.sum(t.matmul(t.leaf(a), n)), b)


@pytest.mark.parametrize("seed", range(5))
def test_elementwise_grads(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 4))
    check_grad(lambda t, n: t.sum(t.add(n, t.leaf(y))), x)
    check_grad(lambda t, n: t.sum(t.sub(n, t.leaf(y))), x)
    check_grad(lambda t, n: t.sum(t.mul(n, t.leaf(y))), x)
    check_grad(lambda t, n: t.sum(t.scale(n, -2.5)), x)
    check_grad(lambda t, n: t.sum(t.tanh(n)), x)
    # keep activations away from the relu kink so finite differences are clean
    check_grad(lambda t, n: t.sum(t.relu(n)), x + np.sign(x) * 0.1)


def test_bias_broadcast_add_grad():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 3))
    b = rng.standard_normal((1, 3))
    check_grad(lambda t, n: t.sum(t.add(t.leaf(x), n)), b)


@pytest.mark.parametrize("seed", range(5))
def test_mse_grad_and_value(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((5, 3))
    tape = Tape()
    out = tape.mse(tape.leaf(a), tape.leaf(b))
    expected = 0.5 * ((a - b) ** 2).sum() / 5
    assert abs(out.value[0, 0] - expected) < 1e-14
    check_grad(lambda t, n: t.mse(n, t.leaf(b)), a)


def test_gather_slice_reshape_grads():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 4))
    idx = np.array([0, 2, 2, 5, 1])
    check_grad(lambda t, n: t.sum(t.gather_rows(n, idx)), x)
    check_grad(lambda t, n: t.sum(t.slice_rows(n, 1, 4)), x)
    check_grad(lambda t, n: t.sum(t.reshape(n, 3, 8)), x)
    check_grad(lambda t, n: t.sum(t.row_scale(n, np.arange(1.0, 7.0))), x)


def test_affine_rows_grads():
    rng = np.random.default_rng(13)
    codes = rng.standard_normal((5, 3))
    scale = rng.standard_normal((1, 3))
    bias = rng.standard_normal((1, 3))
    for ls in (1.0, 0.25):
        check_grad(lambda t, n, ls=ls: t.sum(
            t.affine_rows(n, t.leaf(scale), t.leaf(bias), ls)), codes)
        check_grad(lambda t, n, ls=ls: t.sum(
            t.affine_rows(t.leaf(codes), n, t.leaf(bias), ls)), scale)
        check_grad(lambda t, n, ls=ls: t.sum(
            t.affine_rows(t.leaf(codes), t.leaf(scale), n, ls)), bias)


def test_fanout_accumulates():
    # y = x used twice: d(sum(x + x))/dx = 2
    x = np.ones((2, 2))
    tape = Tape()
    n = tape.leaf(x, param=True)
    tape.backward(tape.sum(tape.add(n, n)))
    assert np.allclose(n.grad, 2.0)


def test_stop_gradient_blocks():
    x = np.ones((2, 2))
    tape = Tape()
    n = tape.leaf(x, param=True)
    tape.backward(tape.sum(tape.stop_gradient(n)))
    assert n.grad is None


def test_straight_through_forward_is_zq_bit_exact():
    rng = np.random.default_rng(3)
    z_e, z_q = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    tape = Tape()
    out = tape.straight_through(tape.leaf(z_e), tape.leaf(z_q), 0.7)
    assert np.array_equal(out.value, z_q)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
def test_straight_through_routing(nu):
    rng = np.random.default_rng(5)
    z_e, z_q = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    g = rng.standard_normal((4, 2))
    tape = Tape()
    e = tape.leaf(z_e, param=True)
    q = tape.leaf(z_q, param=True)
    st = tape.straight_through(e, q, nu)
    tape.backward(tape.sum(tape.mul(st, tape.leaf(g))))
    assert np.allclose(e.grad, g)
    if nu == 0.0:
        assert q.grad is None
    else:
        assert np.allclose(q.grad, nu * g)


def commitment_composite(tape, z_e, z_q, alpha, beta):
    """The commitment loss as eight primitive nodes: two stop-gradients, two
    mse, three scales and an add."""
    encoder_term = tape.mse(z_e, tape.stop_gradient(z_q))
    codebook_term = tape.mse(tape.stop_gradient(z_e), z_q)
    mix = tape.add(tape.scale(encoder_term, 1.0 - beta), tape.scale(codebook_term, beta))
    return tape.scale(mix, alpha)


@pytest.mark.parametrize("seed", range(3))
def test_commitment_grads(seed):
    # each input gets the whole gradient of the value when the other input's
    # share is zero: z_e at beta = 0, z_q at beta = 1
    rng = np.random.default_rng(seed)
    z_e, z_q = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    for alpha in (0.5, 5.0):
        check_grad(lambda t, n, a=alpha: t.commitment(n, t.leaf(z_q), a, 0.0), z_e)
        check_grad(lambda t, n, a=alpha: t.commitment(t.leaf(z_e), n, a, 1.0), z_q)
    tape = Tape()
    with pytest.raises(ContractViolation):
        tape.commitment(tape.leaf(z_e), tape.leaf(z_q[:4]), 1.0, 0.5)


def test_commitment_bit_equals_the_composite():
    """Value and both gradients of the one node have the bits of the
    composite, for a unit and a random cotangent."""
    rng = np.random.default_rng(17)
    for rows, cols in [(1, 1), (1, 4), (3, 2), (12, 3), (64, 8), (257, 5)]:
        z_e, z_q = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
        for alpha in (0.3, 1.0, 5.0, 7.7):
            for beta in (0.0, 0.25, 0.9, 1.0):
                cotangent = rng.standard_normal((1, 1))
                results = []
                for build in (Tape.commitment, commitment_composite):
                    tape = Tape()
                    e, q = tape.leaf(z_e, param=True), tape.leaf(z_q, param=True)
                    loss = build(tape, e, q, alpha, beta)
                    pulled = tape.vjp(loss, cotangent, [e, q])
                    tape.backward(loss)
                    results.append([loss.value, e.grad, q.grad, *pulled])
                for one, composite in zip(*results):
                    assert np.array_equal(one, composite)
                    assert np.array_equal(np.signbit(one), np.signbit(composite))


def test_second_backward_rejected():
    tape = Tape()
    n = tape.leaf(np.ones((1, 1)), param=True)
    loss = tape.sum(n)
    tape.backward(loss)
    with pytest.raises(ContractViolation):
        tape.backward(loss)


def test_non_scalar_loss_rejected():
    tape = Tape()
    n = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        tape.backward(n)


def test_nonfinite_forward_raises():
    tape = Tape()
    a = tape.leaf([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericFailure):
        tape.mul(a, a)


def test_finite_difference_requires_positive_h():
    with pytest.raises(ContractViolation):
        finite_difference_gradient(lambda x: 0.0, np.zeros(2), h=0.0)


def test_full_mlp_loss_matches_fd():
    # end-to-end: two-layer tanh network, every parameter checked at once
    from vqkit import MLPAutoencoder

    rng = np.random.default_rng(21)
    model = MLPAutoencoder(d_in=6, hidden=5, d_code=3, rng=rng)
    x = rng.standard_normal((8, 6))

    def loss_with(params):
        tape = Tape()
        saved = dict(model.params)
        model.params.update(params)
        nodes = model.make_nodes(tape)
        z = model.encode(tape, tape.leaf(x), nodes)
        y = model.decode(tape, z, nodes)
        out = tape.mse(y, tape.leaf(x))
        model.params.update(saved)
        return tape, nodes, out

    tape, nodes, out = loss_with(model.params)
    pulled = tape.vjp(out, np.ones((1, 1)), list(nodes.values()))
    tape.backward(out)
    for node, g in zip(nodes.values(), pulled):
        assert np.array_equal(g, node.grad), node.name
    for name, theta in model.params.items():
        def f(th, name=name):
            params = dict(model.params)
            params[name] = th
            _, _, o = loss_with(params)
            return float(o.value[0, 0])

        fd = finite_difference_gradient(f, theta.copy())
        assert rel_err(nodes[name].grad, fd) <= 1e-6, name


# -- vjp ------------------------------------------------------------------------

def mlp_tape(seed=31):
    from vqkit import MLPAutoencoder

    rng = np.random.default_rng(seed)
    model = MLPAutoencoder(d_in=6, hidden=5, d_code=3, rng=rng)
    tape = Tape()
    nodes = model.make_nodes(tape)
    x = tape.leaf(rng.standard_normal((8, 6)))
    z = model.encode(tape, x, nodes)
    loss = tape.mse(model.decode(tape, z, nodes), x)
    return tape, nodes, z, loss


def test_vjp_writes_no_grads_and_repeats_before_backward():
    tape, nodes, z, loss = mlp_tape()
    params = list(nodes.values())
    first = tape.vjp(loss, np.ones((1, 1)), params)
    second = tape.vjp(loss, np.ones((1, 1)), params)
    tape.vjp(loss, np.ones((1, 1)), [z])
    assert all(node.grad is None for node in tape.nodes)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    tape.backward(loss)  # the tape is still open
    for node, g in zip(params, first):
        assert np.array_equal(node.grad, g)


def test_vjp_through_intermediate_nodes():
    # z is a non-leaf: the gradient at z, pulled back through the encoder,
    # is the encoder parameters' gradient (the chain rule in two halves)
    tape, nodes, z, loss = mlp_tape(32)
    enc = [nodes[name] for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2")]
    [u] = tape.vjp(loss, np.ones((1, 1)), [z])
    halves = tape.vjp(z, u, enc)
    whole = tape.vjp(loss, np.ones((1, 1)), enc)
    for a, b in zip(halves, whole):
        assert rel_err(a, b) <= 1e-14
    # an intermediate and its own ancestor in one call
    [u_again, w_grad] = tape.vjp(loss, np.ones((1, 1)), [z, nodes["enc_w1"]])
    assert np.array_equal(u_again, u) and np.array_equal(w_grad, whole[0])
    # a node the output does not depend on gets zeros
    [none] = tape.vjp(z, u, [nodes["dec_w1"]])
    assert np.array_equal(none, np.zeros_like(nodes["dec_w1"].value))


def test_vjp_rejects_bad_cotangents_and_foreign_nodes():
    tape, nodes, z, loss = mlp_tape(33)
    with pytest.raises(NumericFailure):
        tape.vjp(loss, np.array([[np.nan]]), [z])
    bad = np.ones(z.shape)
    bad[0, 0] = np.inf
    with pytest.raises(NumericFailure):
        tape.vjp(z, bad, [nodes["enc_w1"]])
    with pytest.raises(ContractViolation):
        tape.vjp(z, np.ones((1, 1)), [nodes["enc_w1"]])
    with pytest.raises(ContractViolation):
        tape.vjp(loss, np.ones((1, 1)), [])
    other = Tape()
    with pytest.raises(ContractViolation):
        tape.vjp(loss, np.ones((1, 1)), [other.leaf(np.ones((1, 1)))])


# -- finiteness checks -------------------------------------------------------------

INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("a", [
    np.ones((2, 3)), np.array([[INF]]), np.array([[-INF, 1.0]]), np.array([[1.0, NAN]]),
    np.array([[INF, -INF]]), np.array([[1e308, 1e308]]), np.array([[-1e308], [-1e308]]),
    np.zeros((0, 3)), np.zeros((2, 0)),
], ids=["ones", "inf", "-inf", "nan", "inf-and--inf", "sum-overflows", "sum-overflows-neg",
        "empty-rows", "empty-cols"])
@pytest.mark.parametrize("state", ["ignore", "raise"])
def test_finite_is_isfinite_all(a, state):
    expected = bool(np.isfinite(a).all())
    with np.errstate(all=state):
        assert autodiff_mod._finite(a) is expected


def test_checks_under_a_raising_error_state():
    """Under np.errstate(all="raise") values are tested as under numpy's
    default state. A walk runs to its end before it tests its gradients, so
    an op that meets a non-finite gradient (inf * 0 in a saturated tanh's
    pull-back) raises numpy's FloatingPointError before the tape's test."""
    tape = Tape()
    with np.errstate(all="raise"):
        tape.leaf([[1e308, 1e308]])
        with pytest.raises(NumericFailure, match=r"^non-finite forward value at node 1 \(op\)$"):
            tape.leaf([[INF, -INF]])
        x = tape.leaf([[40.0]])
        with pytest.raises(NumericFailure, match=r"^non-finite gradient at node 2 \(scale\)$"):
            tape.vjp(tape.scale(x, 2.0), [[INF]], [x])
        with pytest.raises(FloatingPointError):
            tape.vjp(tape.tanh(x), [[INF]], [x])


def _first_failures():
    """(run, message) cases: run() records a small tape and pulls a finite
    cotangent back through it; the first non-finite gradient of the walk is
    at the node the message names."""
    big = 1e300

    def stop_gradient():
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)), param=True)
        out = tape.mul(tape.stop_gradient(x), tape.leaf(np.full((2, 2), big)))
        return tape.vjp(out, np.full((2, 2), big), [x])

    def above_start():
        tape = Tape()
        x, z = tape.leaf(np.ones((1, 1))), tape.leaf(np.ones((1, 1)))
        p = tape.scale(x, 1.0)
        out = tape.add(tape.mul(p, tape.leaf([[big]])), z)
        return tape.vjp(out, [[big]], [z])

    def backward_overflow():
        tape = Tape()
        h = tape.add(tape.leaf([[1e-150]], param=True), tape.leaf([[0.0]]))
        p = tape.mul(h, tape.leaf([[big]], param=True))
        return tape.backward(tape.mse(p, tape.leaf([[0.0]])))

    return [
        pytest.param(stop_gradient, "node 1 (stop_gradient)", id="stop_gradient"),
        pytest.param(above_start, "node 2 (scale)", id="above-start"),
        pytest.param(backward_overflow, "node 2 (add)", id="backward-overflow"),
    ]


@pytest.mark.parametrize("run, message", _first_failures())
def test_walk_names_the_first_nonfinite_gradient(run, message):
    with np.errstate(all="ignore"), pytest.raises(NumericFailure) as exc:
        run()
    assert str(exc.value) == f"non-finite gradient at {message}"


# -- differential test: the tape's checks against a test of every node ------------

def _values(shape, seed, special_odds):
    """Random entries at one of several magnitudes (products of large
    entries overflow; tiny entries keep a value finite whose gradient
    overflows); with probability `special_odds` one entry is inf, -inf, nan
    or 1e308."""
    rng = np.random.default_rng(seed)
    value = rng.standard_normal(shape) * rng.choice((1.0, 1e-150, 1e300))
    if rng.random() < special_odds:
        value.flat[rng.integers(value.size)] = rng.choice((INF, -INF, NAN, 1e308))
    return value


_seeds = st.integers(0, 2**32 - 1)


@st.composite
def programs(draw):
    """A small tape as data: ("leaf", shape, seed) and (op, node indices,
    extra args) steps, ending in a scaled mse loss."""
    steps, shapes = [], []

    def new_leaf(shape):
        steps.append(("leaf", shape, draw(_seeds)))
        shapes.append(shape)
        return len(shapes) - 1

    def pick(fits):
        """A recorded node whose shape `fits`, or None."""
        found = [i for i, s in enumerate(shapes) if fits(s)]
        return draw(st.sampled_from(found)) if found and draw(st.booleans()) else None

    def operand(shape):
        idx = pick(lambda s: s == shape)
        return new_leaf(shape) if idx is None else idx

    dims = st.integers(1, 3)
    new_leaf((draw(dims), draw(dims)))
    kinds = ("matmul", "add", "mul", "scale", "tanh", "relu", "reshape", "gather_rows",
             "stop_gradient", "straight_through", "mse", "leaf")
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.integers(0, len(shapes) - 1))
        rows, cols = shapes[a]
        if kind == "leaf":
            new_leaf((draw(dims), draw(dims)))
            continue
        if kind == "matmul":
            b = pick(lambda s: s[0] == cols)
            b = new_leaf((cols, draw(dims))) if b is None else b
            step, shape = (kind, (a, b), ()), (rows, shapes[b][1])
        elif kind == "add" and draw(st.booleans()):
            step, shape = (kind, (a, operand((1, cols))), ()), (rows, cols)
        elif kind in ("add", "mul", "straight_through", "mse"):
            extra = (draw(st.sampled_from((0.0, 0.5))),) if kind == "straight_through" else ()
            step = (kind, (a, operand((rows, cols))), extra)
            shape = (1, 1) if kind == "mse" else (rows, cols)
        elif kind == "scale":
            factor = draw(st.sampled_from((0.0, -2.0, 1e154, 1e308)))
            step, shape = (kind, (a,), (factor,)), (rows, cols)
        elif kind == "reshape":
            shape = draw(st.sampled_from(((rows * cols, 1), (1, rows * cols), (cols, rows))))
            step = (kind, (a,), shape)
        elif kind == "gather_rows":
            idx = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=4))
            step, shape = (kind, (a,), (idx,)), (len(idx), cols)
        else:
            step, shape = (kind, (a,), ()), (rows, cols)
        steps.append(step)
        shapes.append(shape)
    last = len(shapes) - 1
    steps.append(("mse", (last, operand(shapes[last])), ()))
    shapes.append((1, 1))
    # a large loss scale makes gradients overflow where values do not
    steps.append(("scale", (len(shapes) - 1,), (draw(st.sampled_from((1.0, 1e150, 1e308))),)))
    shapes.append((1, 1))
    return steps, shapes


def _build(tape, steps):
    """Record the steps; returns the message of the NumericFailure raised
    while recording, or None."""
    nodes = []
    try:
        for kind, *args in steps:
            if kind == "leaf":
                shape, seed = args
                nodes.append(tape.leaf(_values(shape, seed, 0.05), param=True))
            else:
                parents, extra = args
                nodes.append(getattr(tape, kind)(*(nodes[i] for i in parents), *extra))
    except NumericFailure as exc:
        return str(exc)
    return None


def _checked_walk(tape, output, cotangent, start):
    """The reverse walk that tests every node it reaches: (message, grads by
    node index)."""
    pending = {output.idx: cotangent}
    grads = {}
    for node in reversed(tape.nodes[start:output.idx + 1]):
        g = pending.pop(node.idx, None)
        if g is None:
            continue
        if not np.isfinite(g).all():
            return f"non-finite gradient at node {node.idx} ({node.name})", None
        grads[node.idx] = g
        for parent, pg in zip(node.parents, node.grad_fn(g) if node.grad_fn else []):
            if pg is not None:
                pending[parent.idx] = pending[parent.idx] + pg if parent.idx in pending else pg
    return None, grads


def _failure(call):
    try:
        return None, call()
    except NumericFailure as exc:
        return str(exc), None


@given(programs(), st.data())
@settings(max_examples=120, deadline=None)
def test_tape_checks_match_a_test_of_every_node(program, data):
    steps, shapes = program
    reference, tape = Tape(), Tape()
    with np.errstate(all="ignore"):
        with mock.patch.object(autodiff_mod, "_finite", lambda a: True):
            assert _build(reference, steps) is None
        first_bad = next((node for node in reference.nodes
                          if not np.isfinite(node.value).all()), None)
        expected = None if first_bad is None else (
            f"non-finite forward value at node {first_bad.idx} ({first_bad.name or 'op'})")
        assert _build(tape, steps) == expected
        if expected is not None:
            return

        # vjp from a drawn node, with a drawn cotangent, to nodes above node 0
        out = data.draw(st.integers(1, len(shapes) - 1))
        wrt = data.draw(st.lists(st.integers(1, out), min_size=1, max_size=3))
        cotangent = _values(shapes[out], data.draw(_seeds), 0.3)
        message, pulled = _failure(lambda: tape.vjp(tape.nodes[out], cotangent,
                                                    [tape.nodes[i] for i in wrt]))
        want, grads = _checked_walk(reference, reference.nodes[out], cotangent, min(wrt))
        assert message == want
        if want is None:
            for i, g in zip(wrt, pulled):
                assert np.array_equal(g, grads.get(i, np.zeros(shapes[i])))

        loss = tape.nodes[-1]
        message, _ = _failure(lambda: tape.backward(loss))
        want, grads = _checked_walk(reference, reference.nodes[-1], np.ones((1, 1)), 0)
        assert message == want
        if want is None:
            for node in tape.nodes:
                if node.is_param:
                    assert np.array_equal(node.grad, grads.get(node.idx)) \
                        if node.idx in grads else node.grad is None

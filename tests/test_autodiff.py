"""Gradient checks for the tape engine against central finite differences."""
import numpy as np
import pytest

from vqkit import (
    ContractViolation,
    NumericFailure,
    Tape,
    as_matrix,
    finite_difference_gradient,
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

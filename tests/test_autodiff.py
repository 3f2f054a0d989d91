import gc
import weakref
import zlib

import numpy as np
import pytest

from koopstab import autodiff as ad
from koopstab.errors import ContractError, DimensionError, SingularMatrixError

from helpers import (
    backward_out_of_place,
    fd_gradient,
    gather_cols_adjoint_bincount,
    matrix_with_condition,
    rel_err,
    same_bits,
    tanh_adjoint_reference,
)


def scalar_sum(tape, dv):
    """sum of all entries, expressed with tape ops (ones @ dv @ ones)."""
    rows, cols = dv.value.shape
    left = tape.leaf(np.ones((1, rows)))
    right = tape.leaf(np.ones((cols, 1)))
    return ad.matmul(ad.matmul(left, dv), right)


# ---------------------------------------------------------------- examples

def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3))
    tape = ad.Tape()
    out = ad.matmul(tape.leaf(np.eye(3)), tape.leaf(m))
    np.testing.assert_allclose(out.value, m, rtol=0, atol=1e-15)


def test_matmul_hand_case():
    tape = ad.Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = tape.leaf([[1.0], [1.0]])
    np.testing.assert_array_equal(ad.matmul(a, b).value, [[3.0], [7.0]])


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(1)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))

    def f(a):
        tape = ad.Tape()
        return scalar_sum(tape, ad.matmul(tape.leaf(a), tape.leaf(b0))).value[0, 0]

    tape = ad.Tape()
    a = tape.leaf(a0)
    loss = scalar_sum(tape, ad.matmul(a, tape.leaf(b0)))
    tape.backward(loss)
    assert rel_err(a.grad, fd_gradient(f, a0)) < 1e-5


def test_matinv_identity_and_diagonal():
    tape = ad.Tape()
    np.testing.assert_allclose(ad.matinv(tape.leaf(np.eye(4))).value, np.eye(4),
                               atol=1e-14)
    out = ad.matinv(tape.leaf(np.diag([2.0, 4.0])))
    np.testing.assert_allclose(out.value, np.diag([0.5, 0.25]), atol=1e-15)


def test_matinv_gradient_vs_fd():
    rng = np.random.default_rng(2)
    a0 = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)

    def f(a):
        tape = ad.Tape()
        return scalar_sum(tape, ad.matinv(tape.leaf(a))).value[0, 0]

    tape = ad.Tape()
    a = tape.leaf(a0)
    tape.backward(scalar_sum(tape, ad.matinv(a)))
    assert rel_err(a.grad, fd_gradient(f, a0)) < 1e-4


def test_elementwise_examples():
    tape = ad.Tape()
    assert not ad.elementwise(tape.leaf(np.zeros((2, 3))), "tanh").value.any()
    out = ad.elementwise(tape.leaf([[-1.0, 2.0]]), "relu")
    np.testing.assert_array_equal(out.value, [[0.0, 2.0]])


def test_sum_sq_norm_and_sub_examples():
    tape = ad.Tape()
    assert ad.sum_sq_norm(tape.leaf([[3.0, 4.0]])).value[0, 0] == 25.0
    a = tape.leaf([[1.0, -2.0], [0.5, 3.0]])
    b = tape.leaf(a.value)
    assert not ad.sub(a, b).value.any()


def test_sum_sq_norm_gradient_is_exactly_twice_value():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((3, 2))
    tape = ad.Tape()
    x = tape.leaf(x0)
    tape.backward(ad.sum_sq_norm(x))
    np.testing.assert_array_equal(x.grad, 2.0 * x0)


def test_backward_simple_analytic():
    tape = ad.Tape()
    x = tape.leaf([[1.0, 2.0]])
    tape.backward(ad.sum_sq_norm(x))
    np.testing.assert_array_equal(x.grad, [[2.0, 4.0]])


def test_backward_unreachable_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf([[1.0, 2.0]])
    y = tape.leaf([[5.0, 6.0]])
    ad.scale(y, 3.0)  # on tape but not feeding the loss
    tape.backward(ad.sum_sq_norm(x))
    assert not y.grad.any()


def test_backward_composite_matmul_matinv_vs_fd():
    rng = np.random.default_rng(4)
    a0 = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    b0 = rng.standard_normal((3, 3))

    def build(tape, a, b):
        return ad.sum_sq_norm(ad.matmul(ad.matinv(a), b))

    tape = ad.Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    tape.backward(build(tape, a, b))

    def fa(m):
        t = ad.Tape()
        return build(t, t.leaf(m), t.leaf(b0)).value[0, 0]

    def fb(m):
        t = ad.Tape()
        return build(t, t.leaf(a0), t.leaf(m)).value[0, 0]

    assert rel_err(a.grad, fd_gradient(fa, a0)) < 1e-4
    assert rel_err(b.grad, fd_gradient(fb, b0)) < 1e-4


# ------------------------------------------------------- gradient sweeps

def _loss_through(op_name, tape, x):
    """Wrap op under test into a smooth scalar loss."""
    if op_name == "matmul_left":
        w = tape.leaf(np.linspace(0.3, 1.2, x.value.shape[1] * 3).reshape(x.value.shape[1], 3))
        return ad.sum_sq_norm(ad.matmul(x, w))
    if op_name == "matmul_right":
        w = tape.leaf(np.linspace(-0.5, 0.8, x.value.shape[0] * 3).reshape(3, x.value.shape[0]))
        return ad.sum_sq_norm(ad.matmul(w, x))
    if op_name == "matinv":
        return ad.sum_sq_norm(ad.matinv(x))
    if op_name in ("tanh", "relu", "identity"):
        return ad.sum_sq_norm(ad.elementwise(x, op_name))
    if op_name == "add":
        other = tape.leaf(np.full(x.value.shape, 0.7))
        return ad.sum_sq_norm(ad.add(x, other))
    if op_name == "sub":
        other = tape.leaf(np.full(x.value.shape, -0.3))
        return ad.sum_sq_norm(ad.sub(x, other))
    if op_name == "scale":
        return ad.sum_sq_norm(ad.scale(x, -1.7))
    if op_name == "add_bias":
        bias = tape.leaf(np.linspace(0.1, 0.9, x.value.shape[0]).reshape(-1, 1))
        return ad.sum_sq_norm(ad.add_bias(x, bias))
    if op_name == "bias_arg":
        base = tape.leaf(np.ones((x.value.shape[0], 5)))
        return ad.sum_sq_norm(ad.add_bias(base, x))
    if op_name == "sum_sq_norm":
        return ad.sum_sq_norm(ad.sum_sq_norm(x))
    if op_name == "gather_cols":
        idx = [0, 2, 2, 1]  # duplicate column exercises scatter-add
        return ad.sum_sq_norm(ad.gather_cols(x, idx))
    if op_name == "gather_sq_dist":
        other = tape.leaf(np.linspace(-0.4, 0.6, x.value.shape[0] * 4).reshape(-1, 4))
        return ad.sum_sq_norm(ad.gather_sq_dist(x, [0, 2, 2, 1], other))
    if op_name == "sq_dist_arg":
        base = tape.leaf(np.linspace(-0.4, 0.6, x.value.shape[0] * 5).reshape(-1, 5))
        return ad.sum_sq_norm(ad.gather_sq_dist(base, [4, 0, 2], x))
    if "mlp_sq_dist" in op_name:
        _, arg, fn = op_name.rsplit("_", 2)
        counts = COUNTS if op_name.startswith("counted") else None
        return ad.sum_sq_norm(_mlp_sq_dist(tape, fn, counts, **{arg: x}))
    if op_name == "rollout_a":
        z0 = tape.leaf(np.linspace(-0.8, 0.9, x.value.shape[0] * 3).reshape(-1, 3))
        return ad.sum_sq_norm(ad.rollout(x, z0, 3))
    if op_name == "rollout_z0":
        a = tape.leaf(np.linspace(-0.5, 0.6, 16).reshape(4, 4))
        return ad.sum_sq_norm(ad.rollout(a, x, 3))
    if op_name == "similarity_s":
        k = tape.leaf(np.linspace(-1.0, 1.3, 16).reshape(4, 4))
        return ad.sum_sq_norm(ad.similarity(x, k, np.float64))
    if op_name == "similarity_k":
        s = tape.leaf(np.eye(4) + np.linspace(-0.2, 0.3, 16).reshape(4, 4))
        return ad.sum_sq_norm(ad.similarity(s, x, np.float64))
    raise AssertionError(op_name)


# a count for each of _mlp_sq_dist's ten columns; the zero and the larger
# counts fall in different blocks of 4
COUNTS = np.array([3, 1, 0, 2, 1, 5, 1, 2, 4, 1])


def _mlp_sq_dist(tape, fn, counts=None, z=None, w=None, b=None):
    """A 3 -> 5 -> 4 -> 2 decoder over ten columns of ``z`` against gathered
    columns of a constant target, each column counted ``counts`` times when
    given; ``w`` replaces the middle layer's weight and ``b`` the first
    layer's bias."""
    def leaf(shape, lo, hi):
        return tape.leaf(np.linspace(lo, hi, shape[0] * shape[1]).reshape(shape))

    z = z if z is not None else leaf((3, 10), -0.9, 0.8)
    weights = [leaf((5, 3), -0.7, 0.9), w if w is not None else leaf((4, 5), 0.6, -0.5),
               leaf((2, 4), -0.8, 0.7)]
    biases = [b if b is not None else leaf((5, 1), -0.2, 0.3), leaf((4, 1), 0.1, -0.1),
              leaf((2, 1), 0.05, 0.15)]
    target = tape.constant(np.linspace(-1.0, 1.0, 24).reshape(2, 12))
    idx = [0, 3, 3, 11, 5, 1, 7, 2, 9, 4]  # a repeated column
    return ad.mlp_sq_dist(target, idx, z, weights, biases, fn, counts)


SWEEP_OPS = ["matmul_left", "matmul_right", "matinv", "tanh", "relu", "identity",
             "add", "sub", "scale", "add_bias", "bias_arg", "sum_sq_norm",
             "gather_cols", "gather_sq_dist", "sq_dist_arg", "rollout_a", "rollout_z0",
             "similarity_s", "similarity_k"] + [
                 f"{kind}_{arg}_{fn}" for kind in ("mlp_sq_dist", "counted_mlp_sq_dist")
                 for arg in ("z", "w", "b") for fn in ad.ACTIVATIONS]


def _sweep_rng(op_name):
    return np.random.default_rng(zlib.crc32(op_name.encode()))


def _sweep_input(op_name, rng):
    if op_name in ("matinv", "similarity_s"):
        return rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    if op_name in ("rollout_a", "similarity_k"):
        return 0.5 * rng.standard_normal((4, 4))
    if op_name == "bias_arg":
        return rng.standard_normal((4, 1))
    if "mlp_sq_dist" in op_name:
        arg = op_name.rsplit("_", 2)[1]
        return rng.standard_normal({"z": (3, 10), "w": (4, 5), "b": (5, 1)}[arg])
    x0 = rng.standard_normal((4, 3))
    if op_name == "relu":
        # keep samples away from the kink so the FD oracle is valid
        x0 = np.where(np.abs(x0) < 0.1, x0 + 0.2, x0)
    return x0


@pytest.mark.parametrize("op_name", SWEEP_OPS)
def test_gradients_match_finite_differences(op_name, monkeypatch):
    # mlp_sq_dist's ten columns run as blocks of 4, 4 and 2
    monkeypatch.setattr(ad, "BLOCK_COLS", 4)
    rng = _sweep_rng(op_name)
    for _ in range(20):
        x0 = _sweep_input(op_name, rng)
        tape = ad.Tape()
        x = tape.leaf(x0)
        tape.backward(_loss_through(op_name, tape, x))

        def f(m):
            t = ad.Tape()
            return _loss_through(op_name, t, t.leaf(m)).value[0, 0]

        assert rel_err(x.grad, fd_gradient(f, x0)) < 1e-4, op_name


def _relu_layer(layer, tape, x):
    if layer == "dense":
        rows = x.value.shape[0]  # identity weights: the pre-activation is x
        return ad.dense(tape.leaf(np.eye(rows)), x, tape.leaf(np.zeros((rows, 1))), "relu")
    return ad.elementwise(x, "relu")


@pytest.mark.parametrize("layer", ["elementwise", "dense"])
def test_relu_passes_no_gradient_to_negative_inputs(layer):
    """A loss that weights relu's output sees its mask where the output is 0."""
    rng = np.random.default_rng(14)
    x0 = rng.standard_normal((4, 6))
    x0 = np.where(np.abs(x0) < 0.1, x0 + 0.2, x0)  # away from the kink
    c0 = rng.standard_normal((3, 4))
    assert np.any(x0 < 0.0)

    def loss(tape, x):
        return ad.sum_sq_norm(ad.matmul(tape.leaf(c0), _relu_layer(layer, tape, x)))

    tape = ad.Tape()
    x = tape.leaf(x0)
    tape.backward(loss(tape, x))

    def f(m):
        t = ad.Tape()
        return loss(t, t.leaf(m)).value[0, 0]

    assert not x.grad[x0 < 0.0].any()
    assert np.all(x.grad[x0 > 0.0] != 0.0)
    assert rel_err(x.grad, fd_gradient(f, x0)) < 1e-4


# ------------------------------------------------------------- invariants

def _two_term_grads(a0, b0, alpha, beta):
    tape = ad.Tape()
    x = tape.leaf(a0)
    l1 = ad.sum_sq_norm(ad.matmul(x, tape.leaf(b0)))
    l2 = ad.sum_sq_norm(ad.elementwise(x, "tanh"))
    tape.backward(ad.add(ad.scale(l1, alpha), ad.scale(l2, beta)))
    return x.grad


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(5)
    a0 = rng.standard_normal((3, 3))
    b0 = rng.standard_normal((3, 2))
    combined = _two_term_grads(a0, b0, 2.5, -0.75)
    g1 = _two_term_grads(a0, b0, 1.0, 0.0)
    g2 = _two_term_grads(a0, b0, 0.0, 1.0)
    np.testing.assert_allclose(combined, 2.5 * g1 - 0.75 * g2, rtol=1e-12, atol=1e-12)


def test_matinv_roundtrip_well_conditioned():
    rng = np.random.default_rng(6)
    for cond in (1.0, 1e2, 1e4, 1e6):
        a0 = matrix_with_condition(rng, 5, cond)
        tape = ad.Tape()
        inv = ad.matinv(tape.leaf(a0)).value
        assert np.linalg.norm(inv @ a0 - np.eye(5), np.inf) < 1e-8
        assert np.linalg.norm(a0 @ inv - np.eye(5), np.inf) < 1e-8


def test_replay_is_deterministic():
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    b0 = rng.standard_normal((4, 2))

    def run():
        tape = ad.Tape()
        a, b = tape.leaf(a0), tape.leaf(b0)
        loss = ad.sum_sq_norm(ad.elementwise(ad.matmul(ad.matinv(a), b), "tanh"))
        tape.backward(loss)
        return loss.value.copy(), a.grad.copy(), b.grad.copy()

    v1, ga1, gb1 = run()
    v2, ga2, gb2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# -------------------------------------------------------- fused layer op

@pytest.mark.parametrize("fn", ["tanh", "relu", "identity"])
def test_dense_equals_the_matmul_add_bias_elementwise_chain(fn):
    rng = np.random.default_rng(12)
    w0 = rng.standard_normal((5, 4))
    x0 = rng.standard_normal((4, 7))
    b0 = rng.standard_normal((5, 1))
    c0 = rng.standard_normal((3, 5))  # makes the output gradient unlike the value

    def run(layer):
        tape = ad.Tape()
        w, x, b = tape.leaf(w0), tape.leaf(x0), tape.leaf(b0)
        out = layer(w, x, b)
        tape.backward(ad.sum_sq_norm(ad.matmul(tape.leaf(c0), out)))
        return [out.value, w.grad, x.grad, b.grad], [w.value, x.value, b.value]

    fused, fused_inputs = run(lambda w, x, b: ad.dense(w, x, b, fn))
    chain, _ = run(lambda w, x, b: ad.elementwise(ad.add_bias(ad.matmul(w, x), b), fn))
    for got, want in zip(fused, chain):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(fused_inputs, (w0, x0, b0)):
        np.testing.assert_array_equal(got, want)  # forward and backward write no input


@pytest.mark.parametrize("idx", [[0, 2, 3, 6], [1, 1, 4, 0, 4, 4], [5, 3, 0]])
@pytest.mark.parametrize("c", [1.5, -0.5])
def test_gather_sq_dist_equals_the_gather_sub_sum_sq_norm_chain(idx, c):
    rng = np.random.default_rng(13)
    a0 = rng.standard_normal((3, 7))
    b0 = rng.standard_normal((3, len(idx)))
    b0[:, ::2] = a0[:, idx][:, ::2]  # exactly zero residuals

    def run(op):
        tape = ad.Tape()
        a, b = tape.leaf(a0), tape.leaf(b0)
        out = op(a, b)
        tape.backward(ad.scale(out, c))  # c < 0 flips the sign of every zero
        return [out.value, a.grad, b.grad], [a.value, b.value]

    fused, fused_inputs = run(lambda a, b: ad.gather_sq_dist(a, idx, b))
    chain, _ = run(lambda a, b: ad.sum_sq_norm(ad.sub(ad.gather_cols(a, idx), b)))
    # with c > 0 the zero residuals reach b as -0.0
    assert np.any((chain[2] == 0.0) & np.signbit(chain[2])) == (c > 0)
    for got, want in zip(fused, chain):
        assert same_bits(got, want)
    for got, want in zip(fused_inputs, (a0, b0)):
        assert same_bits(got, want)  # forward and backward write no input


@pytest.mark.parametrize("idx", [[0, 2, 3, 6], [1, 1, 4, 0, 4, 4], [5, 3, 0],
                                 [2, 3, 4, 0, 1, 2, 3, 6, 6]])
@pytest.mark.parametrize("c", [1.5, -0.5])
@pytest.mark.parametrize("entries, b_has_grad", [(None, True), (6, False), (6, True)],
                         ids=["b-with-gradient", "chunked", "chunked-b-with-gradient"])
def test_gather_sq_dist_subtracts_into_bs_gradient_with_the_chains_bits(
        idx, c, entries, b_has_grad, monkeypatch):
    """The cases the test above leaves out: ``b`` with a gradient that an op
    recorded later has given it, signed zeros included, which the adjoint
    subtracts into, and chunks of at most two columns (6 entries over 3
    rows), with each longer run in a chunk of its own. The value and both
    gradients equal the gather, sub, sum_sq_norm chain's bit for bit, for
    repeated, decreasing and run-forming indices."""
    if entries is not None:
        monkeypatch.setattr(ad, "RUN_BUFFER_ENTRIES", entries)
    rng = np.random.default_rng(17)
    a0 = rng.standard_normal((3, 7))
    a0[2, ::2], a0[2, 1::2] = 0.0, -0.0
    b0 = rng.standard_normal((3, len(idx)))
    b0[:, ::2] = a0[:, idx][:, ::2]  # exactly zero residuals, some at b = -0.0

    def run(op):
        tape = ad.Tape()
        a, b = tape.leaf(a0), tape.leaf(b0)
        out = op(a, b)
        loss = ad.scale(out, c)
        if b_has_grad:
            # recorded after, so its adjoint reaches b first: 0.5 b, signed zeros too
            loss = ad.add(loss, ad.sum_sq_norm(ad.scale(b, 0.5)))
        tape.backward(loss)
        return [out.value, a.grad, b.grad], [a.value, b.value]

    fused, fused_inputs = run(lambda a, b: ad.gather_sq_dist(a, idx, b))
    chain, _ = run(lambda a, b: ad.sum_sq_norm(ad.sub(ad.gather_cols(a, idx), b)))
    assert np.any(chain[2] == 0.0)
    for got, want in zip(fused, chain):
        assert same_bits(got, want)
    for got, want in zip(fused_inputs, (a0, b0)):
        assert same_bits(got, want)


@pytest.mark.parametrize("has_grad", [False, True])
def test_gather_sq_dist_of_a_value_against_itself_keeps_the_chains_bits(has_grad):
    """With ``b`` the same value as ``a``: b's part reaches the shared gradient
    before a's scatter, as the chain's ``sub`` runs before its gather."""
    rng = np.random.default_rng(18)
    x0 = rng.standard_normal((3, 5))
    idx = [4, 0, 1, 2, 2]

    def run(op):
        tape = ad.Tape()
        x = tape.leaf(x0)
        loss = op(x)
        if has_grad:
            loss = ad.add(loss, ad.sum_sq_norm(ad.scale(x, 0.25)))
        tape.backward(loss)
        return [loss.value, x.grad]

    fused = run(lambda x: ad.gather_sq_dist(x, idx, x))
    chain = run(lambda x: ad.sum_sq_norm(ad.sub(ad.gather_cols(x, idx), x)))
    for got, want in zip(fused, chain):
        assert same_bits(got, want)


@pytest.mark.parametrize("fn", ad.ACTIVATIONS)
@pytest.mark.parametrize("block, cols", [(4, 10), (None, 10), (None, 2500)])
def test_mlp_sq_dist_equals_the_dense_chain_and_gather_sq_dist(fn, block, cols,
                                                                monkeypatch):
    """Value and every gradient to 1e-12 relative at float64, whether the
    columns run as one block, as blocks with a short last one, or past the
    module's width; the forward and backward write no input."""
    if block is not None:
        monkeypatch.setattr(ad, "BLOCK_COLS", block)
    rng = np.random.default_rng(15)
    sizes = [3, 6, 5, 2]
    params = [rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    params += [rng.standard_normal((b, 1)) for b in sizes[1:]]
    z0 = rng.standard_normal((3, cols))
    t0 = rng.standard_normal((2, cols + 3))
    idx = rng.integers(0, cols + 3, cols)
    c = -0.75

    def run(op):
        tape = ad.Tape()
        z, leaves = tape.leaf(z0), [tape.leaf(p) for p in params]
        out = op(tape.constant(t0), z, leaves[:3], leaves[3:])
        tape.backward(ad.scale(out, c))
        return [out.value, z.grad, *(v.grad for v in leaves)], [z.value, t0]

    def chain(target, z, weights, biases):
        h = z
        for k, (w, b) in enumerate(zip(weights, biases)):
            h = ad.dense(w, h, b, fn if k < 2 else "identity")
        return ad.gather_sq_dist(target, idx, h)

    fused, inputs = run(lambda t, z, w, b: ad.mlp_sq_dist(t, idx, z, w, b, fn))
    want, _ = run(chain)
    for got, exact in zip(fused, want):
        assert rel_err(got, exact) <= 1e-12
    for got, exact in zip(inputs, (z0, t0)):
        assert same_bits(got, exact)


def test_counted_mlp_sq_dist_equals_the_gather_of_repeated_columns(monkeypatch):
    """Counting column j c_j times is gathering it c_j times: under every
    activation the value and every gradient agree to 1e-12 relative at
    float64, whether the counts run as one block or are sliced into blocks
    of 4."""
    rng = np.random.default_rng(16)
    sizes = [3, 6, 5, 2]
    params = [rng.standard_normal((b, a)) / np.sqrt(a) for a, b in zip(sizes, sizes[1:])]
    params += [rng.standard_normal((b, 1)) for b in sizes[1:]]
    z0, t0 = rng.standard_normal((3, 10)), rng.standard_normal((2, 12))
    idx = rng.integers(0, 12, 10)
    cols = np.repeat(np.arange(10), COUNTS)

    def run(op):
        tape = ad.Tape()
        z, leaves = tape.leaf(z0), [tape.leaf(p) for p in params]
        out = op(tape.constant(t0), z, leaves[:3], leaves[3:])
        tape.backward(ad.scale(out, 1.25))
        return [out.value, z.grad, *(v.grad for v in leaves)]

    whole = ad.BLOCK_COLS
    for fn in ad.ACTIVATIONS:
        for block in (whole, 4):
            monkeypatch.setattr(ad, "BLOCK_COLS", block)
            counted = run(lambda t, z, w, b: ad.mlp_sq_dist(t, idx, z, w, b, fn, COUNTS))
            repeated = run(lambda t, z, w, b: ad.mlp_sq_dist(
                t, idx[cols], ad.gather_cols(z, cols), w, b, fn))
            for got, exact in zip(counted, repeated):
                assert rel_err(got, exact) <= 1e-12, (fn, block)


# ------------------------------------------------------------- constants

def test_a_constant_is_the_callers_array_and_gets_no_gradient():
    """As ``dense``'s input, as either operand of ``gather_sq_dist`` and as an
    operand of ``matmul``, which forms its gradient anyway: every value and
    every other gradient equals, bit for bit, the tape's with leaves instead."""
    rng = np.random.default_rng(14)
    w0, x0 = rng.standard_normal((4, 4)), rng.standard_normal((4, 7))
    b0, t0 = rng.standard_normal((4, 1)), rng.standard_normal((4, 3))
    idx = [0, 2, 2]

    def run(data):
        tape = ad.Tape()
        w, b, x, target = tape.leaf(w0), tape.leaf(b0), data(tape, x0), data(tape, t0)
        h = ad.dense(w, x, b, "tanh")
        loss = ad.add(ad.add(ad.gather_sq_dist(x, idx, ad.gather_cols(h, [1, 3, 5])),
                             ad.gather_sq_dist(h, idx, target)),
                      ad.sum_sq_norm(ad.matmul(w, x)))
        tape.backward(loss)
        return [loss.value, w.grad, b.grad], (x, target)

    got, (x, target) = run(ad.Tape.constant)
    want, (x_leaf, target_leaf) = run(ad.Tape.leaf)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    assert x.value is x0 and target.value is t0
    assert x._grad is None and target._grad is None
    assert x_leaf._grad is not None and target_leaf._grad is not None
    assert same_bits(x0, x_leaf.value) and same_bits(t0, target_leaf.value)


@pytest.mark.parametrize("value", [np.ones(3), np.ones((2, 2), int), np.ones((1, 1, 1))])
def test_constant_refuses_anything_but_a_2d_float_array(value):
    with pytest.raises(DimensionError, match="constant"):
        ad.Tape().constant(value)


# ----------------------------------------------------- tape lifetime, fan-out

def test_backward_releases_the_step_without_the_cycle_collector():
    gc.disable()
    try:
        tape = ad.Tape()
        w = tape.leaf(np.full((3, 2), 0.5))
        hidden = ad.elementwise(ad.matmul(w, tape.leaf(np.ones((2, 4)))), "tanh")
        loss = ad.sum_sq_norm(hidden)
        hidden_ref, tape_ref = weakref.ref(hidden), weakref.ref(tape)
        del hidden
        tape.backward(loss)
        assert hidden_ref() is None  # freed as its node was released
        del tape, loss, w
        assert tape_ref() is None
    finally:
        gc.enable()


def test_a_finished_adjoints_arrays_are_dead_when_the_next_adjoint_runs():
    """The add hands h two copies of its gradient: the first becomes h's
    gradient and the second is added into it. When the scale's adjoint runs
    next, only h's gradient is alive: the second copy and the add's own
    output gradient are freed."""
    gc.disable()
    try:
        tape = ad.Tape()
        h = ad.scale(tape.leaf(np.ones((2, 3))), 2.0)
        loss = ad.sum_sq_norm(ad.add(h, h))
        scale_node, add_node = tape._nodes[0], tape._nodes[1]
        refs, alive = [], []
        add_fn, scale_fn = add_node.backward_fn, scale_node.backward_fn

        def add_spy(g):
            pgs = add_fn(g)
            refs.extend(weakref.ref(a) for a in (g, *pgs))
            return pgs

        def scale_spy(g):
            alive.append([r() is not None for r in refs])
            return scale_fn(g)

        add_node.backward_fn, scale_node.backward_fn = add_spy, scale_spy
        del add_node, scale_node
        tape.backward(loss)
        # the add's gradient and second copy dead; its first copy is h's
        assert alive == [[False, True, False]]
        assert refs[1]() is h._grad
    finally:
        gc.enable()


def test_a_tape_dropped_before_its_backward_pass_needs_no_cycle_collector():
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(np.eye(3))
        y = ad.matmul(x, x)
        tape_ref, y_ref = weakref.ref(tape), weakref.ref(y)
        del tape, y
        assert tape_ref() is None and y_ref() is None
        with pytest.raises(ContractError, match="no longer exists"):
            ad.matmul(x, x)
    finally:
        gc.enable()


def test_tape_length_counts_released_nodes():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    loss = ad.sum_sq_norm(ad.add(ad.matmul(x, x), x))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 3
    with pytest.raises(ContractError):
        tape.backward(loss)  # released tapes stay single-use


@pytest.mark.parametrize("given, kept", [(np.float32, np.float32), (np.float64, np.float64),
                                         (np.int64, np.float64), (np.float16, np.float64)])
def test_leaf_keeps_a_float32_or_float64_dtype(given, kept):
    assert ad.Tape().leaf(np.ones((2, 3), dtype=given)).value.dtype == kept


def test_similarity_hands_its_value_over_and_its_gradient_back():
    rng = np.random.default_rng(31)
    s0 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    k0 = rng.standard_normal((3, 3))
    tape = ad.Tape()
    s, k = tape.leaf(s0), tape.leaf(k0)
    x = tape.leaf(rng.standard_normal((3, 4)).astype(np.float32))
    eff = ad.similarity(s, k, np.float32)
    assert same_bits(eff.value.astype(np.float64),
                     (ad.checked_inverse(s0) @ k0 @ s0).astype(np.float32).astype(np.float64))
    y = ad.matmul(eff, x)
    target = tape.leaf(rng.standard_normal((3, 2)).astype(np.float32))
    loss = ad.gather_sq_dist(y, [3, 1], target)
    # the squares are float32, their sum float64
    r = y.value[:, [3, 1]] - target.value
    assert loss.value.dtype == np.float64
    assert loss.value[0, 0] == np.sum(r * r, dtype=np.float64)
    tape.backward(loss)
    for v, dtype in ((s, np.float64), (k, np.float64), (eff, np.float32), (x, np.float32),
                     (y, np.float32), (target, np.float32)):
        assert v.grad.dtype == dtype
    # the float64 adjoint of the float32 gradient cast up
    tape64 = ad.Tape()
    ad.similarity(tape64.leaf(s0), tape64.leaf(k0), np.float64)
    grad_s, grad_k = tape64._nodes[-1].backward_fn(eff.grad.astype(np.float64))
    assert same_bits(s.grad, grad_s) and same_bits(k.grad, grad_k)


def test_float32_scatter_keeps_its_dtype():
    g = np.arange(6, dtype=np.float32).reshape(2, 3)
    out = ad._scatter_cols(g, np.array([2, 0, 2]), 4)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, [[1, 0, 2, 0], [4, 0, 8, 0]])


def test_add_of_a_value_to_itself_doubles_its_gradient():
    x0 = np.array([[1.5, -2.0], [0.25, 3.0]])
    tape = ad.Tape()
    x = tape.leaf(x0)
    tape.backward(ad.sum_sq_norm(ad.add(x, x)))
    np.testing.assert_array_equal(x.grad, 8.0 * x0)


def test_fan_out_sums_gradients_without_aliasing():
    """Summing into one value's gradient must not change another's."""
    x0 = np.array([[1.5, -2.0], [0.25, 3.0]])
    tape = ad.Tape()
    x = tape.leaf(x0)
    h = ad.elementwise(x, "identity")  # feeds the scale and the add below
    p = ad.elementwise(x, "identity")
    s = ad.scale(h, 3.0)
    q = ad.add(ad.add(p, h), s)
    tape.backward(ad.sum_sq_norm(q))
    g = 2.0 * q.value
    np.testing.assert_array_equal(x.grad, g + (g + 3.0 * g))


# ------------------------------- fast paths against the plain arithmetic

@pytest.mark.parametrize("idx", [
    [0, 2, 3, 6],        # strictly increasing
    [1, 1, 4, 0, 4, 4],  # repeated: summed in index order
    [5, 3, 0],           # distinct but decreasing
    [],
])
def test_gather_cols_matches_the_bincount_adjoint_bit_for_bit(idx):
    """Bit for bit in float64. In float32 each entry is within 1.5 float32
    epsilons of the magnitudes it adds: at most two float32 additions of half
    an epsilon each, and bincount's float64 sum rounded to float32."""
    rng = np.random.default_rng(40)
    a0 = rng.standard_normal((3, 7))
    g = rng.standard_normal((3, len(idx)))
    g[:, ::2] = -0.0  # bincount's 0.0 + g turns these into +0.0
    tape = ad.Tape()
    out = ad.gather_cols(tape.leaf(a0), idx)
    assert same_bits(out.value, a0[:, idx])
    (got,) = tape._nodes[-1].backward_fn(g)
    assert same_bits(got, gather_cols_adjoint_bincount(g, idx, 3, 7))
    g32 = rng.standard_normal((3, len(idx))).astype(np.float32)
    got32 = ad._scatter_cols(g32, np.array(idx, dtype=np.intp), 7)
    want = gather_cols_adjoint_bincount(g32.astype(np.float64), idx, 3, 7)
    size = gather_cols_adjoint_bincount(np.abs(g32.astype(np.float64)), idx, 3, 7)
    assert got32.dtype == np.float32
    assert np.all(np.abs(got32 - want) <= 1.5 * np.finfo(np.float32).eps * size)


def _rollout_chain(a, z0, steps):
    blocks = [z0]
    for _ in range(steps):
        blocks.append(ad.matmul(a, blocks[-1]))
    return blocks[1:]


@pytest.mark.parametrize("steps", [1, 2, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rollout_equals_the_chained_matmuls(steps, dtype):
    """Values bit for bit in either dtype; float64 gradients within 1e-12 (rel_err)."""
    rng = np.random.default_rng(46)
    a0 = (0.4 * rng.standard_normal((4, 4))).astype(dtype)
    z00 = rng.standard_normal((4, 3)).astype(dtype)
    c0 = rng.standard_normal((2, 4)).astype(dtype)

    def run(fused):
        tape = ad.Tape()
        a, z0, c = tape.leaf(a0), tape.leaf(z00), tape.leaf(c0)
        if fused:
            Z = ad.rollout(a, z0, steps)
            blocks = [Z.value[:, 3 * k:3 * k + 3] for k in range(steps)]
            loss = ad.sum_sq_norm(ad.matmul(c, Z))
        else:
            chain = _rollout_chain(a, z0, steps)
            blocks = [z.value for z in chain]
            terms = [ad.sum_sq_norm(ad.matmul(c, z)) for z in chain]
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
        tape.backward(loss)
        return blocks, [a.grad, z0.grad], [a.value, z0.value]

    fused, fused_grads, fused_inputs = run(True)
    chain, chain_grads, _ = run(False)
    for got, want in zip(fused, chain):
        assert same_bits(got.astype(np.float64), want.astype(np.float64))
    for got, want in zip(fused_inputs, (a0, z00)):
        assert same_bits(got.astype(np.float64), want.astype(np.float64))
    for got, want in zip(fused_grads, chain_grads):
        assert got.dtype == dtype
        assert rel_err(got.astype(np.float64), want.astype(np.float64)) < (
            1e-12 if dtype == np.float64 else 1e-5)


def test_similarity_equals_the_matinv_matmul_matmul_chain():
    """The value bit for bit; the gradients within 1e-12 (rel_err)."""
    rng = np.random.default_rng(47)
    s0 = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
    k0 = rng.standard_normal((5, 5))
    c0 = rng.standard_normal((3, 5))  # makes the output gradient unlike the value

    def run(op):
        tape = ad.Tape()
        s, k = tape.leaf(s0), tape.leaf(k0)
        out = op(s, k)
        tape.backward(ad.sum_sq_norm(ad.matmul(tape.leaf(c0), out)))
        return out.value, [s.grad, k.grad], [s.value, k.value]

    fused, fused_grads, fused_inputs = run(lambda s, k: ad.similarity(s, k, np.float64))
    chain, chain_grads, _ = run(lambda s, k: ad.matmul(ad.matmul(ad.matinv(s), k), s))
    assert same_bits(fused, chain)
    for got, want in zip(fused_inputs, (s0, k0)):
        assert same_bits(got, want)
    for got, want in zip(fused_grads, chain_grads):
        assert rel_err(got, want) < 1e-12


def test_rollout_and_similarity_refuse_bad_operands():
    tape = ad.Tape()
    sq, wide = tape.leaf(np.eye(3)), tape.leaf(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        ad.rollout(wide, sq, 2)
    with pytest.raises(DimensionError):
        ad.rollout(sq, tape.leaf(np.ones((2, 2))), 2)
    with pytest.raises(ContractError, match="steps"):
        ad.rollout(sq, wide, 0)
    with pytest.raises(DimensionError):
        ad.similarity(sq, tape.leaf(np.eye(2)), np.float64)
    with pytest.raises(SingularMatrixError):
        ad.similarity(tape.leaf(np.zeros((3, 3))), sq, np.float64)
    with pytest.raises(ContractError):
        ad.similarity(sq, ad.Tape().leaf(np.eye(3)), np.float64)
    assert len(tape) == 0


def _fan_in(tape, x0, w0, y0):
    """Leaves x, w, y and a loss in which x takes three contributions.

    ``add(x, y)`` is recorded last among x's consumers, so x's first
    contribution comes from the add that also feeds y. A fourth term,
    through ``scale(x, 0.0)``, hands x an all-zero gradient.
    """
    x, w, y = tape.leaf(x0), tape.leaf(w0), tape.leaf(y0)
    terms = [ad.sum_sq_norm(ad.scale(x, 0.0)),
             ad.sum_sq_norm(ad.scale(x, -1.5)),
             ad.sum_sq_norm(ad.matmul(w, x)),
             ad.sum_sq_norm(ad.matmul(w, ad.add(x, y)))]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return (x, w, y), loss


def test_in_place_sweep_matches_the_out_of_place_sweep_bit_for_bit():
    rng = np.random.default_rng(41)
    x0 = rng.standard_normal((4, 3))
    x0[0, 0] = 0.0  # the first entry of several gradients is exactly zero
    w0 = rng.standard_normal((5, 4))
    y0 = rng.standard_normal((4, 3))
    fast_tape, slow_tape = ad.Tape(), ad.Tape()
    fast, fast_loss = _fan_in(fast_tape, x0, w0, y0)
    slow, slow_loss = _fan_in(slow_tape, x0, w0, y0)
    fast_tape.backward(fast_loss)
    backward_out_of_place(slow_tape, slow_loss)
    for got, want in zip(fast, slow):
        assert same_bits(got.grad, want.grad)
    # x's first contribution came from the add that feeds y; summing into x
    # left y's gradient alone
    x, w, y = fast
    residual = w.value @ (x0 + y0)
    assert same_bits(y.grad, w.value.T @ (2.0 * residual))


@pytest.mark.parametrize("op_name", SWEEP_OPS + ["fan_in"])
def test_no_two_values_share_a_gradient_array(op_name):
    rng = _sweep_rng(op_name)
    tape = ad.Tape()
    if op_name == "fan_in":
        _, loss = _fan_in(tape, rng.standard_normal((4, 3)), rng.standard_normal((5, 4)),
                          rng.standard_normal((4, 3)))
    else:
        loss = _loss_through(op_name, tape, tape.leaf(_sweep_input(op_name, rng)))
    values = list({id(v): v for node in tape._nodes
                   for v in (node.out, *node.parents)}.values())
    tape.backward(loss)
    grads = [v._grad for v in values if v._grad is not None]
    assert len(grads) >= 3
    for k, a in enumerate(grads):
        for b in grads[k + 1:]:
            assert not np.shares_memory(a, b)


def test_zero_gradient_skip_reads_past_a_zero_first_entry():
    x0 = np.array([[0.0, 2.0], [-3.0, 0.5]])
    tape = ad.Tape()
    x = tape.leaf(x0)
    tape.backward(ad.sum_sq_norm(ad.scale(x, 1.0)))
    np.testing.assert_array_equal(x.grad, 2.0 * x0)


def test_tanh_adjoint_matches_the_plain_expression_bit_for_bit():
    rng = np.random.default_rng(42)
    out = np.tanh(rng.standard_normal((6, 9)) * 3.0)
    g = rng.standard_normal((6, 9))
    g[0] = -0.0
    assert same_bits(ad._activation_adjoint(g.copy(), out, "tanh"),
                     tanh_adjoint_reference(g, out))


# ---------------------------------------------------------------- inverse

@pytest.fixture
def lapack_inv(monkeypatch):
    """Count np.linalg.inv calls."""
    original = np.linalg.inv
    calls = []

    def counting(a):
        calls.append(1)
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls, original


def _well_conditioned(seed, d=5):
    return np.eye(d) + 0.1 * np.random.default_rng(seed).standard_normal((d, d))


def test_checked_inverse_inverts_on_every_call(lapack_inv):
    calls, original = lapack_inv
    a = _well_conditioned(43)
    first = ad.checked_inverse(a)
    again = ad.checked_inverse(a.copy())
    assert len(calls) == 2 and again is not first
    assert same_bits(first, original(a)) and same_bits(again, first)


def test_checked_inverse_results_are_read_only(lapack_inv):
    a = _well_conditioned(44)
    inv = ad.checked_inverse(a)
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[0, 0] = 1.0


# ----------------------------------------------------------------- errors

def test_shape_mismatches_raise_dimension_error():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        ad.matmul(a, b)
    with pytest.raises(DimensionError):
        ad.add(a, tape.leaf(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        ad.matinv(a)
    with pytest.raises(DimensionError):
        ad.add_bias(a, tape.leaf(np.ones((3, 1))))
    with pytest.raises(DimensionError):
        ad.dense(a, b, tape.leaf(np.ones((2, 1))), "tanh")
    with pytest.raises(DimensionError):
        ad.dense(a, tape.leaf(np.ones((3, 4))), tape.leaf(np.ones((3, 1))), "tanh")
    with pytest.raises(DimensionError):
        ad.gather_sq_dist(a, [0, 1], b)
    with pytest.raises(DimensionError):
        ad.gather_sq_dist(a, [0, 1, 3], b)
    target = tape.constant(np.ones((2, 4)))
    w, bias = tape.leaf(np.ones((2, 2))), tape.leaf(np.ones((2, 1)))
    with pytest.raises(DimensionError, match="counts"):
        ad.mlp_sq_dist(target, [0, 1, 2], a, [w], [bias], "tanh", counts=np.ones(2))
    tall, tall_bias = tape.leaf(np.ones((3, 2))), tape.leaf(np.ones((3, 1)))
    # an input width, a bias, a layer count, no layer, a column count and an
    # output width that do not fit a's 2 x 3 and the 2-row target
    for weights, biases, cols in (([b], [bias], 3), ([w], [tall_bias], 3),
                                  ([w, w], [bias], 3), ([], [], 3), ([w], [bias], 2),
                                  ([tall], [tall_bias], 3)):
        with pytest.raises(DimensionError, match="mlp_sq_dist"):
            ad.mlp_sq_dist(target, np.arange(cols), a, weights, biases, "tanh")
    for value in (1.0, [1.0, 2.0], np.ones((1, 1, 1))):
        with pytest.raises(DimensionError, match="2-D"):
            tape.leaf(value)


def test_singular_and_ill_conditioned_inputs_refused():
    tape = ad.Tape()
    with pytest.raises(SingularMatrixError):
        ad.matinv(tape.leaf(np.zeros((2, 2))))
    rng = np.random.default_rng(8)
    bad = matrix_with_condition(rng, 4, 1e12)
    with pytest.raises(SingularMatrixError) as err:
        ad.matinv(tape.leaf(bad))
    assert err.value.cond_estimate > 1e8


def test_backward_contract_errors():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        tape.backward(x)  # not scalar
    loss = ad.sum_sq_norm(x)
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)  # tapes are single-use
    other = ad.Tape()
    with pytest.raises(ContractError):
        ad.add(x, other.leaf(np.ones((2, 2))))
    with pytest.raises(ContractError):
        ad.gather_sq_dist(x, [0, 1], other.leaf(np.ones((2, 2))))
    with pytest.raises(ContractError, match="constant"):
        ad.mlp_sq_dist(x, [0, 1], x, [tape.leaf(np.eye(2))], [tape.leaf(np.ones((2, 1)))],
                       "tanh")
    with pytest.raises(ContractError):
        tape.leaf([[np.nan, 0.0]])
    foreign = ad.sum_sq_norm(other.leaf(np.ones((2, 2))))
    with pytest.raises(ContractError, match="not computed on this tape"):
        ad.Tape().backward(foreign)
    with pytest.raises(ContractError):
        ad.elementwise(x, "sigmoid")
    with pytest.raises(ContractError):
        ad.dense(x, x, tape.leaf(np.ones((2, 1))), "sigmoid")

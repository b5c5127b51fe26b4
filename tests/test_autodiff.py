import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as oracle
from trimformer import autodiff as ad
from trimformer.autodiff import Tape, Tensor
from trimformer.errors import DataError, ShapeError, TapeError


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    a = t64([[1.0, 2.0], [3.0, 4.0]])
    eye = t64(np.eye(2))
    assert np.array_equal(ad.matmul(eye, a).data, a.data)
    assert np.array_equal(ad.matmul(a, eye).data, a.data)


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    got = ad.matmul(t64(a), t64(b)).data
    assert np.abs(got - oracle.naive_matmul(a, b)).max() < 1e-6


@given(
    m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_matmul_matches_oracle(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    got = ad.matmul(t64(a), t64(b)).data
    assert np.abs(got - oracle.naive_matmul(a, b)).max() < 1e-9


@pytest.mark.parametrize("transposed", [False, True])
def test_fd_matmul_stacked_left_against_2d_right(transposed):
    # A stacked left operand is folded into one 2-D product; a transposed
    # view has to be copied by the fold's reshape.
    rng = np.random.default_rng(10)
    x = t64(rng.normal(size=(4, 3, 5)), requires_grad=True)
    w = t64(rng.normal(size=(5, 6)), requires_grad=True)

    def compute():
        left = ad.transpose(x, (1, 0, 2)) if transposed else x
        y = ad.matmul(left, w)
        return ad.tsum(ad.mul(y, y))

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"x": x, "w": w}, h=1e-5, tol=1e-6)


@pytest.mark.parametrize("heads,groups", [(4, 4), (4, 2)])
def test_fd_linear_projections(heads, groups):
    # The attention projections of an MHA and a GQA block: [B, S, d] inputs
    # against [out, in] weights, split into heads.
    rng = np.random.default_rng(12)
    b, s, d, dh = 2, 5, 6, 3
    x = t64(rng.normal(size=(b, s, d)), requires_grad=True)
    ws = {
        "wq": t64(rng.normal(size=(heads * dh, d)), requires_grad=True),
        "wk": t64(rng.normal(size=(groups * dh, d)), requires_grad=True),
        "wv": t64(rng.normal(size=(groups * dh, d)), requires_grad=True),
    }

    def compute():
        q, k, v = (
            ad.reshape(ad.linear(x, ws[name]), (b, s, n, dh))
            for name, n in (("wq", heads), ("wk", groups), ("wv", groups))
        )
        y = ad.causal_attention(q, k, v)
        return ad.tsum(ad.mul(y, y))

    with Tape():
        loss = compute()
    ad.backward(loss)
    assert all(w.grad.flags.c_contiguous for w in ws.values())
    oracle.check_fd(lambda: compute().item(), {"x": x, **ws}, h=1e-5, tol=1e-5)


def test_linear_equals_the_product_with_the_transposed_weight():
    rng = np.random.default_rng(13)
    x = t64(rng.normal(size=(3, 4, 5)))
    w = t64(rng.normal(size=(6, 5)))
    got = ad.linear(x, w).data
    assert got.shape == (3, 4, 6)
    assert np.array_equal(got, ad.matmul(x, ad.transpose(w, (1, 0))).data)
    for bad in (t64(np.ones((6, 4))), t64(np.ones(5)), t64(np.ones((1, 6, 5)))):
        with pytest.raises(ShapeError):
            ad.linear(x, bad)
    with pytest.raises(ShapeError):
        ad.linear(t64(np.ones(5)), w)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.matmul(t64(np.ones((2, 2, 3))), t64(np.ones((3, 2, 2))))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_elementwise_ops_refuse_operands_of_two_shapes(op):
    a = t64(np.ones((2, 3)), requires_grad=True)
    for other in ((1, 3), (3,), (2, 1), (), (2, 3, 1)):
        with pytest.raises(ShapeError, match="one shape"):
            op(a, t64(np.full(other, 2.0)))
    assert op(a, t64(np.full((2, 3), 2.0))).shape == (2, 3)
    assert np.array_equal(ad.mul(a, 2.0).data, np.full((2, 3), 2.0))


# ---------------------------------------------------------------- layer norm


def test_layer_norm_constant_rows_zero():
    x = t64(np.full((4, 6), 3.7))
    out = ad.layer_norm(x, t64(np.ones(6)), t64(np.zeros(6)))
    assert np.abs(out.data).max() < 1e-8


def test_layer_norm_gamma_zero_gives_beta():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(3, 5)))
    beta = rng.normal(size=5)
    out = ad.layer_norm(x, t64(np.zeros(5)), t64(beta))
    assert np.allclose(out.data, np.broadcast_to(beta, (3, 5)))


def test_layer_norm_vs_formula():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 8)) * 4
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)
    got = ad.layer_norm(t64(x), t64(gamma), t64(beta)).data
    want = oracle.naive_layer_norm(x, gamma, beta)
    assert np.abs(got - want).max() < 1e-6


def test_layer_norm_output_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 64)) * 5  # variance >> eps
    out = ad.layer_norm(t64(x), t64(np.ones(64)), t64(np.zeros(64))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_bad_shape():
    x = t64(np.ones((2, 4)))
    with pytest.raises(ShapeError):
        ad.layer_norm(x, t64(np.ones(3)), t64(np.zeros(4)))


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_pair():
    out = ad.softmax(t64([0.0, 0.0])).data
    assert np.allclose(out, [0.5, 0.5])


def test_softmax_closed_form():
    out = ad.softmax(t64([np.log(2.0), 0.0])).data
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def max_test_rows(width, dtype):
    """Rows that stress an exact max: ties, the causal mask fill, mixed
    +0.0/-0.0 and +-inf."""
    rng = np.random.default_rng(width)
    causal = rng.normal(size=(width, width)) + np.triu(np.full((width, width), -1e9), 1)
    rows = [
        rng.normal(size=(8, width)),
        rng.integers(-2, 3, size=(8, width)),
        causal[:40],
        rng.choice([0.0, -0.0, -1.0], size=(8, width)),
        rng.choice([0.0, -0.0], size=(8, width)),
        rng.choice([np.inf, -np.inf, 0.5, -2.0], size=(8, width)),
        np.full((1, width), -np.inf),
    ]
    return np.concatenate(rows).astype(dtype)[None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_equals_the_max_reduction(dtype):
    for width in range(1, 301):
        x = max_test_rows(width, dtype)
        got, want = ad._row_max(x), x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want), width


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_kernels_are_byte_identical_to_the_max_shift(dtype):
    # _row_max may return the other zero of a +0/-0 tie; a zero shift only
    # moves +-0 entries, exp(+-0) == 1, and a zero log-sum needs a lone max.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for width in range(1, 301):
            x = max_test_rows(width, dtype)
            assert (ad._softmax_rows(x).tobytes()
                    == oracle.max_shift_softmax_rows(x).tobytes()), width
            assert (ad._log_softmax_rows(x).tobytes()
                    == oracle.max_shift_log_softmax_rows(x).tobytes()), width


@given(
    vals=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    shift=st.floats(-50, 50),
)
def test_softmax_shift_invariance_and_rows_sum(vals, shift):
    x = np.array(vals, dtype=np.float64)
    a = ad.softmax(t64(x)).data
    b = ad.softmax(t64(x + shift)).data
    assert abs(a.sum() - 1.0) < 1e-6
    assert np.abs(a - b).max() < 1e-9
    assert (a >= 0).all()


# ---------------------------------------------------------------- cross entropy


def test_cross_entropy_uniform_logits():
    v = 11
    logits = t64(np.zeros((2, 3, v)))
    targets = np.zeros((2, 3), dtype=np.int64)
    assert abs(ad.cross_entropy(logits, targets).item() - np.log(v)) < 1e-9


def test_cross_entropy_margin_limit():
    losses = []
    for margin in (5.0, 20.0, 60.0):
        logits = np.zeros((1, 1, 8))
        logits[0, 0, 3] = margin
        losses.append(ad.cross_entropy(t64(logits), np.array([[3]])).item())
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-9


def test_cross_entropy_vs_log_softmax_oracle(rng):
    logits = rng.normal(size=(2, 4, 9)) * 3
    targets = rng.integers(0, 9, size=(2, 4))
    want = -np.take_along_axis(
        oracle.naive_log_softmax(logits), targets[..., None], axis=-1
    ).mean()
    got = ad.cross_entropy(t64(logits), targets).item()
    assert abs(got - want) < 1e-6


def test_cross_entropy_bad_targets():
    logits = t64(np.zeros((1, 2, 4)))
    with pytest.raises(DataError):
        ad.cross_entropy(logits, np.array([[0, 4]]))


def test_cross_entropy_prefix_equals_sliced_logits(rng):
    # Targets one shorter than the logits score the first S-1 positions:
    # the same loss as slicing the logits, bit for bit, with an exactly
    # zero gradient on the unscored last position.
    for dtype in (np.float32, np.float64):
        logits = (rng.normal(size=(3, 5, 11)) * 2).astype(dtype)
        targets = rng.integers(0, 11, size=(3, 4))
        full = Tensor(logits, requires_grad=True)
        sliced = Tensor(logits[:, :-1], requires_grad=True)
        with Tape():
            got = ad.cross_entropy(full, targets)
        with Tape():
            want = ad.cross_entropy(sliced, targets)
        assert got.data.tobytes() == want.data.tobytes()
        ad.backward(got)
        ad.backward(want)
        assert full.grad.shape == logits.shape
        assert np.array_equal(full.grad[:, :-1], sliced.grad)
        assert not full.grad[:, -1].any()


def test_cross_entropy_prefix_gradient_vs_finite_differences(rng):
    logits = t64(rng.normal(size=(2, 4, 6)), requires_grad=True)
    targets = rng.integers(0, 6, size=(2, 2))
    with Tape():
        loss = ad.cross_entropy(logits, targets)
    ad.backward(loss)
    oracle.check_fd(
        lambda: ad.cross_entropy(logits, targets).item(), {"logits": logits}, h=1e-5, tol=1e-6
    )


def test_cross_entropy_rejects_misshapen_targets():
    logits = t64(np.zeros((2, 3, 4)))
    for targets in (np.zeros((2, 4)), np.zeros((1, 3)), np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ShapeError):
            ad.cross_entropy(logits, targets.astype(np.int64))


# ---------------------------------------------------------------- log-softmax


def test_log_softmax_vs_oracle(rng):
    x = rng.normal(size=(3, 4, 9)) * 5
    got = ad.log_softmax(t64(x)).data
    assert np.abs(got - oracle.naive_log_softmax(x)).max() < 1e-12


def test_fd_log_softmax(rng):
    x = t64(rng.normal(size=(2, 3, 6)), requires_grad=True)
    weight = Tensor(rng.normal(size=(2, 3, 6)))

    def compute():
        return ad.tsum(ad.mul(ad.log_softmax(x), weight))

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"x": x}, h=1e-5, tol=1e-6)


def test_soft_cross_entropy_vs_oracle(rng):
    x = rng.normal(size=(2, 3, 7)) * 3
    p = oracle.naive_softmax(rng.normal(size=(2, 3, 7)))
    want = -(p * oracle.naive_log_softmax(x)).sum(-1)
    assert np.abs(ad.soft_cross_entropy(t64(x), p).data - want).max() < 1e-12


# ---------------------------------------------------------------- tape & backward


def test_backward_sum_gives_ones():
    w = t64(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        loss = ad.tsum(w)
    ad.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_squared_norm_gives_2w():
    rng = np.random.default_rng(3)
    w = t64(rng.normal(size=(3, 4)), requires_grad=True)
    with Tape():
        loss = ad.tsum(ad.mul(w, w))
    ad.backward(loss)
    assert np.allclose(w.grad, 2 * w.data, atol=1e-12)


def test_backward_without_tape_raises():
    w = t64(np.ones(3), requires_grad=True)
    loss = ad.tsum(w)  # no tape active
    with pytest.raises(TapeError):
        ad.backward(loss)


def test_tape_consumed_once():
    w = t64(np.ones(3), requires_grad=True)
    with Tape():
        loss = ad.tsum(w)
    ad.backward(loss)
    with pytest.raises(TapeError):
        ad.backward(loss)


def test_no_tape_records_nothing():
    w = t64(np.ones((2, 2)), requires_grad=True)
    before = ad.nodes_recorded_total()
    ad.matmul(w, w)
    ad.softmax(w)
    assert ad.nodes_recorded_total() == before


def test_no_grad_hides_tape():
    w = t64(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        with ad.no_grad():
            ad.matmul(w, w)
        assert not tape.nodes
        out = ad.matmul(w, w)
        assert len(tape.nodes) == 1 and out.requires_grad


def test_fan_out_gradient_accumulates():
    # x feeds two consumers; grad is the sum of both paths.
    x = t64(np.array([1.0, 2.0]), requires_grad=True)
    w = t64(np.array([3.0, 4.0]), requires_grad=True)
    with Tape():
        a = ad.add(x, x)
        b = ad.mul(x, w)
        loss = ad.tsum(ad.add(a, b))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0 + w.data)
    assert np.allclose(w.grad, x.data)


def test_grad_buffers_are_independent():
    # Regression guard for the alias-aware accumulation: two leaves fed by
    # one add must not share a gradient buffer.
    x = t64(np.ones(4), requires_grad=True)
    y = t64(np.ones(4), requires_grad=True)
    with Tape():
        s = ad.add(x, y)
        loss = ad.tsum(ad.add(s, ad.mul(x, 3.0)))
    ad.backward(loss)
    assert np.allclose(x.grad, 4.0)
    assert np.allclose(y.grad, 1.0)


def test_branch_off_the_loss_leaves_its_leaf_without_grad():
    # The branch reads a node that feeds the loss, and a leaf of its own.
    x = t64(np.array([1.0, 2.0]), requires_grad=True)
    y = t64(np.array([3.0, 4.0]), requires_grad=True)
    with Tape():
        h = ad.mul(x, x)
        loss = ad.tsum(h)
        ad.tsum(ad.mul(h, y))
    ad.backward(loss)
    assert y.grad is None
    assert np.array_equal(x.grad, 2 * x.data)


@pytest.fixture
def no_gc():
    """The cycle collector off, so only reference counting frees memory."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_intermediate_no_backward_reads_is_freed_when_dropped(no_gc):
    # add's backward reads no input array, so nothing in the graph keeps y.
    w = t64(np.arange(9.0).reshape(3, 3), requires_grad=True)
    with Tape():
        y = ad.matmul(w, w)
        z = ad.add(y, t64(np.ones((3, 3))))
        data = weakref.ref(y.data)
        del y
        assert data() is None
        loss = ad.tsum(z)
    ad.backward(loss)
    ones = np.ones((3, 3))
    assert np.array_equal(w.grad, ones @ w.data.T + w.data.T @ ones)


def test_saved_input_is_freed_by_backward(no_gc):
    w = t64(np.arange(4.0), requires_grad=True)
    with Tape():
        y = ad.mul(w, 2.0)
        loss = ad.tsum(ad.mul(y, y))  # mul's backward reads y
    data = weakref.ref(y.data)
    del y
    assert data() is not None
    ad.backward(loss)
    assert data() is None
    assert np.array_equal(w.grad, 8 * w.data)
    with pytest.raises(TapeError):
        ad.backward(loss)


def test_output_of_a_consumed_tape_is_a_leaf_under_a_new_tape(no_gc):
    w = t64(np.arange(3.0), requires_grad=True)
    with Tape():
        y = ad.mul(w, 2.0)
        loss = ad.tsum(y)
    ad.backward(loss)
    assert y.grad is None  # a non-leaf's gradient lived on its node
    with Tape():
        loss = ad.tsum(ad.mul(y, y))
    ad.backward(loss)
    assert np.array_equal(y.grad, 2 * y.data)
    assert np.array_equal(w.grad, np.full(3, 2.0))


# ---------------------------------------------------------------- fd checks


def test_fd_smooth_primitives():
    # Kink-free composite: matmul -> layer_norm -> softmax-weighted sum ->
    # log/exp -> cross entropy. Checked at the conventional h=1e-3.
    rng = np.random.default_rng(5)
    w1 = t64(rng.normal(size=(6, 5)), requires_grad=True)
    w2 = t64(rng.normal(size=(5, 7)), requires_grad=True)
    gamma = t64(np.ones(7), requires_grad=True)
    beta = t64(np.zeros(7), requires_grad=True)
    x = rng.normal(size=(3, 6))
    targets = rng.integers(0, 7, size=(1, 3))

    def compute():
        h = ad.matmul(ad.matmul(Tensor(x), w1), w2)
        h = ad.layer_norm(h, gamma, beta)
        h = ad.mul(ad.exp(ad.mul(h, 0.1)), 1.0)
        return ad.cross_entropy(ad.reshape(h, (1, 3, 7)), targets)

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(
        lambda: compute().item(),
        {"w1": w1, "w2": w2, "gamma": gamma, "beta": beta},
        h=1e-3,
        tol=1e-4,
    )


def test_fd_squared_relu_matmul_away_from_kink():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 4))
    a = t64(np.sign(x) * (np.abs(x) + 0.1), requires_grad=True)  # both sides, off the kink
    w = t64(rng.normal(size=(4, 5)), requires_grad=True)
    weights = t64(rng.normal(size=(2, 3, 5)))

    def compute():
        return ad.tsum(ad.mul(ad.squared_relu_matmul(a, w), weights))

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"a": a, "w": w}, h=1e-3, tol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_squared_relu_matmul_is_bitwise_the_two_step_chain(dtype):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 5, 8)).astype(dtype)
    x[0, 0, :3] = 0.0  # the kink itself
    a = Tensor(x, requires_grad=True)
    w = Tensor(rng.normal(size=(8, 6)).astype(dtype), requires_grad=True)
    g = rng.normal(size=(3, 5, 6)).astype(dtype)
    with Tape():
        out = ad.squared_relu_matmul(a, w)
        loss = ad.tsum(ad.mul(out, Tensor(g)))  # out's gradient is g exactly
    ad.backward(loss)
    want = oracle.squared_relu_then_matmul(x, w.data, g)
    for got, ref in zip((out.data, a.grad, w.grad), want):
        assert got.dtype == dtype and got.tobytes() == ref.tobytes()


def test_fd_gather_logsumexp_rope():
    rng = np.random.default_rng(7)
    w = t64(rng.normal(size=(2, 4, 3 * 8)), requires_grad=True)
    cos = np.cos(rng.normal(size=(4, 3, 8)))
    sin = np.sin(rng.normal(size=(4, 3, 8)))
    idx = np.tile(np.array([1, 5, 6]), (2, 4, 3, 1))

    def compute():
        r = ad.rope(w, cos, sin)
        g = ad.gather_last(r, idx)
        return ad.tsum(ad.sub(g, ad.log_softmax(g)))  # logsumexp(g) in every entry

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"w": w}, h=1e-3, tol=1e-4)


def test_rope_takes_only_the_projection_layout():
    # x is [B, S, heads·d] as linear returns it; the [S, heads, d] tables fix
    # S, heads and d. The output is per head, the gradient in x's own shape.
    cos = sin = np.ones((4, 3, 8))
    with Tape():
        x = t64(np.ones((2, 4, 24)), requires_grad=True)
        out = ad.rope(x, cos, sin)
        loss = ad.tsum(out)
    ad.backward(loss)
    assert out.shape == (2, 4, 3, 8) and x.grad.shape == (2, 4, 24)
    for shape in ((2, 4, 3, 8), (2, 5, 24), (2, 4, 16), (4, 24), ()):
        with pytest.raises(ShapeError):
            ad.rope(t64(np.ones(shape)), cos, sin)
    with pytest.raises(ShapeError):
        ad.rope(t64(np.ones((2, 4, 24))), cos, np.ones((4, 1, 8)))


def test_fd_repeat_div_pow():
    rng = np.random.default_rng(8)
    a = t64(rng.normal(size=(2, 4, 3, 4)) + 3.0, requires_grad=True)
    b = t64(rng.normal(size=(2, 4, 3, 4)) + 5.0, requires_grad=True)

    def compute():
        return ad.tsum(ad.pow_const(ad.div(a, b), 2.0))

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"a": a, "b": b}, h=1e-3, tol=1e-4)


@pytest.mark.parametrize("heads,groups", [(4, 4), (4, 2)])
def test_fd_causal_attention(heads, groups):
    # MHA and GQA; at S=6 the causal mask hides 15 of each head's 36 scores.
    rng = np.random.default_rng(11)
    b, s, d = 2, 6, 4
    q = t64(rng.normal(size=(b, s, heads, d)), requires_grad=True)
    k = t64(rng.normal(size=(b, s, groups, d)), requires_grad=True)
    v = t64(rng.normal(size=(b, s, groups, d)), requires_grad=True)
    weight = Tensor(rng.normal(size=(b, s, heads, d)))

    def compute():
        return ad.tsum(ad.mul(ad.causal_attention(q, k, v), weight))

    with Tape():
        loss = compute()
    ad.backward(loss)
    oracle.check_fd(lambda: compute().item(), {"q": q, "k": k, "v": v}, h=1e-5, tol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads,groups", [(4, 4), (4, 2), (8, 1)])
@pytest.mark.parametrize("seq", [32, 64])
def test_causal_attention_is_bitwise_the_head_major_kernel(dtype, heads, groups, seq):
    # Operands in the projections' [B, S, heads, d] layout, as contiguous
    # arrays; the reference reads the head-major views a caller's transpose
    # made, so every GEMM sees the same operands and the output and q/k/v
    # gradients match byte for byte.
    rng = np.random.default_rng(seq + heads + groups)
    b, d = 2, 8
    q, k, v = (Tensor(rng.normal(size=(b, seq, n, d)).astype(dtype), requires_grad=True)
               for n in (heads, groups, groups))
    g = rng.normal(size=(b, seq, heads, d)).astype(dtype)
    with Tape():
        out = ad.causal_attention(q, k, v)
        loss = ad.tsum(ad.mul(out, Tensor(g)))  # out's gradient is g exactly
    ad.backward(loss)
    want = oracle.head_major_causal_attention(
        *(t.data.transpose(0, 2, 1, 3) for t in (q, k, v)), g.transpose(0, 2, 1, 3))
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want, strict=True):
        assert got.dtype == dtype
        assert got.transpose(0, 2, 1, 3).tobytes() == ref.tobytes()


def test_causal_attention_shape_mismatch():
    k = t64(np.ones((1, 3, 2, 4)))
    narrow_v = t64(np.ones((1, 3, 2, 2)))
    with pytest.raises(ShapeError):  # 3 query heads over 2 groups
        ad.causal_attention(t64(np.ones((1, 3, 3, 4))), k, k)
    with pytest.raises(ShapeError):  # keys and values disagree
        ad.causal_attention(t64(np.ones((1, 3, 2, 4))), k, narrow_v)
    with pytest.raises(ShapeError):  # queries and keys disagree on the sequence
        ad.causal_attention(t64(np.ones((1, 4, 2, 4))), k, k)


# ---------------------------------------------------------------- misc


def test_determinism_bit_identical():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 8)).astype(np.float32)
    one = ad.softmax(ad.matmul(Tensor(a), Tensor(a))).data
    two = ad.softmax(ad.matmul(Tensor(a), Tensor(a))).data
    assert np.array_equal(one, two)


def test_non_finite_construction_rejected():
    with pytest.raises(DataError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(DataError):
        Tensor(np.array([np.inf]))


def test_embedding_lookup_and_grad():
    table = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2], [2, 3]])
    with Tape():
        out = ad.embedding(table, ids)
        loss = ad.tsum(out)
    assert out.shape == (2, 2, 3)
    ad.backward(loss)
    # row 2 used twice, rows 0 and 3 once, row 1 never
    assert np.allclose(table.grad.sum(axis=1), [3.0, 0.0, 6.0, 3.0])
    with pytest.raises(DataError):
        ad.embedding(table, np.array([[4]]))

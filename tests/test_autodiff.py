"""Gradient and value checks for the reverse-mode tensor engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odflow import autodiff as ad
from odflow.autodiff import Tensor


def check(f, params, tol=1e-4, sample=None):
    report = ad.grad_check(f, params, tol=tol, sample=sample)
    assert report.passed, report
    return report


def rand(shape, seed=0, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0, scale, size=shape),
                  requires_grad=True)


# -- elementwise -----------------------------------------------------------


def test_add_mul_sub_div_grads():
    a = rand((3, 4), 1)
    b = rand((3, 4), 2)
    check(lambda: ((a + b) * (a - b)).sum(), [a, b])
    c = Tensor(np.abs(np.random.default_rng(3).normal(2, 0.3, (3, 4))),
               requires_grad=True)
    check(lambda: (a / c).sum(), [a, c])


def test_broadcast_grads():
    a = rand((2, 3, 4), 1)
    b = rand((4,), 2)
    c = rand((3, 1), 3)
    check(lambda: (a * b + c).sum(), [a, b, c])


def test_pow_exp_log_grads():
    a = Tensor(np.abs(np.random.default_rng(4).normal(1.5, 0.2, (5,))),
               requires_grad=True)
    check(lambda: (a ** 3).sum(), [a])
    check(lambda: (a ** -0.5).sum(), [a])
    check(lambda: a.exp().sum(), [a])
    check(lambda: a.log().sum(), [a])


def test_unary_activation_grads():
    # keep entries away from the relu/abs kinks
    a = Tensor(np.array([-2.0, -0.7, 0.4, 1.3, 2.2]), requires_grad=True)
    check(lambda: a.sigmoid().sum(), [a])
    check(lambda: a.tanh().sum(), [a])
    check(lambda: a.relu().sum(), [a])
    check(lambda: a.abs().sum(), [a])
    check(lambda: ad.softplus(a).sum(), [a])


def test_softplus_values():
    assert ad.softplus(Tensor(0.0)).item() == pytest.approx(0.6931471805599453,
                                                            abs=1e-12)
    assert abs(ad.softplus(Tensor(30.0)).item() - 30.0) < 1e-9
    assert ad.softplus(Tensor(-20.0)).item() == pytest.approx(
        2.0611536224385579e-09, abs=1e-12)
    # no overflow at extreme inputs
    big = ad.softplus(Tensor(np.array([-1e4, 1e4])))
    assert np.isfinite(big.data).all()
    assert big.data[0] == 0.0
    assert big.data[1] == 1e4


@given(st.floats(-50, 50))
@settings(max_examples=50, deadline=None)
def test_softplus_positive_and_above_x(x):
    y = ad.softplus(Tensor(x)).item()
    assert y >= 0.0
    assert y >= x


# -- shape ops -------------------------------------------------------------


def test_reshape_transpose_getitem_grads():
    a = rand((2, 3, 4), 5)
    check(lambda: (a.reshape(6, 4) ** 2).sum(), [a])
    check(lambda: (a.transpose(2, 0, 1) * 1.5).sum(), [a])
    check(lambda: (a[:, 1, :] ** 2).sum(), [a])
    idx = np.array([0, 2, 2])  # repeated gather accumulates
    check(lambda: (a[:, :, idx] ** 2).sum(), [a])


def test_concat_stack_grads():
    a = rand((2, 3), 6)
    b = rand((2, 5), 7)
    check(lambda: (ad.concat([a, b], axis=1) ** 2).sum(), [a, b])


def test_embedding_grad_accumulates_repeats():
    table = rand((4, 3), 9)
    idx = np.array([[0, 1], [1, 1]])
    check(lambda: (ad.embedding(table, idx) ** 2).sum(), [table])
    table.zero_grad()
    ad.embedding(table, idx).sum().backward()
    # row 1 is used three times, row 0 once, rows 2/3 never
    assert np.allclose(table.grad[0], 1.0)
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[2:], 0.0)


# -- reductions ------------------------------------------------------------


def test_reduction_grads():
    a = rand((3, 4), 10)
    check(lambda: a.sum(), [a])
    check(lambda: a.mean(axis=0).sum(), [a])
    check(lambda: (a.sum(axis=1, keepdims=True) * a).sum(), [a])
    check(lambda: a.std(axis=1).sum(), [a])


def test_max_min_grads_and_tie_split():
    a = rand((3, 4), 11)
    check(lambda: a.max(axis=1).sum(), [a])
    check(lambda: a.min(axis=0).sum(), [a])
    t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
    t.max().backward()
    assert np.allclose(t.grad, [0.5, 0.5, 0.0])


# -- matmul ----------------------------------------------------------------


def test_matmul_grads():
    a = rand((3, 4), 12)
    b = rand((4, 5), 13)
    check(lambda: (a @ b).sum(), [a, b])


def test_batched_and_broadcast_matmul_grads():
    a = rand((2, 3, 4), 14)
    b = rand((2, 4, 5), 15)
    check(lambda: (a @ b).sum(), [a, b])
    w = rand((4, 5), 16)  # broadcast over the batch axis
    check(lambda: (a @ w).sum(), [a, w])


# -- structured primitives -------------------------------------------------


def test_layer_norm_values_and_grads():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    g = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = ad.layer_norm(x, g, b)
    # population variance 2/3; values +-sqrt(3/2) up to the eps fudge
    assert np.allclose(out.data, [[-1.2247448, 0.0, 1.2247448]], atol=1e-4)
    check(lambda: (ad.layer_norm(x, g, b) * Tensor([[1.0, -2.0, 0.5]])).sum(),
          [x, g, b])


def test_conv1d_values():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    k = Tensor(np.ones((1, 1, 3)))
    out = ad.conv1d_time(x, k)
    assert np.allclose(out.data, [[[3.0, 6.0, 9.0, 7.0]]])


def test_conv1d_grads():
    x = rand((2, 3, 6), 17)
    k = rand((4, 3, 3), 18, scale=0.5)
    b = rand((4,), 19)
    check(lambda: (ad.conv1d_time(x, k, b) ** 2).sum(), [x, k, b])


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ValueError):
        ad.conv1d_time(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))


def test_attention_softmax_values():
    s = Tensor(np.array([[0.0, 1.0]]))
    out = ad.attention_softmax(s, np.array([[True, True]]))
    assert np.allclose(out.data, [[0.26894142, 0.73105858]], atol=1e-8)
    out = ad.attention_softmax(s, np.array([[True, False]]))
    assert np.allclose(out.data, [[1.0, 0.0]])
    assert out.data[0, 1] == 0.0  # exactly zero, not tiny


def test_attention_softmax_masked_grads():
    s = rand((2, 3, 4), 20)
    mask = np.array([[True, True, False, True]])
    check(lambda: (ad.attention_softmax(s, mask)
                   * Tensor(np.random.default_rng(21).normal(size=(2, 3, 4)))
                   ).sum(), [s])


def test_attention_softmax_matches_reference_bits():
    r = np.random.default_rng(22)
    scores = r.normal(size=(2, 3, 5, 5))
    mask = r.random((2, 1, 1, 5)) < 0.6
    mask[..., 0] = True
    g = r.normal(size=scores.shape)
    s = Tensor(scores, requires_grad=True)
    out = ad.attention_softmax(s, mask)
    (out * Tensor(g)).sum().backward()
    m = np.broadcast_to(mask, scores.shape)
    neg = np.where(m, scores, -np.inf)
    e = np.where(m, np.exp(neg - neg.max(axis=-1, keepdims=True)), 0.0)
    ref = e / e.sum(axis=-1, keepdims=True)
    ref_grad = np.zeros_like(scores)
    ref_grad += ref * (g - (g * ref).sum(axis=-1, keepdims=True))
    for got, want in ((out.data, ref), (s.grad, ref_grad)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_attention_softmax_empty_row_raises():
    with pytest.raises(ValueError):
        ad.attention_softmax(Tensor(np.zeros((1, 2))),
                             np.array([[False, False]]))


def test_dropout_modes():
    x = Tensor(np.ones((100,)), requires_grad=True)
    assert ad.dropout(x, 0.5, None, training=False) is x
    rng = np.random.default_rng(0)
    y = ad.dropout(x, 0.5, rng, training=True)
    kept = y.data != 0.0
    assert np.allclose(y.data[kept], 2.0)  # inverted scaling
    assert 20 < kept.sum() < 80


# -- infrastructure --------------------------------------------------------


def test_first_gradient_is_zero_plus_g_and_never_shared():
    # a -0.0 gradient is stored as 0.0 + -0.0 = +0.0
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True)
    (x * Tensor(np.array([-0.0, 2.0]))).sum().backward()
    assert np.array_equal(np.signbit(x.grad), [False, False])
    assert np.array_equal(x.grad, [0.0, 2.0])
    # add hands one upstream gradient to both operands: neither may keep it
    a, b = rand((3,), 1), rand((3,), 2)
    y = a + b
    (y * 2.0 + a.exp()).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, y.grad)
    assert np.array_equal(b.grad, np.full(3, 2.0))
    assert np.allclose(a.grad, 2.0 + np.exp(a.data))


def test_backward_accumulates_through_diamond():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = a * 3.0
    (b * a).sum().backward()  # d/da (3a^2) = 6a = 12
    assert np.allclose(a.grad, [12.0])


def test_grad_check_catches_missing_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def detached():
        # the graph is cut, so the analytic gradient is zero while the
        # finite difference is not
        return (Tensor(x.data) * x.data).sum() + x.sum() * 0.0

    report = ad.grad_check(detached, [x])
    assert not report.passed


def test_clip_grad_norm():
    a = Tensor(np.array([3.0]), requires_grad=True)
    b = Tensor(np.array([4.0]), requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    norm = ad.clip_grad_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(a.grad, [0.6])
    assert np.allclose(b.grad, [0.8])


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
@settings(max_examples=40, deadline=None)
def test_sum_matches_numpy(values):
    t = Tensor(np.array(values), requires_grad=True)
    assert t.sum().item() == pytest.approx(float(np.sum(values)), abs=1e-9)
    t.sum().backward()
    assert np.allclose(t.grad, 1.0)

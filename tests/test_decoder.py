"""Decoder tests: masked attention semantics, permutation equivariance,
the Softplus head, and the masked loss."""

import numpy as np
import pytest

from odflow import autodiff as ad
from odflow.autodiff import Tensor
from odflow.decoder import Decoder, DecoderConfig, masked_mse_loss


def small_decoder(layers=1, heads=2, d=8, f=16, dropout=0.0, seed=0):
    cfg = DecoderConfig(layers=layers, heads=heads, model_dim=d, ffn_dim=f,
                        dropout=dropout)
    return Decoder(cfg, rng=np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(model_dim=10, heads=4)
    with pytest.raises(ValueError, match="heads must be at least 1, not 0"):
        DecoderConfig(heads=0)


def test_token_dim_mismatch_raises():
    dec = small_decoder()
    with pytest.raises(ValueError):
        dec.decode(Tensor(np.zeros((1, 3, 9))), np.ones((1, 3), dtype=bool))


def test_single_token_attention_is_value_path():
    dec = small_decoder()
    x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 8)))
    out = dec._mha(x, np.ones((1, 1), dtype=bool), 0)
    p = dec.params
    v = x.data[0, 0] @ p["decoder.0.attn.v_w"].data + p["decoder.0.attn.v_b"].data
    expect = v @ p["decoder.0.attn.o_w"].data + p["decoder.0.attn.o_b"].data
    assert np.allclose(out.data[0, 0], expect, atol=1e-12)


def test_masked_tokens_cannot_influence_valid_outputs():
    dec = small_decoder(layers=2)
    rng = np.random.default_rng(2)
    base = rng.normal(size=(1, 5, 8))
    mask = np.array([[True, True, True, False, False]])
    a = dec.decode(Tensor(base), mask).data
    noisy = base.copy()
    noisy[0, 3:] = rng.normal(size=(2, 8)) * 100.0  # rewrite padded tokens
    b = dec.decode(Tensor(noisy), mask).data
    assert np.allclose(a[0, :3], b[0, :3], atol=1e-12)


def test_token_order_equivariance():
    # no positional signal inside the decoder: permuting tokens permutes outputs
    dec = small_decoder(layers=2)
    x = np.random.default_rng(3).normal(size=(1, 6, 8))
    mask = np.ones((1, 6), dtype=bool)
    out = dec.decode(Tensor(x), mask).data
    perm = np.array([4, 0, 5, 2, 1, 3])
    out_p = dec.decode(Tensor(x[:, perm]), mask).data
    assert np.allclose(out_p, out[:, perm], atol=1e-9)


def test_flow_head_nonnegative():
    dec = small_decoder()
    z = Tensor(np.random.default_rng(4).normal(0, 50, size=(2, 7, 8)))
    flows = dec.predict_flows(z)
    assert flows.shape == (2, 7)
    assert np.all(flows.data >= 0.0)


def test_flow_head_at_zero_weights():
    dec = small_decoder()
    dec.params["decoder.head.w_out"].data[:] = 0.0
    dec.params["decoder.head.b_out"].data[:] = 0.0
    z = Tensor(np.random.default_rng(5).normal(size=(1, 3, 8)))
    flows = dec.predict_flows(z)
    assert np.allclose(flows.data, np.log(2.0))  # softplus(0)


def test_masked_loss_value_and_padding_independence():
    pred = Tensor(np.array([[[1.0, 2.0], [3.0, 5.0]]]))  # (1, 2, 2)
    targets = np.array([[[1.0, 1.0], [2.0, 0.0]]])
    mask = np.array([[[True, True], [True, False]]])
    loss = masked_mse_loss(pred, targets, mask, [1])
    assert loss.item() == pytest.approx(1.0)  # only (3-2)^2 over 1 valid slot
    loss_all = masked_mse_loss(pred, targets, mask, [0, 1])
    assert loss_all.item() == pytest.approx((0.0 + 1.0 + 1.0) / 3.0)
    # padded slot value is irrelevant
    pred2 = Tensor(np.array([[[1.0, 2.0], [3.0, 999.0]]]))
    assert masked_mse_loss(pred2, targets, mask, [1]).item() == pytest.approx(1.0)


def test_masked_loss_no_valid_slots_raises():
    pred = Tensor(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        masked_mse_loss(pred, np.zeros((1, 2, 2)),
                        np.zeros((1, 2, 2), dtype=bool), [1])


def test_decoder_gradients():
    dec = small_decoder()
    x = Tensor(np.random.default_rng(6).normal(size=(1, 4, 8)), requires_grad=True)
    mask = np.array([[True, True, True, False]])
    targets = np.random.default_rng(7).uniform(0, 1, size=(1, 1, 4))
    m3 = mask[:, None, :]

    def f():
        flows = dec.forward(x, mask)
        return masked_mse_loss(flows.reshape(1, 1, 4), targets, m3, [0])

    params = [x] + [dec.params[k] for k in sorted(dec.params)]
    report = ad.grad_check(f, params, sample=5)
    assert report.passed, report


def test_eval_mode_deterministic_despite_dropout():
    dec = small_decoder(dropout=0.5)
    x = Tensor(np.random.default_rng(8).normal(size=(1, 4, 8)))
    mask = np.ones((1, 4), dtype=bool)
    a = dec.forward(x, mask).data
    b = dec.forward(x, mask).data
    assert np.array_equal(a, b)
    c = dec.forward(x, mask, training=True, rng=np.random.default_rng(0)).data
    assert not np.array_equal(a, c)

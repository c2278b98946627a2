"""Encoder tests: embedding, positional encoding, conv and graph stacks,
edge tokens, permutation behavior, and end-to-end gradients."""

import numpy as np
import pytest

from odflow import autodiff as ad
from odflow.encoder import Encoder, EncoderConfig, positional_encoding
from odflow.mobility import NormStats, Window, collate


def small_config(**kw):
    base = dict(n_types=3, poi_embed_dim=2, temporal_channels=[4, 8],
                kernel_size=3, gcn_widths=[16], edge_dim=16, dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def toy_window(seed=0, n=4, t=4, edges=((0, 1), (2, 3), (1, 2))):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 1, size=(n, 7, t))
    feats[:, 0, :] = rng.integers(0, 3, size=(n, 1))  # type index slot
    adj = rng.uniform(0.1, 1.0, size=(t, n, n))
    adj /= adj.sum(axis=2, keepdims=True)
    cand = sorted(edges)
    flows = rng.integers(0, 5, size=(t, len(cand))).astype(float)
    return Window(0, feats, adj, cand, flows, [t - 1])


def toy_batch(windows):
    return collate(windows, NormStats(np.zeros(6), np.ones(6), 5.0))


def test_default_input_dim_is_twelve():
    assert EncoderConfig().input_dim == 12


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(kernel_size=2)
    with pytest.raises(ValueError):
        small_config(gcn_widths=[16, 8], edge_dim=8)
    with pytest.raises(ValueError):
        small_config(gcn_widths=[8], edge_dim=16)
    with pytest.raises(ValueError, match="temporal_channels"):
        small_config(temporal_channels=[])
    with pytest.raises(ValueError, match="gcn_widths"):
        small_config(gcn_widths=[])


def test_positional_encoding_first_column():
    pe = positional_encoding(5, 8)
    assert pe.shape == (8, 5)
    # position 0: sin rows are 0, cos rows are 1
    assert np.allclose(pe[0::2, 0], 0.0)
    assert np.allclose(pe[1::2, 0], 1.0)
    assert pe[0, 1] == pytest.approx(np.sin(1.0))


def test_embed_features_replaces_type_slot():
    cfg = small_config()
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    batch = toy_batch([toy_window()])
    z0 = enc.embed_features(batch.x)
    b, n, d0, t = z0.shape
    assert (b, n, d0, t) == (1, 4, cfg.input_dim, 4)
    # continuous block passes through untouched
    assert np.allclose(z0.data[:, :, cfg.poi_embed_dim:, :], batch.x[:, :, 1:, :])
    # type slot became its embedding row
    table = enc.params["encoder.embed.table"].data
    k = int(batch.x[0, 2, 0, 1])
    assert np.allclose(z0.data[0, 2, :cfg.poi_embed_dim, 1], table[k])


def test_temporal_conv_stack_shape():
    cfg = small_config()
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    batch = toy_batch([toy_window()])
    z = enc.temporal_encode(enc.embed_features(batch.x))
    h = enc.temporal_conv_stack(z)
    assert h.shape == (1, 4, cfg.temporal_channels[-1], 4)


def test_forward_shapes_and_padding_zeros():
    cfg = small_config()
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    w1 = toy_window(1, edges=((0, 1), (1, 2)))
    w2 = toy_window(2, edges=((0, 3),))
    batch = toy_batch([w1, w2])
    tokens, flat_mask, node_emb = enc.forward(batch)
    t, m = batch.mask.shape[1], batch.mask.shape[2]
    assert tokens.shape == (2, t * m, cfg.edge_dim)
    assert flat_mask.shape == (2, t * m)
    assert node_emb.shape == (2, t, 4, cfg.gcn_widths[-1])
    # padded slots carry exact zero vectors
    toks = tokens.data.reshape(2, t, m, cfg.edge_dim)
    assert np.all(toks[1, :, 1:, :] == 0.0)
    assert np.any(toks[1, :, 0, :] != 0.0)


def test_residual_projection_params_exist_only_on_width_change():
    enc = Encoder(small_config(gcn_widths=[8, 16], edge_dim=16),
                  rng=np.random.default_rng(0))
    assert "encoder.gcn.1.r" in enc.params      # 8 -> 16 needs projection
    assert "encoder.gcn.0.r" not in enc.params  # 8 -> 8 identity residual


def permute_window(w, perm):
    """Relabel node i as perm[i]."""
    inv = np.argsort(perm)
    feats = w.features[inv]
    adj = w.adjacency[:, inv][:, :, inv]
    mapping = {tuple(e): k for k, e in enumerate(w.candidate_edges)}
    cand = sorted((int(perm[i]), int(perm[j])) for i, j in w.candidate_edges)
    flows = np.zeros_like(w.flows)
    for k, (i, j) in enumerate(cand):
        flows[:, k] = w.flows[:, mapping[(int(inv[i]), int(inv[j]))]]
    return Window(w.start, feats, adj, cand, flows, w.target_steps), cand


def test_node_permutation_equivariance():
    cfg = small_config()
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    w = toy_window(3)
    perm = np.array([2, 0, 3, 1])
    wp, cand_p = permute_window(w, perm)
    tok, _, emb = enc.forward(toy_batch([w]))
    tok_p, _, emb_p = enc.forward(toy_batch([wp]))
    # node embeddings move with the relabeling
    for i in range(4):
        assert np.allclose(emb_p.data[0][:, perm[i], :], emb.data[0][:, i, :],
                           atol=1e-9)
    # each edge token is unchanged under relabeling
    t = w.adjacency.shape[0]
    tok = tok.data.reshape(1, t, len(w.candidate_edges), cfg.edge_dim)
    tok_p = tok_p.data.reshape(1, t, len(cand_p), cfg.edge_dim)
    for k, (i, j) in enumerate(w.candidate_edges):
        kp = cand_p.index((int(perm[i]), int(perm[j])))
        assert np.allclose(tok_p[0, :, kp, :], tok[0, :, k, :], atol=1e-9)


def test_encoder_gradients():
    cfg = small_config()
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    batch = toy_batch([toy_window(4, n=3, t=3, edges=((0, 1), (1, 2)))])
    params = sorted(enc.params)
    weights = np.random.default_rng(5).normal(size=(1, 6, cfg.edge_dim))

    def f():
        tokens, _, _ = enc.forward(batch)
        return (tokens * ad.Tensor(weights)).sum()

    report = ad.grad_check(f, [enc.params[k] for k in params], sample=6)
    assert report.passed, report


def test_dropout_only_when_training():
    cfg = small_config(dropout=0.5)
    enc = Encoder(cfg, rng=np.random.default_rng(0))
    batch = toy_batch([toy_window(6)])
    a, _, _ = enc.forward(batch)
    b, _, _ = enc.forward(batch)
    assert np.array_equal(a.data, b.data)  # eval mode is deterministic
    c, _, _ = enc.forward(batch, training=True, rng=np.random.default_rng(1))
    assert not np.array_equal(a.data, c.data)

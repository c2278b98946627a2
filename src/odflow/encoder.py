"""Temporal graph encoder: POI-type embedding, sinusoidal temporal encoding,
a temporal convolution stack, per-step graph convolutions with residual
projections, and directed edge-token construction with a validity mask."""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

N_CONTINUOUS = 6


@dataclass
class EncoderConfig:
    n_types: int = 6
    poi_embed_dim: int = 6
    temporal_channels: list = field(default_factory=lambda: [32, 64])
    kernel_size: int = 3
    gcn_widths: list = field(default_factory=lambda: [128, 256])
    edge_dim: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if list(self.gcn_widths) != sorted(set(self.gcn_widths)):
            raise ValueError("gcn_widths must be strictly increasing")
        if self.gcn_widths[-1] != self.edge_dim:
            raise ValueError("last GCN width must equal edge_dim")

    @property
    def input_dim(self):
        return self.poi_embed_dim + N_CONTINUOUS


def positional_encoding(t_steps, dim):
    """Standard sine/cosine interleave over the feature axis, one column per t."""
    pe = np.zeros((dim, t_steps))
    pos = np.arange(t_steps)
    for i in range(0, dim, 2):
        div = 10000.0 ** (i / dim)
        pe[i] = np.sin(pos / div)
        if i + 1 < dim:
            pe[i + 1] = np.cos(pos / div)
    return pe


class Encoder:
    def __init__(self, config, rng=None, params=None):
        """Weights are read from `params` (a new dict when None); given
        `rng`, fresh initial values are first drawn into it."""
        self.config = config
        self.params = {} if params is None else params
        if rng is not None:
            self._init_params(rng)

    def _init_params(self, rng):
        cfg = self.config
        p = self.params
        p["encoder.embed.table"] = Tensor(
            rng.normal(0, 0.1, size=(cfg.n_types, cfg.poi_embed_dim)),
            requires_grad=True)
        c_in = cfg.input_dim
        for l, c_out in enumerate(cfg.temporal_channels):
            p[f"encoder.tconv.{l}.kernel"] = ad.glorot(
                rng, (c_out, c_in, cfg.kernel_size))
            p[f"encoder.tconv.{l}.bias"] = ad.zeros(c_out, requires_grad=True)
            p[f"encoder.tconv.{l}.ln_gamma"] = Tensor(np.ones(c_out),
                                                      requires_grad=True)
            p[f"encoder.tconv.{l}.ln_beta"] = ad.zeros(c_out, requires_grad=True)
            c_in = c_out
        w_in = cfg.temporal_channels[-1]
        for l, w_out in enumerate(cfg.gcn_widths):
            p[f"encoder.gcn.{l}.w"] = ad.glorot(rng, (w_in, w_out))
            if w_in != w_out:
                p[f"encoder.gcn.{l}.r"] = ad.glorot(rng, (w_in, w_out))
            w_in = w_out
        d = cfg.gcn_widths[-1]
        p["encoder.edge_proj.w"] = ad.glorot(rng, (3 * d, cfg.edge_dim))
        p["encoder.edge_proj.b"] = ad.zeros(cfg.edge_dim, requires_grad=True)

    # -- forward pieces ----------------------------------------------------

    def embed_features(self, x):
        """(B, N, 7, T) raw features -> (B, N, D0, T) with the type slot
        replaced by its embedding vector."""
        type_idx = np.asarray(x[:, :, 0, :], dtype=np.int64)  # (B, N, T)
        emb = ad.embedding(self.params["encoder.embed.table"], type_idx)
        emb = emb.transpose(0, 1, 3, 2)  # (B, N, E, T)
        cont = Tensor(x[:, :, 1:, :])
        return ad.concat([emb, cont], axis=2)

    def temporal_encode(self, z0):
        t = z0.shape[-1]
        pe = positional_encoding(t, self.config.input_dim)
        return z0 + Tensor(pe[None, None, :, :])

    def temporal_conv_stack(self, z, training=False, rng=None):
        """(B, N, D0, T) -> (B, N, C_last, T); conv / ReLU / LayerNorm over
        channels / dropout per layer."""
        b, n, c, t = z.shape
        h = z.reshape(b * n, c, t)
        for l in range(len(self.config.temporal_channels)):
            p = self.params
            h = ad.conv1d_time(h, p[f"encoder.tconv.{l}.kernel"],
                               p[f"encoder.tconv.{l}.bias"])
            h = h.relu()
            h = h.transpose(0, 2, 1)  # channels last for the norm
            h = ad.layer_norm(h, p[f"encoder.tconv.{l}.ln_gamma"],
                              p[f"encoder.tconv.{l}.ln_beta"])
            h = h.transpose(0, 2, 1)
            h = ad.dropout(h, self.config.dropout, rng, training)
        c_last = self.config.temporal_channels[-1]
        return h.reshape(b, n, c_last, t)

    def st_graph_conv(self, h, adjacency):
        """(B, N, C, T) plus row-normalized adjacency (B, T, N, N) ->
        node embeddings (B, T, N, D_last)."""
        x = h.transpose(0, 3, 1, 2)  # (B, T, N, C)
        a = Tensor(adjacency)
        for l in range(len(self.config.gcn_widths)):
            w = self.params[f"encoder.gcn.{l}.w"]
            conv = (a @ x @ w).relu()
            rkey = f"encoder.gcn.{l}.r"
            res = x @ self.params[rkey] if rkey in self.params else x
            x = conv + res
        return x

    def edge_tokens(self, node_emb, candidate_edges, mask):
        """Directed edge tokens [h_i || h_j || |h_i - h_j|] projected to the
        edge dimension, laid out edge-major within each time slot.

        node_emb: (B, T, N, D); mask: (B, T, M) bool.  Padding slots become
        zero vectors.  Returns (tokens (B, T*M, D_g), flat mask (B, T*M)).
        """
        b, t, n, d = node_emb.shape
        m = mask.shape[2]
        src = np.zeros((b, m), dtype=np.int64)
        dst = np.zeros((b, m), dtype=np.int64)
        for k, edges in enumerate(candidate_edges):
            for e, (i, j) in enumerate(edges):
                src[k, e] = i
                dst[k, e] = j
        bidx = np.arange(b)[:, None, None]
        tidx = np.arange(t)[None, :, None]
        h_i = node_emb[(bidx, tidx, src[:, None, :])]  # (B, T, M, D)
        h_j = node_emb[(bidx, tidx, dst[:, None, :])]
        u = ad.concat([h_i, h_j, (h_i - h_j).abs()], axis=-1)
        e = u @ self.params["encoder.edge_proj.w"] + self.params["encoder.edge_proj.b"]
        e = e * Tensor(mask[:, :, :, None].astype(np.float64))
        dg = self.config.edge_dim
        return e.reshape(b, t * m, dg), mask.reshape(b, t * m)

    def encode(self, z0, batch, training=False, rng=None):
        """Embedded features `z0` of `batch` -> (edge tokens, flat mask,
        node embeddings)."""
        z = self.temporal_encode(z0)
        h = self.temporal_conv_stack(z, training=training, rng=rng)
        node_emb = self.st_graph_conv(h, batch.adjacency)
        tokens, flat_mask = self.edge_tokens(node_emb, batch.candidate_edges,
                                             batch.mask)
        return tokens, flat_mask, node_emb

    def forward(self, batch, training=False, rng=None):
        """WindowedBatch -> (edge tokens, flat mask, node embeddings)."""
        return self.encode(self.embed_features(batch.x), batch, training, rng)

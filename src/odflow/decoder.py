"""Masked transformer over the flattened edge-token sequence plus the
Softplus flow head."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class DecoderConfig:
    layers: int = 2
    heads: int = 4
    model_dim: int = 256
    ffn_dim: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"heads must be at least 1, not {self.heads}")
        if self.model_dim % self.heads != 0:
            raise ValueError("model_dim must be divisible by heads")


class Decoder:
    def __init__(self, config, rng=None, params=None):
        """Weights are read from `params` (a new dict when None); given
        `rng`, fresh initial values are first drawn into it."""
        self.config = config
        self.params = {} if params is None else params
        if rng is not None:
            self._init_params(rng)

    def _init_params(self, rng):
        cfg = self.config
        d, f = cfg.model_dim, cfg.ffn_dim
        p = self.params
        for l in range(cfg.layers):
            for name in ("q", "k", "v", "o"):
                p[f"decoder.{l}.attn.{name}_w"] = ad.glorot(rng, (d, d))
                p[f"decoder.{l}.attn.{name}_b"] = ad.zeros(d, requires_grad=True)
            p[f"decoder.{l}.ln1_gamma"] = Tensor(np.ones(d), requires_grad=True)
            p[f"decoder.{l}.ln1_beta"] = ad.zeros(d, requires_grad=True)
            p[f"decoder.{l}.ffn.w1"] = ad.glorot(rng, (d, f))
            p[f"decoder.{l}.ffn.b1"] = ad.zeros(f, requires_grad=True)
            p[f"decoder.{l}.ffn.w2"] = ad.glorot(rng, (f, d))
            p[f"decoder.{l}.ffn.b2"] = ad.zeros(d, requires_grad=True)
            p[f"decoder.{l}.ln2_gamma"] = Tensor(np.ones(d), requires_grad=True)
            p[f"decoder.{l}.ln2_beta"] = ad.zeros(d, requires_grad=True)
        p["decoder.head.w_out"] = Tensor(rng.normal(0, 0.05, size=(d, 1)),
                                         requires_grad=True)
        p["decoder.head.b_out"] = ad.zeros(1, requires_grad=True)

    def _mha(self, x, mask, l):
        """Full (non-causal) multi-head self-attention; padded keys receive
        exactly zero weight."""
        cfg = self.config
        b, s, d = x.shape
        h, dh = cfg.heads, cfg.model_dim // cfg.heads
        p = self.params

        def proj(name):
            y = x @ p[f"decoder.{l}.attn.{name}_w"] + p[f"decoder.{l}.attn.{name}_b"]
            return y.reshape(b, s, h, dh).transpose(0, 2, 1, 3)  # (B, h, S, dh)

        q, k, v = proj("q"), proj("k"), proj("v")
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh))
        key_mask = mask[:, None, None, :]  # broadcast over heads and queries
        attn = ad.attention_softmax(scores, key_mask)
        out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
        return out @ p[f"decoder.{l}.attn.o_w"] + p[f"decoder.{l}.attn.o_b"]

    def decode(self, tokens, mask, training=False, rng=None):
        """(B, S, D) tokens with a boolean key mask (B, S) -> (B, S, D)."""
        if tokens.shape[-1] != self.config.model_dim:
            raise ValueError("token dimension mismatch")
        p = self.params
        z = tokens
        for l in range(self.config.layers):
            a = self._mha(z, mask, l)
            a = ad.dropout(a, self.config.dropout, rng, training)
            z = ad.layer_norm(z + a, p[f"decoder.{l}.ln1_gamma"],
                              p[f"decoder.{l}.ln1_beta"])
            f = (z @ p[f"decoder.{l}.ffn.w1"] + p[f"decoder.{l}.ffn.b1"]).relu()
            f = f @ p[f"decoder.{l}.ffn.w2"] + p[f"decoder.{l}.ffn.b2"]
            f = ad.dropout(f, self.config.dropout, rng, training)
            z = ad.layer_norm(z + f, p[f"decoder.{l}.ln2_gamma"],
                              p[f"decoder.{l}.ln2_beta"])
        return z

    def predict_flows(self, z):
        """Shared linear head + Softplus; output (B, S) of nonnegative flows."""
        raw = z @ self.params["decoder.head.w_out"] + self.params["decoder.head.b_out"]
        return ad.softplus(raw[:, :, 0])

    def forward(self, tokens, mask, training=False, rng=None):
        z = self.decode(tokens, mask, training=training, rng=rng)
        return self.predict_flows(z)


def masked_mse_loss(pred, targets, mask, target_steps):
    """Mean squared error over valid slots at the target steps, normalized units.

    pred: Tensor (B, T, M); targets, mask: arrays (B, T, M).
    """
    steps = list(target_steps)
    sel_mask = np.zeros_like(mask, dtype=np.float64)
    sel_mask[:, steps, :] = mask[:, steps, :]
    n_valid = sel_mask.sum()
    if n_valid == 0:
        raise ValueError("no valid slots at the target steps")
    diff = (pred - Tensor(targets)) * Tensor(sel_mask)
    return (diff ** 2).sum() * (1.0 / n_valid)

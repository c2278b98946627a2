"""Full forecasting model: encoder -> decoder -> per-slot flows, plus the
versioned on-disk checkpoint format."""

import dataclasses
import json
import struct

import numpy as np

from .autodiff import Tensor
from .decoder import Decoder, DecoderConfig
from .encoder import Encoder, EncoderConfig
from .mobility import NormStats

CHECKPOINT_MAGIC = b"UPCK"
CHECKPOINT_VERSION = 1


class Model:
    def __init__(self, encoder_config=None, decoder_config=None, seed=0,
                 params=None):
        """Encoder and decoder share one parameter dict: `params` when
        given, else one drawn from `seed`, encoder first."""
        self.encoder_config = encoder_config or EncoderConfig()
        self.decoder_config = decoder_config or DecoderConfig()
        rng = None if params is not None else np.random.default_rng(seed)
        self.params = {} if params is None else params
        self.encoder = Encoder(self.encoder_config, rng, self.params)
        self.decoder = Decoder(self.decoder_config, rng, self.params)

    def forward(self, batch, training=False, rng=None):
        """WindowedBatch -> (pred Tensor (B, T, M), node embeddings, tokens, mask)."""
        tokens, flat_mask, node_emb = self.encoder.forward(batch, training=training,
                                                           rng=rng)
        flows = self.decoder.forward(tokens, flat_mask, training=training, rng=rng)
        b, t, m = batch.mask.shape
        return flows.reshape(b, t, m), node_emb, tokens, flat_mask

    def predict(self, batch):
        """Evaluation-mode normalized flow predictions as a plain array."""
        pred, _, _, _ = self.forward(batch, training=False)
        return pred.data

    def trainable_parameters(self):
        return [self.params[k] for k in sorted(self.params)
                if self.params[k].requires_grad]

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def state_copy(self):
        return {k: v.data.copy() for k, v in self.params.items()}

    def load_state(self, state):
        for k, v in state.items():
            self.params[k].data = v.copy()


class Checkpoint:
    """All parameters plus normalization statistics and configuration."""

    def __init__(self, params, norm_stats, encoder_config, decoder_config,
                 best_val_loss=float("inf"), epoch=0):
        self.params = params  # dict name -> float64 array
        self.norm_stats = norm_stats
        self.encoder_config = encoder_config
        self.decoder_config = decoder_config
        self.best_val_loss = best_val_loss
        self.epoch = epoch

    @classmethod
    def from_model(cls, model, norm_stats, best_val_loss=float("inf"), epoch=0):
        return cls(model.state_copy(), norm_stats, model.encoder_config,
                   model.decoder_config, best_val_loss, epoch)

    def build_model(self):
        params = {k: Tensor(v.copy(), requires_grad=True)
                  for k, v in self.params.items()}
        return Model(self.encoder_config, self.decoder_config, params=params)

    # -- binary format: magic, version u32, meta length u32, meta JSON,
    #    then sorted keyed tensor table (all integers little-endian) --------

    def save(self, path):
        meta = {"norm_stats": self.norm_stats.to_dict() if self.norm_stats else None,
                "encoder_config": dataclasses.asdict(self.encoder_config),
                "decoder_config": dataclasses.asdict(self.decoder_config),
                "best_val_loss": self.best_val_loss,
                "epoch": self.epoch}
        blob = json.dumps(meta, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", len(self.params)))
            for key in sorted(self.params):
                arr = np.ascontiguousarray(self.params[key], dtype="<f8")
                kb = key.encode()
                f.write(struct.pack("<I", len(kb)))
                f.write(kb)
                f.write(struct.pack("<I", arr.ndim))
                for s in arr.shape:
                    f.write(struct.pack("<I", s))
                f.write(arr.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError("not a checkpoint file")
            (version,) = struct.unpack("<I", f.read(4))
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            (mlen,) = struct.unpack("<I", f.read(4))
            meta = json.loads(f.read(mlen))
            (count,) = struct.unpack("<I", f.read(4))
            params = {}
            for _ in range(count):
                (klen,) = struct.unpack("<I", f.read(4))
                key = f.read(klen).decode()
                (ndim,) = struct.unpack("<I", f.read(4))
                shape = tuple(struct.unpack("<I", f.read(4))[0] for _ in range(ndim))
                n = int(np.prod(shape)) if shape else 1
                params[key] = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(shape).copy()
        stats = NormStats.from_dict(meta["norm_stats"]) if meta["norm_stats"] else None
        return cls(params, stats,
                   EncoderConfig(**meta["encoder_config"]),
                   DecoderConfig(**meta["decoder_config"]),
                   meta["best_val_loss"], meta["epoch"])

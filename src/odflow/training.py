"""Supervised pretraining and cold-start selective-freeze fine-tuning:
dataset splitting, the optimizer, checkpoint selection, and evaluation."""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoder import masked_mse_loss
from .mobility import collate
from .model import Checkpoint


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    l2_coeff: float = 0.0
    grad_clip_norm: float = 1.0
    epochs: int = 5
    batch_size: int = 4
    seed: int = 0


def _layer_of(key):
    """("tconv" | "gcn" | "decoder", layer index) of a parameter name, or
    None for a parameter outside those numbered layers."""
    parts = key.split(".")
    if parts[0] == "encoder" and parts[1] in ("tconv", "gcn"):
        return parts[1], int(parts[2])
    if parts[0] == "decoder" and parts[1].isdigit():
        return "decoder", int(parts[1])
    return None


@dataclass
class FreezeSpec:
    """Layer indices below each bound are frozen; the output head and
    everything unlisted stay trainable."""
    tconv_below: int = 1
    gcn_below: int = 1
    decoder_below: int = 1

    def frozen_keys(self, params):
        return {key for key in params if (layer := _layer_of(key))
                and layer[1] < getattr(self, f"{layer[0]}_below")}

    def validate(self, params):
        layers = [layer for layer in map(_layer_of, params) if layer]
        for group in ("tconv", "gcn", "decoder"):
            present = 1 + max((i for g, i in layers if g == group), default=-1)
            if getattr(self, f"{group}_below") > present:
                raise ValueError("freeze spec references absent layers")


class Adam:
    """Adam with decoupled weight decay; parameters with requires_grad False
    are never touched."""

    def __init__(self, params, lr=1e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g * g
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def split_dataset(snapshots, scheme, t_window=12):
    """Contiguous chronological splits.  'source' is 70/15/15, 'target' 2:4:1."""
    n = len(snapshots)
    if n < 3 * t_window:
        raise ValueError("series shorter than three windows")
    if scheme == "source":
        a = int(n * 0.70)
        b = int(n * 0.15)
    elif scheme == "target":
        a = int(n * 2 / 7)
        b = int(n * 4 / 7)
    else:
        raise ValueError(f"unknown split scheme {scheme!r}")
    return snapshots[:a], snapshots[a:a + b], snapshots[a + b:]


def _epoch_batches(windows, batch_size, rng):
    order = rng.permutation(len(windows))
    for i in range(0, len(order), batch_size):
        yield [windows[j] for j in order[i:i + batch_size]]


def _loss_on(model, batch, training=False, rng=None):
    pred, _, _, _ = model.forward(batch, training=training, rng=rng)
    return masked_mse_loss(pred, batch.targets, batch.mask, batch.target_steps)


def dataset_loss(model, windows, stats, batch_size=1):
    """Masked MSE over a window list in evaluation mode."""
    total = 0.0
    count = 0
    for i in range(0, len(windows), batch_size):
        batch = collate(windows[i:i + batch_size], stats)
        loss = _loss_on(model, batch)
        n = int(batch.mask[:, batch.target_steps, :].sum())
        total += loss.item() * n
        count += n
    return total / count if count else 0.0


def train_model(model, train_windows, val_windows, stats, config,
                frozen_keys=(), step_log=None, epoch_log=None):
    """Shared loop behind pretraining and fine-tuning: Adam with decoupled
    weight decay, optional explicit L2, global gradient clipping, lowest
    validation loss checkpoint selection."""
    for key in frozen_keys:
        model.params[key].requires_grad = False
    trainable = model.trainable_parameters()
    opt = Adam(trainable, lr=config.learning_rate,
               weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    best_val = float("inf")
    best_state = model.state_copy()
    best_epoch = 0
    step = 0
    for epoch in range(config.epochs):
        epoch_losses = []
        for windows in _epoch_batches(train_windows, config.batch_size, rng):
            batch = collate(windows, stats)
            model.zero_grad()
            loss = _loss_on(model, batch, training=True, rng=rng)
            if config.l2_coeff:
                for p in trainable:
                    loss = loss + config.l2_coeff * (p * p).sum()
            if not math.isfinite(loss.item()):
                raise FloatingPointError(
                    f"non-finite loss {loss.item()} at epoch {epoch} step {step}")
            loss.backward()
            ad.clip_grad_norm(trainable, config.grad_clip_norm)
            opt.step()
            epoch_losses.append(loss.item())
            if step_log is not None:
                step_log.append((step, loss.item()))
            step += 1
        val_loss = dataset_loss(model, val_windows, stats,
                                batch_size=config.batch_size)
        train_loss = sum(epoch_losses) / max(1, len(epoch_losses))
        if epoch_log is not None:
            epoch_log.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_state = model.state_copy()
            best_epoch = epoch
    model.load_state(best_state)
    for key in frozen_keys:
        model.params[key].requires_grad = True
    return Checkpoint.from_model(model, stats, best_val, best_epoch)


def pretrain(model, train_windows, val_windows, stats, config,
             step_log=None, epoch_log=None):
    """Stage 1: all layers trainable."""
    return train_model(model, train_windows, val_windows, stats, config,
                       frozen_keys=(), step_log=step_log, epoch_log=epoch_log)


def coldstart_finetune(checkpoint, train_windows, val_windows, stats,
                       freeze_spec, config, step_log=None, epoch_log=None):
    """Stage 2: early layers frozen, upper layers and the head fine-tuned.

    With zero epochs the returned checkpoint carries the input parameters
    unchanged (only the normalization stats are swapped for the target's).
    """
    model = checkpoint.build_model()
    freeze_spec.validate(model.params)
    frozen = freeze_spec.frozen_keys(model.params)
    if config.epochs == 0:
        return Checkpoint.from_model(model, stats, checkpoint.best_val_loss, 0)
    return train_model(model, train_windows, val_windows, stats, config,
                       frozen_keys=frozen, step_log=step_log,
                       epoch_log=epoch_log)


def params_hash(params, keys):
    h = hashlib.sha256()
    for k in sorted(keys):
        arr = params[k].data if hasattr(params[k], "data") else params[k]
        h.update(k.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


# -- evaluation ------------------------------------------------------------


@dataclass
class EvalReport:
    mse: float
    mae: float
    per_step: dict = field(default_factory=dict)  # t -> [correct, over, under]

    @property
    def totals(self):
        c = sum(v[0] for v in self.per_step.values())
        o = sum(v[1] for v in self.per_step.values())
        u = sum(v[2] for v in self.per_step.values())
        return c, o, u

    @property
    def accuracy(self):
        c, o, u = self.totals
        total = c + o + u
        return c / total if total else 1.0


def round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def evaluate(model, windows, stats, batch_size=1):
    """MSE/MAE in normalized units plus per-step correct/over/under counts.

    Counts compare the de-normalized prediction, rounded half away from
    zero, against the true integer flow; `t` is the absolute interval index
    of the scored step.
    """
    sq = 0.0
    ab = 0.0
    n = 0
    per_step = {}
    for i in range(0, len(windows), batch_size):
        chunk = windows[i:i + batch_size]
        batch = collate(chunk, stats)
        pred = model.predict(batch)
        for t in batch.target_steps:
            m = batch.mask[:, t, :]
            err = (pred[:, t, :] - batch.targets[:, t, :])[m]
            sq += float((err ** 2).sum())
            ab += float(np.abs(err).sum())
            n += int(m.sum())
            rounded = round_half_away(pred[:, t, :] * stats.flow_scale)
            truth = batch.raw_targets[:, t, :]
            for b, w in enumerate(chunk):
                abs_t = w.start + t
                row = per_step.setdefault(abs_t, [0, 0, 0])
                mb = batch.mask[b, t, :]
                r, tr = rounded[b][mb], truth[b][mb]
                row[0] += int((r == tr).sum())
                row[1] += int((r > tr).sum())
                row[2] += int((r < tr).sum())
    if n == 0:
        return EvalReport(0.0, 0.0, per_step)
    return EvalReport(sq / n, ab / n, per_step)


def mean_baseline_mse(train_windows, eval_windows, stats):
    """MSE of predicting the training-split mean normalized flow everywhere."""
    def scored(windows):
        return [w.flows[t] / stats.flow_scale
                for w in windows for t in w.target_steps]

    vals = np.concatenate([np.zeros(0)] + scored(train_windows))
    mean = float(np.mean(vals)) if vals.size else 0.0
    errs = [mean - f for f in scored(eval_windows)]
    n = sum(len(e) for e in errs)
    return sum(float((e ** 2).sum()) for e in errs) / n if n else 0.0

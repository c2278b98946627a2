"""Training-stage tests: splits, optimizer, freezing, checkpoints,
evaluation counting, and determinism."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from odflow.autodiff import Tensor
from odflow.decoder import DecoderConfig
from odflow.encoder import EncoderConfig
from odflow.mobility import NormStats, Snapshot, Window, collate
from odflow.model import Checkpoint, Model
from odflow.training import (Adam, EvalReport, FreezeSpec, TrainConfig,
                             coldstart_finetune, dataset_loss, evaluate,
                             mean_baseline_mse, params_hash, pretrain,
                             round_half_away, split_dataset, train_model)


def snaps(n):
    return [Snapshot(t, np.zeros(2, dtype=np.int64), []) for t in range(n)]


# -- splits ----------------------------------------------------------------


def test_source_split_70_15_15():
    a, b, c = split_dataset(snaps(100), "source", t_window=12)
    assert (len(a), len(b), len(c)) == (70, 15, 15)
    # chronological and contiguous
    assert [s.interval_index for s in a + b + c] == list(range(100))


def test_target_split_2_4_1():
    a, b, c = split_dataset(snaps(70), "target", t_window=12)
    assert (len(a), len(b), len(c)) == (20, 40, 10)


def test_split_errors():
    with pytest.raises(ValueError):
        split_dataset(snaps(30), "source", t_window=12)
    with pytest.raises(ValueError):
        split_dataset(snaps(100), "bogus")


# -- optimizer -------------------------------------------------------------


def test_adam_minimizes_quadratic():
    x = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        ((x - 3.0) ** 2).sum().backward()
        opt.step()
    assert abs(x.data[0] - 3.0) < 1e-6


def test_adam_ignores_frozen_params():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([1.0]), requires_grad=False)
    opt = Adam([x, y], lr=0.1)
    assert opt.params == [x]


def test_adam_decoupled_weight_decay():
    x = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([x], lr=0.5, weight_decay=0.1)
    x.grad = np.array([0.0])
    opt.step()
    # decay shrinks the weight even with zero gradient
    assert x.data[0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1))


# -- freezing --------------------------------------------------------------


def small_model(seed=0):
    enc = EncoderConfig(n_types=3, poi_embed_dim=2, temporal_channels=[4, 8],
                        gcn_widths=[16], edge_dim=16, dropout=0.0)
    dec = DecoderConfig(layers=2, heads=2, model_dim=16, ffn_dim=32, dropout=0.0)
    return Model(enc, dec, seed=seed)


def test_freeze_spec_key_selection():
    m = small_model()
    spec = FreezeSpec(tconv_below=1, gcn_below=1, decoder_below=1)
    frozen = spec.frozen_keys(m.params)
    assert "encoder.tconv.0.kernel" in frozen
    assert "encoder.tconv.1.kernel" not in frozen
    assert "encoder.gcn.0.w" in frozen
    assert "decoder.0.attn.q_w" in frozen
    assert "decoder.1.attn.q_w" not in frozen
    assert "decoder.head.w_out" not in frozen
    assert "encoder.embed.table" not in frozen


def test_freeze_spec_validate():
    m = small_model()
    FreezeSpec(tconv_below=2, gcn_below=1, decoder_below=2).validate(m.params)
    with pytest.raises(ValueError):
        FreezeSpec(tconv_below=3).validate(m.params)
    with pytest.raises(ValueError):
        FreezeSpec(decoder_below=3).validate(m.params)


def test_params_hash_stability_and_sensitivity():
    m = small_model()
    keys = ["encoder.gcn.0.w", "decoder.0.ffn.w1"]
    h1 = params_hash(m.params, keys)
    assert h1 == params_hash(m.params, keys)
    assert h1 == params_hash(m.params, list(reversed(keys)))  # order-free
    m.params["decoder.0.ffn.w1"].data[0, 0] += 1e-12
    assert h1 != params_hash(m.params, keys)


# -- training loop ---------------------------------------------------------


def toy_windows(n_windows=6, seed=0):
    rng = np.random.default_rng(seed)
    wins = []
    for k in range(n_windows):
        feats = rng.uniform(0, 1, size=(3, 7, 4))
        feats[:, 0, :] = rng.integers(0, 3, size=(3, 1))
        adj = np.tile(np.eye(3), (4, 1, 1))
        cand = [(0, 1), (1, 2)]
        flows = rng.integers(0, 4, size=(4, 2)).astype(float)
        wins.append(Window(k, feats, adj, cand, flows, [3]))
    return wins


def toy_stats():
    return NormStats(np.zeros(6), np.ones(6), 3.0)


def test_train_reduces_loss_and_restores_best():
    m = small_model()
    wins = toy_windows()
    stats = toy_stats()
    cfg = TrainConfig(learning_rate=1e-2, epochs=10, batch_size=3, seed=0)
    before = dataset_loss(m, wins[4:], stats)
    elog = []
    ck = pretrain(m, wins[:4], wins[4:], stats, cfg, epoch_log=elog)
    assert ck.best_val_loss < before
    # the model carries the best-validation epoch's weights
    assert ck.best_val_loss == pytest.approx(min(v for _, _, v in elog))
    assert dataset_loss(m, wins[4:], stats) == pytest.approx(ck.best_val_loss)


def test_training_determinism():
    results = []
    for _ in range(2):
        m = small_model(seed=1)
        ck = pretrain(m, toy_windows()[:4], toy_windows()[4:], toy_stats(),
                      TrainConfig(learning_rate=1e-2, epochs=3, batch_size=2,
                                  seed=7))
        results.append(ck.params)
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


def test_frozen_keys_do_not_move():
    m = small_model()
    frozen = ["encoder.tconv.0.kernel", "decoder.0.attn.q_w"]
    before = {k: m.params[k].data.copy() for k in frozen}
    train_model(m, toy_windows()[:4], toy_windows()[4:], toy_stats(),
                TrainConfig(learning_rate=1e-2, epochs=3, batch_size=2, seed=0),
                frozen_keys=frozen)
    for k in frozen:
        assert np.array_equal(m.params[k].data, before[k])
        assert m.params[k].requires_grad  # restored afterwards


def test_coldstart_zero_epochs_keeps_params():
    m = small_model()
    stats = toy_stats()
    ck = Checkpoint.from_model(m, stats, 0.5, 3)
    out = coldstart_finetune(ck, toy_windows()[:4], toy_windows()[4:], stats,
                             FreezeSpec(), TrainConfig(epochs=0))
    for k in ck.params:
        assert np.array_equal(out.params[k], ck.params[k])


# -- checkpoint format -----------------------------------------------------


def old_format_bytes(ck):
    """A checkpoint file written by hand, with the config meta listed field
    by field as it was before the configs were saved with `asdict`."""
    enc, dec = ck.encoder_config, ck.decoder_config
    meta = {"norm_stats": ck.norm_stats.to_dict(),
            "encoder_config": {"n_types": enc.n_types,
                               "poi_embed_dim": enc.poi_embed_dim,
                               "temporal_channels": list(enc.temporal_channels),
                               "kernel_size": enc.kernel_size,
                               "gcn_widths": list(enc.gcn_widths),
                               "edge_dim": enc.edge_dim, "dropout": enc.dropout},
            "decoder_config": {"layers": dec.layers, "heads": dec.heads,
                               "model_dim": dec.model_dim,
                               "ffn_dim": dec.ffn_dim, "dropout": dec.dropout},
            "best_val_loss": ck.best_val_loss, "epoch": ck.epoch}
    blob = json.dumps(meta, sort_keys=True).encode()
    out = [b"UPCK", struct.pack("<II", 1, len(blob)), blob,
           struct.pack("<I", len(ck.params))]
    for key in sorted(ck.params):
        arr = ck.params[key]
        out += [struct.pack("<I", len(key)), key.encode(),
                struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape),
                arr.astype("<f8").tobytes()]
    return b"".join(out)


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    m = small_model()
    stats = toy_stats()
    ck = Checkpoint.from_model(m, stats, 0.123, 4)
    p1 = tmp_path / "a.upck"
    p2 = tmp_path / "b.upck"
    ck.save(p1)
    back = Checkpoint.load(p1)
    assert back.best_val_loss == 0.123
    assert back.epoch == 4
    assert back.encoder_config == m.encoder_config
    assert back.decoder_config == m.decoder_config
    for k in ck.params:
        assert np.array_equal(back.params[k], ck.params[k])
    back.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == old_format_bytes(ck)
    # tuple-valued channel lists are saved exactly as lists are
    enc = dataclasses.replace(m.encoder_config, temporal_channels=(4, 8),
                              gcn_widths=(16,))
    ck_t = Checkpoint(ck.params, stats, enc, m.decoder_config, 0.123, 4)
    ck_t.save(p2)
    assert p2.read_bytes() == old_format_bytes(ck_t) == p1.read_bytes()


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    m = small_model()
    ck = Checkpoint.from_model(m, toy_stats())
    path = tmp_path / "c.upck"
    ck.save(path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the version field
    bad = tmp_path / "bad.upck"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        Checkpoint.load(bad)
    (tmp_path / "junk.upck").write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        Checkpoint.load(tmp_path / "junk.upck")


# -- evaluation ------------------------------------------------------------


def test_round_half_away():
    vals = round_half_away(np.array([0.5, -0.5, 1.5, 2.4, -2.5, 0.49]))
    assert list(vals) == [1.0, -1.0, 2.0, 2.0, -3.0, 0.0]


def test_eval_report_totals_and_accuracy():
    r = EvalReport(0.1, 0.2, {0: [8, 1, 1], 1: [5, 3, 2]})
    assert r.totals == (13, 4, 3)
    assert r.accuracy == pytest.approx(13 / 20)


def test_evaluate_counts_against_manual_recount():
    m = small_model()
    wins = toy_windows(4, seed=3)
    stats = toy_stats()
    report = evaluate(m, wins, stats, batch_size=2)
    total = sum(sum(v) for v in report.per_step.values())
    # every valid slot at the final step is counted exactly once
    assert total == sum(len(w.candidate_edges) for w in wins)
    # manual recount for the first window
    batch = collate(wins[:1], stats)
    pred = m.predict(batch)[0, 3, :2] * stats.flow_max
    truth = wins[0].flows[3]
    rounded = round_half_away(pred)
    row = report.per_step[wins[0].start + 3]
    assert row[0] >= int((rounded == truth).sum())  # other windows can add here


def test_mean_baseline_mse_hand_value():
    stats = toy_stats()
    wins = toy_windows(2, seed=4)
    base = mean_baseline_mse(wins[:1], wins[1:], stats)
    train_vals = wins[0].flows[3] / stats.flow_max
    mean = train_vals.mean()
    eval_vals = wins[1].flows[3] / stats.flow_max
    assert base == pytest.approx(((mean - eval_vals) ** 2).mean())
    # the same bits as scoring padded one-window batches
    wins = toy_windows(6, seed=5)
    for w in wins[::2]:
        w.candidate_edges, w.flows = w.candidate_edges[:1], w.flows[:, :1]
    batches = [collate([w], stats) for w in wins]
    scored = [b.targets[0, t][b.mask[0, t]] for b in batches
              for t in b.target_steps]
    mean = float(np.mean(np.concatenate(scored[:3])))
    errs = [mean - v for v in scored[3:]]
    want = sum(float((e ** 2).sum()) for e in errs) / sum(map(len, errs))
    assert mean_baseline_mse(wins[:3], wins[3:], stats) == want

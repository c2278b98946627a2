"""Acceptance suite: eleven end-to-end criteria, each reporting one
pass/fail line in the terminal summary.

The heavyweight fixtures (a full-size default city pretraining and a dense
six-POI city pair for transfer and RL) are built once per module.
"""

import json
import os
import time

import numpy as np
import pytest

from odflow import autodiff as ad
from odflow import mobility, rl, synthcity
from odflow.autodiff import Tensor
from odflow.cli import main as cli_main
from odflow.decoder import Decoder, DecoderConfig, masked_mse_loss
from odflow.encoder import Encoder, EncoderConfig
from odflow.mobility import NormStats, Window, collate
from odflow.model import Model
from odflow.rl import (ACTION_DIM, STATE_DIM, PpoConfig, RewardConfig,
                       apply_action, build_state, compute_reward,
                       grouping_matrix, smooth_rewards, train_rl)
from odflow.synthcity import CityConfig
from odflow.training import (FreezeSpec, TrainConfig, coldstart_finetune,
                             dataset_loss, mean_baseline_mse, params_hash,
                             pretrain, split_dataset)

# -- shared fixtures -------------------------------------------------------


def _toy_window(seed, n=4, t=4):
    r = np.random.default_rng(seed)
    feats = r.uniform(0, 1, size=(n, 7, t))
    feats[:, 0, :] = r.integers(0, 3, size=(n, 1))
    adj = r.uniform(0.1, 1.0, size=(t, n, n))
    adj /= adj.sum(axis=2, keepdims=True)
    cand = [(0, 1), (1, 2), (2, 3)]
    flows = r.integers(0, 5, size=(t, len(cand))).astype(float)
    return Window(0, feats, adj, cand, flows, [t - 1])


def _toy_stats():
    return NormStats(np.zeros(6), np.ones(6), 5.0)


def _dense_city(seed):
    """Six-POI city with heavy, statistically stable flows."""
    cfg = CityConfig(seed=seed, n_pois=6, n_agents=400, n_intervals=96,
                     move_prob=0.5, attraction_exponent=2.0,
                     diurnal_profile=[1.0] * 24)
    pois, xy = synthcity.generate_city(cfg)
    pts = synthcity.simulate_traces(cfg, pois, xy)
    wx = synthcity.generate_weather(cfg)
    snaps = mobility.build_snapshots(pts, pois, n_intervals=cfg.n_intervals,
                                     t0=0)
    return pois, wx, snaps


@pytest.fixture(scope="module")
def dense_checkpoint():
    """Pretrained model on the dense source city, for criteria 8 and 9."""
    pois, wx, snaps = _dense_city(11)
    stats = mobility.compute_norm_stats(snaps, pois, wx)
    wins = mobility.make_windows(snaps, pois, wx, stats, 8, stride=2)
    enc = EncoderConfig(n_types=6, temporal_channels=[8, 16],
                        gcn_widths=[128, 256], edge_dim=256, dropout=0.0)
    dec = DecoderConfig(layers=1, heads=2, model_dim=256, ffn_dim=128,
                        dropout=0.0)
    model = Model(enc, dec, seed=0)
    cut = int(len(wins) * 0.85)
    ck = pretrain(model, wins[:cut], wins[cut:], stats,
                  TrainConfig(learning_rate=3e-3, epochs=20, batch_size=4,
                              seed=0))
    return ck, wins, stats


@pytest.fixture(scope="module")
def default_city_run():
    """Full default-city pretraining for criterion 7; the slow fixture."""
    t0 = time.time()
    cfg = CityConfig()  # 50 POIs, 500 agents, 288 intervals, seed 7
    pois, xy = synthcity.generate_city(cfg)
    pts = synthcity.simulate_traces(cfg, pois, xy)
    wx = synthcity.generate_weather(cfg)
    snaps = mobility.build_snapshots(pts, pois, n_intervals=cfg.n_intervals,
                                     t0=0)
    tr, va, te = split_dataset(snaps, "source", 12)
    stats = mobility.compute_norm_stats(tr, pois, wx)
    wtr = mobility.make_windows(tr, pois, wx, stats, 12, stride=6)
    wva = mobility.make_windows(va, pois, wx, stats, 12, stride=6)
    wte = mobility.make_windows(te, pois, wx, stats, 12, stride=6)
    ntypes = 1 + max(p.type_index for p in pois)
    model = Model(EncoderConfig(n_types=ntypes), DecoderConfig(), seed=0)
    untrained_val = dataset_loss(model, wva, stats, batch_size=1)
    ck = pretrain(model, wtr, wva, stats,
                  TrainConfig(learning_rate=3e-3, epochs=10, batch_size=1,
                              seed=0))
    trained = ck.build_model()
    test_mse = dataset_loss(trained, wte, stats, batch_size=1)
    baseline = mean_baseline_mse(wtr, wte, stats)
    return {"untrained_val": untrained_val, "best_val": ck.best_val_loss,
            "test_mse": test_mse, "baseline": baseline,
            "elapsed": time.time() - t0}


# -- criterion 1: gradient correctness -------------------------------------


def test_criterion_1_gradients(criterion):
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(0)

    def passes(f, params, sample=None):
        return ad.grad_check(f, params, tol=1e-4, sample=sample).passed

    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(np.abs(rng.normal(1.5, 0.3, (3, 4))), requires_grad=True)
    ok &= passes(lambda: ((a + b) * (a - b) / b).sum(), [a, b])
    ok &= passes(lambda: (b ** 2.5).sum(), [b])
    ok &= passes(lambda: (b.exp() + b.log() + b.sigmoid() + b.tanh()).sum(), [b])
    ok &= passes(lambda: (ad.softplus(a) + a.relu() + a.abs()).sum(), [a])
    ok &= passes(lambda: a.max(axis=1).sum() + a.min(axis=0).sum()
                 + a.std(axis=1).sum() + a.mean(axis=0).sum(), [a])
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    ok &= passes(lambda: (a @ w).sum(), [a, w])
    k = Tensor(rng.normal(0, 0.5, size=(2, 3, 3)), requires_grad=True)
    x3 = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    ok &= passes(lambda: (ad.conv1d_time(x3, k) ** 2).sum(), [x3, k])
    g = Tensor(np.ones(4), requires_grad=True)
    be = Tensor(np.zeros(4), requires_grad=True)
    mix1 = Tensor(rng.normal(size=(3, 4)))
    ok &= passes(lambda: (ad.layer_norm(a, g, be) * mix1).sum(), [a, g, be])
    mask = np.array([[True, True, False, True]])
    mix2 = Tensor(rng.normal(size=(3, 4)))
    ok &= passes(lambda: (ad.attention_softmax(a, mask) * mix2).sum(), [a])
    table = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    ok &= passes(lambda: (ad.embedding(table, np.array([0, 2, 2])) ** 2).sum(),
                 [table])

    # full encoder-decoder loss on the 4-node, T=4, batch-2 fixture
    batch = collate([_toy_window(1), _toy_window(2)], _toy_stats())
    model = Model(EncoderConfig(n_types=3, dropout=0.0),
                  DecoderConfig(dropout=0.0), seed=0)
    params = [model.params[key] for key in sorted(model.params)]

    def loss():
        pred, _, _, _ = model.forward(batch)
        return masked_mse_loss(pred, batch.targets, batch.mask,
                               batch.target_steps)

    ok &= passes(loss, params, sample=3)
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    criterion(1, f"finite-difference gradient checks at 1e-4 "
                 f"({elapsed:.1f}s < 60s)", ok)


# -- criterion 2: shape contracts ------------------------------------------


def test_criterion_2_shapes(criterion):
    batch = collate([_toy_window(1), _toy_window(2)], _toy_stats())
    b, n, f, t = batch.x.shape
    ok = (f == 7)
    enc_cfg = EncoderConfig(n_types=3)
    ok &= enc_cfg.input_dim == 12
    enc = Encoder(enc_cfg, rng=np.random.default_rng(0))
    ok &= enc.params["encoder.edge_proj.w"].shape == (768, 256)
    ok &= STATE_DIM == 1560
    ok &= (rl.TEMPORAL_BLOCK, rl.EDGE_BLOCK, rl.NODE_BLOCK) == (1024, 512, 24)
    rng = np.random.default_rng(1)
    state = build_state(rng.normal(size=(4, 5, 256)),
                        np.ones((4, 5), dtype=bool),
                        rng.normal(size=(3, 12, 4)))
    ok &= state.shape == (1560,)
    ok &= ACTION_DIM == 33
    dec = Decoder(DecoderConfig(), rng=np.random.default_rng(0))
    ok &= dec.params["decoder.head.w_out"].shape == (256, 1)
    ok &= dec.params["decoder.head.b_out"].shape == (1,)
    criterion(2, "shape contracts: X B.N.7.T, edge feature 768, state "
                 "1560 = 1024+512+24, action 33, head 256+1", ok)


# -- criterion 3: oracle equivalence ---------------------------------------


def test_criterion_3_oracle_recount(criterion):
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n_pois = int(rng.integers(2, 51))
        n_users = int(rng.integers(1, 1001))
        pois = [mobility.Poi(i, 37.0 + rng.uniform(-0.05, 0.05),
                             -120.0 + rng.uniform(-0.05, 0.05), 0)
                for i in range(n_pois)]
        prev_pts = [mobility.GpsPoint(f"u{k}", float(k),
                                      37.0 + rng.uniform(-0.05, 0.05),
                                      -120.0 + rng.uniform(-0.05, 0.05))
                    for k in range(n_users)]
        cur_pts = [mobility.GpsPoint(f"u{k}", 900.0 + k,
                                     37.0 + rng.uniform(-0.05, 0.05),
                                     -120.0 + rng.uniform(-0.05, 0.05))
                   for k in range(n_users)]
        pops_prev, assign_prev = mobility.assign_to_pois(prev_pts, pois)
        pops_cur, assign_cur = mobility.assign_to_pois(cur_pts, pois)
        edges = mobility.build_edges(assign_prev, assign_cur, pois)

        # exhaustive recount
        def nearest(p):
            best, best_d = None, None
            for poi in pois:
                d = float(mobility.haversine_km(p.lat, p.lon, poi.lat, poi.lon))
                if best_d is None or d < best_d:
                    best, best_d = poi.poi_id, d
            return best

        brute_prev = {p.user_id: nearest(p) for p in prev_pts}
        brute_cur = {p.user_id: nearest(p) for p in cur_pts}
        bp = np.bincount([brute_prev[u] for u in brute_prev], minlength=n_pois)
        bc = np.bincount([brute_cur[u] for u in brute_cur], minlength=n_pois)
        counts = {}
        for u, j in brute_cur.items():
            i = brute_prev.get(u)
            if i is None or i == j:
                continue
            d = float(mobility.haversine_km(pois[i].lat, pois[i].lon,
                                            pois[j].lat, pois[j].lon))
            if d > 30.0 or d / 0.25 > 150.0:
                continue
            counts[(i, j)] = counts.get((i, j), 0) + 1
        brute_edges = sorted((i, j, w) for (i, j), w in counts.items())
        ok &= np.array_equal(pops_prev, bp)
        ok &= np.array_equal(pops_cur, bc)
        ok &= edges == brute_edges
        if not ok:
            break
    criterion(3, "populations and edge weights equal a brute-force recount "
                 "on 20 seeded instances", ok)


# -- criterion 4: normalization --------------------------------------------


def test_criterion_4_normalization(criterion, small_city, small_snapshots):
    cfg, pois, _, _, weather = small_city
    snaps, stats = small_snapshots
    feats = mobility.normalize(snaps, pois, weather, stats)
    ok = bool(feats[:, :, 1:].min() >= 0.0 and feats[:, :, 1:].max() <= 1.0)
    # precipitation above the cap maps exactly to the capped value
    for p in (51.0, 80.0, 1e6):
        ok &= mobility.transform_precip(p) == mobility.transform_precip(50.0)
    ok &= mobility.transform_precip(49.9) < mobility.transform_precip(50.0)
    criterion(4, "training-split features in [0,1]; precipitation capped "
                 "at 50 mm/h before the log", ok)


# -- criterion 5: non-negativity -------------------------------------------


def test_criterion_5_nonnegative_flows(criterion):
    rng = np.random.default_rng(2)
    cfg = DecoderConfig(layers=1, heads=2, model_dim=16, ffn_dim=16,
                        dropout=0.0)
    total = 0
    ok = True
    for draw in range(100):
        dec = Decoder(cfg, rng=np.random.default_rng(draw))
        dec.params["decoder.head.w_out"].data = rng.normal(0, 3, size=(16, 1))
        dec.params["decoder.head.b_out"].data = rng.normal(0, 3, size=(1,))
        z = Tensor(rng.normal(0, 10, size=(1, 1000, 16)))
        flows = dec.predict_flows(z)
        ok &= bool(np.all(flows.data >= 0.0))
        total += flows.data.size
    ok &= total >= 100000
    criterion(5, f"{total} random head/input draws, no negative flow", ok)


# -- criterion 6: permutation properties -----------------------------------


def test_criterion_6_permutation(criterion):
    enc_cfg = EncoderConfig(n_types=3, temporal_channels=[4, 8],
                            gcn_widths=[256], edge_dim=256, dropout=0.0)
    enc = Encoder(enc_cfg, rng=np.random.default_rng(0))
    w = _toy_window(5)
    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    feats_p = w.features[inv]
    adj_p = w.adjacency[:, inv][:, :, inv]
    mapping = {e: k for k, e in enumerate(w.candidate_edges)}
    cand_p = sorted((int(perm[i]), int(perm[j])) for i, j in w.candidate_edges)
    flows_p = np.zeros_like(w.flows)
    for k, (i, j) in enumerate(cand_p):
        flows_p[:, k] = w.flows[:, mapping[(int(inv[i]), int(inv[j]))]]
    wp = Window(0, feats_p, adj_p, cand_p, flows_p, w.target_steps)

    stats = _toy_stats()
    b1 = collate([w], stats)
    b2 = collate([wp], stats)
    tok1, _, _ = enc.forward(b1)
    tok2, _, _ = enc.forward(b2)
    t, m = b1.mask.shape[1], b1.mask.shape[2]
    tok1 = tok1.data.reshape(t, m, 256)
    tok2 = tok2.data.reshape(t, m, 256)
    ok = True
    for k, (i, j) in enumerate(w.candidate_edges):
        kp = cand_p.index((int(perm[i]), int(perm[j])))
        ok &= bool(np.allclose(tok2[:, kp, :], tok1[:, k, :], atol=1e-9))
    z1 = enc.embed_features(b1.x).data[0]
    z2 = enc.embed_features(b2.x).data[0]
    s1 = build_state(tok1, b1.mask[0], z1)
    s2 = build_state(tok2, b2.mask[0], z2)
    ok &= bool(np.allclose(s1, s2, atol=1e-9))
    criterion(6, "node relabeling leaves edge tokens and the RL state "
                 "unchanged within 1e-9", ok)


# -- criterion 7: desk-scale learning --------------------------------------


@pytest.mark.slow
def test_criterion_7_desk_scale_learning(criterion, default_city_run):
    r = default_city_run
    reduction = 1.0 - r["best_val"] / r["untrained_val"]
    ok = reduction >= 0.60
    ok &= r["test_mse"] < r["baseline"]
    ok &= r["elapsed"] < 1800.0
    criterion(7, f"default city: val MSE cut {reduction:.1%} (>=60%), test "
                 f"{r['test_mse']:.5f} < mean baseline {r['baseline']:.5f}, "
                 f"{r['elapsed']:.0f}s < 30min", ok)


# -- criterion 8: freeze integrity -----------------------------------------


def test_criterion_8_freeze_integrity(criterion, dense_checkpoint):
    ck, _, _ = dense_checkpoint
    pois_b, wx_b, snaps_b = _dense_city(12)
    tr_b, _, te_b = split_dataset(snaps_b, "target", 8)
    stats_b = mobility.compute_norm_stats(tr_b, pois_b, wx_b)
    wtr = mobility.make_windows(tr_b, pois_b, wx_b, stats_b, 8, stride=1)
    wte = mobility.make_windows(te_b, pois_b, wx_b, stats_b, 8, stride=1)
    spec = FreezeSpec(tconv_below=1, gcn_below=1, decoder_below=1)
    frozen = sorted(spec.frozen_keys(ck.build_model().params))
    h_before = params_hash(ck.params, frozen)

    zero = coldstart_finetune(ck, wtr, wte, stats_b, spec, TrainConfig(epochs=0))
    mse_zero = dataset_loss(zero.build_model(), wte, stats_b, batch_size=4)
    ft = coldstart_finetune(ck, wtr[:-4], wtr[-4:], stats_b, spec,
                            TrainConfig(learning_rate=1e-3, epochs=6,
                                        batch_size=4, seed=0))
    h_after = params_hash(ft.params, frozen)
    mse_ft = dataset_loss(ft.build_model(), wte, stats_b, batch_size=4)
    ok = (h_before == h_after)
    ok &= mse_ft <= mse_zero
    criterion(8, f"frozen hash unchanged; fine-tuned test MSE {mse_ft:.5f} "
                 f"<= zero-shot {mse_zero:.5f}", ok)


# -- criterion 9: RL recovery ----------------------------------------------


class _ZeroPolicy:
    def mean(self, s):
        return Tensor(np.zeros((s.shape[0], ACTION_DIM)))

    def sample(self, s, rng):
        return np.zeros(ACTION_DIM)


def _mean_eval_reward(env, policy):
    env._cursor = 0
    rng = np.random.default_rng(1)
    return float(np.mean([env.run_episode(policy, rng, deterministic=True)
                          ["episode_reward"]
                          for _ in range(len(env.windows) - 1)]))


def test_criterion_9_rl_recovery(criterion, dense_checkpoint):
    ck, wins, stats = dense_checkpoint
    sub = wins[10:14]  # a short homogeneous stream of starts
    model = ck.build_model()
    w_good = model.params["decoder.head.w_out"].data.copy()
    model.params["decoder.head.w_out"].data = w_good * 1.5  # perturbed head
    ppo = PpoConfig(step_size=3e-4, episodes_per_update=16, update_epochs=4,
                    entropy_coeff=0.003, episode_len=4)
    policy, _, env, rewards = train_rl(model, sub, stats,
                                       RewardConfig(delta=0.02), ppo,
                                       n_episodes=2000, seed=3)
    r_pol = _mean_eval_reward(env, policy)
    r_bad = _mean_eval_reward(env, _ZeroPolicy())
    env.w0 = w_good
    r_good = _mean_eval_reward(env, _ZeroPolicy())
    gap = r_good - r_bad
    recovery = (r_pol - r_bad) / gap
    sm = smooth_rewards(rewards, 100)
    n = len(sm)
    thirds = (float(np.mean(sm[:n // 3])), float(np.mean(sm[n // 3:2 * n // 3])),
              float(np.mean(sm[2 * n // 3:])))
    ok = gap > 0
    ok &= recovery >= 0.5
    ok &= thirds[0] <= thirds[1] <= thirds[2]
    criterion(9, f"PPO recovers {recovery:.1%} of the reward gap within 2000 "
                 f"episodes; smoothed thirds nondecreasing "
                 f"({thirds[0]:.2f} <= {thirds[1]:.2f} <= {thirds[2]:.2f})", ok)


# -- criterion 10: identity action -----------------------------------------


def test_criterion_10_identity_action(criterion):
    rng = np.random.default_rng(3)
    w = rng.normal(size=(256, 1))
    b = rng.normal(size=(1,))
    w2, b2 = apply_action(w, b, np.zeros(ACTION_DIM), grouping_matrix())
    ok = (w2.tobytes() == w.tobytes()) and (b2.tobytes() == b.tobytes())
    preds = [rng.uniform(0, 10, size=7) for _ in range(4)]
    reward = compute_reward(preds, [p.copy() for p in preds], RewardConfig())
    ok &= reward == 0.0
    criterion(10, "zero action leaves the head bit-identical; perfect "
                  "prediction reward is exactly 0", ok)


# -- criterion 11: determinism ---------------------------------------------


def test_criterion_11_determinism(criterion, tmp_path):
    config = {
        "seed": 11,
        "city": {"synth": {"n_pois": 6, "n_agents": 30, "n_intervals": 40,
                           "move_prob": 0.4, "attraction_exponent": 2.0}},
        "model": {
            "encoder": {"temporal_channels": [4, 8], "gcn_widths": [256],
                        "edge_dim": 256, "dropout": 0.0},
            "decoder": {"layers": 1, "heads": 2, "model_dim": 256,
                        "ffn_dim": 32, "dropout": 0.0}},
        "train": {"window": 6, "stride": 2,
                  "config": {"epochs": 1, "batch_size": 4,
                             "learning_rate": 1e-3}},
        "rl": {"episodes": 8,
               "ppo": {"episodes_per_update": 4, "episode_len": 2,
                       "update_epochs": 1}},
    }
    outputs = {}
    for run in ("a", "b"):
        d = str(tmp_path / run)
        os.makedirs(d)
        cfg_path = os.path.join(d, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(config, f)
        for cmd in ("synth", "ingest", "pretrain"):
            assert cli_main([cmd, "--config", cfg_path, "--out", d]) == 0
        cfg2 = dict(config)
        cfg2["paths"] = {"source_checkpoint":
                         os.path.join(d, "checkpoints", "pretrain.upck")}
        with open(cfg_path, "w") as f:
            json.dump(cfg2, f)
        for cmd in ("coldstart", "rl-finetune", "evaluate", "report"):
            assert cli_main([cmd, "--config", cfg_path, "--out", d]) == 0
        blobs = {}
        for root, _, files in os.walk(d):
            for name in files:
                if name == "config.json":
                    continue
                rel = os.path.relpath(os.path.join(root, name), d)
                with open(os.path.join(root, name), "rb") as f:
                    blobs[rel] = f.read()
        outputs[run] = blobs
    ok = set(outputs["a"]) == set(outputs["b"])
    names = {"snapshots.jsonl", "checkpoints/pretrain.upck",
             "checkpoints/coldstart.upck", "checkpoints/rl.upck",
             "reports/loss_curves.svg"}
    ok &= names <= set(outputs["a"])
    for rel in outputs["a"]:
        ok &= outputs["a"][rel] == outputs["b"].get(rel)
    criterion(11, "two identically configured pipeline runs are "
                  "byte-identical (snapshots, checkpoints, reports)", ok)

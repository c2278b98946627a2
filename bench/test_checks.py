"""Each output check of the benchmark passes on a real output and fails on a
deliberately corrupted one.  Small inputs keep the whole file to seconds."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import checks  # noqa: E402
from odflow import mobility, rl, synthcity, training  # noqa: E402
from odflow.decoder import DecoderConfig, masked_mse_loss  # noqa: E402
from odflow.encoder import EncoderConfig  # noqa: E402
from odflow.model import Checkpoint, Model  # noqa: E402


@pytest.fixture(scope="module")
def city():
    cfg = synthcity.CityConfig(seed=5, n_pois=6, n_agents=60, n_intervals=24,
                               move_prob=0.3, attraction_exponent=2.0)
    pois, xy = synthcity.generate_city(cfg)
    points = synthcity.simulate_traces(cfg, pois, xy)
    weather = synthcity.generate_weather(cfg)
    snaps = mobility.build_snapshots(points, pois)
    stats = mobility.compute_norm_stats(snaps, pois, weather)
    windows = mobility.make_windows(snaps, pois, weather, stats, 4, stride=2)
    return cfg, pois, points, snaps, stats, windows


def tiny_model(width=8):
    return Model(EncoderConfig(n_types=6, temporal_channels=[4],
                               gcn_widths=[width], edge_dim=width, dropout=0.0),
                 DecoderConfig(layers=1, heads=2, model_dim=width, ffn_dim=16,
                               dropout=0.0), seed=0)


def test_ingest_check_catches_a_dropped_edge(city):
    cfg, pois, points, snaps, _, _ = city
    args = (checks.rows_from_points(points), np.array([p.lat for p in pois]),
            np.array([p.lon for p in pois]), cfg.interval_s,
            mobility.DEFAULT_MAX_DIST_KM, mobility.DEFAULT_MAX_SPEED_KMH,
            range(cfg.n_intervals))
    assert checks.check_ingest(snaps, *args) == []
    t = next(t for t in range(1, len(snaps)) if snaps[t].edges)
    dropped = list(snaps)
    dropped[t] = mobility.Snapshot(t, snaps[t].populations, snaps[t].edges[1:])
    problems = checks.check_ingest(dropped, *args)
    assert any("inflow - outflow" in p for p in problems)
    assert any("edges differ" in p for p in problems)


def test_training_checks_catch_negation_and_a_perturbed_gradient(city):
    *_, stats, windows = city
    model = tiny_model()
    batch = mobility.collate(windows[:1], stats)
    params = model.trainable_parameters()

    def loss_fn():
        pred, _, _, _ = model.forward(batch)
        return masked_mse_loss(pred, batch.targets, batch.mask, batch.target_steps)

    loss_fn().backward()
    grads = [p.grad.copy() for p in params]
    assert checks.check_directional_derivative(lambda: loss_fn().item(), params,
                                               grads) == []
    noise = np.random.default_rng(0)
    perturbed = [g + 0.1 * np.abs(g).mean() * noise.standard_normal(g.shape)
                 for g in grads]
    assert checks.check_directional_derivative(lambda: loss_fn().item(), params,
                                               perturbed)
    pred = model.predict(batch)
    assert checks.check_nonnegative(pred, "prediction") == []
    assert checks.check_nonnegative(-pred, "prediction")
    assert checks.check_finite([0.5, 0.25], "loss") == []
    assert checks.check_finite([0.5, float("nan")], "loss")


def test_forecast_checks_catch_corrupted_outputs(city, tmp_path):
    *_, stats, windows = city
    model = tiny_model()
    report = training.evaluate(model, windows, stats, batch_size=1)
    mse = training.dataset_loss(model, windows, stats, batch_size=1)
    assert checks.check_close(report.mse, mse, 1e-9, "mse") == []
    assert checks.check_close(report.mse * (1 + 1e-6), mse, 1e-9, "mse")
    assert checks.check_outcome_counts(report, windows) == []
    w = windows[0]
    dropped = [mobility.Window(w.start, w.features, w.adjacency,
                               w.candidate_edges[1:], w.flows[:, 1:],
                               w.target_steps)] + windows[1:]
    assert checks.check_outcome_counts(report, dropped)

    by_m = sorted(windows, key=lambda w: len(w.candidate_edges))
    alone = mobility.collate([by_m[0]], stats)
    pred = model.predict(alone)[0]
    padded = model.predict(mobility.collate([by_m[0], by_m[-1]], stats))[0]
    assert len(by_m[-1].candidate_edges) > len(by_m[0].candidate_edges)
    assert checks.check_padding(pred, padded, alone.mask[0]) == []
    assert checks.check_padding(pred, padded + 1e-6, alone.mask[0])

    saved = Checkpoint.from_model(model, stats)
    saved.save(tmp_path / "m.upck")
    loaded = Checkpoint.load(tmp_path / "m.upck")
    assert checks.check_same_arrays(saved.params, loaded.params, "ckpt") == []
    key = sorted(loaded.params)[0]
    loaded.params[key].flat[0] = np.nextafter(loaded.params[key].flat[0], 1.0)
    assert checks.check_same_arrays(saved.params, loaded.params, "ckpt")


def test_rl_checks_catch_a_shifted_reward(city):
    *_, stats, windows = city
    model = tiny_model(width=256)
    ppo = rl.PpoConfig(episodes_per_update=4, update_epochs=1, episode_len=2)
    policy, _, env, rewards = rl.train_rl(model, windows[:3], stats,
                                          rl.RewardConfig(delta=0.02), ppo, 8)
    assert checks.check_rewards(rewards) == []
    assert checks.check_rewards(rewards[:-1] + [0.5])
    start = env._cursor
    episode = env.run_episode(policy, np.random.default_rng(0), deterministic=True)
    replay = checks.replay_episode_reward(env, start, episode["actions"],
                                          ppo.n_blocks, rl.ACTION_CLAMP)
    assert checks.check_close(episode["episode_reward"], replay, 1e-9, "r") == []
    assert checks.check_close(episode["episode_reward"] + 1e-6, replay, 1e-9, "r")
    w2, b2 = rl.apply_action(env.w0, env.b0, np.zeros(ppo.n_blocks + 1), env.g)
    assert checks.check_same_arrays({"w": env.w0, "b": env.b0},
                                    {"w": w2, "b": b2}, "zero action") == []
    assert checks.check_same_arrays({"w": env.w0}, {"w": -env.w0}, "negated")


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside the benchmark")
    import run
    with open(path) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

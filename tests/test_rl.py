"""RL stage tests: state construction, the head action, rewards, GAE,
the clipped surrogate, and the head-adaptation environment."""

import numpy as np
import pytest

from odflow import rl
from odflow.autodiff import Tensor
from odflow.decoder import DecoderConfig
from odflow.encoder import EncoderConfig
from odflow.mobility import NormStats, Window
from odflow.model import Model
from odflow.rl import (ACTION_CLAMP, ACTION_DIM, STATE_DIM, GaussianPolicy,
                       HeadAdaptEnv, PpoConfig, RewardConfig,
                       RunningStandardizer, ValueNet, apply_action,
                       build_state, clipped_surrogate, compute_reward,
                       gae_advantages, grouping_matrix, ppo_update,
                       smooth_rewards)


# -- constants and grouping ------------------------------------------------


def test_state_dimension_composition():
    assert STATE_DIM == 1560
    assert rl.TEMPORAL_BLOCK + rl.EDGE_BLOCK + rl.NODE_BLOCK == STATE_DIM
    assert (rl.TEMPORAL_BLOCK, rl.EDGE_BLOCK, rl.NODE_BLOCK) == (1024, 512, 24)
    assert ACTION_DIM == 33


def test_grouping_matrix_structure():
    g = grouping_matrix(256, 32)
    assert g.shape == (256, 33)
    assert np.all(g.sum(axis=1) == 1.0)         # one block per weight
    assert np.all(g[:, :-1].sum(axis=0) == 8.0)  # 32 blocks of 8
    assert np.all(g[:, -1] == 0.0)               # bias column is separate
    # block b covers the contiguous range [8b, 8b+8)
    assert np.all(g[16:24, 2] == 1.0)
    for blocks in (8, 16):
        gb = grouping_matrix(256, blocks)
        assert gb.shape == (256, blocks + 1)
        assert np.all(gb[:, :-1].sum(axis=0) == 256 // blocks)
    with pytest.raises(ValueError):
        grouping_matrix(256, 7)


# -- the head action -------------------------------------------------------


def test_zero_action_is_bit_identical():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(256, 1))
    b = rng.normal(size=(1,))
    g = grouping_matrix()
    w2, b2 = apply_action(w, b, np.zeros(33), g)
    assert w2.tobytes() == w.tobytes()
    assert b2.tobytes() == b.tobytes()


def test_action_scales_blocks_and_bias():
    w = np.ones((256, 1))
    b = np.array([2.0])
    a = np.zeros(33)
    a[0] = 0.5
    a[-1] = -0.25
    w2, b2 = apply_action(w, b, a, grouping_matrix())
    assert np.allclose(w2[:8], 1.5)
    assert np.allclose(w2[8:], 1.0)
    assert b2[0] == pytest.approx(1.5)


def test_action_clamped_to_two():
    w = np.ones((256,))
    w2, b2 = apply_action(w, np.array([1.0]), np.full(33, 10.0),
                          grouping_matrix())
    assert np.allclose(w2, 1.0 + ACTION_CLAMP)
    assert b2[0] == pytest.approx(1.0 + ACTION_CLAMP)
    w3, _ = apply_action(w, np.array([1.0]), np.full(33, -10.0),
                         grouping_matrix())
    assert np.allclose(w3, 1.0 - ACTION_CLAMP)


def test_action_shape_validation():
    g = grouping_matrix()
    with pytest.raises(ValueError):
        apply_action(np.ones((256, 1)), np.ones(1), np.zeros(32), g)
    with pytest.raises(ValueError):
        apply_action(np.ones((128, 1)), np.ones(1), np.zeros(33), g)


# -- reward ----------------------------------------------------------------


def test_reward_hand_example():
    cfg = RewardConfig(delta=1.0, lam=1.0)
    # one step, one edge: true 2, predicted 3; weight 1 + 2/2 = 2
    r = compute_reward([np.array([3.0])], [np.array([2.0])], cfg)
    assert r == pytest.approx(-(2.0 * 1.0 + 1.0))
    r2 = compute_reward([np.array([3.0])], [np.array([2.0])],
                        RewardConfig(delta=1.0, lam=0.5))
    assert r2 == pytest.approx(-2.5)


def test_reward_perfect_prediction_is_zero():
    preds = [np.array([1.0, 4.0, 0.0]), np.array([2.0, 2.0])]
    r = compute_reward(preds, [p.copy() for p in preds], RewardConfig())
    assert r == 0.0


def test_reward_delta_linearity():
    preds = [np.array([1.5, 3.0])]
    trues = [np.array([1.0, 4.0])]
    r1 = compute_reward(preds, trues, RewardConfig(delta=1.0))
    r3 = compute_reward(preds, trues, RewardConfig(delta=3.0))
    assert r3 == pytest.approx(3.0 * r1)


def test_reward_weights_heavier_flows_more():
    # same absolute error on the max-flow edge hurts more
    trues = [np.array([1.0, 10.0])]
    r_small = compute_reward([np.array([2.0, 10.0])], trues, RewardConfig())
    r_big = compute_reward([np.array([1.0, 11.0])], trues, RewardConfig())
    assert r_big < r_small


def test_reward_zero_flows_use_unit_weight():
    r = compute_reward([np.array([1.0])], [np.array([0.0])],
                       RewardConfig(delta=1.0, lam=0.0))
    assert r == pytest.approx(-1.0)  # weight exactly 1 when w_max = 0
    with pytest.raises(ValueError):
        compute_reward([], [], RewardConfig())


def test_smooth_rewards():
    assert smooth_rewards([0.0, 0.0, 100.0], 2) == [0.0, 0.0, 50.0]
    assert smooth_rewards([10.0, 20.0], 3) == [10.0, 15.0]
    assert smooth_rewards([1.0, 2.0, 3.0], 1) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        smooth_rewards([1.0], 0)


# -- standardizer and state ------------------------------------------------


def test_running_standardizer_matches_batch_stats():
    rng = np.random.default_rng(1)
    xs = rng.normal(3.0, 2.0, size=(200, 5))
    s = RunningStandardizer(5)
    for x in xs:
        s.update(x)
    assert np.allclose(s.mean, xs.mean(axis=0), atol=1e-9)
    var = s.m2 / s.count
    assert np.allclose(var, xs.var(axis=0), atol=1e-9)
    z = s.transform(xs[0])
    assert np.allclose(z, (xs[0] - xs.mean(0)) / np.sqrt(xs.var(0) + 1e-8))
    s.frozen = True
    s.update(np.full(5, 1e6))
    assert s.count == 200


def test_build_state_shape_and_edge_order_invariance():
    rng = np.random.default_rng(2)
    t, m = 5, 7
    tokens = rng.normal(size=(t, m, 256))
    mask = rng.random((t, m)) < 0.8
    mask[:, 0] = True  # at least one valid slot per step
    nodes = rng.normal(size=(4, 12, t))
    s1 = build_state(tokens, mask, nodes)
    assert s1.shape == (STATE_DIM,)
    perm = rng.permutation(m)
    s2 = build_state(tokens[:, perm], mask[:, perm], nodes)
    assert np.allclose(s1, s2, atol=1e-9)
    with pytest.raises(ValueError):
        build_state(tokens[:1], mask[:1], nodes[:, :, :1])


# -- GAE and the clipped surrogate -----------------------------------------


def test_gae_single_step():
    adv, ret = gae_advantages(np.array([2.0]), np.array([0.5]), 0.99, 0.95)
    assert adv[0] == pytest.approx(1.5)
    assert ret[0] == pytest.approx(2.0)


def test_gae_sparse_terminal_reward():
    rewards = np.array([0.0, 0.0, 1.0])
    values = np.zeros(3)
    adv, ret = gae_advantages(rewards, values, 0.9, 1.0)
    # with lambda 1 this is the discounted return
    assert np.allclose(adv, [0.81, 0.9, 1.0])
    assert np.allclose(ret, adv)


def test_clipped_surrogate_matches_min_formula():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.5, 1.5, size=50)
    a = rng.normal(size=50)
    out = clipped_surrogate(Tensor(r), a, 0.2)
    expect = np.minimum(r * a, np.clip(r, 0.8, 1.2) * a)
    assert np.allclose(out.data, expect)


def test_clipped_surrogate_gradient_gating():
    a = np.array([1.0, 1.0, -1.0, -1.0])
    r = Tensor(np.array([1.5, 0.9, 0.5, 1.1]), requires_grad=True)
    clipped_surrogate(r, a, 0.2).sum().backward()
    # adv>0 above the clip: min takes the clipped constant, no gradient;
    # adv>0 inside: grad = adv; adv<0 below the clip: the clipped product
    # is smaller, so again no gradient; adv<0 inside: grad = adv
    assert np.allclose(r.grad, [0.0, 1.0, 0.0, -1.0])


def test_policy_log_prob_matches_normal_density():
    from scipy.stats import norm
    pol = GaussianPolicy(state_dim=4, action_dim=2, hidden_dim=3, seed=0)
    states = np.random.default_rng(4).normal(size=(5, 4))
    actions = np.random.default_rng(5).normal(size=(5, 2))
    lp = pol.log_prob(states, actions).data
    mu = pol.mean(states).data
    std = np.exp(pol.log_std.data)
    expect = norm.logpdf(actions, mu, std).sum(axis=1)
    assert np.allclose(lp, expect, atol=1e-10)


def test_policy_entropy_value():
    pol = GaussianPolicy(state_dim=4, action_dim=3, hidden_dim=3, seed=0)
    h = pol.entropy().item()
    expect = float(np.sum(pol.log_std.data)
                   + 0.5 * 3 * (np.log(2 * np.pi) + 1.0))
    assert h == pytest.approx(expect)


def test_ppo_update_gradient_direction():
    # a bandit with one good action direction: the update must raise the
    # probability of high-advantage actions
    pol = GaussianPolicy(state_dim=3, action_dim=1, hidden_dim=4, seed=1)
    vnet = ValueNet(state_dim=3, hidden_dim=4, seed=2)
    from odflow.training import Adam
    popt = Adam(pol.parameters(), lr=1e-2)
    vopt = Adam(vnet.parameters(), lr=1e-2)
    cfg = PpoConfig(update_epochs=2)
    rng = np.random.default_rng(6)
    states = rng.normal(size=(16, 3))
    trajs = []
    for s in states:
        a = pol.sample(s, rng)
        trajs.append({"states": s[None, :], "actions": a[None, :],
                      "rewards": np.array([float(a[0])])})  # reward = action
    before = pol.mean(states).data.mean()
    for _ in range(30):
        ppo_update(pol, vnet, trajs, cfg, popt, vopt)
    after = pol.mean(states).data.mean()
    assert after > before


# -- environment -----------------------------------------------------------


def env_model(seed=0):
    enc = EncoderConfig(n_types=3, poi_embed_dim=6, temporal_channels=[4, 8],
                        gcn_widths=[256], edge_dim=256, dropout=0.0)
    dec = DecoderConfig(layers=1, heads=2, model_dim=256, ffn_dim=32,
                        dropout=0.0)
    return Model(enc, dec, seed=seed)


def env_windows(n=4, seed=0):
    rng = np.random.default_rng(seed)
    wins = []
    for k in range(n):
        feats = rng.uniform(0, 1, size=(3, 7, 4))
        feats[:, 0, :] = rng.integers(0, 3, size=(3, 1))
        adj = np.tile(np.eye(3), (4, 1, 1))
        cand = [(0, 1), (1, 2)]
        flows = rng.integers(0, 4, size=(4, 2)).astype(float)
        wins.append(Window(k, feats, adj, cand, flows, [3]))
    return wins


def make_env(episode_len=3):
    model = env_model()
    stats = NormStats(np.zeros(6), np.ones(6), 3.0)
    return HeadAdaptEnv(model, env_windows(), stats, RewardConfig(),
                        episode_len=episode_len)


class ZeroPolicy:
    def mean(self, s):
        return Tensor(np.zeros((s.shape[0], ACTION_DIM)))

    def sample(self, s, rng):
        return np.zeros(ACTION_DIM)


def test_episode_shapes_and_sparse_reward():
    env = make_env(episode_len=3)
    tr = env.run_episode(ZeroPolicy(), np.random.default_rng(0))
    assert tr["states"].shape == (3, STATE_DIM)
    assert tr["actions"].shape == (3, ACTION_DIM)
    assert tr["rewards"].shape == (3,)
    assert np.all(tr["rewards"][:-1] == 0.0)
    assert tr["rewards"][-1] == tr["episode_reward"]


def test_zero_policy_keeps_head_and_repeats():
    env = make_env()
    w0 = env.w0.copy()
    r1 = env.run_episode(ZeroPolicy(), np.random.default_rng(0),
                         deterministic=True)["episode_reward"]
    assert np.array_equal(env.model.params["decoder.head.w_out"].data, w0)
    env._cursor = 0
    r2 = env.run_episode(ZeroPolicy(), np.random.default_rng(1),
                         deterministic=True)["episode_reward"]
    assert r1 == r2  # deterministic given the start window


def test_head_resets_between_episodes():
    env = make_env()

    class ShrinkPolicy(ZeroPolicy):
        def sample(self, s, rng):
            return np.full(ACTION_DIM, -0.5)

    env.run_episode(ShrinkPolicy(), np.random.default_rng(0))
    moved = env.model.params["decoder.head.w_out"].data
    assert not np.array_equal(moved, env.w0)
    env.run_episode(ZeroPolicy(), np.random.default_rng(0))
    assert np.array_equal(env.model.params["decoder.head.w_out"].data, env.w0)


def test_cursor_cycles_through_starts():
    env = make_env()
    starts = []
    for _ in range(5):
        c = env._cursor
        env.run_episode(ZeroPolicy(), np.random.default_rng(0))
        starts.append(c)
    assert starts == [0, 1, 2, 0, 1]  # 4 windows -> 3 usable starts


def test_window_forward_embeds_once_per_cache_miss(monkeypatch):
    env = make_env()
    calls = []
    embed = env.model.encoder.embed_features

    def counting(x):
        calls.append(1)
        return embed(x)

    monkeypatch.setattr(env.model.encoder, "embed_features", counting)
    for idx in (0, 1, 0, 1, 2):
        env._window_forward(idx)
    assert len(calls) == 3

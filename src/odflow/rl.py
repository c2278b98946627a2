"""Stage 3: MDP over the decoder output head plus PPO optimization.

The agent observes a 1,560-dim standardized summary of the encoder's edge
and node representations, emits a 33-dim block-scaling action on the output
head, and receives a sparse flow-weighted reward at episode end.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .mobility import collate
from .training import Adam

STATE_DIM = 1560
TEMPORAL_BLOCK = 1024   # 4 stats x 256 edge dims
EDGE_BLOCK = 512        # 2 stats x 256 edge dims
NODE_BLOCK = 24         # 2 stats x 12 embedded node dims
ACTION_DIM = 33
ACTION_CLAMP = 2.0


@dataclass
class RewardConfig:
    delta: float = 1.0
    lam: float = 0.5


@dataclass
class PpoConfig:
    clip_eps: float = 0.2
    value_coeff: float = 0.5
    entropy_coeff: float = 0.01
    gamma: float = 0.99
    gae_lambda: float = 0.95
    step_size: float = 3e-4
    episode_len: int = 8
    update_epochs: int = 4
    episodes_per_update: int = 8
    hidden_dim: int = 64
    n_blocks: int = 32  # 32 blocks of 8 weights; 8 and 16 also supported


def grouping_matrix(n_weights=256, n_blocks=32):
    """Binary map from action slots to contiguous weight blocks; the last
    column is reserved for the bias and applied separately."""
    if n_weights % n_blocks != 0:
        raise ValueError("block count must divide the weight count")
    size = n_weights // n_blocks
    g = np.zeros((n_weights, n_blocks + 1))
    for b in range(n_blocks):
        g[b * size:(b + 1) * size, b] = 1.0
    return g


def apply_action(w_out, b_out, action, g):
    """Multiplicative block-wise head update W' = W * (1 + G a), b' = b * (1 + a[-1])."""
    action = np.clip(np.asarray(action, dtype=np.float64), -ACTION_CLAMP,
                     ACTION_CLAMP)
    if action.shape != (g.shape[1],):
        raise ValueError("action length does not match the grouping matrix")
    w = np.asarray(w_out, dtype=np.float64)
    if w.shape[0] != g.shape[0]:
        raise ValueError("weight count does not match the grouping matrix")
    scale = 1.0 + g[:, :-1] @ action[:-1]
    w2 = w * (scale if w.ndim == 1 else scale[:, None])
    return w2, np.asarray(b_out, dtype=np.float64) * (1.0 + action[-1])


class RunningStandardizer:
    """Welford running mean/variance; updates only while unfrozen."""

    def __init__(self, dim):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.frozen = False

    def update(self, x):
        if self.frozen:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def transform(self, x):
        if self.count < 2:
            return x - self.mean
        var = self.m2 / self.count
        return (x - self.mean) / np.sqrt(var + 1e-8)


def build_state(edge_tokens, mask, node_features, standardizer=None):
    """Pooled statistics of the window's representations, exactly 1,560 dims.

    edge_tokens: (T, M, D_g) with validity mask (T, M); node_features:
    embedded node features (N, D0, T) with D0 = 12.  Blocks: temporal
    difference stats (4 x D_g), final-step edge stats (2 x D_g), node
    feature stats (2 x D0).
    """
    t, m, dg = edge_tokens.shape
    if t < 2:
        raise ValueError("state needs at least two time steps")
    pooled = np.zeros((t, dg))
    for k in range(t):
        valid = mask[k]
        if valid.any():
            pooled[k] = edge_tokens[k][valid].mean(axis=0)
    diffs = pooled[1:] - pooled[:-1]  # (T-1, D_g)
    temporal = np.concatenate([diffs.mean(axis=0), diffs.std(axis=0),
                               diffs.max(axis=0), diffs.min(axis=0)])
    final = edge_tokens[-1][mask[-1]]
    if final.size == 0:
        final = np.zeros((1, dg))
    edge_stats = np.concatenate([final.mean(axis=0), final.std(axis=0)])
    flat_nodes = node_features.transpose(0, 2, 1).reshape(-1, node_features.shape[1])
    node_stats = np.concatenate([flat_nodes.mean(axis=0), flat_nodes.std(axis=0)])
    state = np.concatenate([temporal, edge_stats, node_stats])
    assert state.shape == (STATE_DIM,)
    if standardizer is not None:
        standardizer.update(state)
        state = standardizer.transform(state)
    return state


def compute_reward(predictions, truths, cfg):
    """Mean over episode steps of -delta * (e_wmse + lambda * e_mae).

    Each entry of predictions/truths is one step's (pred, true) arrays over
    the batch's valid edges, de-normalized units.
    """
    if not predictions:
        raise ValueError("empty episode")
    total = 0.0
    for pred, true in zip(predictions, truths):
        w_max = float(true.max()) if true.size and true.max() > 0 else 0.0
        weight = 1.0 + (true / w_max if w_max > 0 else 0.0)
        n_b = max(1, pred.size)
        e_wmse = float((weight * (pred - true) ** 2).sum()) / n_b
        e_mae = float(np.abs(pred - true).sum()) / n_b
        total += -cfg.delta * (e_wmse + cfg.lam * e_mae)
    return total / len(predictions)


def smooth_rewards(rewards, window):
    """Trailing moving average; the first window-1 entries average the prefix."""
    if window < 1:
        raise ValueError("window must be >= 1")
    out = []
    acc = 0.0
    for i, r in enumerate(rewards):
        acc += r
        if i >= window:
            acc -= rewards[i - window]
        out.append(acc / min(i + 1, window))
    return out


# -- policy and value networks ---------------------------------------------

LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianPolicy:
    """Diagonal-Gaussian policy: 2-layer perceptron mean plus a learned
    state-independent log-std."""

    def __init__(self, state_dim=STATE_DIM, action_dim=ACTION_DIM,
                 hidden_dim=64, seed=0):
        rng = np.random.default_rng(seed)
        self.w1 = ad.glorot(rng, (state_dim, hidden_dim))
        self.b1 = ad.zeros(hidden_dim, requires_grad=True)
        self.w2 = Tensor(rng.normal(0, 0.01, size=(hidden_dim, action_dim)),
                         requires_grad=True)
        self.b2 = ad.zeros(action_dim, requires_grad=True)
        self.log_std = Tensor(np.full(action_dim, -1.0), requires_grad=True)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2, self.log_std]

    def mean(self, states):
        h = (Tensor(states) @ self.w1 + self.b1).tanh()
        return h @ self.w2 + self.b2

    def sample(self, state, rng):
        mu = self.mean(state[None, :]).data[0]
        std = np.exp(self.log_std.data)
        return mu + std * rng.standard_normal(mu.shape)

    def log_prob(self, states, actions):
        """Per-row log density of `actions` under the current policy (Tensor)."""
        mu = self.mean(states)
        z = (Tensor(actions) - mu) * (-self.log_std).exp()
        per_dim = (z ** 2) * -0.5 - self.log_std - 0.5 * LOG_2PI
        return per_dim.sum(axis=1)

    def entropy(self):
        return self.log_std.sum() + 0.5 * self.log_std.size * (LOG_2PI + 1.0)


class ValueNet:
    def __init__(self, state_dim=STATE_DIM, hidden_dim=64, seed=1):
        rng = np.random.default_rng(seed)
        self.w1 = ad.glorot(rng, (state_dim, hidden_dim))
        self.b1 = ad.zeros(hidden_dim, requires_grad=True)
        self.w2 = ad.glorot(rng, (hidden_dim, 1))
        self.b2 = ad.zeros(1, requires_grad=True)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, states):
        h = (Tensor(states) @ self.w1 + self.b1).tanh()
        return (h @ self.w2 + self.b2)[:, 0]


# -- environment -----------------------------------------------------------


class HeadAdaptEnv:
    """Episodes over a window stream; actions rescale the decoder head.

    Head weights reset to the checkpoint values at every episode start so
    episodes are comparable.  The data loader advances with stride T/4.
    """

    def __init__(self, model, windows, stats, reward_cfg, episode_len=8,
                 n_blocks=32):
        self.model = model
        self.windows = windows
        self.stats = stats
        self.reward_cfg = reward_cfg
        self.episode_len = episode_len
        self.standardizer = RunningStandardizer(STATE_DIM)
        self.g = grouping_matrix(n_blocks=n_blocks)
        self.w0 = model.params["decoder.head.w_out"].data.copy()
        self.b0 = model.params["decoder.head.b_out"].data.copy()
        self._cursor = 0
        self._cache = {}

    def reset_head(self):
        self.model.params["decoder.head.w_out"].data = self.w0.copy()
        self.model.params["decoder.head.b_out"].data = self.b0.copy()

    def _window_forward(self, idx):
        """Encoder and decoder-body passes for window idx; cached since the
        output head never touches them."""
        if idx not in self._cache:
            batch = collate([self.windows[idx]], self.stats)
            z0 = self.model.encoder.embed_features(batch.x)
            tokens, flat_mask, _ = self.model.encoder.encode(z0, batch)
            t, m = batch.mask.shape[1], batch.mask.shape[2]
            z = self.model.decoder.decode(tokens, flat_mask)
            self._cache[idx] = (batch, z0.data[0], tokens.data, z.data, t, m)
        return self._cache[idx]

    def _state(self, idx):
        batch, z0, tokens, _, t, m = self._window_forward(idx)
        return build_state(tokens.reshape(t, m, -1), batch.mask[0], z0,
                           self.standardizer)

    def _predict_errors(self, idx):
        """De-normalized (pred, true) arrays at the target steps of window idx
        under the current head."""
        batch, _, _, z, t, m = self._window_forward(idx)
        flows = self.model.decoder.predict_flows(Tensor(z)).data.reshape(1, t, m)
        preds, trues = [], []
        for step in batch.target_steps:
            valid = batch.mask[0, step, :]
            preds.append(flows[0, step, :][valid] * self.stats.flow_scale)
            trues.append(batch.raw_targets[0, step, :][valid])
        return np.concatenate(preds), np.concatenate(trues)

    def run_episode(self, policy, rng, deterministic=False):
        """K steps of observe -> act -> rescale head -> score the next window.

        Returns dict with states, actions, rewards (sparse), and the episode
        reward.
        """
        self.reset_head()
        k = self.episode_len
        n = len(self.windows)
        if n < 2:
            raise ValueError("need at least two windows")
        start = self._cursor
        self._cursor = (self._cursor + 1) % (n - 1)
        states, actions = [], []
        step_preds, step_trues = [], []
        idx = start
        for _ in range(k):
            state = self._state(idx)
            if deterministic:
                action = policy.mean(state[None, :]).data[0]
            else:
                action = policy.sample(state, rng)
            w = self.model.params["decoder.head.w_out"].data
            b = self.model.params["decoder.head.b_out"].data
            w2, b2 = apply_action(w, b, action, self.g)
            self.model.params["decoder.head.w_out"].data = w2
            self.model.params["decoder.head.b_out"].data = b2
            nxt = (idx + 1) % n
            pred, true = self._predict_errors(nxt)
            step_preds.append(pred)
            step_trues.append(true)
            states.append(state)
            actions.append(action)
            idx = nxt
        episode_reward = compute_reward(step_preds, step_trues, self.reward_cfg)
        rewards = np.zeros(k)
        rewards[-1] = episode_reward
        return {"states": np.array(states), "actions": np.array(actions),
                "rewards": rewards, "episode_reward": episode_reward}


# -- PPO -------------------------------------------------------------------


def gae_advantages(rewards, values, gamma, lam):
    """Generalized advantage estimation over one finished episode."""
    k = len(rewards)
    adv = np.zeros(k)
    last = 0.0
    for t in reversed(range(k)):
        next_v = values[t + 1] if t + 1 < k else 0.0
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    returns = adv + values[:k]
    return adv, returns


def ppo_update(policy, value_net, trajectories, cfg, policy_opt, value_opt):
    """Clipped-surrogate actor update plus squared-error critic update over
    the stored batch, several epochs."""
    states = np.concatenate([tr["states"] for tr in trajectories])
    actions = np.concatenate([tr["actions"] for tr in trajectories])
    values = value_net.forward(states).data
    advs, rets = [], []
    off = 0
    for tr in trajectories:
        k = len(tr["rewards"])
        a, r = gae_advantages(tr["rewards"], values[off:off + k],
                              cfg.gamma, cfg.gae_lambda)
        advs.append(a)
        rets.append(r)
        off += k
    adv = np.concatenate(advs)
    ret = np.concatenate(rets)
    if adv.std() > 1e-8:
        adv = (adv - adv.mean()) / adv.std()
    old_logp = policy.log_prob(states, actions).data.copy()

    loss_val = 0.0
    for _ in range(cfg.update_epochs):
        logp = policy.log_prob(states, actions)
        ratio = (logp - Tensor(old_logp)).exp()
        if not np.isfinite(ratio.data).all():
            raise FloatingPointError("non-finite probability ratio")
        surrogate = clipped_surrogate(ratio, adv, cfg.clip_eps)
        v_err = ((value_net.forward(states) - Tensor(ret)) ** 2).mean()
        loss = -(surrogate.mean() + cfg.entropy_coeff * policy.entropy()) \
            + cfg.value_coeff * v_err
        for p in policy.parameters() + value_net.parameters():
            p.zero_grad()
        loss.backward()
        policy_opt.step()
        value_opt.step()
        loss_val = loss.item()
    return loss_val


def clipped_surrogate(ratio, advantages, eps):
    """min(rho * A, clip(rho, 1-eps, 1+eps) * A) per step, as a Tensor.

    Gradient flows through rho wherever the winning branch depends on it:
    always when the unclipped side wins, and only while the clip is
    inactive otherwise.
    """
    r = ratio.data
    lo, hi = 1.0 - eps, 1.0 + eps
    clipped = np.clip(r, lo, hi)
    unclipped_wins = (r * advantages) <= (clipped * advantages)
    active = unclipped_wins | ((r > lo) & (r < hi))
    coeff = np.where(active, advantages, 0.0)
    const = np.where(active, 0.0, clipped * advantages)
    return ratio * Tensor(coeff) + Tensor(const)


def train_rl(model, windows, stats, reward_cfg, ppo_cfg, n_episodes, seed=0):
    """Full Stage 3 loop; returns (policy, value_net, env, raw reward list)."""
    rng = np.random.default_rng(seed)
    policy = GaussianPolicy(action_dim=ppo_cfg.n_blocks + 1,
                            hidden_dim=ppo_cfg.hidden_dim, seed=seed)
    value_net = ValueNet(hidden_dim=ppo_cfg.hidden_dim, seed=seed + 1)
    policy_opt = Adam(policy.parameters(), lr=ppo_cfg.step_size)
    value_opt = Adam(value_net.parameters(), lr=ppo_cfg.step_size)
    env = HeadAdaptEnv(model, windows, stats, reward_cfg,
                       episode_len=ppo_cfg.episode_len,
                       n_blocks=ppo_cfg.n_blocks)
    raw_rewards = []
    buffer = []
    for _ in range(n_episodes):
        tr = env.run_episode(policy, rng)
        raw_rewards.append(tr["episode_reward"])
        buffer.append(tr)
        if len(buffer) >= ppo_cfg.episodes_per_update:
            ppo_update(policy, value_net, buffer, ppo_cfg, policy_opt, value_opt)
            buffer = []
    env.standardizer.frozen = True
    return policy, value_net, env, raw_rewards

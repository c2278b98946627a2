"""Output checks of the benchmark, against independent recomputations or
required properties, never against a stored copy of earlier output.

Every check returns a list of problems; an empty list means it passed.
"""

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = (np.sin((p2 - p1) / 2) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def rows_from_points(points):
    """The GPS rows as arrays of user index, timestamp, lat and lon, with
    coordinates rounded to the 7 decimals the CSV writer keeps."""
    _, uid = np.unique([p.user_id for p in points], return_inverse=True)
    return {"uid": uid,
            "ts": np.array([p.timestamp for p in points]),
            "lat": np.round([p.lat for p in points], 7),
            "lon": np.round([p.lon for p in points], 7)}


# -- ingest ----------------------------------------------------------------


def _first_rows(rows, interval_s):
    """Row index of each user's first point in each interval, in
    (interval, user) order, plus those intervals and users."""
    k = np.floor(rows["ts"] / interval_s).astype(np.int64)
    k -= int(np.floor(rows["ts"].min() / interval_s))
    order = np.lexsort((rows["ts"], rows["uid"], k))
    k_s, u_s = k[order], rows["uid"][order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (k_s[1:] != k_s[:-1]) | (u_s[1:] != u_s[:-1])
    return order[first], k_s[first], u_s[first]


def check_ingest(snapshots, rows, poi_lat, poi_lon, interval_s, max_dist_km,
                 max_speed_kmh, sample):
    """Snapshots against a recount from the GPS rows that were written.

    - population totals equal the distinct users per interval;
    - pop_k - pop_{k-1} = inflow_k - outflow_k for k >= 1, which holds when
      no point and no transition is dropped (asserted as a precondition);
    - a brute-force nearest-POI recount of the intervals in `sample` (and
      the one before each) gives the same populations and edges.
    """
    problems = []
    n = len(poi_lat)
    d = haversine_km(poi_lat[:, None], poi_lon[:, None], poi_lat[None, :],
                     poi_lon[None, :])
    if d.max() >= max_dist_km or d.max() / (interval_s / 3600) >= max_speed_kmh:
        problems.append(f"precondition: POIs {d.max():.2f} km apart")
    by_user = np.lexsort((rows["ts"], rows["uid"]))
    u, ts = rows["uid"][by_user], rows["ts"][by_user]
    same = u[1:] == u[:-1]
    hop = haversine_km(rows["lat"][by_user][:-1], rows["lon"][by_user][:-1],
                       rows["lat"][by_user][1:], rows["lon"][by_user][1:])[same]
    dt_h = (ts[1:] - ts[:-1])[same] / 3600
    if (dt_h <= 0).any() or (hop / dt_h).max() >= max_speed_kmh:
        problems.append("precondition: a GPS hop exceeds the speed limit")

    idx, k, users = _first_rows(rows, interval_s)
    n_intervals = int(k.max()) + 1
    if len(snapshots) != n_intervals:
        return problems + [f"{len(snapshots)} snapshots for {n_intervals} intervals"]
    distinct = np.bincount(k, minlength=n_intervals)
    pops = np.array([s.populations for s in snapshots])
    bad = np.flatnonzero(pops.sum(axis=1) != distinct)
    if bad.size:
        problems.append(f"population total differs from distinct users at "
                        f"intervals {bad[:5].tolist()}")
    for t in range(1, n_intervals):
        flow = np.zeros(n, dtype=np.int64)
        for i, j, w in snapshots[t].edges:
            flow[j] += w
            flow[i] -= w
        if not np.array_equal(pops[t] - pops[t - 1], flow):
            problems.append(f"interval {t}: population change is not "
                            f"inflow - outflow")
            break

    def recount(t):
        sel = idx[k == t]
        dist = haversine_km(rows["lat"][sel][:, None], rows["lon"][sel][:, None],
                            poi_lat[None, :], poi_lon[None, :])
        return dict(zip(users[k == t].tolist(), np.argmin(dist, axis=1).tolist()))

    for t in sample:
        cur = recount(t)
        pop = np.bincount(list(cur.values()), minlength=n)
        if not np.array_equal(pop, snapshots[t].populations):
            problems.append(f"interval {t}: populations differ from a recount")
        if t == 0:
            continue
        prev = recount(t - 1)
        edges = {}
        for user, j in cur.items():
            i = prev.get(user)
            if i is not None and i != j:
                edges[(i, j)] = edges.get((i, j), 0) + 1
        if sorted((i, j, w) for (i, j), w in edges.items()) != \
                [tuple(e) for e in snapshots[t].edges]:
            problems.append(f"interval {t}: edges differ from a recount")
    return problems


# -- training and forecasting ----------------------------------------------


def check_finite(values, what):
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    return [f"{what}: {len(bad)} non-finite, first at {bad[0]}"] if bad else []


def check_nonnegative(pred, what):
    low = float(np.min(pred)) if np.size(pred) else 0.0
    return [f"{what}: negative value {low:.3g}"] if low < 0 else []


def check_close(got, want, rel, what):
    if abs(got - want) <= rel * max(abs(got), abs(want), 1e-300):
        return []
    return [f"{what}: {got!r} vs {want!r} (relative tolerance {rel:g})"]


def check_directional_derivative(loss_fn, params, direction, rel=1e-4,
                                 step=1e-6):
    """A two-sided finite difference of loss_fn along `direction` (one array
    per parameter) must equal |direction|^2, which holds when the direction
    is the loss's gradient.  Parameters are moved in place and restored."""
    sq = sum(float((d * d).sum()) for d in direction)
    if not sq > 0:
        return ["gradient is zero or non-finite"]
    eps = step / math.sqrt(sq)
    saved = [p.data.copy() for p in params]
    try:
        for p, s, d in zip(params, saved, direction):
            p.data = s + eps * d
        up = loss_fn()
        for p, s, d in zip(params, saved, direction):
            p.data = s - eps * d
        down = loss_fn()
    finally:
        for p, s in zip(params, saved):
            p.data = s
    return check_close((up - down) / (2 * eps), sq, rel,
                       "finite-difference derivative along the gradient vs |g|^2")


def check_outcome_counts(report, windows):
    """correct + over + under counts every scored slot exactly once."""
    want = sum(len(w.candidate_edges) * len(w.target_steps) for w in windows)
    got = sum(report.totals)
    return [] if got == want else [f"{got} outcome counts for {want} scored slots"]


def check_padding(alone, padded, mask, tol=1e-9):
    """Valid-slot predictions of one window alone and padded into a batch."""
    m = alone.shape[-1]
    diff = np.abs(alone[mask] - padded[..., :m][mask])
    worst = float(diff.max()) if diff.size else 0.0
    return [] if worst <= tol else [f"padding changes a prediction by {worst:.3g}"]


def check_same_arrays(a, b, what):
    """Bit-exact equality of two name -> array dicts."""
    if sorted(a) != sorted(b):
        return [f"{what}: parameter names differ"]
    bad = [k for k in sorted(a)
           if np.asarray(a[k]).shape != np.asarray(b[k]).shape
           or np.asarray(a[k]).tobytes() != np.asarray(b[k]).tobytes()]
    return [f"{what}: {len(bad)} tensors differ, first {bad[0]}"] if bad else []


# -- RL head adaptation ----------------------------------------------------


def check_rewards(rewards):
    problems = check_finite(rewards, "episode reward")
    high = max(rewards, default=0.0)
    if high > 0:
        problems.append(f"episode reward {high:.3g} > 0")
    return problems


def replay_episode_reward(env, start, actions, n_blocks, clamp):
    """The reward of an episode of `env` that started at window `start`,
    recomputed in numpy from the decoder body's outputs.

    Action i scales the head's weight block k by (1 + a_k) and its bias by
    (1 + a_last), starting from the head the episode reset to, and is
    scored on window start + i + 1.  The reward is the mean over steps of
    -delta * (weighted MSE + lam * MAE) of the de-normalized flows.
    """
    from odflow import mobility
    cfg, windows = env.reward_cfg, env.windows
    flow_scale = env.stats.flow_max if env.stats.flow_max > 0 else 1.0
    w, b = np.array(env.w0, dtype=np.float64), np.array(env.b0, dtype=np.float64)
    total = 0.0
    for i, a in enumerate(actions):
        batch = mobility.collate([windows[(start + i + 1) % len(windows)]], env.stats)
        tokens, flat_mask, _ = env.model.encoder.forward(batch)
        z = env.model.decoder.decode(tokens, flat_mask).data[0]
        a = np.clip(a, -clamp, clamp)
        w = w * (1.0 + np.repeat(a[:-1], w.shape[0] // n_blocks))[:, None]
        b = b * (1.0 + a[-1])
        mask = batch.mask[0]
        flows = np.logaddexp(0.0, (z @ w + b)[:, 0]).reshape(mask.shape) * flow_scale
        pred = np.concatenate([flows[t][mask[t]] for t in batch.target_steps])
        true = np.concatenate([batch.raw_targets[0, t][mask[t]]
                               for t in batch.target_steps])
        weight = 1.0 + (true / true.max() if true.size and true.max() > 0 else 0.0)
        count = max(1, pred.size)
        total -= cfg.delta * (float((weight * (pred - true) ** 2).sum()) / count
                              + cfg.lam * float(np.abs(pred - true).sum()) / count)
    return total / len(actions)

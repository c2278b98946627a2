"""From raw GPS traces to normalized dynamic-graph training windows.

The pipeline is: clean traces -> assign users to nearest POIs per interval
-> count inter-POI transitions between consecutive intervals -> snapshots
-> min-max normalized node features -> sliding windows with candidate edge
sets, adjacency matrices, and target flows.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088
PRECIP_CAP_MMH = 50.0
N_FEATURES = 7  # type_index, lat, lon, population, temperature, precipitation, wind

DEFAULT_MAX_SPEED_KMH = 150.0
DEFAULT_MAX_DIST_KM = 30.0
DEFAULT_INTERVAL_S = 900


@dataclass
class GpsPoint:
    user_id: str
    timestamp: float
    lat: float
    lon: float


@dataclass
class Poi:
    poi_id: int
    lat: float
    lon: float
    type_index: int


@dataclass
class WeatherRecord:
    interval_index: int
    temperature: float
    precipitation: float
    wind_east: float
    wind_north: float

    @property
    def wind_speed(self):
        return math.hypot(self.wind_east, self.wind_north)


@dataclass
class Snapshot:
    interval_index: int
    populations: np.ndarray              # (N,) counts
    edges: list                          # [(src, dst, weight), ...] sorted by (src, dst)


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometres; accepts scalars or arrays."""
    lat1, lon1 = np.radians(lat1), np.radians(lon1)
    lat2, lon2 = np.radians(lat2), np.radians(lon2)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


# -- CSV readers -----------------------------------------------------------


def read_gps_csv(path):
    """Yield GpsPoint rows; malformed rows are counted, not fatal.

    Returns (points, n_malformed).
    """
    points = []
    bad = 0
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            try:
                p = GpsPoint(row["user_id"], float(row["timestamp"]),
                             float(row["lat"]), float(row["lon"]))
                if not (-90.0 <= p.lat <= 90.0 and -180.0 <= p.lon <= 180.0):
                    raise ValueError("coordinate out of range")
            except (KeyError, TypeError, ValueError):
                bad += 1
                continue
            points.append(p)
    return points, bad


def _parse_rows(path, parse):
    """`parse(row)` for every data row of a CSV file.  A missing column, a
    short row or an unparsable value raises ValueError naming the file and
    the row; data rows count from 1."""
    out = []
    with open(path, newline="") as f:
        for n, row in enumerate(csv.DictReader(f), start=1):
            if None in row.values():
                raise ValueError(f"{path}: row {n}: too few fields")
            try:
                out.append(parse(row))
            except KeyError as e:
                raise ValueError(f"{path}: row {n}: missing column {e}") from None
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: row {n}: {e}") from None
    return out


def read_poi_csv(path):
    """Read POIs; string types are mapped to dense indices in first-seen order.

    Returns (pois, type_names).
    """
    type_map = {}
    pois = _parse_rows(path, lambda row: Poi(
        int(row["poi_id"]), float(row["lat"]), float(row["lon"]),
        type_map.setdefault(row["type"], len(type_map))))
    pois.sort(key=lambda p: p.poi_id)
    ids = [p.poi_id for p in pois]
    if ids != list(range(len(pois))):
        raise ValueError("poi_id must be dense 0..N-1")
    return pois, list(type_map)


def read_weather_csv(path):
    return _parse_rows(path, lambda row: WeatherRecord(
        int(row["interval_index"]), float(row["temperature"]),
        float(row["precipitation"]), float(row["wind_east"]),
        float(row["wind_north"])))


# -- trace cleaning --------------------------------------------------------


def clean_traces(points, max_speed_kmh=DEFAULT_MAX_SPEED_KMH):
    """Drop points whose implied speed from the previous kept point of the
    same user exceeds max_speed_kmh.  The first point of each user is kept."""
    last = {}
    kept = []
    for p in points:
        prev = last.get(p.user_id)
        if prev is not None:
            dt_h = (p.timestamp - prev.timestamp) / 3600.0
            d_km = float(haversine_km(prev.lat, prev.lon, p.lat, p.lon))
            if dt_h <= 0:
                if d_km > 0:
                    continue
            elif d_km / dt_h > max_speed_kmh:
                continue
        last[p.user_id] = p
        kept.append(p)
    return kept


# -- interval assignment and edges -----------------------------------------


def assign_to_pois(points, pois):
    """Map each user to the POI nearest their first observation in the interval.

    Returns (populations (N,), assignment dict user_id -> poi_id).  Ties go
    to the lowest poi_id.
    """
    if not pois:
        raise ValueError("empty POI set")
    first = {}
    for p in points:
        if p.user_id not in first:
            first[p.user_id] = p
    n = len(pois)
    populations = np.zeros(n, dtype=np.int64)
    assignment = {}
    if first:
        users = sorted(first)
        plat = np.array([pois[i].lat for i in range(n)])
        plon = np.array([pois[i].lon for i in range(n)])
        ulat = np.array([first[u].lat for u in users])
        ulon = np.array([first[u].lon for u in users])
        d = haversine_km(ulat[:, None], ulon[:, None], plat[None, :], plon[None, :])
        nearest = np.argmin(d, axis=1)  # argmin takes the lowest index on ties
        for u, j in zip(users, nearest):
            assignment[u] = int(j)
            populations[j] += 1
    return populations, assignment


def build_edges(prev_assignment, cur_assignment, pois,
                max_dist_km=DEFAULT_MAX_DIST_KM,
                max_speed_kmh=DEFAULT_MAX_SPEED_KMH,
                interval_s=DEFAULT_INTERVAL_S):
    """Count per-user POI transitions between two consecutive intervals.

    A user at POI i in the previous interval and POI j != i now contributes
    one unit to edge (i, j).  Transitions longer than max_dist_km or faster
    than max_speed_kmh (over one interval) are dropped.
    """
    counts = {}
    for user, j in cur_assignment.items():
        i = prev_assignment.get(user)
        if i is None or i == j:
            continue
        d_km = float(haversine_km(pois[i].lat, pois[i].lon, pois[j].lat, pois[j].lon))
        if d_km > max_dist_km or d_km / (interval_s / 3600.0) > max_speed_kmh:
            continue
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return [(i, j, w) for (i, j), w in sorted(counts.items())]


def build_snapshots(points, pois, interval_s=DEFAULT_INTERVAL_S,
                    max_speed_kmh=DEFAULT_MAX_SPEED_KMH,
                    max_dist_km=DEFAULT_MAX_DIST_KM,
                    n_intervals=None, t0=None):
    """Full ingestion: cleaned points -> one Snapshot per interval."""
    points = clean_traces(points, max_speed_kmh)
    if not points:
        return []
    if t0 is None:
        t0 = math.floor(min(p.timestamp for p in points) / interval_s) * interval_s
    by_interval = {}
    for p in points:
        k = int((p.timestamp - t0) // interval_s)
        if k < 0:
            continue
        by_interval.setdefault(k, []).append(p)
    if n_intervals is None:
        n_intervals = max(by_interval) + 1 if by_interval else 0
    snapshots = []
    prev_assignment = {}
    for k in range(n_intervals):
        pts = sorted(by_interval.get(k, []), key=lambda p: (p.user_id, p.timestamp))
        populations, assignment = assign_to_pois(pts, pois)
        edges = build_edges(prev_assignment, assignment, pois,
                            max_dist_km=max_dist_km, max_speed_kmh=max_speed_kmh,
                            interval_s=interval_s)
        snapshots.append(Snapshot(k, populations, edges))
        prev_assignment = assignment
    return snapshots


# -- snapshot store --------------------------------------------------------


def save_snapshots(snapshots, path):
    with open(path, "w") as f:
        for s in snapshots:
            rec = {"t": s.interval_index,
                   "pop": [int(x) for x in s.populations],
                   "edges": [[int(i), int(j), int(w)] for i, j, w in s.edges]}
            f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load_snapshots(path):
    snapshots = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            snapshots.append(Snapshot(rec["t"],
                                      np.array(rec["pop"], dtype=np.int64),
                                      [tuple(e) for e in rec["edges"]]))
    return snapshots


# -- normalization ---------------------------------------------------------


@dataclass
class NormStats:
    """Per-feature min/max from the training split, plus the flow scale.

    Order of the 6 continuous features: lat, lon, population, temperature,
    precipitation (after cap-at-50 and log1p), wind speed.
    """
    feature_min: np.ndarray
    feature_max: np.ndarray
    flow_max: float
    precip_cap: float = PRECIP_CAP_MMH

    @property
    def flow_scale(self):
        """Raw flow per normalized unit: flow_max, or 1.0 without flow."""
        return self.flow_max if self.flow_max > 0 else 1.0

    def to_dict(self):
        return {"feature_min": list(map(float, self.feature_min)),
                "feature_max": list(map(float, self.feature_max)),
                "flow_max": float(self.flow_max),
                "precip_cap": float(self.precip_cap)}

    @classmethod
    def from_dict(cls, d):
        return cls(np.array(d["feature_min"]), np.array(d["feature_max"]),
                   d["flow_max"], d.get("precip_cap", PRECIP_CAP_MMH))


def transform_precip(p, cap=PRECIP_CAP_MMH):
    return np.log1p(np.minimum(p, cap))


def _weather_for(snapshots, weather):
    """One weather record per snapshot; missing intervals carry forward."""
    by_idx = {w.interval_index: w for w in weather}
    out = []
    prev = None
    for s in snapshots:
        rec = by_idx.get(s.interval_index, prev)
        if rec is None:
            rec = WeatherRecord(s.interval_index, 0.0, 0.0, 0.0, 0.0)
        out.append(rec)
        prev = rec
    return out


def _raw_features(snapshots, pois, weather):
    """Raw per-interval feature matrices, precipitation already capped+logged.

    Returns array (T, N, 7) in slot order type, lat, lon, pop, temp, precip, wind.
    """
    n = len(pois)
    recs = _weather_for(snapshots, weather)
    out = np.zeros((len(snapshots), n, N_FEATURES))
    lat = np.array([p.lat for p in pois])
    lon = np.array([p.lon for p in pois])
    types = np.array([p.type_index for p in pois], dtype=np.float64)
    for k, (s, w) in enumerate(zip(snapshots, recs)):
        out[k, :, 0] = types
        out[k, :, 1] = lat
        out[k, :, 2] = lon
        out[k, :, 3] = s.populations
        out[k, :, 4] = w.temperature
        out[k, :, 5] = transform_precip(w.precipitation)
        out[k, :, 6] = w.wind_speed
    return out


def compute_norm_stats(train_snapshots, pois, weather):
    """Min/max of the 6 continuous features plus max flow, training split only."""
    raw = _raw_features(train_snapshots, pois, weather)
    cont = raw[:, :, 1:]
    fmin = cont.min(axis=(0, 1))
    fmax = cont.max(axis=(0, 1))
    flow_max = 0.0
    for s in train_snapshots:
        for _, _, w in s.edges:
            flow_max = max(flow_max, float(w))
    return NormStats(fmin, fmax, flow_max)


def normalize(snapshots, pois, weather, stats):
    """Per-interval normalized features (T, N, 7); type index untouched.

    Continuous features clip to [0,1]; a degenerate feature (max == min)
    maps to 0.
    """
    raw = _raw_features(snapshots, pois, weather)
    out = raw.copy()
    span = stats.feature_max - stats.feature_min
    for f in range(6):
        col = raw[:, :, 1 + f]
        if span[f] <= 0:
            out[:, :, 1 + f] = 0.0
        else:
            out[:, :, 1 + f] = np.clip((col - stats.feature_min[f]) / span[f], 0.0, 1.0)
    return out


def normalized_adjacency(snapshot, n):
    """Row-stochastic (D_out + I)^-1 (A_w + I) with self-loops, directed."""
    a = np.zeros((n, n))
    for i, j, w in snapshot.edges:
        a[i, j] = w
    a += np.eye(n)
    return a / a.sum(axis=1, keepdims=True)


# -- sliding windows -------------------------------------------------------


@dataclass
class Window:
    """One training example: T consecutive snapshots plus derived tensors."""
    start: int
    features: np.ndarray        # (N, 7, T) normalized
    adjacency: np.ndarray       # (T, N, N)
    candidate_edges: list       # sorted union of the window's edges
    flows: np.ndarray           # (T, E) raw counts per candidate edge (0 when absent)
    target_steps: list          # window-local step indices carrying the loss


@dataclass
class WindowedBatch:
    """B windows padded to a common candidate-edge count M."""
    x: np.ndarray               # (B, N, 7, T)
    adjacency: np.ndarray       # (B, T, N, N)
    candidate_edges: list       # per b: list of (i, j)
    mask: np.ndarray            # (B, T, M) bool, true where the slot is real
    targets: np.ndarray         # (B, T, M) normalized flows
    raw_targets: np.ndarray     # (B, T, M) raw counts
    target_steps: list


def make_windows(snapshots, pois, weather, stats, t_window, stride=1,
                 target_mode="final_step"):
    """Sliding windows of T snapshots; candidate edges are the deduplicated,
    sorted union of edges observed anywhere in the window.  Each window's
    `features` and `adjacency` are read-only views of one array per series."""
    if target_mode not in ("final_step", "all_steps"):
        raise ValueError(f"unknown target_mode {target_mode!r}")
    if len(snapshots) < t_window:
        raise ValueError("series shorter than the window length")
    feats = normalize(snapshots, pois, weather, stats)  # (T_all, N, 7)
    n = len(pois)
    adj = np.empty((len(snapshots), n, n))
    for k, s in enumerate(snapshots):
        adj[k] = normalized_adjacency(s, n)
    feats.flags.writeable = False
    adj.flags.writeable = False
    windows = []
    for start in range(0, len(snapshots) - t_window + 1, stride):
        chunk = snapshots[start:start + t_window]
        cand = sorted({(i, j) for s in chunk for i, j, _ in s.edges})
        slot = {e: k for k, e in enumerate(cand)}
        flows = np.zeros((t_window, len(cand)))
        for t, s in enumerate(chunk):
            for i, j, w in s.edges:
                flows[t, slot[(i, j)]] = w
        if target_mode == "final_step":
            steps = [t_window - 1]
        else:
            steps = list(range(t_window))
        windows.append(Window(start, feats[start:start + t_window].transpose(1, 2, 0),
                              adj[start:start + t_window], cand, flows, steps))
    return windows


def collate(windows, stats):
    """Pad a list of Windows to a WindowedBatch; M is the batch-local max."""
    if not windows:
        raise ValueError("empty batch")
    b = len(windows)
    t = windows[0].features.shape[2]
    m = max(1, max(len(w.candidate_edges) for w in windows))
    mask = np.zeros((b, t, m), dtype=bool)
    raw = np.zeros((b, t, m))
    for k, w in enumerate(windows):
        e = len(w.candidate_edges)
        mask[k, :, :e] = True
        raw[k, :, :e] = w.flows
    # np.array, unlike np.stack, lays the transposed feature views out in C order
    return WindowedBatch(np.array([w.features for w in windows]),
                         np.stack([w.adjacency for w in windows]),
                         [w.candidate_edges for w in windows], mask,
                         raw / stats.flow_scale, raw, windows[0].target_steps)

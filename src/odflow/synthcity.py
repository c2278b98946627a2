"""Reproducible toy cities: POIs, agent traces, and weather.

Agents hop between POIs under a gravity-style kernel (attractiveness over
distance^gamma) modulated by a diurnal activity profile.  Everything is
driven by one seeded generator so identical configs give identical files.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .mobility import DEFAULT_INTERVAL_S, GpsPoint, Poi, WeatherRecord

POI_TYPES = ["residential", "office", "retail", "food", "leisure", "transit"]
# Relative pull of each POI type in the hop kernel.
TYPE_ATTRACTIVENESS = {"residential": 1.0, "office": 2.0, "retail": 1.6,
                       "food": 1.4, "leisure": 1.2, "transit": 2.4}

BASE_LAT = 37.0
BASE_LON = -120.0
KM_PER_DEG_LAT = 110.574


def _default_profile():
    # Per-hour activity multipliers with mild morning and evening peaks.
    prof = []
    for h in range(24):
        v = 0.75
        v += 0.30 * math.exp(-((h - 8) ** 2) / 4.0)
        v += 0.35 * math.exp(-((h - 18) ** 2) / 5.0)
        prof.append(v)
    return prof


@dataclass
class CityConfig:
    seed: int = 7
    n_pois: int = 50
    n_agents: int = 500
    extent_km: float = 20.0
    n_intervals: int = 288
    diurnal_profile: list = field(default_factory=_default_profile)
    attraction_exponent: float = 3.0
    move_prob: float = 0.10
    gps_jitter_deg: float = 5e-5
    precip_burst_prob: float = 0.02
    interval_s: int = DEFAULT_INTERVAL_S

    def __post_init__(self):
        if self.n_pois < 2:
            raise ValueError("need at least 2 POIs")
        if self.n_intervals < 12:
            raise ValueError("need at least 12 intervals")
        if any(m < 0 for m in self.diurnal_profile):
            raise ValueError("diurnal multipliers must be nonnegative")


def _km_per_deg_lon(lat):
    return KM_PER_DEG_LAT * math.cos(math.radians(lat))


def generate_city(config):
    """Clustered POI placement inside the extent.

    Returns (pois, xy) where xy is the (N, 2) local-km coordinate array the
    trace simulator reuses.
    """
    rng = np.random.default_rng(config.seed)
    n_clusters = max(1, config.n_pois // 10)
    centers = rng.uniform(0.15, 0.85, size=(n_clusters, 2)) * config.extent_km
    xy = np.empty((config.n_pois, 2))
    for i in range(config.n_pois):
        c = centers[rng.integers(n_clusters)]
        xy[i] = np.clip(c + rng.normal(0, config.extent_km * 0.06, size=2),
                        0.0, config.extent_km)
    types = rng.integers(0, len(POI_TYPES), size=config.n_pois)
    pois = []
    for i in range(config.n_pois):
        lat = BASE_LAT + xy[i, 1] / KM_PER_DEG_LAT
        lon = BASE_LON + xy[i, 0] / _km_per_deg_lon(BASE_LAT)
        pois.append(Poi(i, lat, lon, int(types[i])))
    return pois, xy


def gravity_kernel(pois, xy, attraction_exponent):
    """Unnormalized hop kernel K[i, j] = attract(j) / dist(i, j)^gamma, zero diagonal."""
    n = len(pois)
    attract = np.array([TYPE_ATTRACTIVENESS[POI_TYPES[p.type_index]] for p in pois])
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    d = np.maximum(d, 0.1)  # floor keeps nearby pairs finite
    k = attract[None, :] / d ** attraction_exponent
    np.fill_diagonal(k, 0.0)
    return k


def simulate_traces(config, pois, xy=None):
    """Emit one GPS point per agent per interval near the occupied POI.

    Agents hop with probability move_prob * diurnal multiplier; destination
    drawn from the gravity kernel row of the current POI.
    """
    rng = np.random.default_rng(config.seed + 1)
    if xy is None:
        xy = np.array([[(p.lon - BASE_LON) * _km_per_deg_lon(BASE_LAT),
                        (p.lat - BASE_LAT) * KM_PER_DEG_LAT] for p in pois])
    kernel = gravity_kernel(pois, xy, config.attraction_exponent)
    kernel_p = kernel / kernel.sum(axis=1, keepdims=True)
    attract = np.array([TYPE_ATTRACTIVENESS[POI_TYPES[p.type_index]] for p in pois])
    location = rng.choice(len(pois), size=config.n_agents, p=attract / attract.sum())
    intervals_per_hour = 3600 // config.interval_s
    points = []
    for t in range(config.n_intervals):
        hour = (t // intervals_per_hour) % 24
        p_move = min(1.0, config.move_prob * config.diurnal_profile[hour])
        moves = rng.random(config.n_agents) < p_move
        for a in range(config.n_agents):
            if moves[a]:
                location[a] = rng.choice(len(pois), p=kernel_p[location[a]])
            poi = pois[location[a]]
            ts = t * config.interval_s + 1 + (a % (config.interval_s - 2))
            points.append(GpsPoint(f"u{a:05d}", float(ts),
                                   poi.lat + rng.normal(0, config.gps_jitter_deg),
                                   poi.lon + rng.normal(0, config.gps_jitter_deg)))
    points.sort(key=lambda p: (p.timestamp, p.user_id))
    return points


def generate_weather(config):
    """Sinusoid-plus-noise temperature, sparse heavy-tailed precipitation
    bursts (some above the 50 mm/h cap), bounded wind components."""
    rng = np.random.default_rng(config.seed + 2)
    intervals_per_day = 86400 // config.interval_s
    records = []
    burst_left = 0
    burst_peak = 0.0
    for t in range(config.n_intervals):
        phase = 2 * math.pi * (t % intervals_per_day) / intervals_per_day
        temp = 15.0 + 8.0 * math.sin(phase - math.pi / 2) + rng.normal(0, 0.5)
        if burst_left == 0 and rng.random() < config.precip_burst_prob:
            burst_left = int(rng.integers(2, 8))
            # Pareto tail: a decent fraction of bursts exceed the 50 mm/h cap.
            burst_peak = 10.0 * (1.0 + rng.pareto(1.2))
        if burst_left > 0:
            precip = burst_peak * rng.uniform(0.5, 1.0)
            burst_left -= 1
        else:
            precip = 0.0
        wind_e = 3.0 * math.sin(phase) + rng.normal(0, 1.0)
        wind_n = 2.0 * math.cos(phase) + rng.normal(0, 1.0)
        records.append(WeatherRecord(t, temp, precip, wind_e, wind_n))
    return records


# -- CSV emission (the exact formats the ingestion stage consumes) ----------


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_gps_csv(points, path):
    _write_rows(path, ["user_id", "timestamp", "lat", "lon"],
                ([p.user_id, f"{p.timestamp:.0f}", f"{p.lat:.7f}", f"{p.lon:.7f}"]
                 for p in points))


def write_poi_csv(pois, path):
    _write_rows(path, ["poi_id", "lat", "lon", "type"],
                ([p.poi_id, f"{p.lat:.7f}", f"{p.lon:.7f}", POI_TYPES[p.type_index]]
                 for p in pois))


def write_weather_csv(records, path):
    _write_rows(path, ["interval_index", "temperature", "precipitation",
                       "wind_east", "wind_north"],
                ([r.interval_index, f"{r.temperature:.4f}", f"{r.precipitation:.4f}",
                  f"{r.wind_east:.4f}", f"{r.wind_north:.4f}"] for r in records))

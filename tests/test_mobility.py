"""Ingestion pipeline tests: cleaning, assignment, edges, normalization,
windows, and the snapshot store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odflow import mobility
from odflow.mobility import (GpsPoint, Poi, Snapshot,
                             assign_to_pois, build_edges, build_snapshots,
                             clean_traces, collate,
                             haversine_km, load_snapshots, make_windows,
                             normalize, normalized_adjacency, read_gps_csv,
                             read_poi_csv, save_snapshots, transform_precip)


# -- distance --------------------------------------------------------------


def test_haversine_equator_degree():
    # one degree of longitude on the equator
    assert haversine_km(0, 0, 0, 1) == pytest.approx(111.1950797, abs=1e-4)


@given(st.floats(-80, 80), st.floats(-179, 179),
       st.floats(-80, 80), st.floats(-179, 179))
@settings(max_examples=50, deadline=None)
def test_haversine_symmetry_and_nonnegativity(a, b, c, d):
    x = float(haversine_km(a, b, c, d))
    y = float(haversine_km(c, d, a, b))
    assert x == pytest.approx(y, abs=1e-9)
    assert x >= 0.0
    assert float(haversine_km(a, b, a, b)) == 0.0


# -- cleaning --------------------------------------------------------------


def test_clean_traces_drops_teleport():
    pts = [GpsPoint("u", 0.0, 37.0, -120.0),
           GpsPoint("u", 60.0, 37.0, -119.0),   # ~89 km in 1 min, impossible
           GpsPoint("u", 120.0, 37.0, -120.001)]
    kept = clean_traces(pts, max_speed_kmh=150.0)
    assert [p.timestamp for p in kept] == [0.0, 120.0]


def test_clean_traces_zero_dt():
    pts = [GpsPoint("u", 0.0, 37.0, -120.0),
           GpsPoint("u", 0.0, 37.5, -120.0),   # same time, moved: dropped
           GpsPoint("u", 0.0, 37.0, -120.0)]   # same time, same place: kept
    kept = clean_traces(pts)
    assert len(kept) == 2


def test_clean_traces_speed_relative_to_kept_point():
    # the dropped point must not become the reference for the next one
    pts = [GpsPoint("u", 0.0, 37.0, -120.0),
           GpsPoint("u", 60.0, 38.0, -120.0),   # teleport, dropped
           GpsPoint("u", 120.0, 37.001, -120.0)]  # fine relative to t=0
    kept = clean_traces(pts)
    assert [p.timestamp for p in kept] == [0.0, 120.0]


# -- assignment ------------------------------------------------------------


def brute_force_assign(points, pois):
    first = {}
    for p in points:
        first.setdefault(p.user_id, p)
    pops = np.zeros(len(pois), dtype=np.int64)
    assign = {}
    for u, p in first.items():
        best, best_d = None, None
        for poi in pois:
            d = float(haversine_km(p.lat, p.lon, poi.lat, poi.lon))
            if best_d is None or d < best_d:
                best, best_d = poi.poi_id, d
        assign[u] = best
        pops[best] += 1
    return pops, assign


@pytest.mark.parametrize("seed", range(8))
def test_assignment_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_pois = int(rng.integers(2, 20))
    pois = [Poi(i, 37.0 + rng.uniform(-0.1, 0.1), -120.0 + rng.uniform(-0.1, 0.1), 0)
            for i in range(n_pois)]
    points = [GpsPoint(f"u{k}", float(k), 37.0 + rng.uniform(-0.1, 0.1),
                       -120.0 + rng.uniform(-0.1, 0.1))
              for k in range(int(rng.integers(1, 120)))]
    pops, assign = assign_to_pois(points, pois)
    bpops, bassign = brute_force_assign(points, pois)
    assert np.array_equal(pops, bpops)
    assert assign == bassign


def test_assignment_tie_goes_to_lowest_id():
    pois = [Poi(0, 37.0, -120.0, 0), Poi(1, 37.0, -120.0, 0)]
    pops, assign = assign_to_pois([GpsPoint("u", 0.0, 37.0, -120.0)], pois)
    assert assign["u"] == 0
    assert list(pops) == [1, 0]


def test_assignment_uses_first_observation():
    pois = [Poi(0, 37.0, -120.0, 0), Poi(1, 37.5, -120.0, 0)]
    pts = [GpsPoint("u", 0.0, 37.0, -120.0), GpsPoint("u", 10.0, 37.5, -120.0)]
    _, assign = assign_to_pois(pts, pois)
    assert assign["u"] == 0


# -- edges -----------------------------------------------------------------


def close_pois(n):
    return [Poi(i, 37.0 + 0.01 * i, -120.0, 0) for i in range(n)]


def test_build_edges_counts_transitions():
    pois = close_pois(3)
    prev = {"a": 0, "b": 0, "c": 1}
    cur = {"a": 1, "b": 1, "c": 1, "d": 0}
    assert build_edges(prev, cur, pois) == [(0, 1, 2)]


def test_build_edges_distance_filter():
    pois = [Poi(0, 37.0, -120.0, 0), Poi(1, 37.5, -120.0, 0)]  # ~55.6 km
    assert build_edges({"u": 0}, {"u": 1}, pois, max_dist_km=30.0) == []
    assert build_edges({"u": 0}, {"u": 1}, pois, max_dist_km=60.0,
                       max_speed_kmh=500.0) == [(0, 1, 1)]


def test_build_edges_speed_filter():
    pois = [Poi(0, 37.0, -120.0, 0), Poi(1, 37.2, -120.0, 0)]  # ~22 km
    # 22 km in a 900 s interval is ~89 km/h
    assert build_edges({"u": 0}, {"u": 1}, pois, max_speed_kmh=50.0) == []
    assert build_edges({"u": 0}, {"u": 1}, pois, max_speed_kmh=150.0) == [(0, 1, 1)]


def test_edge_counts_match_brute_force_recount(small_city, small_snapshots):
    cfg, pois, _, points, _ = small_city
    snaps, _ = small_snapshots
    pts = clean_traces(points, 150.0)
    by_interval = {}
    for p in pts:
        by_interval.setdefault(int(p.timestamp // cfg.interval_s), []).append(p)
    prev = {}
    for s in snaps:
        chunk = sorted(by_interval.get(s.interval_index, []),
                       key=lambda p: (p.user_id, p.timestamp))
        pops, assign = brute_force_assign(chunk, pois)
        assert np.array_equal(pops, s.populations)
        counts = {}
        for u, j in assign.items():
            i = prev.get(u)
            if i is not None and i != j:
                d = float(haversine_km(pois[i].lat, pois[i].lon,
                                       pois[j].lat, pois[j].lon))
                if d <= 30.0 and d / (cfg.interval_s / 3600.0) <= 150.0:
                    counts[(i, j)] = counts.get((i, j), 0) + 1
        assert sorted((i, j, w) for (i, j), w in counts.items()) == s.edges
        prev = assign


# -- adjacency and normalization -------------------------------------------


def test_normalized_adjacency_rows():
    snap = Snapshot(0, np.zeros(2, dtype=np.int64), [(0, 1, 3)])
    a = normalized_adjacency(snap, 2)
    assert np.allclose(a, [[0.25, 0.75], [0.0, 1.0]])
    assert np.allclose(a.sum(axis=1), 1.0)


def test_transform_precip_cap():
    assert transform_precip(50.0) == pytest.approx(np.log(51.0))
    assert transform_precip(120.0) == transform_precip(50.0)
    assert transform_precip(0.0) == 0.0
    assert transform_precip(50.0) == pytest.approx(3.9318256327, abs=1e-9)


def test_normalize_bounds_and_degenerate(small_city, small_snapshots):
    cfg, pois, _, _, weather = small_city
    snaps, stats = small_snapshots
    feats = normalize(snaps, pois, weather, stats)
    assert feats[:, :, 1:].min() >= 0.0
    assert feats[:, :, 1:].max() <= 1.0
    # degenerate feature: force max == min
    degen = mobility.NormStats(stats.feature_min.copy(),
                               stats.feature_min.copy(), stats.flow_max)
    out = normalize(snaps, pois, weather, degen)
    assert np.all(out[:, :, 1:] == 0.0)


def test_normalize_preserves_type_index(small_city, small_snapshots):
    cfg, pois, _, _, weather = small_city
    snaps, stats = small_snapshots
    feats = normalize(snaps, pois, weather, stats)
    assert np.array_equal(feats[0, :, 0],
                          np.array([p.type_index for p in pois], dtype=float))


# -- windows and collate ---------------------------------------------------


def toy_snapshots(n, n_pois=3):
    out = []
    for t in range(n):
        edges = [(0, 1, t + 1)] if t % 2 == 0 else [(1, 2, 1)]
        out.append(Snapshot(t, np.full(n_pois, t, dtype=np.int64), edges))
    return out


def toy_stats():
    return mobility.NormStats(np.zeros(6), np.ones(6), 4.0)


def toy_pois(n=3):
    return [Poi(i, 37.0 + 0.01 * i, -120.0, i % 2) for i in range(n)]


def test_window_counts():
    pois = toy_pois()
    stats = toy_stats()
    assert len(make_windows(toy_snapshots(10), pois, [], stats, 10)) == 1
    assert len(make_windows(toy_snapshots(10), pois, [], stats, 2)) == 9
    assert len(make_windows(toy_snapshots(10), pois, [], stats, 2, stride=3)) == 3
    with pytest.raises(ValueError):
        make_windows(toy_snapshots(3), pois, [], stats, 4)
    with pytest.raises(ValueError, match="window 0"):
        make_windows(toy_snapshots(3), pois, [], stats, 0)
    with pytest.raises(ValueError, match="stride 0"):
        make_windows(toy_snapshots(3), pois, [], stats, 2, stride=0)


def test_window_candidate_union_and_zero_fill():
    w = make_windows(toy_snapshots(4), toy_pois(), [], toy_stats(), 4)[0]
    assert w.candidate_edges == [(0, 1), (1, 2)]
    # step 1 has only (1,2); the (0,1) slot is zero there
    assert w.flows[1, 0] == 0.0
    assert w.flows[1, 1] == 1.0
    assert w.flows[0, 0] == 1.0
    assert w.flows[2, 0] == 3.0
    assert w.target_steps == [3]


def test_collate_padding_and_mask():
    pois = toy_pois()
    stats = toy_stats()
    wins = make_windows(toy_snapshots(6), pois, [], stats, 3, stride=3)
    assert len(wins) == 2
    batch = collate(wins, stats)
    m = batch.mask.shape[2]
    for b, w in enumerate(wins):
        e = len(w.candidate_edges)
        assert batch.mask[b, :, :e].all()
        assert not batch.mask[b, :, e:].any()
        assert np.all(batch.raw_targets[b, :, e:] == 0.0)
    assert np.allclose(batch.targets, batch.raw_targets / stats.flow_max)


def test_overlapping_windows_share_read_only_series_arrays():
    snaps = toy_snapshots(6)
    wins = make_windows(snaps, toy_pois(), [], toy_stats(), 4, stride=1)
    for a, b in zip(wins, wins[1:]):
        assert np.shares_memory(a.adjacency, b.adjacency)
        assert np.shares_memory(a.features, b.features)
    for w in wins:
        for t in range(4):
            assert np.array_equal(w.adjacency[t],
                                  normalized_adjacency(snaps[w.start + t], 3))
    for arr in (wins[0].adjacency, wins[0].features):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_collate_rejects_empty():
    with pytest.raises(ValueError):
        collate([], toy_stats())


# -- snapshot store and CSV ------------------------------------------------


def test_snapshot_roundtrip(tmp_path, small_snapshots):
    snaps, _ = small_snapshots
    path = tmp_path / "snaps.jsonl"
    save_snapshots(snaps, path)
    back = load_snapshots(path)
    assert len(back) == len(snaps)
    for a, b in zip(snaps, back):
        assert a.interval_index == b.interval_index
        assert np.array_equal(a.populations, b.populations)
        assert a.edges == b.edges
    # byte-identical on re-save
    path2 = tmp_path / "snaps2.jsonl"
    save_snapshots(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_gps_csv_counts_malformed(tmp_path):
    p = tmp_path / "gps.csv"
    p.write_text("user_id,timestamp,lat,lon\n"
                 "u1,0,37.0,-120.0\n"
                 "u2,notanumber,37.0,-120.0\n"
                 "u3,5,95.0,-120.0\n"      # latitude out of range
                 "u4,9,36.9,-119.9\n")
    pts, bad = read_gps_csv(p)
    assert len(pts) == 2
    assert bad == 2
    assert pts[0].user_id == "u1"


def test_read_poi_csv_type_mapping(tmp_path):
    p = tmp_path / "pois.csv"
    p.write_text("poi_id,lat,lon,type\n"
                 "1,37.1,-120.0,cafe\n"
                 "0,37.0,-120.0,office\n"
                 "2,37.2,-120.0,cafe\n")
    pois, names = read_poi_csv(p)
    assert names == ["cafe", "office"]
    assert [p.poi_id for p in pois] == [0, 1, 2]
    assert [p.type_index for p in pois] == [1, 0, 0]


def test_read_poi_csv_rejects_sparse_ids(tmp_path):
    p = tmp_path / "pois.csv"
    p.write_text("poi_id,lat,lon,type\n0,37.0,-120.0,a\n2,37.1,-120.0,a\n")
    with pytest.raises(ValueError):
        read_poi_csv(p)


@pytest.mark.parametrize("reader, text, message", [
    (read_poi_csv, "poi_id,lat,type\n0,37.0,a\n",
     "row 1: missing column 'lon'"),
    (read_poi_csv, "poi_id,lat,lon,type\n0,37.0,-120.0,a\n1,north,-120.0,a\n",
     "row 2: could not convert string to float: 'north'"),
    (read_poi_csv, "poi_id,lat,lon,type\n0,37.0,-120.0,a\n1,37.1,-120.0\n",
     "row 2: too few fields"),
    (mobility.read_weather_csv,
     "interval_index,temperature,precipitation,wind_east\n0,20.0,0.0,1.0\n",
     "row 1: missing column 'wind_north'"),
    (mobility.read_weather_csv,
     "interval_index,temperature,precipitation,wind_east,wind_north\n"
     "0,20.0,0.0,1.0,0.5\n1,warm,0.0,1.0,0.5\n",
     "row 2: could not convert string to float: 'warm'"),
], ids=["poi-missing-column", "poi-bad-number", "poi-short-row",
        "weather-missing-column", "weather-bad-number"])
def test_csv_readers_name_file_and_row(tmp_path, reader, text, message):
    p = tmp_path / "input.csv"
    p.write_text(text)
    with pytest.raises(ValueError) as e:
        reader(p)
    assert str(e.value) == f"{p}: {message}"


def test_norm_stats_roundtrip(small_snapshots):
    _, stats = small_snapshots
    back = mobility.NormStats.from_dict(stats.to_dict())
    assert np.allclose(back.feature_min, stats.feature_min)
    assert np.allclose(back.feature_max, stats.feature_max)
    assert back.flow_max == stats.flow_max


def test_flow_scale_falls_back_to_one_without_flow():
    assert mobility.NormStats(np.zeros(6), np.ones(6), 4.0).flow_scale == 4.0
    assert mobility.NormStats(np.zeros(6), np.ones(6), 0.0).flow_scale == 1.0


def test_build_snapshots_interval_count(small_city):
    cfg, pois, _, points, _ = small_city
    snaps = build_snapshots(points, pois, interval_s=cfg.interval_s,
                            n_intervals=cfg.n_intervals, t0=0)
    assert len(snaps) == cfg.n_intervals
    assert [s.interval_index for s in snaps] == list(range(cfg.n_intervals))
    for s in snaps:
        assert int(s.populations.sum()) <= cfg.n_agents

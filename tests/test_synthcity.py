"""Synthetic city generator tests: determinism, structure, and that the
simulated flows actually follow the gravity kernel."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from odflow import mobility, synthcity
from odflow.synthcity import (CityConfig, generate_city, generate_weather,
                              gravity_kernel, simulate_traces, write_gps_csv,
                              write_poi_csv, write_weather_csv)


def small_cfg(**kw):
    base = dict(seed=3, n_pois=10, n_agents=40, n_intervals=24, move_prob=0.3,
                attraction_exponent=2.0)
    base.update(kw)
    return CityConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        CityConfig(n_pois=1)
    with pytest.raises(ValueError):
        CityConfig(n_intervals=6)
    with pytest.raises(ValueError):
        CityConfig(diurnal_profile=[-1.0] * 24)
    with pytest.raises(ValueError, match="diurnal_profile"):
        CityConfig(diurnal_profile=[1.0] * 23)
    for interval_s in (2, 3601, 7200):
        with pytest.raises(ValueError, match=f"not {interval_s}"):
            CityConfig(interval_s=interval_s)
    for interval_s in (3, 3600):
        assert CityConfig(interval_s=interval_s).interval_s == interval_s


def test_determinism():
    cfg = small_cfg()
    pois1, xy1 = generate_city(cfg)
    pois2, xy2 = generate_city(small_cfg())
    assert pois1 == pois2
    assert np.array_equal(xy1, xy2)
    pts1 = simulate_traces(cfg, pois1, xy1)
    pts2 = simulate_traces(small_cfg(), pois2, xy2)
    assert pts1 == pts2
    assert generate_weather(cfg) == generate_weather(small_cfg())


def test_different_seeds_differ():
    pois1, _ = generate_city(small_cfg())
    pois2, _ = generate_city(small_cfg(seed=4))
    assert pois1 != pois2


def test_city_geometry():
    cfg = small_cfg(n_pois=30)
    pois, xy = generate_city(cfg)
    assert len(pois) == 30
    assert [p.poi_id for p in pois] == list(range(30))
    assert xy.shape == (30, 2)
    assert xy.min() >= 0.0 and xy.max() <= cfg.extent_km
    for p in pois:
        assert 0 <= p.type_index < len(synthcity.POI_TYPES)


def test_traces_shape_and_rate():
    cfg = small_cfg()
    pois, xy = generate_city(cfg)
    pts = simulate_traces(cfg, pois, xy)
    # one point per agent per interval
    assert len(pts) == cfg.n_agents * cfg.n_intervals
    assert all(0 <= p.timestamp < cfg.n_intervals * cfg.interval_s for p in pts)
    # sorted by (timestamp, user)
    keys = [(p.timestamp, p.user_id) for p in pts]
    assert keys == sorted(keys)


def test_frozen_agents_produce_no_edges():
    cfg = small_cfg(move_prob=0.0)
    pois, xy = generate_city(cfg)
    pts = simulate_traces(cfg, pois, xy)
    snaps = mobility.build_snapshots(pts, pois, interval_s=cfg.interval_s,
                                     n_intervals=cfg.n_intervals, t0=0)
    assert all(s.edges == [] for s in snaps)
    # populations are constant over time
    for s in snaps[1:]:
        assert np.array_equal(s.populations, snaps[0].populations)


def test_weather_has_capped_and_supercap_precip():
    cfg = small_cfg(n_intervals=2000, precip_burst_prob=0.05)
    wx = generate_weather(cfg)
    precip = np.array([r.precipitation for r in wx])
    assert (precip == 0.0).sum() > len(precip) * 0.5   # mostly dry
    assert (precip > 0.0).any()
    assert (precip > 50.0).any()                        # exercises the cap


def test_gravity_kernel_properties():
    cfg = small_cfg(n_pois=12)
    pois, xy = generate_city(cfg)
    k = gravity_kernel(pois, xy, 2.0)
    assert np.all(np.diag(k) == 0.0)
    assert np.all(k >= 0.0)
    assert k.shape == (12, 12)


def test_flows_correlate_with_gravity_kernel():
    cfg = CityConfig(seed=9, n_pois=20, n_agents=400, n_intervals=96,
                     move_prob=0.5, attraction_exponent=2.0,
                     diurnal_profile=[1.0] * 24)
    pois, xy = generate_city(cfg)
    pts = simulate_traces(cfg, pois, xy)
    snaps = mobility.build_snapshots(pts, pois, interval_s=cfg.interval_s,
                                     n_intervals=cfg.n_intervals, t0=0)
    flows = np.zeros((20, 20))
    for s in snaps:
        for i, j, w in s.edges:
            flows[i, j] += w
    kernel = gravity_kernel(pois, xy, cfg.attraction_exponent)
    off = ~np.eye(20, dtype=bool)
    rho, _ = spearmanr(flows[off], kernel[off])
    assert rho > 0.5


def test_csv_roundtrip(tmp_path):
    cfg = small_cfg()
    pois, xy = generate_city(cfg)
    pts = simulate_traces(cfg, pois, xy)
    wx = generate_weather(cfg)
    write_gps_csv(pts, tmp_path / "gps.csv")
    write_poi_csv(pois, tmp_path / "pois.csv")
    write_weather_csv(wx, tmp_path / "weather.csv")
    back, bad = mobility.read_gps_csv(tmp_path / "gps.csv")
    assert bad == 0
    assert len(back) == len(pts)
    assert back[0].user_id == pts[0].user_id
    assert back[0].lat == pytest.approx(pts[0].lat, abs=1e-7)
    bpois, names = mobility.read_poi_csv(tmp_path / "pois.csv")
    assert [p.poi_id for p in bpois] == [p.poi_id for p in pois]
    # type indices are remapped to first-seen order but must agree as names
    for a, b in zip(pois, bpois):
        assert synthcity.POI_TYPES[a.type_index] == names[b.type_index]
    bwx = mobility.read_weather_csv(tmp_path / "weather.csv")
    assert len(bwx) == len(wx)
    assert bwx[3].temperature == pytest.approx(wx[3].temperature, abs=1e-4)

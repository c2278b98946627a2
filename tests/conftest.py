"""Shared fixtures: a small deterministic city and its derived pipeline
artifacts, built once per session."""

import pytest

ACCEPTANCE_RESULTS = []


@pytest.fixture
def criterion():
    """Record one acceptance-criterion outcome and assert it."""

    def record(number, description, ok):
        ACCEPTANCE_RESULTS.append((number, description, bool(ok)))
        assert ok, f"criterion {number} failed: {description}"

    return record


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a full-size run; deselect with -m 'not slow'")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{status}] {description}")

from odflow import mobility, synthcity
from odflow.synthcity import CityConfig


@pytest.fixture(scope="session")
def small_city():
    """8 POIs, 60 agents, 24 intervals; fast enough for per-test reuse."""
    cfg = CityConfig(seed=5, n_pois=8, n_agents=60, n_intervals=24,
                     move_prob=0.3, attraction_exponent=2.0)
    pois, xy = synthcity.generate_city(cfg)
    points = synthcity.simulate_traces(cfg, pois, xy)
    weather = synthcity.generate_weather(cfg)
    return cfg, pois, xy, points, weather


@pytest.fixture(scope="session")
def small_snapshots(small_city):
    cfg, pois, _, points, weather = small_city
    snaps = mobility.build_snapshots(points, pois, interval_s=cfg.interval_s,
                                     n_intervals=cfg.n_intervals, t0=0)
    stats = mobility.compute_norm_stats(snaps, pois, weather)
    return snaps, stats


@pytest.fixture(scope="session")
def small_windows(small_city, small_snapshots):
    cfg, pois, _, _, weather = small_city
    snaps, stats = small_snapshots
    return mobility.make_windows(snaps, pois, weather, stats, 6, stride=3), stats

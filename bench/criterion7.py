"""Criterion-7 reference run: the full default-city pretraining, once.

Prints the untrained and best validation MSE, the test MSE and the
mean-baseline MSE, so that a performance change can report the margin by
which the trained model beats the baseline before and after.  It takes
about 15 minutes on two cores, which is why it is not a benchmark workload.

    python3 bench/criterion7.py
"""

import json
import os
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from odflow import mobility, synthcity  # noqa: E402
from odflow.decoder import DecoderConfig  # noqa: E402
from odflow.encoder import EncoderConfig  # noqa: E402
from odflow.model import Model  # noqa: E402
from odflow.training import (TrainConfig, dataset_loss,  # noqa: E402
                             mean_baseline_mse, pretrain, split_dataset)


def main():
    t0 = time.perf_counter()
    cfg = synthcity.CityConfig()  # 50 POIs, 500 agents, 288 intervals, seed 7
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
    test_mse = dataset_loss(ck.build_model(), wte, stats, batch_size=1)
    baseline = mean_baseline_mse(wtr, wte, stats)
    print(json.dumps({
        "untrained_val_mse": untrained_val,
        "best_val_mse": ck.best_val_loss,
        "test_mse": test_mse,
        "mean_baseline_mse": baseline,
        "margin": 1.0 - test_mse / baseline,
        "elapsed_s": time.perf_counter() - t0,
    }, indent=1))


if __name__ == "__main__":
    main()

"""odflow stage benchmark: one workload per run, a closed loop in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up makes the workload's synthetic city from the seed, writes it as CSV
files and brings it to the program's input form; its time is `setup_s`,
counted from the start of the process.  Then the workload repeats whole
rounds of the same operations until `--seconds` have passed, and the output
of the rounds is checked.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics, or with `--trace 1` the per-layer metrics of a traced run, whose
spans are written to bench_out/trace-<workload>-seed<n>.json).

See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

T_IMPORT = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench_out")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rate_per_s": "1/s",
}

# name -> unit; values come from the traced run only
PER_LAYER = {
    "mobility.read_gps_csv_s": "s",
    "mobility.clean_traces_s": "s",
    "mobility.assign_to_pois_s": "s",
    "mobility.build_edges_s": "s",
    "mobility.build_snapshots_self_s": "s",
    "mobility.snapshot_store_s": "s",
    "mobility.make_windows_s": "s",
    "mobility.collate_s": "s",
    "mobility.points_read": "count",
    "mobility.points_kept": "count",
    "mobility.transitions": "count",
    "mobility.windows": "count",
    "mobility.window_adjacency_bytes": "bytes",
    "encoder.embed_features_s": "s",
    "encoder.temporal_conv_stack_s": "s",
    "encoder.st_graph_conv_s": "s",
    "encoder.edge_tokens_s": "s",
    "decoder.0.attn_s": "s",
    "decoder.1.attn_s": "s",
    "autodiff.attention_softmax_s": "s",
    "decoder.ffn_norm_s": "s",
    "decoder.head_s": "s",
    "decoder.tokens": "count",
    "decoder.attn_score_bytes": "bytes",
    "model.forward_s": "s",
    "training.loss_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.clip_grad_norm_s": "s",
    "training.adam_step_s": "s",
    "training.dataset_loss_s": "s",
    "training.evaluate_s": "s",
    "train_step.traced_peak_mb": "MB",
    "forward.traced_peak_mb": "MB",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "model.build_model_s": "s",
    "rl.run_episode_s": "s",
    "rl.window_forward_s": "s",
    "rl.window_cache_misses": "count",
    "rl.window_cache_hit_ratio": "ratio",
    "rl.build_state_s": "s",
    "rl.predict_errors_s": "s",
    "rl.apply_action_s": "s",
    "rl.compute_reward_s": "s",
    "rl.ppo_update_s": "s",
    "rl.episodes": "count",
    "rl.ppo_updates": "count",
    "bench.traced_rate_per_s": "1/s",
}


def process_age():
    """Seconds since this process started, from /proc when it is readable."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T_IMPORT


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Workload:
    ops_per_round: int                 # GPS points, windows or episodes
    run_round: Callable[[], object]
    check: Callable[[object], list]    # problems found in the last round's output
    step_losses: list = field(default_factory=list)   # per round, if it trains


# -- inputs ----------------------------------------------------------------


def write_city(city, workdir):
    """Generate a synthetic city and write it as the three input CSVs.
    Returns the GPS points as written."""
    from odflow import synthcity
    pois, xy = synthcity.generate_city(city)
    points = synthcity.simulate_traces(city, pois, xy)
    synthcity.write_poi_csv(pois, os.path.join(workdir, "pois.csv"))
    synthcity.write_gps_csv(points, os.path.join(workdir, "gps.csv"))
    synthcity.write_weather_csv(synthcity.generate_weather(city),
                                os.path.join(workdir, "weather.csv"))
    return points


def ingest(workdir):
    """The `odflow ingest` path: CSVs -> snapshots -> snapshot store -> back."""
    from odflow import mobility
    points, bad = mobility.read_gps_csv(os.path.join(workdir, "gps.csv"))
    pois, _ = mobility.read_poi_csv(os.path.join(workdir, "pois.csv"))
    weather = mobility.read_weather_csv(os.path.join(workdir, "weather.csv"))
    snapshots = mobility.build_snapshots(points, pois)
    store = os.path.join(workdir, "snapshots.jsonl")
    mobility.save_snapshots(snapshots, store)
    return pois, weather, mobility.load_snapshots(store), len(points), bad


def default_city_windows(workdir):
    """The default city (50 POIs, 500 agents, 288 intervals, seed 7), split
    70/15/15 and cut into windows of 12 with stride 6, as criterion 7 does."""
    from odflow import mobility, synthcity
    from odflow.training import split_dataset
    write_city(synthcity.CityConfig(), workdir)
    pois, weather, snapshots, _, _ = ingest(workdir)
    splits = split_dataset(snapshots, "source", 12)
    stats = mobility.compute_norm_stats(splits[0], pois, weather)
    windows = [mobility.make_windows(s, pois, weather, stats, 12, stride=6)
               for s in splits]
    return pois, stats, windows


def default_model(pois, seed):
    from odflow.decoder import DecoderConfig
    from odflow.encoder import EncoderConfig
    from odflow.model import Model
    n_types = len({p.type_index for p in pois})
    return Model(EncoderConfig(n_types=n_types), DecoderConfig(), seed=seed)


# -- workloads -------------------------------------------------------------

METRO_CITY = dict(n_pois=200, n_agents=1500, n_intervals=672)
PRETRAIN_SLICE = (3, 1)     # training windows, validation windows
RL_EPISODES = 400           # per round: 25 PPO updates of 16 episodes


def setup_ingest_metro(seed, workdir):
    from odflow import mobility, synthcity
    from odflow.training import split_dataset
    import checks
    import numpy as np
    city = synthcity.CityConfig(seed=seed, **METRO_CITY)
    rows = checks.rows_from_points(write_city(city, workdir))
    n_rows = len(rows["ts"])

    def run_round():
        pois, weather, snapshots, n_read, bad = ingest(workdir)
        stats = mobility.compute_norm_stats(
            split_dataset(snapshots, "source", 12)[0], pois, weather)
        windows = mobility.make_windows(snapshots, pois, weather, stats, 12,
                                        stride=6)
        return pois, snapshots, windows, n_read, bad

    def check(out):
        pois, snapshots, windows, n_read, bad = out
        problems = [] if (n_read, bad) == (n_rows, 0) else [
            f"read {n_read} points and {bad} malformed rows of {n_rows}"]
        sample = np.random.default_rng(seed).choice(city.n_intervals, 6,
                                                    replace=False)
        problems += checks.check_ingest(
            snapshots, rows, np.array([p.lat for p in pois]),
            np.array([p.lon for p in pois]), city.interval_s,
            mobility.DEFAULT_MAX_DIST_KM, mobility.DEFAULT_MAX_SPEED_KMH,
            sorted(sample.tolist()))
        if len(windows) != (city.n_intervals - 12) // 6 + 1:
            problems.append(f"{len(windows)} windows")
        return problems

    return Workload(n_rows, run_round, check)


def setup_pretrain_default(seed, workdir):
    from odflow import mobility, training
    from odflow.decoder import masked_mse_loss
    import checks
    import numpy as np
    pois, stats, (train_w, val_w, _) = default_city_windows(workdir)
    n_train, n_val = PRETRAIN_SLICE
    train_w, val_w = train_w[:n_train], val_w[:n_val]
    model = default_model(pois, seed)
    config = training.TrainConfig(learning_rate=3e-3, epochs=1, batch_size=1,
                                  seed=seed)
    losses = []

    def run_round():
        log = []
        ckpt = training.pretrain(model, train_w, val_w, stats, config,
                                 step_log=log)
        losses.append([loss for _, loss in log])
        return ckpt

    def check(ckpt):
        problems = checks.check_finite([x for r in losses for x in r],
                                       "training loss")
        problems += checks.check_finite([ckpt.best_val_loss], "validation loss")
        batch = mobility.collate(train_w[:1], stats)
        params = model.trainable_parameters()

        def eval_loss():
            pred, _, _, _ = model.forward(batch, training=False)
            return pred, masked_mse_loss(pred, batch.targets, batch.mask,
                                         batch.target_steps)

        model.zero_grad()
        pred, loss = eval_loss()
        loss.backward()
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                 for p in params]
        model.zero_grad()
        problems += checks.check_nonnegative(pred.data, "prediction")
        problems += checks.check_directional_derivative(
            lambda: eval_loss()[1].item(), params, grads)
        return problems

    return Workload(n_train, run_round, check, losses)


def setup_forecast_default(seed, workdir):
    from odflow import mobility, training
    from odflow.model import Checkpoint
    import checks
    pois, stats, (_, _, test_w) = default_city_windows(workdir)
    saved = Checkpoint.from_model(default_model(pois, seed), stats)
    path = os.path.join(workdir, "model.upck")
    saved.save(path)
    loaded = Checkpoint.load(path)
    model = loaded.build_model()

    def run_round():
        return training.evaluate(model, test_w, stats, batch_size=1)

    def check(report):
        problems = checks.check_close(
            report.mse, training.dataset_loss(model, test_w, stats, batch_size=1),
            1e-9, "evaluate MSE vs dataset_loss MSE")
        problems += checks.check_outcome_counts(report, test_w)
        by_m = sorted(test_w, key=lambda w: len(w.candidate_edges))
        small = by_m[0]
        big = next((w for w in by_m
                    if len(w.candidate_edges) > len(small.candidate_edges)), by_m[-1])
        alone = mobility.collate([small], stats)
        pred = model.predict(alone)
        padded = model.predict(mobility.collate([small, big], stats))
        problems += checks.check_nonnegative(padded, "prediction")
        problems += checks.check_padding(pred[0], padded[0], alone.mask[0])
        problems += checks.check_same_arrays(saved.params, loaded.params,
                                             "checkpoint round trip")
        problems += checks.check_same_arrays(
            saved.params, {k: p.data for k, p in model.params.items()},
            "model built from the checkpoint")
        if (loaded.norm_stats.to_dict(), loaded.encoder_config, loaded.decoder_config) \
                != (saved.norm_stats.to_dict(), saved.encoder_config, saved.decoder_config):
            problems.append("checkpoint round trip changes stats or configs")
        return problems

    return Workload(len(test_w), run_round, check)


def setup_rl_adapt_small(seed, workdir):
    """The dense 6-POI city and the small model of criteria 8 and 9."""
    from odflow import mobility, rl, synthcity
    from odflow.decoder import DecoderConfig
    from odflow.encoder import EncoderConfig
    from odflow.model import Model
    import checks
    import numpy as np
    city = synthcity.CityConfig(seed=seed, n_pois=6, n_agents=400,
                                n_intervals=96, move_prob=0.5,
                                attraction_exponent=2.0,
                                diurnal_profile=[1.0] * 24)
    write_city(city, workdir)
    pois, weather, snapshots, _, _ = ingest(workdir)
    stats = mobility.compute_norm_stats(snapshots, pois, weather)
    windows = mobility.make_windows(snapshots, pois, weather, stats, 8,
                                    stride=2)[10:14]
    model = Model(EncoderConfig(n_types=6, temporal_channels=[8, 16],
                                gcn_widths=[128, 256], edge_dim=256, dropout=0.0),
                  DecoderConfig(layers=1, heads=2, model_dim=256, ffn_dim=128,
                                dropout=0.0), seed=seed)
    reward_cfg = rl.RewardConfig(delta=0.02)
    ppo_cfg = rl.PpoConfig(step_size=3e-4, episodes_per_update=16,
                           update_epochs=4, entropy_coeff=0.003, episode_len=4)
    head = model.params["decoder.head.w_out"], model.params["decoder.head.b_out"]
    w0, b0 = head[0].data.copy(), head[1].data.copy()
    rewards = []

    def run_round():
        head[0].data, head[1].data = w0.copy(), b0.copy()
        policy, _, env, raw = rl.train_rl(model, windows, stats, reward_cfg,
                                          ppo_cfg, RL_EPISODES, seed=seed)
        rewards.extend(raw)
        return policy, env

    def check(out):
        policy, env = out
        problems = checks.check_rewards(rewards)
        w2, b2 = rl.apply_action(env.w0, env.b0, np.zeros(ppo_cfg.n_blocks + 1),
                                 env.g)
        problems += checks.check_same_arrays({"w": env.w0, "b": env.b0},
                                             {"w": w2, "b": b2}, "zero action")
        start = env._cursor
        episode = env.run_episode(policy, np.random.default_rng(seed),
                                  deterministic=True)
        problems += checks.check_close(
            episode["episode_reward"],
            checks.replay_episode_reward(env, start, episode["actions"],
                                         ppo_cfg.n_blocks, rl.ACTION_CLAMP),
            1e-9, "episode reward vs numpy replay")
        return problems

    return Workload(RL_EPISODES, run_round, check)


# BLAS threads per workload; the rest use one per CPU the process may run on.
# rl-adapt-small multiplies 64 x 1560 matrices, where a second thread only
# adds synchronisation: on two cores it ran at 325 episodes/s with a 10 %
# spread between runs, and at 349 episodes/s with 2 % on one thread.
BLAS_THREADS = {"rl-adapt-small": 1}

WORKLOADS = {
    "ingest-metro": setup_ingest_metro,
    "pretrain-default": setup_pretrain_default,
    "forecast-default": setup_forecast_default,
    "rl-adapt-small": setup_rl_adapt_small,
}


# -- tracing ---------------------------------------------------------------


def install_tracer(tracer):
    """Wrap the public functions and methods of every layer."""
    import tracemalloc
    from odflow import autodiff, decoder, encoder, mobility, model, rl, training
    t = tracer

    t.wrap([(mobility, "save_snapshots")], "mobility.save_snapshots")
    t.wrap([(mobility, "load_snapshots")], "mobility.load_snapshots")
    t.wrap([(mobility, "read_gps_csv")], "mobility.read_gps_csv",
           after=lambda r, *a, **k: t.count("mobility.points_read", len(r[0])))
    t.wrap([(mobility, "clean_traces")], "mobility.clean_traces",
           after=lambda r, *a, **k: t.count("mobility.points_kept", len(r)))
    t.wrap([(mobility, "assign_to_pois")], "mobility.assign_to_pois")
    t.wrap([(mobility, "build_edges")], "mobility.build_edges",
           after=lambda r, *a, **k: t.count("mobility.transitions",
                                             sum(w for _, _, w in r)))
    t.wrap([(mobility, "build_snapshots")], "mobility.build_snapshots")

    def windows_made(r, *a, **k):
        t.count("mobility.windows", len(r))
        t.count("mobility.window_adjacency_bytes",
                sum(8 * w.adjacency.size for w in r))

    t.wrap([(mobility, "make_windows")], "mobility.make_windows",
           after=windows_made)
    t.wrap([(mobility, "collate"), (training, "collate"), (rl, "collate")],
           "mobility.collate")

    for name in ("embed_features", "temporal_conv_stack", "st_graph_conv",
                 "edge_tokens"):
        t.wrap([(encoder.Encoder, name)], f"encoder.{name}")

    def attention(self, x, mask, layer):
        b, s = x.shape[:2]
        t.peak("decoder.attn_score_bytes", b * self.config.heads * s * s * 8)

    t.wrap([(decoder.Decoder, "_mha")],
           lambda self, x, mask, layer: f"decoder.{layer}.attn", before=attention)
    t.wrap([(autodiff, "attention_softmax")], "autodiff.attention_softmax")
    def decode_start(self, tokens, *a, **k):
        t.count("decoder.tokens", tokens.shape[1])
        t.count("decoder.decode_calls")

    t.wrap([(decoder.Decoder, "decode")], "decoder.decode", before=decode_start)
    t.wrap([(decoder.Decoder, "predict_flows")], "decoder.head")

    # tracemalloc runs only from a forward pass to the end of its step
    def forward_start(*a, **k):
        if not tracemalloc.is_tracing():
            tracemalloc.start()

    def forward_end(r, self, batch, training=False, rng=None):
        t.peak("forward.traced_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        if not training:
            tracemalloc.stop()

    def step_end(*a, **k):
        if tracemalloc.is_tracing():
            t.peak("train_step.traced_peak_mb",
                   tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    t.wrap([(model.Model, "forward")], "model.forward", before=forward_start,
           after=forward_end)
    t.wrap([(training, "masked_mse_loss")], "training.loss")
    t.wrap([(autodiff.Tensor, "backward")], "autodiff.backward")
    t.wrap([(autodiff, "clip_grad_norm")], "autodiff.clip_grad_norm")
    t.wrap([(training.Adam, "step")], "training.adam_step", after=step_end)
    t.wrap([(training, "dataset_loss")], "training.dataset_loss")
    t.wrap([(training, "evaluate")], "training.evaluate")
    t.wrap([(training, "pretrain")], "training.pretrain")
    t.wrap([(model.Checkpoint, "save")], "model.checkpoint_save")
    t.wrap([(model.Checkpoint, "load")], "model.checkpoint_load")
    t.wrap([(model.Checkpoint, "build_model")], "model.build_model")

    t.wrap([(rl.HeadAdaptEnv, "run_episode")], "rl.run_episode",
           after=lambda *a, **k: t.count("rl.episodes"))

    def window_lookup(env, idx):
        t.count("rl.window_forward_calls")
        if idx not in env._cache:
            t.count("rl.window_cache_misses")

    t.wrap([(rl.HeadAdaptEnv, "_window_forward")], "rl.window_forward",
           before=window_lookup)
    t.wrap([(rl.HeadAdaptEnv, "_predict_errors")], "rl.predict_errors")
    for name in ("build_state", "apply_action", "compute_reward"):
        t.wrap([(rl, name)], f"rl.{name}")
    t.wrap([(rl, "ppo_update")], "rl.ppo_update",
           after=lambda *a, **k: t.count("rl.ppo_updates"))
    t.wrap([(rl, "train_rl")], "rl.train_rl")


def per_layer_metrics(tracer, rounds, rate):
    """A time `<span>_s` is the inclusive time of span `<span>`, except the
    three defined here; counts and peaks are named as they were recorded."""
    total, own = tracer.times(rounds)
    counts = tracer.per_round_counts(rounds)
    values = {name: total[name[:-2]] for name, unit in PER_LAYER.items()
              if unit == "s"}
    values["mobility.snapshot_store_s"] = (total["mobility.save_snapshots"]
                                           + total["mobility.load_snapshots"])
    values["mobility.build_snapshots_self_s"] = own["mobility.build_snapshots"]
    values["decoder.ffn_norm_s"] = own["decoder.decode"]
    for name in ("mobility.points_read", "mobility.points_kept",
                 "mobility.transitions", "mobility.windows",
                 "mobility.window_adjacency_bytes", "rl.window_cache_misses",
                 "rl.episodes", "rl.ppo_updates"):
        values[name] = counts[name]
    calls = counts["decoder.decode_calls"]
    values["decoder.tokens"] = counts["decoder.tokens"] / calls if calls else 0.0
    lookups = counts["rl.window_forward_calls"]
    values["rl.window_cache_hit_ratio"] = (
        1.0 - counts["rl.window_cache_misses"] / lookups if lookups else 0.0)
    for name in ("decoder.attn_score_bytes", "train_step.traced_peak_mb",
                 "forward.traced_peak_mb"):
        values[name] = tracer.maxima[name]
    values["bench.traced_rate_per_s"] = rate
    return values


# -- driver ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the BLAS reads these when numpy first loads, which happens below
    threads = BLAS_THREADS.get(args.workload, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "odflow", "__init__.py")):
        fail(f"no odflow sources under {src}")
    sys.path.insert(0, src)
    import odflow
    if os.path.dirname(os.path.dirname(os.path.abspath(odflow.__file__))) != src:
        fail(f"odflow was imported from {odflow.__file__}, not {src}")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        install_tracer(tracer)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tracer, workdir):
    if tracer:
        tracer.enter("bench.setup")
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if tracer:
        tracer.exit()
    setup_s = process_age()

    rates, attempted, failed, last = [], 0, 0, None
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < args.seconds:
        last = None     # two rounds' outputs are never alive together
        if tracer:
            tracer.round = attempted // workload.ops_per_round
            tracer.enter("bench.round")
        t0 = time.perf_counter()
        try:
            last = workload.run_round()
            rates.append(workload.ops_per_round / (time.perf_counter() - t0))
        except Exception:
            traceback.print_exc()
            failed += workload.ops_per_round
        finally:
            if tracer:
                tracer.exit()
        attempted += workload.ops_per_round
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not rates:
        fail("every round failed")
    rate = statistics.median(rates)

    if tracer:
        tracer.uninstall()
        rounds = attempted // workload.ops_per_round
        metrics, units = per_layer_metrics(tracer, rounds, rate), PER_LAYER
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "rounds": rounds, "rate_per_s": rate, "setup_s": setup_s,
                     "step_losses": workload.step_losses})
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                   "rate_per_s": rate}
        units = END_TO_END
    try:
        problems = workload.check(last) if last is not None else []
    except Exception as e:
        traceback.print_exc()
        problems = [f"the check raised {type(e).__name__}: {e}"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

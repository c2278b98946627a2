"""Command-line entry point wiring generation, ingestion, training,
adaptation, evaluation, and reporting.

One JSON configuration document drives every stage; the subcommands are
`synth`, `ingest`, `pretrain`, `coldstart`, `rl-finetune`, `evaluate`,
`report`.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import mobility, synthcity, svgplot
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .mobility import (DEFAULT_INTERVAL_S, DEFAULT_MAX_DIST_KM,
                       DEFAULT_MAX_SPEED_KMH)
from .model import Checkpoint, Model
from .rl import PpoConfig, RewardConfig, smooth_rewards, train_rl
from .training import (FreezeSpec, TrainConfig, coldstart_finetune,
                       evaluate, pretrain, split_dataset)

CSV_SCHEMA_VERSION = 1


DEFAULT_CONFIG = {
    "seed": 7,
    "paths": {
        "traces": "traces.csv",
        "pois": "pois.csv",
        "weather": "weather.csv",
        "snapshots": "snapshots.jsonl",
        "checkpoints": "checkpoints",
        "reports": "reports",
        "source_checkpoint": "",
    },
    "city": {
        "interval_s": DEFAULT_INTERVAL_S,
        "max_speed_kmh": DEFAULT_MAX_SPEED_KMH,
        "max_dist_km": DEFAULT_MAX_DIST_KM,
        "synth": {},
    },
    "model": {"encoder": {}, "decoder": {}},
    "train": {"window": 12, "stride": 1, "split_scheme": "source",
              "freeze": {}, "config": {}},
    "rl": {"reward": {}, "ppo": {}, "episodes": 200},
    "eval_checkpoint": "pretrain.upck",
}


class CliError(Exception):
    pass


def load_config(path, seed=None, out_dir=None):
    with open(path) as f:
        user = json.load(f)
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    _check_type(user, dict, "the config")
    _merge(cfg, user)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        for key in ("traces", "pois", "weather", "snapshots", "checkpoints",
                    "reports"):
            cfg["paths"][key] = os.path.join(out_dir, cfg["paths"][key])
    if cfg["city"]["interval_s"] <= 0:
        raise CliError("interval_s must be positive")
    return cfg


def _check_type(value, want, name):
    """CliError naming `name` (or `name[i]`, for an element of a `list[...]`)
    unless `value` is a `want`; an int is a float, a bool never a number."""
    elem, want = typing.get_args(want), typing.get_origin(want) or want
    ok = isinstance(value, (int, float) if want is float else want)
    if not ok or (isinstance(value, bool) and want is not bool):
        raise CliError(f"{name} must be of type {want.__name__}, "
                       f"not {type(value).__name__} ({value!r})")
    for i, v in enumerate(value if elem else ()):
        _check_type(v, elem[0], f"{name}[{i}]")


def _merge(base, extra, prefix=""):
    """Merge `extra` into the defaults `base` in place.  A key `base` lacks,
    or a value whose type differs from its default's, is a CliError naming
    the dotted key; the keys of a section whose default is {} are left for
    `_build` to check."""
    for key, value in extra.items():
        name = prefix + key
        if key not in base:
            raise CliError(f"unknown config key: {name}")
        _check_type(value, type(base[key]), name)
        if isinstance(value, dict) and base[key]:
            _merge(base[key], value, name + ".")
        else:
            base[key] = value


def _build(cls, d, section, **shared):
    """Dataclass `cls` from config section `d` plus `shared` fields set by
    keys outside it; a key of `d` that is unknown or shared, or a value that
    does not fit its field's type, is a CliError."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise CliError(f"unknown key(s) in {section}: {', '.join(unknown)}")
    for key, value in d.items():
        if key in shared:
            where = {"seed": "seed", "interval_s": "city.interval_s"}[key]
            raise CliError(f"{section}.{key} is not a config key; set {where}")
        _check_type(value, fields[key], f"{section}.{key}")
    return cls(**d, **shared)


def _require(path, what):
    if not path or not os.path.exists(path):
        raise CliError(f"missing input: {what} ({path})")


def _writable(path):
    """`path`, after creating its directory if it does not exist."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _write_csv(path, header, rows):
    with open(_writable(path), "w", newline="") as f:
        f.write(f"# schema v{CSV_SCHEMA_VERSION}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path):
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


# -- stage helpers ---------------------------------------------------------


def _load_inputs(cfg):
    _require(cfg["paths"]["pois"], "POI CSV")
    _require(cfg["paths"]["weather"], "weather CSV")
    _require(cfg["paths"]["snapshots"], "snapshot store")
    pois, _ = mobility.read_poi_csv(cfg["paths"]["pois"])
    weather = mobility.read_weather_csv(cfg["paths"]["weather"])
    snapshots = mobility.load_snapshots(cfg["paths"]["snapshots"])
    return pois, weather, snapshots


def _train_config(cfg):
    return _build(TrainConfig, cfg["train"]["config"], "train.config",
                  seed=cfg["seed"])


def _windows_for(snapshots, pois, weather, stats, cfg, stride=None):
    t = cfg["train"]["window"]
    return mobility.make_windows(snapshots, pois, weather, stats, t,
                                 stride=stride or cfg["train"]["stride"])


def cmd_synth(cfg):
    city = _build(synthcity.CityConfig, cfg["city"]["synth"], "city.synth",
                  seed=cfg["seed"], interval_s=cfg["city"]["interval_s"])
    pois, xy = synthcity.generate_city(city)
    points = synthcity.simulate_traces(city, pois, xy)
    weather = synthcity.generate_weather(city)
    synthcity.write_poi_csv(pois, _writable(cfg["paths"]["pois"]))
    synthcity.write_gps_csv(points, _writable(cfg["paths"]["traces"]))
    synthcity.write_weather_csv(weather, _writable(cfg["paths"]["weather"]))
    print(f"synth: {len(pois)} POIs, {len(points)} GPS points, "
          f"{len(weather)} weather records")


def cmd_ingest(cfg):
    _require(cfg["paths"]["traces"], "GPS CSV")
    _require(cfg["paths"]["pois"], "POI CSV")
    points, bad = mobility.read_gps_csv(cfg["paths"]["traces"])
    pois, _ = mobility.read_poi_csv(cfg["paths"]["pois"])
    snapshots = mobility.build_snapshots(
        points, pois,
        interval_s=cfg["city"]["interval_s"],
        max_speed_kmh=cfg["city"]["max_speed_kmh"],
        max_dist_km=cfg["city"]["max_dist_km"])
    mobility.save_snapshots(snapshots, _writable(cfg["paths"]["snapshots"]))
    print(f"ingest: {len(snapshots)} snapshots "
          f"({bad} malformed rows skipped)")


def cmd_pretrain(cfg):
    tc = _train_config(cfg)
    dec = _build(DecoderConfig, cfg["model"]["decoder"], "model.decoder")
    pois, weather, snapshots = _load_inputs(cfg)
    enc = _build(EncoderConfig,
                 {"n_types": len(set(p.type_index for p in pois)),
                  **cfg["model"]["encoder"]}, "model.encoder")
    t = cfg["train"]["window"]
    train_s, val_s, _ = split_dataset(snapshots, "source", t)
    stats = mobility.compute_norm_stats(train_s, pois, weather)
    train_w = _windows_for(train_s, pois, weather, stats, cfg)
    val_w = _windows_for(val_s, pois, weather, stats, cfg)
    model = Model(enc, dec, seed=cfg["seed"])
    step_log, epoch_log = [], []
    ckpt = pretrain(model, train_w, val_w, stats, tc,
                    step_log=step_log, epoch_log=epoch_log)
    ckpt.save(_writable(os.path.join(cfg["paths"]["checkpoints"],
                                     "pretrain.upck")))
    _write_csv(os.path.join(cfg["paths"]["reports"], "pretrain_steps.csv"),
               ["step", "loss"], [(s, f"{l:.8f}") for s, l in step_log])
    _write_csv(os.path.join(cfg["paths"]["reports"], "pretrain_epochs.csv"),
               ["epoch", "train_loss", "val_loss"],
               [(e, f"{tr:.8f}", f"{v:.8f}") for e, tr, v in epoch_log])
    print(f"pretrain: best val loss {ckpt.best_val_loss:.6f} "
          f"at epoch {ckpt.epoch}")


def cmd_coldstart(cfg):
    tc = _train_config(cfg)
    freeze = _build(FreezeSpec, cfg["train"]["freeze"], "train.freeze")
    src = cfg["paths"]["source_checkpoint"]
    _require(src, "source checkpoint")
    pois, weather, snapshots = _load_inputs(cfg)
    t = cfg["train"]["window"]
    cold_s, _, _ = split_dataset(snapshots, "target", t)
    # last fifth of the cold-start slice doubles as the validation series
    cut = max(t, int(len(cold_s) * 0.8))
    stats = mobility.compute_norm_stats(cold_s[:cut], pois, weather)
    train_w = _windows_for(cold_s[:cut], pois, weather, stats, cfg)
    val_w = _windows_for(cold_s[max(0, cut - t + 1):], pois, weather, stats,
                         cfg)
    ckpt = Checkpoint.load(src)
    step_log, epoch_log = [], []
    out = coldstart_finetune(ckpt, train_w, val_w, stats, freeze, tc,
                             step_log=step_log, epoch_log=epoch_log)
    out.save(_writable(os.path.join(cfg["paths"]["checkpoints"],
                                    "coldstart.upck")))
    _write_csv(os.path.join(cfg["paths"]["reports"], "coldstart_epochs.csv"),
               ["epoch", "train_loss", "val_loss"],
               [(e, f"{tr:.8f}", f"{v:.8f}") for e, tr, v in epoch_log])
    print(f"coldstart: best val loss {out.best_val_loss:.6f}")


def cmd_rl_finetune(cfg):
    episodes = cfg["rl"]["episodes"]
    if episodes < 1:
        raise CliError(f"rl.episodes must be positive, not {episodes}")
    _train_config(cfg)  # the same train.config check as every training stage
    reward_cfg = _build(RewardConfig, cfg["rl"]["reward"], "rl.reward")
    ppo_cfg = _build(PpoConfig, cfg["rl"]["ppo"], "rl.ppo")
    path = os.path.join(cfg["paths"]["checkpoints"], "coldstart.upck")
    _require(path, "cold-start checkpoint")
    pois, weather, snapshots = _load_inputs(cfg)
    t = cfg["train"]["window"]
    _, rl_s, _ = split_dataset(snapshots, "target", t)
    ckpt = Checkpoint.load(path)
    stats = ckpt.norm_stats
    windows = _windows_for(rl_s, pois, weather, stats, cfg,
                           stride=max(1, t // 4))
    model = ckpt.build_model()
    policy, _, env, rewards = train_rl(model, windows, stats, reward_cfg,
                                       ppo_cfg, episodes, seed=cfg["seed"])
    smoothed = smooth_rewards(rewards, 100)
    _write_csv(os.path.join(cfg["paths"]["reports"], "rl_rewards.csv"),
               ["episode", "raw_reward", "smoothed_reward"],
               [(i, f"{r:.6f}", f"{s:.6f}")
                for i, (r, s) in enumerate(zip(rewards, smoothed))])
    # bake the deterministic policy into the head over one episode
    rng = np.random.default_rng(cfg["seed"])
    env.run_episode(policy, rng, deterministic=True)
    adapted = Checkpoint.from_model(model, stats, ckpt.best_val_loss,
                                    ckpt.epoch)
    adapted.save(_writable(os.path.join(cfg["paths"]["checkpoints"],
                                        "rl.upck")))
    print(f"rl-finetune: {len(rewards)} episodes, "
          f"final smoothed reward {smoothed[-1]:.4f}")


def cmd_evaluate(cfg):
    _train_config(cfg)  # the same train.config check as every training stage
    name = cfg["eval_checkpoint"]
    path = name if os.path.sep in name else os.path.join(
        cfg["paths"]["checkpoints"], name)
    _require(path, "checkpoint")
    pois, weather, snapshots = _load_inputs(cfg)
    t = cfg["train"]["window"]
    scheme = cfg["train"]["split_scheme"]
    splits = split_dataset(snapshots, scheme, t)
    eval_s = splits[2]
    ckpt = Checkpoint.load(path)
    stats = ckpt.norm_stats
    windows = _windows_for(eval_s, pois, weather, stats, cfg)
    model = ckpt.build_model()
    report = evaluate(model, windows, stats)
    _write_csv(os.path.join(cfg["paths"]["reports"], "eval_outcomes.csv"),
               ["t", "correct", "over", "under"],
               [(t_, c, o, u) for t_, (c, o, u)
                in sorted(report.per_step.items())])
    _write_csv(os.path.join(cfg["paths"]["reports"], "eval_metrics.csv"),
               ["mse", "mae", "accuracy"],
               [(f"{report.mse:.8f}", f"{report.mae:.8f}",
                 f"{report.accuracy:.6f}")])
    print(f"evaluate: mse {report.mse:.6f} mae {report.mae:.6f} "
          f"accuracy {report.accuracy:.4f}")


_REPORT_PLOTS = [
    ("pretrain_epochs.csv", "loss_curves.svg", "epoch",
     [("train", "train_loss", float), ("val", "val_loss", float)],
     dict(title="Training and validation loss", x_label="epoch",
          y_label="loss")),
    ("eval_outcomes.csv", "outcome_counts.svg", "t",
     [("correct", "correct", int), ("over", "over", int),
      ("under", "under", int)],
     dict(title="Edge outcome counts per step", x_label="interval",
          y_label="edges", log_y=True)),
    ("rl_rewards.csv", "reward_curves.svg", "episode",
     [("raw", "raw_reward", float),
      ("smoothed (w=100)", "smoothed_reward", float)],
     dict(title="Adaptation reward", x_label="episode", y_label="reward")),
]


def cmd_report(cfg):
    rep = cfg["paths"]["reports"]
    made = []
    for csv_name, svg_name, x_col, series, labels in _REPORT_PLOTS:
        path = os.path.join(rep, csv_name)
        if not os.path.exists(path):
            continue
        rows = _read_csv(path)
        xs = [int(r[x_col]) for r in rows]
        svgplot.line_plot(
            [(label, xs, [cast(r[col]) for r in rows])
             for label, col, cast in series],
            os.path.join(rep, svg_name), **labels)
        made.append(svg_name)
    if not made:
        raise CliError(f"missing input: no report CSVs under {rep}")
    print("report: " + ", ".join(made))


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "pretrain": cmd_pretrain,
    "coldstart": cmd_coldstart,
    "rl-finetune": cmd_rl_finetune,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="odflow",
        description="Dynamic POI-graph OD flow forecasting pipeline")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="directory prefix for all configured paths")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        COMMANDS[args.command](cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

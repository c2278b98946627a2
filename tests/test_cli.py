"""End-to-end CLI tests on a miniature synthetic city."""

import json
import os
import shutil

import numpy as np
import pytest

from odflow.cli import load_config, main
from odflow.mobility import load_snapshots
from odflow.model import Checkpoint

SMALL_CONFIG = {
    "seed": 11,
    "city": {
        "synth": {"n_pois": 6, "n_agents": 30, "n_intervals": 40,
                  "move_prob": 0.4, "attraction_exponent": 2.0},
    },
    "model": {
        "encoder": {"temporal_channels": [4, 8], "gcn_widths": [256],
                    "edge_dim": 256, "dropout": 0.0},
        "decoder": {"layers": 1, "heads": 2, "model_dim": 256,
                    "ffn_dim": 32, "dropout": 0.0},
    },
    "train": {"window": 6, "stride": 2,
              "config": {"epochs": 1, "batch_size": 4,
                         "learning_rate": 1e-3}},
    "rl": {"episodes": 8,
           "ppo": {"episodes_per_update": 4, "episode_len": 2,
                   "update_epochs": 1}},
}


def write_config(dirpath, extra=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if extra:
        cfg.update(extra)
    path = os.path.join(dirpath, "config.json")
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def run(cmd, config, out):
    return main([cmd, "--config", config, "--out", out])


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """synth -> ingest -> pretrain -> coldstart -> rl-finetune -> evaluate
    -> report, once for the whole session."""
    d = str(tmp_path_factory.mktemp("cli"))
    cfgp = write_config(d)
    for cmd in ("synth", "ingest", "pretrain"):
        assert run(cmd, cfgp, d) == 0
    # the cold-start stage adapts the pretrained checkpoint to the same city
    cfgp2 = write_config(d, {"paths": {
        "source_checkpoint": os.path.join(d, "checkpoints", "pretrain.upck")}})
    for cmd in ("coldstart", "rl-finetune", "evaluate", "report"):
        assert run(cmd, cfgp2, d) == 0
    return d


def test_synth_outputs(pipeline_dir):
    for name in ("traces.csv", "pois.csv", "weather.csv", "snapshots.jsonl"):
        assert os.path.exists(os.path.join(pipeline_dir, name))


def test_checkpoints_written_and_loadable(pipeline_dir):
    for name in ("pretrain.upck", "coldstart.upck", "rl.upck"):
        ck = Checkpoint.load(os.path.join(pipeline_dir, "checkpoints", name))
        assert "decoder.head.w_out" in ck.params
        assert ck.norm_stats is not None


def test_report_csvs_have_schema_header(pipeline_dir):
    rep = os.path.join(pipeline_dir, "reports")
    expectations = {
        "pretrain_steps.csv": "step,loss",
        "pretrain_epochs.csv": "epoch,train_loss,val_loss",
        "coldstart_epochs.csv": "epoch,train_loss,val_loss",
        "rl_rewards.csv": "episode,raw_reward,smoothed_reward",
        "eval_outcomes.csv": "t,correct,over,under",
        "eval_metrics.csv": "mse,mae,accuracy",
    }
    for name, header in expectations.items():
        with open(os.path.join(rep, name)) as f:
            lines = f.read().splitlines()
        assert lines[0] == "# schema v1"
        assert lines[1].rstrip("\r") == header
        assert len(lines) > 2


def test_report_svgs(pipeline_dir):
    rep = os.path.join(pipeline_dir, "reports")
    for name in ("loss_curves.svg", "outcome_counts.svg", "reward_curves.svg"):
        with open(os.path.join(rep, name)) as f:
            body = f.read()
        assert body.startswith("<svg")
        assert "<polyline" in body
    with open(os.path.join(rep, "outcome_counts.svg")) as f:
        assert "log scale" in f.read()


def test_report_rerun_is_byte_identical(pipeline_dir):
    rep = os.path.join(pipeline_dir, "reports")
    cfgp = os.path.join(pipeline_dir, "config.json")
    before = {}
    for name in ("loss_curves.svg", "outcome_counts.svg", "reward_curves.svg"):
        with open(os.path.join(rep, name), "rb") as f:
            before[name] = f.read()
    assert run("report", cfgp, pipeline_dir) == 0
    for name, blob in before.items():
        with open(os.path.join(rep, name), "rb") as f:
            assert f.read() == blob


def test_synth_ingest_determinism(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    for d in (d1, d2):
        os.makedirs(d)
        cfgp = write_config(d)
        assert run("synth", cfgp, d) == 0
        assert run("ingest", cfgp, d) == 0
    for name in ("traces.csv", "pois.csv", "weather.csv", "snapshots.jsonl"):
        with open(os.path.join(d1, name), "rb") as f1, \
                open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read()


def test_missing_inputs_exit_code(tmp_path):
    d = str(tmp_path)
    cfgp = write_config(d)
    assert run("ingest", cfgp, d) == 1    # no traces yet
    assert run("evaluate", cfgp, d) == 1  # no checkpoint yet
    assert run("report", cfgp, d) == 1    # no CSVs yet


def test_bad_arguments_exit_code(tmp_path):
    cfgp = write_config(str(tmp_path))
    assert main(["frobnicate", "--config", cfgp]) == 2
    assert main(["synth", "--config", str(tmp_path / "missing.json")]) == 1


def test_load_config_merge_and_overrides(tmp_path):
    cfgp = write_config(str(tmp_path))
    cfg = load_config(cfgp)
    assert cfg["seed"] == 11
    assert cfg["city"]["synth"]["n_pois"] == 6
    assert cfg["train"]["window"] == 6
    assert cfg["train"]["split_scheme"] == "source"  # default survives merge
    cfg2 = load_config(cfgp, seed=99, out_dir="/elsewhere")
    assert cfg2["seed"] == 99
    assert cfg2["paths"]["traces"] == "/elsewhere/traces.csv"


@pytest.mark.parametrize("cmd, section", [
    ("synth", "city.synth"),
    ("pretrain", "model.encoder"),
    ("pretrain", "model.decoder"),
    ("pretrain", "train.config"),
    ("coldstart", "train.freeze"),
    ("rl-finetune", "rl.reward"),
    ("rl-finetune", "rl.ppo"),
])
def test_unknown_section_key_is_an_error_line(pipeline_dir, tmp_path, capsys,
                                              cmd, section):
    d = str(tmp_path / "run")
    shutil.copytree(pipeline_dir, d)
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    outer, inner = section.split(".")
    cfg.setdefault(outer, {}).setdefault(inner, {})["bogus_key"] = 1
    cfg["paths"] = {"source_checkpoint":
                    os.path.join(d, "checkpoints", "pretrain.upck")}
    cfgp = os.path.join(d, "config.json")
    with open(cfgp, "w") as f:
        json.dump(cfg, f)
    capsys.readouterr()
    assert run(cmd, cfgp, d) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert section in err and "bogus_key" in err


@pytest.mark.parametrize("episodes", [0, -1])
def test_rl_finetune_without_episodes_is_an_error_line(tmp_path, capsys,
                                                       episodes):
    # no inputs exist: the episode count is checked before any is loaded
    cfgp = write_config(str(tmp_path), {"rl": {"episodes": episodes}})
    assert run("rl-finetune", cfgp, str(tmp_path)) == 1
    assert "error: rl.episodes" in capsys.readouterr().err


def test_synth_creates_its_output_directory(tmp_path):
    out = str(tmp_path / "fresh" / "nested")
    assert run("synth", write_config(str(tmp_path)), out) == 0
    assert os.path.exists(os.path.join(out, "pois.csv"))


def test_bad_poi_csv_is_an_error_line(tmp_path, capsys):
    cfgp = write_config(str(tmp_path))
    (tmp_path / "traces.csv").write_text(
        "user_id,timestamp,lat,lon\nu1,0,37.0,-120.0\n")
    (tmp_path / "pois.csv").write_text("poi_id,lat,type\n0,37.0,a\n")
    assert run("ingest", cfgp, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "pois.csv: row 1: missing column 'lon'" in err


@pytest.mark.parametrize("cmd", ["pretrain", "coldstart", "rl-finetune",
                                 "evaluate"])
def test_train_config_is_checked_before_inputs(tmp_path, capsys, cmd):
    # no inputs exist: every stage that reads train.config builds it first
    cfgp = write_config(str(tmp_path), {"train": {"config": {"epochz": 1}}})
    assert run(cmd, cfgp, str(tmp_path)) == 1
    assert ("error: unknown key(s) in train.config: epochz"
            in capsys.readouterr().err)


@pytest.mark.parametrize("cmd, extra, key", [
    ("synth", {"sed": 3}, "sed"),
    ("synth", {"train": {"window": "12"}}, "train.window"),
    ("synth", {"seed": "x"}, "seed"),
    ("synth", {"city": {"synth": []}}, "city.synth"),
    ("synth", {"city": {"synth": {"n_pois": "6"}}}, "city.synth.n_pois"),
    ("synth", {"paths": {"pois": 3}}, "paths.pois"),
    ("pretrain", {"train": {"config": {"epochs": 2.0}}}, "train.config.epochs"),
    # keys another key sets, a removed key, and intervals out of range
    ("synth", {"city": {"synth": {"seed": 3}}},
     "city.synth.seed is not a config key; set seed"),
    ("pretrain", {"train": {"config": {"seed": 123}}},
     "train.config.seed is not a config key; set seed"),
    ("synth", {"city": {"synth": {"interval_s": 600}}},
     "city.synth.interval_s is not a config key; set city.interval_s"),
    ("evaluate", {"train": {"config": {"target_mode": "final_step"}}},
     "train.config: target_mode"),
    ("synth", {"city": {"interval_s": 7200}}, "interval_s must be in 3..3600"),
    ("synth", {"city": {"interval_s": 2}}, "interval_s must be in 3..3600"),
])
def test_bad_config_key_or_type_is_an_error_line(tmp_path, capsys, cmd, extra,
                                                 key):
    # no inputs exist, and a bad config must stop the stage before it reads
    # or writes anything
    cfgp = write_config(str(tmp_path), extra)
    assert run(cmd, cfgp, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


def _files(d):
    return {os.path.join(r, n): (os.stat(os.path.join(r, n)).st_mtime_ns,
                                 os.path.getsize(os.path.join(r, n)))
            for r, _, names in os.walk(d) for n in names}


@pytest.mark.parametrize("cmd, key, value, message", [
    ("pretrain", "model.decoder.heads", 0, "heads must be at least 1, not 0"),
    ("pretrain", "model.encoder.temporal_channels", [],
     "temporal_channels must list at least one layer"),
    ("pretrain", "model.encoder.gcn_widths", [],
     "gcn_widths must list at least one layer"),
    ("pretrain", "model.encoder.temporal_channels", ["a"],
     "model.encoder.temporal_channels[0] must be of type int"),
    ("pretrain", "model.encoder.gcn_widths", [256, "x"],
     "model.encoder.gcn_widths[1] must be of type int"),
    ("synth", "city.synth.diurnal_profile", [1.0] * 23,
     "diurnal_profile needs 24"),
    ("synth", "city.synth.diurnal_profile", [1.0] * 23 + ["x"],
     "city.synth.diurnal_profile[23] must be of type float"),
    ("pretrain", "train.stride", 0, "stride 0 must be >= 1"),
    ("coldstart", "train.window", 0, "window 0 and"),
    ("evaluate", "train.window", -1, "window -1 and"),
])
def test_bad_value_with_inputs_present_is_an_error_line(
        pipeline_dir, tmp_path, capsys, cmd, key, value, message):
    # every input exists, so the error comes from the value itself
    d = str(tmp_path / "run")
    shutil.copytree(pipeline_dir, d)
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["paths"] = {"source_checkpoint":
                    os.path.join(d, "checkpoints", "pretrain.upck")}
    *outer, last = key.split(".")
    section = cfg
    for part in outer:
        section = section.setdefault(part, {})
    section[last] = value
    cfgp = os.path.join(d, "config.json")
    with open(cfgp, "w") as f:
        json.dump(cfg, f)
    before = _files(d)
    capsys.readouterr()
    assert run(cmd, cfgp, d) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert _files(d) == before


def test_seed_option_sets_the_synthetic_city(tmp_path):
    traces = []
    for seed in ("5", "9"):
        out = str(tmp_path / seed)
        assert main(["synth", "--config", write_config(str(tmp_path)),
                     "--out", out, "--seed", seed]) == 0
        traces.append((tmp_path / seed / "traces.csv").read_bytes())
    assert traces[0] != traces[1]


def test_city_interval_sets_synth_and_ingest(tmp_path):
    # synth and ingest share city.interval_s: 900 s traces cut into 600 s
    # buckets would give 59 snapshots, every third one empty
    city = dict(SMALL_CONFIG["city"], interval_s=600)
    cfgp = write_config(str(tmp_path), {"city": city})
    for cmd in ("synth", "ingest"):
        assert run(cmd, cfgp, str(tmp_path)) == 0
    snapshots = load_snapshots(str(tmp_path / "snapshots.jsonl"))
    assert len(snapshots) == city["synth"]["n_intervals"]
    pops = np.array([s.populations.sum() for s in snapshots])
    assert (pops == city["synth"]["n_agents"]).all()

"""End-to-end tests of the command-line workflow (in-process)."""

import configparser
import json
import logging
import struct

import numpy as np
import pytest

from arzno import config as cfgmod
from arzno.cli import main
from arzno.config import DEFAULTS
from arzno.deeponet import init_model, save_model

# Small-but-real settings so the whole chain runs in seconds.
_FAST_ENV = {
    "ARZNO_GRID_T_END": "2.0",
    "ARZNO_CONTROLLER_MESH_N": "21",
    "ARZNO_DATASET_N_FAMILIES": "3",
    "ARZNO_DEEPONET_EPOCHS": "3",
    "ARZNO_DEEPONET_B": "8",
    "ARZNO_DEEPONET_HIDDEN": "16,16",
    "ARZNO_BENCH_N": "3",
}


@pytest.fixture
def fast_env(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key, value in _FAST_ENV.items():
        monkeypatch.setenv(key, value)
    return tmp_path


def test_full_workflow(fast_env, capsys, caplog):
    root = fast_env

    assert main(["write-config", "--out", "cfg.ini"]) == 0
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(root / "cfg.ini")
    assert {s: dict(parser.items(s)) for s in parser.sections()} == DEFAULTS

    assert main(["simulate", "--mode", "open-loop", "--out", "ol"]) == 0
    report = json.loads((root / "ol" / "report.json").read_text())
    assert report["mode"] == "open-loop"
    assert "amplitude_ratio" in report
    assert (root / "ol" / "trace.csv").exists()
    assert (root / "ol" / "fields.npz").exists()
    # No refreshes open-loop: comments and the header alone.
    assert (root / "ol" / "refresh.csv").read_text().splitlines()[2:] == [
        "t,kernel_ns,dku_dt,dkv_dt"
    ]

    assert main(["simulate", "--mode", "exact", "--out", "ex"]) == 0
    report = json.loads((root / "ex" / "report.json").read_text())
    assert "converged" in report and report["n_refreshes"] == 20
    assert report["kernel_acquisitions"] == 20  # the estimate moves each step
    # Table time is timed on the acquiring refreshes and summed, beside
    # the acquisition time.
    assert report["table_time_total_ns"] > 0 and report["kernel_time_total_ns"] > 0
    assert (root / "ex" / "refresh.csv").exists()

    assert main(["gen-dataset", "--out", "data"]) == 0
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    assert manifest["n_records"] == 60  # 3 families x 20 refreshes
    for part in ("train", "val", "test"):
        blob = json.loads((root / "data" / f"{part}.json").read_text())
        assert len(blob["families"]) == 1

    assert main(["train", "--data", "data", "--out", "model.bin"]) == 0
    assert (root / "model.bin").exists()
    history = (root / "model.history.csv").read_text().splitlines()
    assert history[1] == "epoch,train_mse,val_mse,val_rel"
    assert len(history) == 2 + 3  # comment, header, one row per epoch
    summary = capsys.readouterr().out
    assert "basis and targets" in summary and "s per epoch" in summary

    assert main(["simulate", "--mode", "no", "--model", "model.bin",
                 "--out", "no"]) == 0
    assert (root / "no" / "trace.csv").exists()

    assert main(["eval", "--model", "model.bin", "--data", "data",
                 "--out", "eval.json"]) == 0
    report = json.loads((root / "eval.json").read_text())
    assert report["records"] == 20
    assert set(report["kernel"]) == {"ku_max", "ku_mean", "kv_max", "kv_mean"}
    assert set(report["physical"]) == {
        "density_max", "density_mean", "speed_max", "speed_mean",
    }
    assert "kernel Ku" in capsys.readouterr().out

    assert main(["bench", "--model", "model.bin", "--out", "bench.json"]) == 0
    report = json.loads((root / "bench.json").read_text())
    assert report["n"] == 3 and report["warmup"] == 5
    assert report["median_speedup"] > 0
    assert report["solver"]["median_ns"] > report["neural"]["median_ns"]
    assert report["direct_speedup"] == (
        report["direct"]["median_ns"] / report["neural"]["median_ns"]
    )
    assert "paired_kernel_error" in report
    # The loop solves directly: its wall is labelled as the direct solve's.
    assert set(report["closed_loop_wall_s"]) == {"direct", "neural"}
    assert "speedup" in capsys.readouterr().out

    assert main(["bench", "--n", "0", "--out", "bench0.json"]) == 0
    report = json.loads((root / "bench0.json").read_text())
    assert report["n"] == 0 and report["samples"] == []

    # A consumer running under a different configuration must be warned.
    with caplog.at_level(logging.WARNING, logger="arzno"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ARZNO_GRID_N_X", "50")
            assert main(["train", "--data", "data", "--out", "m2.bin"]) == 0
    assert "CONFIG MISMATCH" in caplog.text


def test_rerun_into_one_directory_replaces_every_artifact(fast_env):
    # An open-loop run after a closed-loop one leaves nothing of the
    # closed-loop run behind, refresh.csv included.
    out = fast_env / "run"
    assert main(["simulate", "--mode", "exact", "--out", str(out)]) == 0
    assert main(["simulate", "--mode", "open-loop", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "fields.npz", "refresh.csv", "report.json", "trace.csv",
    ]
    for name in ("trace.csv", "refresh.csv"):
        assert "# mode=open-loop" in (out / name).read_text().splitlines(), name
    with np.load(out / "fields.npz", allow_pickle=False) as z:
        assert "mode=open-loop" in z["comments"].tolist()
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "open-loop" and report["n_refreshes"] == 0


def test_every_parsed_option_is_used(fast_env, monkeypatch, read_log):
    # The option views hand plain dicts to the commands; each key they
    # parse must be read by some command, or it is a setting that does
    # nothing.  No flags are passed, so the commands fall back on the
    # config for every path and count.
    seen: dict[str, set] = {}
    parsed: dict[str, set] = {}
    for name in ("dataset_options", "deeponet_options", "bench_options"):
        view = getattr(cfgmod, name)
        parsed[name] = set(view(cfgmod.load_config()))
        keys = seen[name] = set()
        monkeypatch.setattr(
            cfgmod, name, lambda cfg, view=view, keys=keys: read_log(view(cfg), keys)
        )
    for command in ("gen-dataset", "train", "bench"):
        assert main([command]) == 0
    assert seen == parsed


def test_usage_errors_exit_1(fast_env, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_config_errors_exit_1(fast_env, tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn_xx = 80\n")
    assert main(["--config", str(bad), "simulate", "--mode", "exact"]) == 1
    assert "configuration error" in capsys.readouterr().err

    assert main(["--config", str(tmp_path / "missing.ini"),
                 "simulate", "--mode", "exact"]) == 1

    # --mode alone selects the kernel path; kernel_source is no key.
    bad.write_text("[controller]\nkernel_source = neural\n")
    assert main(["--config", str(bad), "simulate", "--mode", "exact"]) == 1
    assert "unknown key 'kernel_source'" in capsys.readouterr().err

    monkeypatch.setenv("ARZNO_GRID_N_X", "sixty")
    assert main(["simulate", "--mode", "exact"]) == 1
    monkeypatch.delenv("ARZNO_GRID_N_X")

    # An environment variable naming no key is refused like a file key.
    for name in ("ARZNO_GRID_NX", "ARZNO_CONTROLLER_KERNEL_SOURCE"):
        monkeypatch.setenv(name, "80")
        assert main(["simulate", "--mode", "exact", "--out", "x"]) == 1
        assert name in capsys.readouterr().err
        monkeypatch.delenv(name)
    assert not (fast_env / "x").exists()

    # 0.25 s is not a whole number of 0.1 s steps.
    monkeypatch.setenv("ARZNO_GRID_T_END", "0.25")
    assert main(["simulate", "--mode", "exact", "--out", "x"]) == 1
    assert "t_end must be a multiple of dt" in capsys.readouterr().err


def test_negative_bench_counts_exit_1(fast_env, capsys, monkeypatch):
    # A negative count would slice the samples from the end or leave none.
    assert main(["bench", "--n", "-2", "--out", "b.json"]) == 1
    assert "usage error" in capsys.readouterr().err
    monkeypatch.setenv("ARZNO_BENCH_N", "-3")
    assert main(["bench", "--out", "b.json"]) == 1
    assert "[bench] n = -3" in capsys.readouterr().err
    assert not (fast_env / "b.json").exists()


@pytest.mark.parametrize(
    "name, raw", [("TOL", "-1"), ("MAX_ITER", "0"), ("MESH_N", "4")]
)
def test_solver_settings_exit_1_before_out(fast_env, capsys, monkeypatch, name, raw):
    # Refused at load as a configuration error, not a stalled solve (2),
    # by simulate and gen-dataset alike; max_iter is refused as a key
    # that no longer exists, and a mesh below TriMesh's 8 nodes per side
    # by ControllerConfig.
    monkeypatch.setenv(f"ARZNO_CONTROLLER_{name}", raw)
    for argv in (["simulate", "--mode", "exact"], ["gen-dataset"]):
        assert main([*argv, "--out", "x"]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (fast_env / "x").exists()


_SIMULATE = ["simulate", "--mode", "exact", "--out", "x"]
_NAN_SETTINGS = {
    "CONTROLLER_TAU_GUESS": ("nan", _SIMULATE, "tau_guess"),
    "CONTROLLER_C_BAR": ("nan", _SIMULATE, "c_bar"),
    "CONTROLLER_GAMMA": ("nan", _SIMULATE, "gamma"),
    "TRAFFIC_LENGTH": ("nan", _SIMULATE, "length"),
    "TRAFFIC_TAU": ("nan", _SIMULATE, "tau"),
    "DEEPONET_LR": ("nan", ["train", "--data", "nowhere", "--out", "x"], "lr"),
    "DATASET_SPLIT": ("nan,0.5,0.5", ["gen-dataset", "--out", "x"], "shares"),
    "DATASET_SUBSAMPLE_DT": ("nan", ["gen-dataset", "--out", "x"], "subsample_dt"),
    # An infinite cadence passes "at least dt" but has no snapshot stride.
    "DATASET_SUBSAMPLE_DT-inf": ("inf", ["gen-dataset", "--out", "x"], "subsample_dt"),
}


@pytest.mark.parametrize("key", list(_NAN_SETTINGS))
def test_nan_setting_exits_1_before_out(fast_env, capsys, monkeypatch, key):
    # NaN fails every "must be positive" check written as not x > 0; as
    # x <= 0 it passed, and the run stalled (2) or wrote a 0/0/3 split.
    # The message names the setting.  A key's suffix after "-" names a
    # second value for the same setting.
    raw, argv, name = _NAN_SETTINGS[key]
    monkeypatch.setenv(f"ARZNO_{key.split('-')[0]}", raw)
    assert main(argv) == 1
    assert name in capsys.readouterr().err
    assert not (fast_env / "x").exists()


_BENCH = ["bench", "--n", "0", "--out", "x"]


@pytest.mark.parametrize(
    "ini, env, argv, name",
    [
        ("[controller]\nmax_iter = 200\n", None, _SIMULATE, "max_iter"),
        (None, ("ARZNO_CONTROLLER_MAX_ITER", "200"), _SIMULATE, "max_iter"),
        ("[bench]\nwarmup = 5\n", None, _BENCH, "warmup"),
        (None, ("ARZNO_BENCH_WARMUP", "5"), _BENCH, "warmup"),
        (None, None, ["gen-dataset", "--jobs", "2", "--out", "x"], "--jobs"),
        ("[controller]\nkernel_refresh_dt = 0.1\n", None, _SIMULATE,
         "kernel_refresh_dt"),
        (None, ("ARZNO_CONTROLLER_KERNEL_REFRESH_DT", "0.1"), _SIMULATE,
         "kernel_refresh_dt"),
    ],
    ids=["max_iter-file", "max_iter-env", "warmup-file", "warmup-env", "jobs",
         "kernel_refresh_dt-file", "kernel_refresh_dt-env"],
)
def test_retired_settings_exit_1_before_out(
    fast_env, capsys, monkeypatch, ini, env, argv, name
):
    # The sweep budget is solve_kernels' default, bench's warm-up count is
    # a constant, families run in one process and the kernels are
    # refreshed at every step: setting any of them, even to its old
    # default, is a usage error raised before --out exists.
    if ini is not None:
        (fast_env / "retired.ini").write_text(ini)
        argv = ["--config", "retired.ini", *argv]
    if env is not None:
        monkeypatch.setenv(*env)
    assert main(argv) == 1
    assert name in capsys.readouterr().err.lower()
    assert not (fast_env / "x").exists()


def test_numerical_failure_exits_2(fast_env, capsys, monkeypatch):
    # dt = 2 s divides the 2 s horizon but breaks the CFL bound, which
    # simulate and gen-dataset check before --out is made; a snapshot
    # every 2 s step is a valid cadence on that grid.
    monkeypatch.setenv("ARZNO_GRID_DT", "2")
    monkeypatch.setenv("ARZNO_DATASET_SUBSAMPLE_DT", "2")
    for argv in (["simulate", "--mode", "exact"], ["gen-dataset"]):
        assert main([*argv, "--out", "x"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "CFL" in err
        assert not (fast_env / "x").exists()


def test_io_errors_exit_3(fast_env, capsys):
    assert main(["simulate", "--mode", "no", "--model", "nope.bin",
                 "--out", "x"]) == 3
    assert "i/o error" in capsys.readouterr().err

    (fast_env / "junk.bin").write_bytes(b"AZNO" + b"\x01" * 7)
    assert main(["simulate", "--mode", "no", "--model", "junk.bin",
                 "--out", "x"]) == 3
    # The model is read before --out is made.
    assert not (fast_env / "x").exists()

    (fast_env / "model8.bin").write_bytes(b"NOTAMODEL")
    assert main(["eval", "--model", "model8.bin", "--data", "nowhere"]) == 3


def test_version_1_model_asks_for_retraining_and_exits_3(fast_env, capsys):
    # A format version 1 file holds a branch-trunk network, which this
    # surrogate cannot read: every command that reads a model exits 3.
    blob = b"AZNO" + struct.pack("<IIII", 1, 21, 8, 2) + struct.pack("<2I", 16, 16)
    (fast_env / "v1.bin").write_bytes(blob)
    assert main(["simulate", "--mode", "no", "--model", "v1.bin", "--out", "x"]) == 3
    assert "retrain" in capsys.readouterr().err
    assert not (fast_env / "x").exists()
    assert main(["eval", "--model", "v1.bin", "--data", "nowhere"]) == 3
    assert main(["bench", "--model", "v1.bin", "--out", "b.json"]) == 3
    assert "retrain" in capsys.readouterr().err


def test_model_with_non_utf8_parameter_name_exits_3(fast_env, capsys):
    # A parameter name that is not UTF-8 is a damaged model file (exit 3),
    # not a usage error, and it is read before --out is made.
    save_model(init_model(m=21, b=8, hidden=(16, 16)), fast_env / "good.bin")
    blob = bytearray((fast_env / "good.bin").read_bytes())
    # Magic, four u32 header fields, two hidden widths, c_scale and the
    # parameter count come before the first name's u16 length.
    start = 4 + 16 + 8 + 8 + 4
    (name_len,) = struct.unpack_from("<H", blob, start)
    blob[start + 2 : start + 2 + name_len] = b"\xff" * name_len
    (fast_env / "badname.bin").write_bytes(bytes(blob))
    assert main(["simulate", "--mode", "no", "--model", "badname.bin",
                 "--out", "x"]) == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and "not UTF-8" in err
    assert not (fast_env / "x").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_without_mesh_n_exits_3(fast_env, capsys, command):
    # A manifest that passes the format and version check but lacks a key
    # the record loader reads is a damaged corpus (exit 3), not a KeyError.
    assert main(["gen-dataset", "--out", "data"]) == 0
    save_model(init_model(m=21, b=8, hidden=(16, 16)), fast_env / "model.bin")
    part = "train" if command == "train" else "test"
    path = fast_env / "data" / f"{part}.json"
    blob = json.loads(path.read_text())
    del blob["mesh_n"]
    path.write_text(json.dumps(blob))
    capsys.readouterr()
    extra = ["--out", "trained.bin"] if command == "train" else ["--model", "model.bin"]
    assert main([command, "--data", "data", *extra]) == 3
    assert "lacks 'mesh_n'" in capsys.readouterr().err
    assert not (fast_env / "trained.bin").exists()


def test_simulate_requires_known_mode(fast_env, capsys):
    assert main(["simulate", "--mode", "magic"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode,key", [("exact", "converged"), ("open-loop", "amplitude_ratio")]
)
def test_zero_initial_state_reports_no_decay_ratio(
    fast_env, capsys, monkeypatch, mode, key
):
    # At equilibrium nothing decays: the ratio and the verdict are
    # undefined, not a perfect 0.0 that reads as convergence.
    monkeypatch.setenv("ARZNO_CONTROLLER_IC", "zero")
    assert main(["simulate", "--mode", mode, "--out", "z"]) == 0
    report = json.loads((fast_env / "z" / "report.json").read_text())
    assert report["initial_norm"] == 0.0
    assert report["final_over_initial"] is None
    assert report[key] is None
    assert "undefined" in capsys.readouterr().out
    # The estimate never moves, so one acquisition serves every refresh.
    assert report["kernel_acquisitions"] == (1 if mode == "exact" else 0)
    assert (report["table_time_total_ns"] > 0) == (mode == "exact")


def test_zero_validation_share_trains_and_empty_test_split_exits_1(
    fast_env, capsys, monkeypatch
):
    # A zero share writes a part with no families; train treats the empty
    # val.json as absent and carves val_split off the training records.
    monkeypatch.setenv("ARZNO_DATASET_SPLIT", "1.0,0.0,0.0")
    assert main(["gen-dataset", "--out", "data"]) == 0
    for part in ("val", "test"):
        blob = json.loads((fast_env / "data" / f"{part}.json").read_text())
        assert blob["families"] == []
    assert main(["train", "--data", "data", "--out", "model.bin"]) == 0
    rows = (fast_env / "model.history.csv").read_text().splitlines()[2:]
    assert len(rows) == 3 and all(row.split(",")[2] != "inf" for row in rows)

    # eval has nothing to score and says which split is empty.
    capsys.readouterr()
    assert main(["eval", "--model", "model.bin", "--data", "data"]) == 1
    err = capsys.readouterr().err
    assert "test.json" in err and "test split is empty" in err
    assert not (fast_env / "eval.json").exists()


def test_zero_train_share_exits_1_and_writes_no_model(fast_env, capsys, monkeypatch):
    # A zero train share writes a train.json with no families; train says
    # which split is empty instead of failing on an empty record set.
    monkeypatch.setenv("ARZNO_DATASET_SPLIT", "0,0.5,0.5")
    assert main(["gen-dataset", "--out", "data"]) == 0
    capsys.readouterr()
    assert main(["train", "--data", "data", "--out", "model.bin"]) == 1
    err = capsys.readouterr().err
    assert "train.json" in err and "train split is empty" in err
    assert "nonzero train share" in err
    assert not (fast_env / "model.bin").exists()


def test_damaged_record_header_exits_3(fast_env, capsys):
    assert main(["gen-dataset", "--out", "data"]) == 0
    fam = json.loads((fast_env / "data" / "train.json").read_text())["families"][0]
    path = fast_env / "data" / fam["path"]
    blob = bytearray(path.read_bytes())
    # Entry 4's record header: after its f64 t, u32 m and 21 f64 estimates.
    start = 4 * fam["entry_bytes"] + 12 + 8 * 21
    blob[start : start + 4] = struct.pack("<I", 22)
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["train", "--data", "data", "--out", "model.bin"]) == 3
    assert "record mesh 22 != 21 (entry 4)" in capsys.readouterr().err
    assert not (fast_env / "model.bin").exists()


def test_uncoverable_split_exits_1_before_generating(fast_env, capsys, monkeypatch):
    # One family cannot cover the default 0.8/0.1/0.1 split: the command
    # fails before it simulates or writes any family.
    monkeypatch.setenv("ARZNO_DATASET_N_FAMILIES", "1")
    assert main(["gen-dataset", "--out", "data"]) == 1
    assert "1 families cannot cover 3 nonzero splits" in capsys.readouterr().err
    assert not list(fast_env.glob("data/family_*.bin"))

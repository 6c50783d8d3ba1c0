"""End-to-end tests of the command-line workflow (in-process)."""

import configparser
import json
import logging

import pytest

from arzno.cli import main
from arzno.config import DEFAULTS

# Small-but-real settings so the whole chain runs in seconds.
_FAST_ENV = {
    "ARZNO_GRID_T_END": "2.0",
    "ARZNO_CONTROLLER_MESH_N": "21",
    "ARZNO_DATASET_N_FAMILIES": "3",
    "ARZNO_DEEPONET_EPOCHS": "3",
    "ARZNO_DEEPONET_B": "8",
    "ARZNO_DEEPONET_HIDDEN": "16,16",
    "ARZNO_BENCH_N": "3",
    "ARZNO_BENCH_WARMUP": "1",
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
    assert (root / "ol" / "fields.csv").exists()
    assert not (root / "ol" / "refresh.csv").exists()

    assert main(["simulate", "--mode", "exact", "--out", "ex"]) == 0
    report = json.loads((root / "ex" / "report.json").read_text())
    assert "converged" in report and report["n_refreshes"] == 20
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
    assert report["n"] == 3 and report["warmup"] == 1
    assert report["median_speedup"] > 0
    assert report["solver"]["median_ns"] > report["neural"]["median_ns"]
    assert "paired_kernel_error" in report
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

    monkeypatch.setenv("ARZNO_GRID_N_X", "sixty")
    assert main(["simulate", "--mode", "exact"]) == 1
    monkeypatch.delenv("ARZNO_GRID_N_X")

    # 0.25 s is not a whole number of 0.1 s steps.
    monkeypatch.setenv("ARZNO_GRID_T_END", "0.25")
    assert main(["simulate", "--mode", "exact", "--out", "x"]) == 1
    assert "t_end must be a multiple of dt" in capsys.readouterr().err


def test_numerical_failure_exits_2(fast_env, capsys, monkeypatch):
    # dt = 2 s divides the 2 s horizon but breaks the CFL bound.
    monkeypatch.setenv("ARZNO_GRID_DT", "2")
    assert main(["simulate", "--mode", "exact", "--out", "x"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_io_errors_exit_3(fast_env, capsys):
    assert main(["simulate", "--mode", "no", "--model", "nope.bin",
                 "--out", "x"]) == 3
    assert "i/o error" in capsys.readouterr().err

    (fast_env / "junk.bin").write_bytes(b"AZNO" + b"\x01" * 7)
    assert main(["simulate", "--mode", "no", "--model", "junk.bin",
                 "--out", "x"]) == 3

    (fast_env / "model8.bin").write_bytes(b"NOTAMODEL")
    assert main(["eval", "--model", "model8.bin", "--data", "nowhere"]) == 3


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

"""Tests for the layered configuration: defaults, file, environment."""

import pytest

from arzno import config as cfgmod
from arzno.config import (
    ConfigError,
    DEFAULTS,
    bench_options,
    build_controller,
    build_grid,
    build_traffic,
    build_train,
    config_hash,
    dataset_options,
    deeponet_options,
    load_config,
    write_default_config,
)
from arzno.controller import ControllerConfig


def test_defaults_without_file_or_env(monkeypatch):
    for var in list(DEFAULTS):
        monkeypatch.delenv(f"ARZNO_{var.upper()}_SEED", raising=False)
    cfg = load_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller gets a private copy
    cfg["grid"]["n_x"] = "999"
    assert DEFAULTS["grid"]["n_x"] == "60"


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nn_x = 80\n\n[controller]\nmesh_n = 21\n")
    cfg = load_config(path)
    assert cfg["grid"]["n_x"] == "80"
    assert cfg["controller"]["mesh_n"] == "21"
    assert cfg["grid"]["dt"] == "0.1"


def test_unknown_file_entries_are_named(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[gird]\nn_x = 80\n")
    with pytest.raises(ConfigError, match=r"unknown section \[gird\]"):
        load_config(path)
    path.write_text("[grid]\nn_xx = 80\n")
    with pytest.raises(ConfigError, match="unknown key 'n_xx'"):
        load_config(path)
    # None selects anything: the model argument picks the kernel path,
    # bench draws no random numbers, and the corpus always draws tau
    # i.i.d. and stores the estimate the loop acquired kernels for.
    retired = (
        ("controller", "kernel_source"), ("bench", "seed"),
        ("dataset", "equispaced"), ("dataset", "c_source"),
    )
    for section, key in retired:
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini")
    path.write_text("n_x = 80\n")  # key before any section header
    with pytest.raises(ConfigError):
        load_config(path)


def test_environment_beats_file(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text("[grid]\nn_x = 80\n")
    monkeypatch.setenv("ARZNO_GRID_N_X", "120")
    cfg = load_config(path)
    assert cfg["grid"]["n_x"] == "120"
    monkeypatch.delenv("ARZNO_GRID_N_X")
    assert load_config(path)["grid"]["n_x"] == "80"


@pytest.mark.parametrize(
    "name",
    [
        "ARZNO_GRID_NX",
        "ARZNO_CONTROLLER_KERNEL_SOURCE",
        "ARZNO_GIRD_N_X",
        "ARZNO_DATASET_C_SOURCE",
    ],
)
def test_unknown_environment_variables_are_named(monkeypatch, name):
    # An ARZNO_ variable that names no key fails like the same key in a
    # file, instead of being ignored.
    monkeypatch.setenv(name, "80")
    monkeypatch.setenv("ARZNO_GRID_N_X", "120")
    with pytest.raises(ConfigError, match=name):
        load_config()
    monkeypatch.delenv(name)
    assert load_config()["grid"]["n_x"] == "120"


def test_config_hash_is_stable_and_sensitive():
    a = load_config()
    b = load_config()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)
    b["grid"]["n_x"] = "61"
    assert config_hash(a) != config_hash(b)


def test_write_default_config_round_trips(tmp_path):
    path = tmp_path / "defaults.ini"
    write_default_config(path)
    assert load_config(path) == DEFAULTS


def test_build_traffic_converts_density_units():
    p = build_traffic(load_config())
    assert p.rho_m == pytest.approx(0.160)
    assert p.rho_star == pytest.approx(0.120)
    assert p.v_f == 40.0 and p.length == 600.0


def test_build_grid_and_controller():
    cfg = load_config()
    g = build_grid(cfg)
    assert (g.n_x, g.dt, g.t_end) == (60, 0.1, 300.0)
    ctl = build_controller(cfg)
    assert ctl == ControllerConfig() and ctl.mesh_n == 41


def test_build_train_and_option_views():
    cfg = load_config()
    tc = build_train(cfg)
    assert (tc.lr, tc.batch_size, tc.epochs) == (1e-3, 256, 400)
    ds = dataset_options(cfg)
    assert ds["tau_range"] == (50.0, 70.0)
    assert ds["split"] == (0.8, 0.1, 0.1)
    nn = deeponet_options(cfg)
    assert nn["b"] == 32 and nn["hidden"] == (64, 64)
    bench = bench_options(cfg)
    assert bench == {"n": 100}


def test_every_default_key_is_parsed(read_log):
    # Each shipped key must be read by a build_* function or an option
    # view; a key that none of them reads is a setting that does nothing.
    seen: dict[str, set] = {section: set() for section in DEFAULTS}
    cfg = {s: read_log(kv, seen[s]) for s, kv in load_config().items()}
    views = [
        name for name in cfgmod.__all__
        if name.startswith("build_") or name.endswith("_options")
    ]
    assert len(views) == 7
    for name in views:
        getattr(cfgmod, name)(cfg)
    assert seen == {s: set(kv) for s, kv in DEFAULTS.items()}


@pytest.mark.parametrize("key", ["n"])
def test_bench_counts_must_be_non_negative(monkeypatch, key):
    monkeypatch.setenv(f"ARZNO_BENCH_{key.upper()}", "-3")
    with pytest.raises(ConfigError, match=rf"\[bench\] {key} = -3"):
        bench_options(load_config())
    monkeypatch.setenv(f"ARZNO_BENCH_{key.upper()}", "0")
    assert bench_options(load_config())[key] == 0


def test_hidden_widths_parse_from_csv(monkeypatch):
    monkeypatch.setenv("ARZNO_DEEPONET_HIDDEN", "16,16,8")
    assert deeponet_options(load_config())["hidden"] == (16, 16, 8)


def test_bad_values_name_section_and_key(monkeypatch):
    # The builders read a section field by field and convert by the type
    # of the field's default, so a bad value names its own key.
    for build, section, key, raw in (
        (build_grid, "grid", "n_x", "sixty"),
        (build_traffic, "traffic", "rho_m_veh_km", "jam"),
        (build_traffic, "traffic", "tau", "slow"),
        (build_controller, "controller", "mesh_n", "2.5"),
        (build_train, "deeponet", "batch_size", "big"),
    ):
        name = f"ARZNO_{section.upper()}_{key.upper()}"
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{raw}'"):
            build(load_config())
        monkeypatch.delenv(name)

    monkeypatch.setenv("ARZNO_DATASET_SPLIT", "0.8,0.2")
    with pytest.raises(ConfigError, match="three components"):
        dataset_options(load_config())


def test_semantic_errors_wrap_as_config_errors(monkeypatch):
    # A parseable value that violates a dataclass invariant still
    # surfaces as a ConfigError naming the section.
    monkeypatch.setenv("ARZNO_GRID_N_X", "-3")
    with pytest.raises(ConfigError, match=r"\[grid\]"):
        build_grid(load_config())
    monkeypatch.delenv("ARZNO_GRID_N_X")
    monkeypatch.setenv("ARZNO_CONTROLLER_IC", "box")
    with pytest.raises(ConfigError, match=r"\[controller\]"):
        build_controller(load_config())



@pytest.mark.parametrize(
    "key, raw",
    [("tol", "-1"), ("tol", "0"), ("tol", "nan")],
)
def test_solver_settings_are_checked_at_load(monkeypatch, key, raw):
    # A tol that is not > 0 would send every iterative solve (`arzno
    # bench`'s) through the whole sweep budget to a ConvergenceError.
    monkeypatch.setenv(f"ARZNO_CONTROLLER_{key.upper()}", raw)
    with pytest.raises(ConfigError, match=r"\[controller\].*tol must be positive"):
        build_controller(load_config())

"""Layered INI configuration: shipped defaults, file, environment.

Every physical and algorithmic parameter lives in one flat INI file
with sections [traffic], [grid], [controller], [deeponet], [dataset],
[bench].  Precedence is defaults < file < environment, where the
environment override for section S key K is ARZNO_<S>_<K> (upper case);
any other ARZNO_ variable is an error, as an unknown key in a file is.
Sections that back a dataclass are read field by field: each key names
a field and is converted by the type of that field's default.
A 12-hex-digit digest of the merged configuration is embedded in run
artifacts so downstream commands can detect mismatched inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import fields
from pathlib import Path

from arzno.controller import ControllerConfig
from arzno.deeponet import TrainConfig
from arzno.model import TrafficParams
from arzno.sim import GridSpec

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "ENV_PREFIX",
    "load_config",
    "config_hash",
    "write_default_config",
    "build_traffic",
    "build_grid",
    "build_controller",
    "build_train",
    "dataset_options",
    "deeponet_options",
    "bench_options",
]

ENV_PREFIX = "ARZNO"

# Shipped defaults; densities in veh/km and road length in m, matching
# the usual traffic-engineering units, converted on build.
DEFAULTS: dict[str, dict[str, str]] = {
    "traffic": {
        "v_f": "40.0",
        "rho_m_veh_km": "160.0",
        "rho_star_veh_km": "120.0",
        "tau": "60.0",
        "gamma0": "1.0",
        "length": "600.0",
    },
    "grid": {
        "n_x": "60",
        "dt": "0.1",
        "t_end": "300.0",
    },
    "controller": {
        "mesh_n": "41",
        "tol": "1e-8",
        "rho_gain": "0.05",
        "gamma": "1.0",
        "gamma1": "0.01",
        "tau_guess": "60.0",
        "c_bar": "0.02",
        "ic": "sine",
    },
    "deeponet": {
        "b": "32",
        "hidden": "64,64",
        "lr": "1e-3",
        "batch_size": "256",
        "epochs": "400",
        "val_split": "0.1",
        "seed": "0",
        "model_path": "model.bin",
    },
    "dataset": {
        "n_families": "10",
        "tau_lo": "50.0",
        "tau_hi": "70.0",
        "subsample_dt": "0.1",
        "seed": "0",
        "out_dir": "dataset",
        "split": "0.8,0.1,0.1",
        "split_seed": "0",
    },
    "bench": {
        "n": "100",
    },
}


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


def load_config(path: str | Path | None = None) -> dict[str, dict[str, str]]:
    """Merge defaults, the optional file, and environment overrides.

    Unknown sections or keys in the file, and environment variables
    that start with ARZNO_ but name no known key, are rejected with the
    offending name so typos surface immediately.

    Raises:
        ConfigError: unreadable or malformed file, or unknown keys.
    """
    cfg = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from exc
        for section in parser.sections():
            if section not in cfg:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in cfg[section]:
                    raise ConfigError(
                        f"{path}: unknown key '{key}' in section [{section}]"
                    )
                cfg[section][key] = value
    names = {
        f"{ENV_PREFIX}_{section.upper()}_{key.upper()}": (section, key)
        for section, kv in cfg.items()
        for key in kv
    }
    for env in sorted(os.environ):
        if env.startswith(f"{ENV_PREFIX}_"):
            if env not in names:
                raise ConfigError(f"unknown environment variable {env}")
            section, key = names[env]
            cfg[section][key] = os.environ[env]
    return cfg


def config_hash(cfg: dict[str, dict[str, str]]) -> str:
    """12-hex digest of the merged configuration."""
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_default_config(path: str | Path) -> None:
    """Write the shipped defaults as an editable INI file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(DEFAULTS)
    with open(path, "w") as fh:
        parser.write(fh)


def _get(cfg: dict, section: str, key: str, conv, what: str):
    raw = cfg[section][key]
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: expected {what}") from exc


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _build(cls, cfg: dict, section: str, **given):
    """cls from the keys of section named like its fields.

    Each field not in given is read from the section and converted by
    the type of the field's default; a value the dataclass rejects
    surfaces as a ConfigError naming the section.
    """
    for f in fields(cls):
        if f.name not in given:
            kind = type(f.default)
            given[f.name] = _get(cfg, section, f.name, kind, _KINDS[kind])
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from exc


def build_traffic(cfg: dict) -> TrafficParams:
    """Physical parameters; densities converted from veh/km to veh/m."""
    veh_km = {
        name: _get(cfg, "traffic", f"{name}_veh_km", float, "a number") / 1000.0
        for name in ("rho_m", "rho_star")
    }
    return _build(TrafficParams, cfg, "traffic", **veh_km)


def build_grid(cfg: dict) -> GridSpec:
    return _build(GridSpec, cfg, "grid")


def build_controller(cfg: dict) -> ControllerConfig:
    return _build(ControllerConfig, cfg, "controller")


def build_train(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, "deeponet")


def dataset_options(cfg: dict) -> dict:
    """Typed view of the [dataset] section."""
    split = _get(cfg, "dataset", "split", _floats, "comma-separated shares")
    if len(split) != 3:
        raise ConfigError("[dataset] split must have three components")
    return {
        "n_families": _get(cfg, "dataset", "n_families", int, "an integer"),
        "tau_range": (
            _get(cfg, "dataset", "tau_lo", float, "a number"),
            _get(cfg, "dataset", "tau_hi", float, "a number"),
        ),
        "subsample_dt": _get(cfg, "dataset", "subsample_dt", float, "a number"),
        "seed": _get(cfg, "dataset", "seed", int, "an integer"),
        "out_dir": cfg["dataset"]["out_dir"],
        "split": split,
        "split_seed": _get(cfg, "dataset", "split_seed", int, "an integer"),
    }


def deeponet_options(cfg: dict) -> dict:
    """Typed view of the [deeponet] section beyond TrainConfig."""
    return {
        "b": _get(cfg, "deeponet", "b", int, "an integer"),
        "hidden": _get(cfg, "deeponet", "hidden", _ints, "comma-separated ints"),
        "model_path": cfg["deeponet"]["model_path"],
    }


def bench_options(cfg: dict) -> dict:
    n = _get(cfg, "bench", "n", int, "an integer")
    if n < 0:
        raise ConfigError(f"[bench] n = {n}: must be non-negative")
    return {"n": n}

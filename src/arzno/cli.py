"""Command-line entry point.

Subcommands cover the full workflow: simulate (open-loop, exact-kernel,
or surrogate-in-the-loop), gen-dataset, train, eval, bench, and
write-config.  Every run is reproducible from (config file, seed); the
merged-config digest is embedded in all artifacts and checked when one
command consumes another's output.

Exit codes: 0 success, 1 usage or configuration, 2 numerical
instability or non-convergence, 3 I/O or file-format problems.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from arzno import config as cfgmod
from arzno import dataset as dsmod
from arzno.config import ConfigError
from arzno.controller import run_closed_loop
from arzno.deeponet import (
    ModelFormatError,
    NeuralKernelSource,
    eval_accuracy,
    init_model,
    load_model,
    save_model,
    train,
)
from arzno.kernels import ConvergenceError, TriMesh, solve_kernels
from arzno.model import derive_linearized
from arzno.sim import CFLError, InstabilityError, check_cfl

__all__ = ["main"]

log = logging.getLogger("arzno")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on errors; route through UsageError
    instead so exit codes stay per contract (2 means instability)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _check_hash(artifact_hash: str | None, current: str, what: str) -> None:
    if artifact_hash and artifact_hash != current:
        log.warning(
            "CONFIG MISMATCH: %s was produced under config %s but the "
            "current config hashes to %s; results may not correspond",
            what, artifact_hash, current,
        )


def _read_model(path: str | Path):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"model file not found: {p}")
    return load_model(p)


def _sim_stats(tr) -> dict:
    """Summary norms of a run; the decay ratio is None (JSON null) when the
    initial state is the equilibrium, where no ratio exists."""
    init = max(tr.u_norm[0], tr.v_norm[0])
    final = max(tr.u_norm[-1], tr.v_norm[-1])
    return {
        "initial_norm": float(init),
        "final_norm": float(final),
        "final_over_initial": float(final / init) if init > 0 else None,
        "u_norm_final": float(tr.u_norm[-1]),
        "v_norm_final": float(tr.v_norm[-1]),
        "e_norm_final": float(tr.e_norm[-1]),
        "eps_norm_final": float(tr.eps_norm[-1]),
        "kernel_time_total_ns": int(np.sum(tr.kernel_ns)),
        "table_time_total_ns": tr.table_ns,
        "n_refreshes": int(len(tr.refresh_t)),
        "kernel_acquisitions": tr.kernel_acquisitions,
    }


def cmd_simulate(args, cfg) -> int:
    chash = cfgmod.config_hash(cfg)
    p = cfgmod.build_traffic(cfg)
    g = cfgmod.build_grid(cfg)
    mode = args.mode
    ctl = cfgmod.build_controller(cfg)
    model = None
    if mode == "no":
        model = _read_model(args.model or cfgmod.deeponet_options(cfg)["model_path"])
    check_cfl(g, derive_linearized(p))  # before --out exists, like the model read
    out = Path(args.out or f"run_{mode.replace('-', '_')}")
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    tr = run_closed_loop(p, ctl, g, model=model, open_loop=(mode == "open-loop"))
    wall = time.perf_counter() - t0

    comments = (f"config_hash={chash}", f"mode={mode}")
    tr.write_csv(out / "trace.csv", comments=comments)
    tr.write_fields_csv(out / "fields.npz", comments=comments)
    tr.write_refresh_csv(out / "refresh.csv", comments=comments)

    stats = _sim_stats(tr)
    ratio = stats["final_over_initial"]
    report = {
        "mode": mode,
        "config_hash": chash,
        "wall_s": round(wall, 3),
        **stats,
    }
    if mode == "open-loop":
        report["amplitude_ratio"] = ratio
    else:
        report["converged"] = None if ratio is None else ratio <= 0.02
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    log.info("%s run finished in %.2fs; artifacts in %s", mode, wall, out)
    shown = "undefined (zero initial state)" if ratio is None else f"{ratio:.3e}"
    print(f"{mode}: final/initial state norm = {shown} (wall {wall:.2f}s) -> {out}")
    return EXIT_OK


def cmd_gen_dataset(args, cfg) -> int:
    chash = cfgmod.config_hash(cfg)
    p = cfgmod.build_traffic(cfg)
    g = cfgmod.build_grid(cfg)
    ctl = cfgmod.build_controller(cfg)
    opts = cfgmod.dataset_options(cfg)
    out = Path(args.out or opts["out_dir"])
    # Fail on a split the family count cannot cover before simulating.
    dsmod.split_counts(opts["split"], opts["n_families"])

    t0 = time.perf_counter()
    manifest = dsmod.generate(
        p,
        opts["n_families"],
        opts["tau_range"],
        opts["subsample_dt"],
        out,
        seed=opts["seed"],
        g=g,
        cfg=ctl,
        config_hash=chash,
    )
    parts = dsmod.split(manifest, opts["split"], seed=opts["split_seed"])
    for name, part in zip(("train", "val", "test"), parts):
        slim = {k: v for k, v in part.items() if k != "root"}
        (out / f"{name}.json").write_text(json.dumps(slim, indent=2) + "\n")

    wall = time.perf_counter() - t0
    print(
        f"dataset: {manifest['n_records']} records in {len(manifest['families'])} "
        f"families ({len(manifest['skipped'])} skipped), split "
        f"{'/'.join(str(len(q['families'])) for q in parts)} -> {out} "
        f"(wall {wall:.1f}s)"
    )
    return EXIT_OK


def cmd_train(args, cfg) -> int:
    chash = cfgmod.config_hash(cfg)
    opts = cfgmod.dataset_options(cfg)
    net = cfgmod.deeponet_options(cfg)
    tc = cfgmod.build_train(cfg)
    if args.epochs is not None:
        tc = replace(tc, epochs=args.epochs)

    data_dir = Path(args.data or opts["out_dir"])
    train_path = data_dir / "train.json"
    val_path = data_dir / "val.json"
    if train_path.exists():
        man_train = dsmod.load_manifest(train_path)
        if not man_train["families"]:
            raise UsageError(
                f"{train_path} lists no training families: the train split is "
                "empty; give the [dataset] split a nonzero train share"
            )
        man_val = dsmod.load_manifest(val_path) if val_path.exists() else None
    else:
        man_train = dsmod.load_manifest(data_dir / "manifest.json")
        man_val = None
    ds_train = dsmod.load_records(man_train)
    # A part with no families, as a zero validation share writes, counts
    # as absent: train then carves val_split off the training records.
    ds_val = dsmod.load_records(man_val) if man_val and man_val["families"] else None
    _check_hash(man_train.get("config_hash"), chash, str(data_dir))

    c_scale = float(np.max(np.abs(ds_train.c)))
    model = init_model(
        m=ds_train.c.shape[1],
        b=net["b"],
        hidden=net["hidden"],
        seed=tc.seed,
        c_scale=c_scale if c_scale > 0 else 0.02,
    )
    t0 = time.perf_counter()
    model, history = train(ds_train, tc, model=model, val_data=ds_val)
    wall = time.perf_counter() - t0

    first = [h["train_mse"] for h in history[: min(5, len(history))]]
    if any(b >= a for a, b in zip(first, first[1:])):
        log.warning("training loss not monotone over the first epochs: %s", first)

    out = Path(args.out or net["model_path"])
    save_model(model, out)
    hist_path = out.with_suffix(".history.csv")
    lines = [f"# config_hash={chash}", "epoch,train_mse,val_mse,val_rel"]
    for h in history:
        lines.append(
            f"{int(h['epoch'])},{h['train_mse']!r},{h['val_mse']!r},{h['val_rel']!r}"
        )
    hist_path.write_text("\n".join(lines) + "\n")

    last = history[-1]
    # A median by hand: numpy's first median pages in about 1 MB of code.
    ranked = sorted(h["epoch_s"] for h in history)
    median = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2
    print(
        f"train: {len(history)} epochs in {wall:.1f}s (basis and targets "
        f"{wall - sum(ranked):.3f}s, median {median:.4f}s per epoch); "
        f"final train mse {last['train_mse']:.3e}, val rel {last['val_rel']:.3e} -> {out}"
    )
    return EXIT_OK


def _physical_gap(tr_a, tr_b) -> dict:
    """Max/mean absolute gaps between two runs in physical units."""
    d_rho = np.abs(tr_a.rho - tr_b.rho) * 1000.0
    d_spd = np.abs(tr_a.speed - tr_b.speed) * 3.6
    return {
        "density_max": float(d_rho.max()),
        "density_mean": float(d_rho.mean()),
        "speed_max": float(d_spd.max()),
        "speed_mean": float(d_spd.mean()),
    }


def cmd_eval(args, cfg) -> int:
    chash = cfgmod.config_hash(cfg)
    opts = cfgmod.dataset_options(cfg)
    model = _read_model(args.model or cfgmod.deeponet_options(cfg)["model_path"])

    data_dir = Path(args.data or opts["out_dir"])
    test_path = data_dir / "test.json"
    if not test_path.exists():
        test_path = data_dir / "manifest.json"
    man = dsmod.load_manifest(test_path)
    if not man["families"]:
        raise UsageError(
            f"{test_path} lists no test families: the test split is empty; "
            "give the [dataset] split a nonzero test share"
        )
    _check_hash(man.get("config_hash"), chash, str(data_dir))
    ds = dsmod.load_records(man)
    kernel_report = eval_accuracy(model, ds)

    p = cfgmod.build_traffic(cfg)
    g = cfgmod.build_grid(cfg)
    ctl = cfgmod.build_controller(cfg)
    tr_exact = run_closed_loop(p, ctl, g)
    tr_no = run_closed_loop(p, ctl, g, model=model)
    phys = _physical_gap(tr_exact, tr_no)

    rows = [
        ("kernel Ku", kernel_report["ku_max"], kernel_report["ku_mean"]),
        ("kernel Kv", kernel_report["kv_max"], kernel_report["kv_mean"]),
        ("density (veh/km)", phys["density_max"], phys["density_mean"]),
        ("speed (km/h)", phys["speed_max"], phys["speed_mean"]),
    ]
    width = max(len(r[0]) for r in rows)
    table = [f"{'quantity':<{width}}  {'max':>12}  {'mean':>12}"]
    for name, mx, mean in rows:
        table.append(f"{name:<{width}}  {mx:12.4e}  {mean:12.4e}")
    text = "\n".join(table)
    print(text)

    out = Path(args.out or "eval.json")
    out.write_text(
        json.dumps(
            {
                "config_hash": chash,
                "records": len(ds),
                "kernel": kernel_report,
                "physical": phys,
            },
            indent=2,
        )
        + "\n"
    )
    log.info("eval report -> %s", out)
    return EXIT_OK


def _percentiles(ns: np.ndarray) -> dict:
    return {
        "median_ns": float(np.median(ns)),
        "p10_ns": float(np.percentile(ns, 10)),
        "p90_ns": float(np.percentile(ns, 90)),
    }


# Samples timed ahead of the n reported ones, to warm caches, and dropped.
_BENCH_WARMUP = 5


def cmd_bench(args, cfg) -> int:
    chash = cfgmod.config_hash(cfg)
    opts = cfgmod.bench_options(cfg)
    n = opts["n"] if args.n is None else args.n
    if n < 0:
        raise UsageError(f"--n {n}: the sample count must be non-negative")
    out = Path(args.out or "bench.json")
    if n == 0:
        report = {"config_hash": chash, "n": 0, "samples": []}
        out.write_text(json.dumps(report, indent=2) + "\n")
        print("bench: no samples requested")
        return EXIT_OK

    model = _read_model(args.model or cfgmod.deeponet_options(cfg)["model_path"])
    p = cfgmod.build_traffic(cfg)
    g = cfgmod.build_grid(cfg)
    ctl = cfgmod.build_controller(cfg)
    lp = derive_linearized(p)
    mesh = TriMesh(ctl.mesh_n)

    # Criterion 5 times the classical solver; the loop solves directly.
    def solver(c_mesh: np.ndarray):
        return solve_kernels(c_mesh, lp, mesh, tol=ctl.tol, c_bound=ctl.c_bar)

    def direct(c_mesh: np.ndarray):
        return solve_kernels(c_mesh, lp, mesh, c_bound=ctl.c_bar)

    neural = NeuralKernelSource(model, mesh, lp).acquire

    # Realistic inputs: estimates harvested from the refreshes of a short
    # adaptive run, one per step, cycled to fill n samples.
    inputs: list[np.ndarray] = []
    harvest = min(max(n, 1), 200)
    g_short = type(g)(n_x=g.n_x, dt=g.dt, t_end=harvest * g.dt)
    run_closed_loop(
        p, ctl, g_short,
        on_refresh=lambda t, c_mesh, kp, ns: inputs.append(c_mesh.copy()),
    )
    w = _BENCH_WARMUP
    samples = [inputs[i % len(inputs)] for i in range(w + n)]

    # Each path is timed in its own contiguous loop so one path's cache
    # footprint does not tax the other's measurements; inputs, order,
    # and sample counts are identical.  Outputs are discarded inside the
    # timed region (allocator stays warm, as in the control loop, which
    # drops each pair when the next refresh lands) and every sample is
    # repeated a few times with the mean taken, which filters scheduler
    # noise out of single-shot readings.
    reps = 5

    def _time_path(acquire) -> np.ndarray:
        out = np.empty(len(samples))
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            for i, c in enumerate(samples):
                t0 = time.perf_counter_ns()
                for _ in range(reps):
                    acquire(c)
                out[i] = (time.perf_counter_ns() - t0) / reps
        finally:
            if gc_was_on:
                gc.enable()
        return out

    t_solver = _time_path(solver)
    t_neural = _time_path(neural)
    t_direct = _time_path(direct)
    errs = [
        (
            np.max(np.abs(kp_s.ku_tri - kp_n.ku_tri)),
            np.max(np.abs(kp_s.kv_tri - kp_n.kv_tri)),
        )
        for kp_s, kp_n in (
            (solver(c), neural(c)) for c in samples
        )
    ]
    err_u = np.array([e[0] for e in errs])
    err_v = np.array([e[1] for e in errs])
    t_solver, t_neural, t_direct = t_solver[w:], t_neural[w:], t_direct[w:]
    err_u, err_v = err_u[w:], err_v[w:]

    wall0 = time.perf_counter()
    run_closed_loop(p, ctl, g)
    loop_direct_s = time.perf_counter() - wall0
    wall0 = time.perf_counter()
    run_closed_loop(p, ctl, g, model=model)
    loop_neural_s = time.perf_counter() - wall0

    ratio = float(np.median(t_solver) / np.median(t_neural))
    direct_ratio = float(np.median(t_direct) / np.median(t_neural))
    report = {
        "config_hash": chash,
        "n": n,
        "warmup": w,
        "mesh_n": ctl.mesh_n,
        "tol": ctl.tol,
        "solver": _percentiles(t_solver),
        "neural": _percentiles(t_neural),
        "direct": _percentiles(t_direct),
        "median_speedup": ratio,
        "direct_speedup": direct_ratio,
        "paired_kernel_error": {
            "ku_max": float(err_u.max()),
            "kv_max": float(err_v.max()),
        },
        "closed_loop_wall_s": {
            "direct": round(loop_direct_s, 3),
            "neural": round(loop_neural_s, 3),
        },
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"bench: solver median {np.median(t_solver) / 1e3:.0f} us, neural median "
        f"{np.median(t_neural) / 1e3:.0f} us, speedup {ratio:.1f}x; direct median "
        f"{np.median(t_direct) / 1e3:.0f} us ({direct_ratio:.1f}x); "
        f"paired sup error Ku {err_u.max():.2e} Kv {err_v.max():.2e}; "
        f"closed loop direct {loop_direct_s:.1f}s vs neural {loop_neural_s:.1f}s -> {out}"
    )
    return EXIT_OK


def cmd_write_config(args, cfg) -> int:
    out = Path(args.out or "arzno.ini")
    cfgmod.write_default_config(out)
    print(f"wrote default config -> {out}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="arzno", description=__doc__)
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="debug logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one closed- or open-loop simulation")
    sim.add_argument(
        "--mode", required=True, choices=("open-loop", "exact", "no")
    )
    sim.add_argument("--model", help="trained model (mode=no)")
    sim.add_argument("--out", help="artifact directory")
    sim.set_defaults(func=cmd_simulate)

    gen = sub.add_parser("gen-dataset", help="generate the training corpus")
    gen.add_argument("--out", help="dataset directory")
    gen.set_defaults(func=cmd_gen_dataset)

    trn = sub.add_parser("train", help="fit the kernel surrogate")
    trn.add_argument("--data", help="dataset directory")
    trn.add_argument("--out", help="model output path")
    trn.add_argument("--epochs", type=int, help="override epoch count")
    trn.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="accuracy report on held-out data")
    ev.add_argument("--model", help="trained model path")
    ev.add_argument("--data", help="dataset directory")
    ev.add_argument("--out", help="report path (json)")
    ev.set_defaults(func=cmd_eval)

    ben = sub.add_parser("bench", help="paired timing of both kernel paths")
    ben.add_argument("--model", help="trained model path")
    ben.add_argument("--n", type=int, help="sample count override")
    ben.add_argument("--out", help="report path (json)")
    ben.set_defaults(func=cmd_bench)

    wc = sub.add_parser("write-config", help="emit the default configuration")
    wc.add_argument("--out", help="output path (default arzno.ini)")
    wc.set_defaults(func=cmd_write_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verbose:
            logging.getLogger().setLevel(logging.DEBUG)
        cfg = cfgmod.load_config(args.config)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstabilityError, CFLError, ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        ModelFormatError,
        dsmod.DatasetFormatError,
        FileNotFoundError,
        OSError,
    ) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: end-to-end checks at shipped defaults.

Each test exercises one headline behavior of the package on the default
configuration (full 300 s horizon, 41-node kernel mesh, 30,000-record
corpus), records a single PASS/FAIL line with the measured values via
the criterion_report fixture, and then asserts the stated floor.  The
lines are echoed in a terminal section after the run.
"""

import json
import shutil
import time

import numpy as np
import pytest

from arzno.cli import main as cli_main
from arzno.controller import (
    ControllerConfig,
    inverse_transform_on_mesh,
    run_closed_loop,
    transform_on_mesh,
)
from arzno.dataset import _entry, generate, iter_family, load_records, split
from arzno.deeponet import (
    KernelDataset,
    TrainConfig,
    eval_accuracy,
    init_model,
    load_model,
    loss_and_grads,
    save_model,
    train,
)
from arzno.kernels import TriMesh, _kv_from_edge, solve_inverse_kernels, solve_kernels
from arzno.sim import GridSpec, step_identifier, step_plant, update_c_hat


@pytest.fixture(scope="module")
def grid():
    return GridSpec()


@pytest.fixture(scope="module")
def exact_run(params, grid):
    t0 = time.perf_counter()
    tr = run_closed_loop(params, ControllerConfig(), grid)
    return {"trace": tr, "wall": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def open_run(params, grid):
    t0 = time.perf_counter()
    tr = run_closed_loop(params, ControllerConfig(), grid, open_loop=True)
    return {"trace": tr, "wall": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def corpus(params, grid, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    t0 = time.perf_counter()
    man = generate(
        params, 10, (50.0, 70.0), 0.1, root, seed=0, g=grid,
        cfg=ControllerConfig(),
    )
    wall = time.perf_counter() - t0
    part_train, part_val, part_test = split(man, (0.8, 0.1, 0.1), seed=0)
    yield {
        "manifest": man,
        "train": part_train,
        "val": part_val,
        "test": part_test,
        "wall": wall,
    }
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    ds_train = load_records(corpus["train"])
    ds_val = load_records(corpus["val"])
    model = init_model(
        m=ds_train.c.shape[1], b=32, hidden=(64, 64), seed=0,
        c_scale=float(np.max(np.abs(ds_train.c))),
    )
    cfg = TrainConfig(lr=3e-3, batch_size=256, epochs=400, val_split=0.1, seed=0)
    t0 = time.perf_counter()
    model, history = train(ds_train, cfg, model=model, val_data=ds_val)
    wall = time.perf_counter() - t0
    # Relative fit: residual power of the last epoch over label power.
    kv = _kv_from_edge(ds_train.ku, ds_train.ratio[:, None], ds_train.mesh_n)
    ref = float(np.sum(ds_train.ku**2) + np.sum(kv**2))
    rel = float(np.sqrt(history[-1]["train_mse"] * ds_train.ku.size / ref))
    path = tmp_path_factory.mktemp("acceptance_model") / "model.bin"
    save_model(model, path)
    return {
        "model": model, "history": history, "wall": wall,
        "train_rel": rel, "path": path,
    }


@pytest.fixture(scope="module")
def no_run(params, grid, trained):
    cfg = ControllerConfig()
    t0 = time.perf_counter()
    tr = run_closed_loop(params, cfg, grid, model=trained["model"])
    return {"trace": tr, "wall": time.perf_counter() - t0}


def _row_norms(fields: np.ndarray, g: GridSpec) -> np.ndarray:
    return np.sqrt(np.trapezoid(fields * fields, dx=g.dx, axis=1))


def test_open_loop_amplitude_retention(open_run, criterion_report):
    """Gate: the uncontrolled state keeps >= 0.8x of its initial
    amplitude at t = 300 s, within a 10 s runtime budget.

    The relaxation coupling c(x) < 0 drains energy along every
    characteristic and the inlet reflection (r = 1.12) does not repay
    the exponential loss accumulated across the domain, so the
    uncontrolled plant decays deeply instead of sustaining its
    oscillation.  The floor is asserted as stated and the measured
    ratio is recorded.
    """
    tr, wall = open_run["trace"], open_run["wall"]
    start = max(tr.u_norm[0], tr.v_norm[0])
    final = max(tr.u_norm[-1], tr.v_norm[-1])
    ratio = final / start
    ok = ratio >= 0.8 and wall < 10.0
    criterion_report(
        1, "open-loop amplitude",
        ok,
        f"final/initial amplitude {ratio:.3e} (floor 0.8); "
        f"wall {wall:.1f}s (budget 10s)",
    )
    assert wall < 10.0
    assert ratio >= 0.8


def test_adaptive_stabilization_to_equilibrium(exact_run, lp, grid,
                                               criterion_report):
    """Gate: exact-kernel adaptive control drives the physical state to
    within 2% of equilibrium by t = 300 s, and both identifier error
    norms fall at least 10x from their in-run peaks.
    """
    tr, wall = exact_run["trace"], exact_run["wall"]
    rho_dev = _row_norms(tr.rho - lp.rho_star, grid)
    spd_dev = _row_norms(tr.speed - lp.v_star, grid)
    r_rho = rho_dev[-1] / rho_dev[0]
    r_spd = spd_dev[-1] / spd_dev[0]
    e_drop = np.max(tr.e_norm) / tr.e_norm[-1]
    eps_drop = np.max(tr.eps_norm) / tr.eps_norm[-1]
    ok = r_rho <= 0.02 and r_spd <= 0.02 and e_drop >= 10 and eps_drop >= 10
    criterion_report(
        2, "adaptive stabilization",
        ok,
        f"final/initial deviation: density {r_rho:.2e}, speed {r_spd:.2e} "
        f"(ceiling 2e-2); error-norm peak/final: e {e_drop:.0f}x, "
        f"eps {eps_drop:.0f}x (floor 10x); wall {wall:.0f}s",
    )
    assert r_rho <= 0.02
    assert r_spd <= 0.02
    assert e_drop >= 10
    assert eps_drop >= 10


def test_surrogate_in_loop_tracks_exact_control(exact_run, no_run, lp, grid,
                                                criterion_report):
    """Gate: the surrogate-controlled trajectory stays within 10% of the
    exact-kernel trajectory at every recorded time, both fields, with
    the gap measured relative to the initial deviation from equilibrium.
    """
    ex, no = exact_run["trace"], no_run["trace"]
    rho_ref = _row_norms(ex.rho - lp.rho_star, grid)[0]
    spd_ref = _row_norms(ex.speed - lp.v_star, grid)[0]
    gap_rho = float(np.max(_row_norms(no.rho - ex.rho, grid)) / rho_ref)
    gap_spd = float(np.max(_row_norms(no.speed - ex.speed, grid)) / spd_ref)
    ok = gap_rho <= 0.10 and gap_spd <= 0.10
    criterion_report(
        3, "surrogate-in-loop fidelity",
        ok,
        f"worst relative trajectory gap: density {gap_rho:.2e}, "
        f"speed {gap_spd:.2e} (ceiling 1e-1); "
        f"surrogate loop wall {no_run['wall']:.0f}s",
    )
    assert gap_rho <= 0.10
    assert gap_spd <= 0.10


def test_surrogate_heldout_accuracy_and_training_budget(corpus, trained,
                                                        criterion_report):
    """Gate: after training on the default corpus, held-out mean
    absolute error <= 5e-3 on both kernels, relative training loss
    <= 1e-1, and the training run fits a 2-hour budget.
    """
    report = eval_accuracy(trained["model"], load_records(corpus["test"]))
    rel = trained["train_rel"]
    wall = trained["wall"]
    n_rec = corpus["manifest"]["n_records"]
    ok = (
        report["ku_mean"] <= 5e-3
        and report["kv_mean"] <= 5e-3
        and rel <= 1e-1
        and wall <= 7200.0
    )
    criterion_report(
        4, "surrogate accuracy",
        ok,
        f"held-out MAE Ku {report['ku_mean']:.2e}, Kv {report['kv_mean']:.2e} "
        f"(ceiling 5e-3); relative train loss {rel:.2e} (ceiling 1e-1); "
        f"train {wall:.0f}s of 7200s budget on {n_rec} records "
        f"(corpus gen {corpus['wall']:.0f}s)",
    )
    assert report["ku_mean"] <= 5e-3
    assert report["kv_mean"] <= 5e-3
    assert rel <= 1e-1
    assert wall <= 7200.0


def test_kernel_acquisition_speedup(trained, tmp_path, criterion_report):
    """Gate: the surrogate acquires kernels with a median speedup of at
    least 20x over the classical solver on the same mesh at tol = 1e-8;
    both absolute times are reported.
    """
    out = tmp_path / "bench.json"
    rc = cli_main(["bench", "--model", str(trained["path"]), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    ratio = report["median_speedup"]
    sol_us = report["solver"]["median_ns"] / 1e3
    neu_us = report["neural"]["median_ns"] / 1e3
    dir_us = report["direct"]["median_ns"] / 1e3
    ok = ratio >= 20.0
    criterion_report(
        5, "kernel acquisition speedup",
        ok,
        f"median speedup {ratio:.1f}x (floor 20x); solver {sol_us:.0f} us, "
        f"surrogate {neu_us:.1f} us per acquisition at tol=1e-8, "
        f"mesh n={report['mesh_n']}; the loop's direct solve {dir_us:.0f} us "
        f"({report['direct_speedup']:.1f}x the surrogate's)",
    )
    assert ratio >= 20.0


def _check_projection_bound(exact_run):
    tr = exact_run["trace"]
    worst = float(np.max(np.abs(tr.c_hat)))
    if worst > 0.02 + 1e-15:
        return False, f"trace estimate reached {worst}"
    # Adversarial: huge gain and large errors must still respect the bound.
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    rng = np.random.default_rng(0)
    c_hat = np.zeros(61)
    for _ in range(100):
        u = 10 * rng.standard_normal(61)
        v = 10 * rng.standard_normal(61)
        c_hat = update_c_hat(c_hat, np.zeros(61), u, v, 1e6, 1.0, 1.0 / 60.0, g)
        if np.max(np.abs(c_hat)) > 1.0 / 60.0 + 1e-15:
            return False, "adversarial update escaped the bound"
    return True, ""


def _check_trivial_kernels(lp):
    mesh = TriMesh(41)
    kp = solve_kernels(np.zeros(41), lp, mesh, c_bound=0.02)
    if not (np.all(kp.ku == 0.0) and np.all(kp.kv == 0.0)):
        return False, "zero coupling did not give zero kernels"
    c = lp.c_samples(41)
    kp = solve_kernels(c, lp, mesh)
    want = -c / (lp.lam_n + lp.mu_n)
    gap = np.max(np.abs(np.diagonal(kp.ku) - want))
    if gap > 1e-13 * np.max(np.abs(want)):
        return False, f"diagonal condition off by {gap:.1e}"
    return True, ""


def _check_self_convergence(lp):
    sols = {
        n: solve_kernels(lp.c_samples(n), lp, TriMesh(n), tol=1e-12)
        for n in (41, 81, 161)
    }

    def gap(coarse, fine):
        idx = 2 * np.arange(coarse.mesh.n)
        return max(
            float(np.max(np.abs(fine.ku[np.ix_(idx, idx)] - coarse.ku))),
            float(np.max(np.abs(fine.kv[np.ix_(idx, idx)] - coarse.kv))),
        )

    order = float(np.log2(gap(sols[41], sols[81]) / gap(sols[81], sols[161])))
    return order >= 1.8, f"order {order:.2f}"


def _check_round_trip(lp):
    mesh = TriMesh(128)
    c = lp.c_samples(128)
    kp = solve_kernels(c, lp, mesh, tol=1e-10)
    ikp = solve_inverse_kernels(kp)
    u_hat = np.sin(2.0 * np.pi * mesh.x) + 0.3 * np.cos(5.0 * mesh.x)
    v_hat = mesh.x * np.cos(np.pi * mesh.x) - 0.2
    w, z = transform_on_mesh(kp, u_hat, v_hat)
    u_back, v_back = inverse_transform_on_mesh(ikp, w, z)
    rel = max(
        float(np.max(np.abs(u_back - u_hat))) / float(np.max(np.abs(u_hat))),
        float(np.max(np.abs(v_back - v_hat))) / float(np.max(np.abs(v_hat))),
    )
    return rel <= 1e-6, f"relative round-trip error {rel:.1e}"


def _check_v3_monotone(exact_run):
    v3 = exact_run["trace"].v3
    worst = float(np.max(np.diff(v3)))
    return worst <= 1e-6 * v3[0], f"worst per-step increase {worst:.1e}"


def _check_gradients():
    rng = np.random.default_rng(4)
    model = init_model(m=8, b=3, hidden=(5,), seed=6, c_scale=0.02)
    model.params["mean"] = rng.normal(0.0, 0.01, 36)
    model.params["modes"] = np.linalg.qr(rng.standard_normal((36, 3)))[0].T
    c_batch = rng.uniform(-0.02, 0.0, (2, 8))
    yu = rng.standard_normal((2, 36))
    ratio = rng.uniform(0.4, 0.7, 2)
    _, grads = loss_and_grads(model, c_batch, yu, ratio)
    for key, grad in grads.items():
        flat = model.params[key].reshape(-1)
        num = np.empty(flat.size)
        for idx in range(flat.size):
            keep = flat[idx]
            h = 1e-6 * max(1.0, abs(keep))
            flat[idx] = keep + h
            hi = loss_and_grads(model, c_batch, yu, ratio)[0]
            flat[idx] = keep - h
            lo = loss_and_grads(model, c_batch, yu, ratio)[0]
            flat[idx] = keep
            num[idx] = (hi - lo) / (2.0 * h)
        if not np.allclose(num, grad.reshape(-1), rtol=1e-5, atol=1e-8):
            return False, f"gradient mismatch in {key}"
    return True, ""


def _check_exact_knowledge(lp):
    g = GridSpec(n_x=60, dt=0.1)
    rng = np.random.default_rng(3)
    u0 = 0.1 * rng.standard_normal(61)
    v0 = 0.1 * rng.standard_normal(61)
    u, v = u0, v0
    u_hat, v_hat, c_hat = u0.copy(), v0.copy(), np.asarray(lp.c(g.x))
    worst = 0.0
    for k in range(100):
        control = float(np.sin(0.1 * k))
        u_hat, v_hat = step_identifier(
            u_hat, v_hat, c_hat, u, v, control, 0.05, lp, g
        )
        u, v = step_plant(u, v, control, lp, g)
        c_hat = update_c_hat(c_hat, v_hat, u, v, 0.01, 1.0, lp.c_bar, g)
        worst = max(
            worst,
            float(np.max(np.abs(u - u_hat))),
            float(np.max(np.abs(v - v_hat))),
        )
    return worst <= 1e-10, f"error grew to {worst:.1e}"


def _check_serialization(lp, tmp_path):
    mesh = TriMesh(21)
    kp = solve_kernels(lp.c_samples(21), lp, mesh)
    (tmp_path / "family.bin").write_bytes(_entry(0.0, lp.c_samples(21), kp))
    [(_, _, back)] = iter_family(tmp_path / "family.bin", 21)
    if not (np.array_equal(back.ku, kp.ku) and np.array_equal(back.kv, kp.kv)):
        return False, "corpus entry round trip not exact"

    model = init_model(m=5, b=3, hidden=(4,), seed=1, c_scale=0.02)
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    if any(
        not np.array_equal(loaded.params[k], model.params[k])
        for k in model.params
    ):
        return False, "model round trip not exact"
    save_model(loaded, tmp_path / "m2.bin")
    if (tmp_path / "m.bin").read_bytes() != (tmp_path / "m2.bin").read_bytes():
        return False, "re-saved model differs"

    taus = (55.0, 60.0, 65.0)
    mesh = TriMesh(9)
    cs = [-np.exp(-(600.0 / (tau * 10.0)) * mesh.x) / tau for tau in taus]
    kps = [solve_kernels(c, lp, mesh, c_bound=0.02) for c in cs]
    data = KernelDataset(
        mesh_n=9, c=np.stack(cs), ku=np.stack([kp.ku_tri for kp in kps]),
        ratio=np.array([kp.ratio for kp in kps]),
    )
    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=2, val_split=0.34, seed=8)
    for run in range(2):
        model = init_model(m=9, seed=cfg.seed, c_scale=float(np.max(np.abs(data.c))))
        m, _ = train(data, cfg, model)
        save_model(m, tmp_path / f"t{run}.bin")
    if (tmp_path / "t0.bin").read_bytes() != (tmp_path / "t1.bin").read_bytes():
        return False, "seeded training not byte-reproducible"
    return True, ""


def test_invariant_property_suite(exact_run, lp, tmp_path, criterion_report):
    """Gate: the eight structural invariants all hold (estimate
    projection bound, trivial kernels, solver self-convergence, exact
    transform round trip, monotone identifier functional, analytic
    gradients, exact-knowledge invariance, bit-exact serialization).
    """
    checks = [
        ("projection-bound", lambda: _check_projection_bound(exact_run)),
        ("trivial-kernels", lambda: _check_trivial_kernels(lp)),
        ("self-convergence", lambda: _check_self_convergence(lp)),
        ("transform-round-trip", lambda: _check_round_trip(lp)),
        ("v3-monotone", lambda: _check_v3_monotone(exact_run)),
        ("gradient-check", _check_gradients),
        ("exact-knowledge", lambda: _check_exact_knowledge(lp)),
        ("serialization", lambda: _check_serialization(lp, tmp_path)),
    ]
    failures = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - any escape is a red check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"{name}: {detail}")
    criterion_report(
        6, "invariant suite",
        not failures,
        "all 8 invariants hold" if not failures else "; ".join(failures),
    )
    assert not failures, failures

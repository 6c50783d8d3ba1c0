"""Tests for the closed-loop orchestration and boundary feedback."""

import dataclasses
import itertools
import time
import warnings

import numpy as np
import pytest

from arzno import controller
from arzno.controller import (
    ControllerConfig,
    initial_plant_state,
    run_closed_loop,
)
from arzno.deeponet import NeuralKernelSource, _forward_stack, init_model
from arzno.diagnostics import (
    derive_constants,
    global_norm_S,
    lyapunov_v1_v2,
    lyapunov_v3,
)
from arzno.kernels import KernelPair, TriMesh, _volterra_weights, solve_kernels
from arzno.model import derive_linearized, from_riemann, to_riemann
from arzno.sim import GridSpec, InstabilityError, check_cfl, l2_norm, update_c_hat


def _control_and_z(kp, u_hat, v_hat, g):
    """The loop's boundary value for these fields, and their z."""
    ac = controller._grid_caches(kp, g)
    u_next = (ac.m_u[-1] @ u_hat + ac.m_v[-1] @ v_hat) / ac.denom
    return u_next, controller._z_field(ac, u_hat, v_hat)


def test_transformed_boundary_vanishes_along_trajectory(params):
    # The boundary value is solved implicitly against the same quadrature
    # used by the transform, so z(1) = 0 must hold to rounding at every
    # recorded step, with the kernels that produced that step's boundary.
    g = GridSpec(n_x=60, dt=0.1, t_end=3.0)
    cfg = ControllerConfig(mesh_n=21)
    hooked = []
    tr = run_closed_loop(
        params, cfg, g, on_refresh=lambda t, c, kp, ns: hooked.append((c, kp))
    )
    mesh = TriMesh(cfg.mesh_n)
    for k in (1, 7, 23):
        # A refresh every step: the pair refreshed at step k - 1 set u(1).
        c_mesh, kp = hooked[k - 1]
        assert np.array_equal(c_mesh, np.interp(mesh.x, g.x, tr.c_hat[k - 1]))
        ac = controller._grid_caches(kp, g)
        z = controller._z_field(ac, tr.u_hat[k], tr.v_hat[k])
        scale = max(1.0, float(np.max(np.abs(z))))
        assert abs(z[-1]) <= 1e-12 * scale


def test_zero_initial_condition_stays_at_equilibrium(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=2.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21, ic="zero"), g)
    assert np.all(tr.u == 0.0)
    assert np.all(tr.v == 0.0)
    assert np.all(tr.control == 0.0)
    assert np.all(tr.u_hat == 0.0)
    assert np.all(tr.v_hat == 0.0)
    # Nothing to adapt on: the estimate must not move.
    np.testing.assert_array_equal(tr.c_hat[-1], tr.c_hat[0])
    assert tr.v3[0] > 0.0
    np.testing.assert_allclose(tr.v3, tr.v3[0], rtol=1e-12)


def test_control_value_zero_kernels_and_transform_identity(lp):
    g = GridSpec(n_x=40, dt=0.1, t_end=1.0)
    mesh = TriMesh(11)
    kp = KernelPair(
        mesh=mesh, ku_tri=np.zeros(mesh.n_nodes), lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r
    )
    rng = np.random.default_rng(2)
    u_hat = rng.standard_normal(g.n_x + 1)
    v_hat = rng.standard_normal(g.n_x + 1)
    u_next, z = _control_and_z(kp, u_hat, v_hat, g)
    assert u_next == 0.0
    np.testing.assert_array_equal(z, v_hat)


def test_control_value_constant_kernel_quadrature(lp):
    # Ku(1, xi) == 1 against u_hat == 2 integrates to exactly 2 because
    # the trapezoid weights are exact for constants.
    g = GridSpec(n_x=50, dt=0.1, t_end=1.0)
    mesh = TriMesh(11)
    # r = 0 makes Kv, the edge trace of Ku, vanish.
    kp = KernelPair(
        mesh=mesh, ku_tri=np.ones(mesh.n_nodes), lam_n=lp.lam_n, mu_n=lp.mu_n, r=0.0
    )
    u_next, z = _control_and_z(
        kp, np.full(g.n_x + 1, 2.0), np.zeros(g.n_x + 1), g
    )
    assert u_next == pytest.approx(2.0, rel=1e-12)
    # z(1) = v_hat(1) - U: the transform's last row is the control row.
    assert z[-1] == pytest.approx(-2.0, rel=1e-12)


def test_actuation_respects_transport_deadtime(params):
    # Boundary feedback enters through v at x = 1 and must cross the
    # whole domain before it can touch u: with 60 cells, the first 60
    # steps of u are bitwise identical to the open-loop run.
    g = GridSpec(n_x=60, dt=0.1, t_end=40.0)
    cfg = ControllerConfig(mesh_n=21)
    closed = run_closed_loop(params, cfg, g)
    opened = run_closed_loop(params, cfg, g, open_loop=True)
    np.testing.assert_array_equal(closed.u[:60], opened.u[:60])
    assert np.all(opened.control == 0.0)
    assert closed.control[1] != 0.0
    assert np.max(np.abs(closed.u[-1] - opened.u[-1])) > 1e-6


def test_closed_loop_damps_the_state(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=60.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g)
    start = np.hypot(tr.u_norm[0], tr.v_norm[0])
    end = np.hypot(tr.u_norm[-1], tr.v_norm[-1])
    assert end < 0.8 * start


def test_refresh_hook_and_cadence(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=2.0)
    cfg = ControllerConfig(mesh_n=21)
    calls = []

    def hook(t, c_mesh, kp, elapsed_ns):
        calls.append((t, c_mesh.shape, kp.mesh.n, elapsed_ns))

    tr = run_closed_loop(params, cfg, g, on_refresh=hook)
    assert len(calls) == 20
    np.testing.assert_allclose(
        [c[0] for c in calls], np.arange(20) * 0.1, atol=1e-12
    )
    assert all(c[1] == (21,) and c[2] == 21 for c in calls)
    assert all(c[3] >= 0 for c in calls)
    assert len(tr.refresh_t) == 20
    assert tr.dku_dt[0] == 0.0 and tr.dkv_dt[0] == 0.0
    assert np.all(tr.dku_dt[1:] > 0.0)


def test_hook_fires_at_every_step_of_a_finer_grid(params):
    # The kernels are refreshed at every step whatever the grid's dt: on
    # a 0.05 s grid the hook fires at each of the n_steps steps, not at
    # every other one, and the drift rates divide by that dt.
    g = GridSpec(n_x=60, dt=0.05, t_end=1.0)
    hooked = []
    tr = run_closed_loop(
        params, ControllerConfig(mesh_n=21), g,
        on_refresh=lambda t, c, kp, ns: hooked.append((t, kp)),
    )
    assert len(hooked) == len(tr.refresh_t) == g.n_steps == 20
    assert [t for t, _ in hooked] == tr.refresh_t.tolist() == tr.t[:-1].tolist()
    (_, prev), (_, kp) = hooked[:2]
    assert tr.dku_dt[1] == np.abs(kp.ku - prev.ku).max() / 0.05


def test_open_loop_has_no_kernel_functionals(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g, open_loop=True)
    assert np.all(np.isnan(tr.v1))
    assert np.all(np.isnan(tr.v2))
    assert np.all(np.isnan(tr.v4))
    assert np.all(np.isfinite(tr.v3))
    assert len(tr.refresh_t) == 0
    # A closed loop with no step to take never refreshes either, so it
    # has no kernels, no z and no kernel functionals.
    g = GridSpec(n_x=60, dt=0.1, t_end=0.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g)
    assert len(tr.refresh_t) == 0 and tr.kernel_acquisitions == 0
    assert np.all(np.isnan(tr.v1)) and np.all(np.isnan(tr.v2)) and np.all(np.isnan(tr.v4))


def test_closed_loop_functionals_are_finite(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g)
    for col in (tr.v1, tr.v2, tr.v_lyap, tr.v3, tr.v4, tr.s_norm):
        assert np.all(np.isfinite(col))


def test_initial_plant_state_families(lp):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    u, v = initial_plant_state(lp, g, "zero")
    assert np.all(u == 0.0) and np.all(v == 0.0)
    assert u.shape == v.shape == (61,) and not np.shares_memory(u, v)

    u, v = initial_plant_state(lp, g, "sine")
    bump = np.sin(3.0 * np.pi * g.x)
    want_u, want_v = to_riemann(
        lp, g.x, lp.rho_star * (1.0 + 0.1 * bump), lp.v_star * (1.0 - 0.01 * bump)
    )
    np.testing.assert_array_equal(u, want_u)
    np.testing.assert_array_equal(v, want_v)

    with pytest.raises(ValueError, match="sine"):
        initial_plant_state(lp, g, "box")


def _sequential_time(steps: int, dt: float) -> float:
    t = 0.0
    for _ in range(steps):
        t += dt
    return t


@pytest.mark.parametrize("open_loop,steps", [(False, 8), (True, 104)],
                         ids=["closed", "open-loop"])
def test_runaway_identifier_gain_stops_the_loop(params, open_loop, steps):
    # A huge correction gain overflows the identifier a few steps in; the
    # loop surfaces the stepper's error with the failing step's time, the
    # sequential sum of its steps (0.7999999999999999 after 8 steps of
    # 0.1, not 0.8).
    g = GridSpec(n_x=60, dt=0.1, t_end=20.0)
    cfg = ControllerConfig(mesh_n=21, rho_gain=1e3)
    # The error is the only report of the blow-up: no NumPy overflow
    # warning may precede it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InstabilityError, match="identifier state") as info:
            run_closed_loop(params, cfg, g, open_loop=open_loop)
    assert type(info.value.t) is float
    assert info.value.t == _sequential_time(steps, 0.1)


def test_trace_csv_writers(params, tmp_path, read_table):
    g = GridSpec(n_x=20, dt=0.1, t_end=1.0)
    cfg = ControllerConfig(mesh_n=11)
    tr = run_closed_loop(params, cfg, g)

    path = tmp_path / "trace.csv"
    tr.write_csv(path, comments=("mode=exact", "hash=abc"))
    header, arr, comments = read_table(path)
    assert header == [
        "t", "u_norm", "v_norm", "e_norm", "eps_norm", "U",
        "V1", "V2", "V3", "V4", "S", "kernel_ns",
    ]
    assert comments == ["mode=exact", "hash=abc"]
    assert arr.shape == (len(tr.t), 12)
    np.testing.assert_array_equal(arr[:, 0], tr.t)
    np.testing.assert_array_equal(arr[:, 5], tr.control)

    path = tmp_path / "refresh.csv"
    tr.write_refresh_csv(path)
    header, arr, comments = read_table(path)
    assert header == ["t", "kernel_ns", "dku_dt", "dkv_dt"]
    assert comments == []
    assert arr.shape == (len(tr.refresh_t), 4)

    path = tmp_path / "fields.npz"
    tr.write_fields_csv(path)
    _check_fields_npz(path, tr, ())


def _check_fields_npz(path, tr, comments: tuple[str, ...]) -> None:
    """fields.npz holds the trace's arrays exactly, and one write's bytes."""
    with np.load(path, allow_pickle=False) as z:
        assert z.files == ["t", "x", "u", "v", "rho", "speed", "comments"]
        for name in ("t", "x", "u", "v", "rho", "speed"):
            assert z[name].dtype == np.float64, name
            assert z[name].shape == getattr(tr, name).shape, name
            np.testing.assert_array_equal(z[name], getattr(tr, name), err_msg=name)
        assert z["comments"].dtype.kind == "U"
        assert z["comments"].tolist() == list(comments)
    # No wall-clock stamp: a write a day later gives the same bytes.
    again = path.with_name("again.npz")
    later = time.time() + 86400.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(time, "time", lambda: later)
        tr.write_fields_csv(again, comments)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"kernel_source": "oracle"}, "kernel_source"),
        ({"ic": "bump"}, "ic"),
        ({"rho_gain": 0.0}, "rho_gain"),
        ({"gamma": -1.0}, "gamma"),
        ({"gamma1": 0.0}, "gamma1"),
        ({"tau_guess": 0.0}, "positive"),
        ({"c_bar": 0.0}, "positive"),
        ({"tau_guess": 20.0}, "exceeds"),
        ({"tol": 0.0}, "positive"),
        ({"mesh_n": 7}, "at least 8"),
    ],
)
def test_controller_config_validation(kwargs, match):
    # A bad value of a field fails validation; a key that is no field,
    # such as kernel_source (the model argument selects the kernel path),
    # is refused by the constructor itself.
    fields = {f.name for f in dataclasses.fields(ControllerConfig)}
    error = ValueError if set(kwargs) <= fields else TypeError
    with pytest.raises(error, match=match):
        ControllerConfig(**kwargs)


def _count_acquisitions(monkeypatch) -> dict:
    """Count solver calls and surrogate acquisitions, by kernel path."""
    calls = {"solver": 0, "neural": 0}

    def count(path, fn):
        def wrapped(*args, **kwargs):
            calls[path] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(controller, "solve_kernels", count("solver", solve_kernels))
    monkeypatch.setattr(
        NeuralKernelSource, "acquire", count("neural", NeuralKernelSource.acquire)
    )
    return calls


@pytest.mark.parametrize(
    "with_model,open_loop,want",
    [
        (False, False, {"solver": 10, "neural": 0}),
        (True, False, {"solver": 0, "neural": 10}),
        (False, True, {"solver": 0, "neural": 0}),
        (True, True, {"solver": 0, "neural": 0}),
    ],
    ids=["solver", "model", "open-loop", "open-loop-with-model"],
)
def test_model_selects_the_kernel_path(params, monkeypatch, with_model, open_loop, want):
    calls = _count_acquisitions(monkeypatch)
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    model = init_model(m=21, seed=7) if with_model else None
    run_closed_loop(
        params, ControllerConfig(mesh_n=21), g, model=model, open_loop=open_loop
    )
    assert calls == want


def test_solver_source_threads_its_options(params, lp, monkeypatch):
    # Without a model the loop solves its kernels directly, with the
    # config's bound and no tol, through the solve_kernels name that
    # arzno.controller imports.
    seen = []

    def spy(c_mesh, lp_arg, mesh, **kwargs):
        seen.append(kwargs)
        return solve_kernels(c_mesh, lp_arg, mesh, **kwargs)

    monkeypatch.setattr(controller, "solve_kernels", spy)
    g = GridSpec(n_x=60, dt=0.1, t_end=0.3)
    cfg = ControllerConfig(mesh_n=9, tol=1e-10, c_bar=0.03)
    hooked = []
    run_closed_loop(
        params, cfg, g, on_refresh=lambda t, c, kp, ns: hooked.append((c, kp))
    )
    assert seen == [{"c_bound": 0.03}] * 3
    c, kp = hooked[-1]
    ref = solve_kernels(c, lp, TriMesh(9), c_bound=0.03)
    np.testing.assert_array_equal(kp.ku, ref.ku)
    np.testing.assert_array_equal(kp.kv, ref.kv)


@pytest.mark.parametrize("with_model", [False, True], ids=["solver", "model"])
def test_unchanged_estimate_reuses_the_kernels(params, monkeypatch, with_model):
    # At equilibrium u = v = 0, so the estimate never moves: the first
    # acquisition serves every refresh, and the hook still fires for each.
    calls = _count_acquisitions(monkeypatch)
    hooked = []
    g = GridSpec(n_x=60, dt=0.1, t_end=2.0)
    model = init_model(m=21, seed=7) if with_model else None
    tr = run_closed_loop(
        params, ControllerConfig(mesh_n=21, ic="zero"), g, model=model,
        on_refresh=lambda t, c, kp, ns: hooked.append(kp),
    )
    path = "neural" if with_model else "solver"
    assert calls == {"solver": 0, "neural": 0, path: 1}
    assert len(hooked) == len(tr.refresh_t) == 20
    assert all(kp is hooked[0] for kp in hooked)
    assert np.all(tr.dku_dt == 0.0) and np.all(tr.dkv_dt == 0.0)
    assert tr.kernel_acquisitions == 1


@pytest.mark.parametrize("with_model", [False, True], ids=["solver", "model"])
def test_drift_rates_are_the_square_differences_of_hooked_pairs(params, with_model):
    # The loop differences triangles; the zeros above the diagonal add
    # nothing, so the rates are those of the (n, n) squares, bit for bit.
    hooked = []
    g = GridSpec(n_x=60, dt=0.1, t_end=2.0)
    cfg = ControllerConfig(mesh_n=21)
    model = init_model(m=21, seed=7) if with_model else None
    tr = run_closed_loop(
        params, cfg, g, model=model, on_refresh=lambda t, c, kp, ns: hooked.append(kp)
    )
    assert len(hooked) == len(tr.dku_dt) == 20
    assert tr.dku_dt[0] == tr.dkv_dt[0] == 0.0
    for j in range(1, len(hooked)):
        prev, kp = hooked[j - 1], hooked[j]
        for got, new, old in ((tr.dku_dt, kp.ku, prev.ku), (tr.dkv_dt, kp.kv, prev.kv)):
            assert got[j] == np.abs(new - old).max() / g.dt
    assert np.all(tr.dku_dt[1:] > 0.0) and np.all(tr.dkv_dt[1:] > 0.0)


# Steps whose adaptation is undone, so that runs of refreshes see the same
# estimate while others see a new one.
_FROZEN = frozenset(range(3, 9)) | frozenset(range(12, 15)) | {20}


def _freezing(update):
    """update, except that the steps in _FROZEN keep the estimate."""
    steps = itertools.count()

    def frozen(c_hat, *args, out=None):
        new = update(c_hat, *args)
        return _written(out, c_hat if next(steps) in _FROZEN else new)

    return frozen


def test_reused_refreshes_serve_the_pair_a_solve_would(params, lp, monkeypatch):
    monkeypatch.setattr(controller, "update_c_hat", _freezing(update_c_hat))
    calls = _count_acquisitions(monkeypatch)
    hooked = []
    g = GridSpec(n_x=60, dt=0.1, t_end=3.0)
    cfg = ControllerConfig(mesh_n=21)
    tr = run_closed_loop(
        params, cfg, g, on_refresh=lambda t, c, kp, ns: hooked.append((c, kp))
    )
    mesh = TriMesh(cfg.mesh_n)
    keys = [c.tobytes() for c, _ in hooked]
    for c, kp in hooked:
        # Fresh or kept, every pair is the loop's own solve of its estimate.
        ref = solve_kernels(c, lp, mesh, c_bound=cfg.c_bar)
        np.testing.assert_array_equal(kp.ku, ref.ku)
        np.testing.assert_array_equal(kp.kv, ref.kv)
    moved = [a != b for a, b in zip(keys, keys[1:])]
    assert tr.kernel_acquisitions == calls["solver"] == 1 + sum(moved)
    assert 1 < tr.kernel_acquisitions < len(hooked) == len(tr.refresh_t)
    kept = ~np.array([True] + moved)
    assert np.all(tr.dku_dt[kept] == 0.0) and np.all(tr.dkv_dt[kept] == 0.0)
    assert np.all(tr.dku_dt[1:][np.array(moved)] > 0.0)


def _four_corner_rows(tri: np.ndarray, mesh: TriMesh, g: GridSpec) -> np.ndarray:
    """Reference: bilinear gather of the four mesh corners around each
    grid node pair, on the mirrored table, lower triangle kept.  tri holds
    the kernel's lower triangle in row-major tril order."""
    square = np.zeros((mesh.n, mesh.n))
    square[np.tril_indices(mesh.n)] = tri
    work = np.where(np.tri(mesh.n, dtype=bool), square, square.T)
    h = mesh.dx
    xq = g.x[:, None] / h
    yq = g.x[None, :] / h
    i0 = np.minimum(xq.astype(int), mesh.n - 2)
    j0 = np.minimum(yq.astype(int), mesh.n - 2)
    fx = xq - i0
    fy = yq - j0
    vals = (
        (1.0 - fx) * (1.0 - fy) * work[i0, j0]
        + (1.0 - fx) * fy * work[i0, j0 + 1]
        + fx * (1.0 - fy) * work[i0 + 1, j0]
        + fx * fy * work[i0 + 1, j0 + 1]
    )
    return np.tril(vals)


@pytest.mark.parametrize(
    "mesh_n,n_x",
    [(41, 60), (9, 50), (81, 16)],
    ids=["default", "mesh-coarser", "mesh-finer"],
)
def test_grid_tables_match_four_corner_interpolation(lp, mesh_n, n_x):
    g = GridSpec(n_x=n_x, dt=0.1, t_end=1.0)
    mesh = TriMesh(mesh_n)
    kp = solve_kernels(lp.c_samples(mesh_n), lp, mesh)
    for tri in (kp.ku_tri, kp.kv_tri):
        interp = controller._grid_ops(mesh, g.n_x)[0]
        got = np.tril(controller._rows_on_grid(tri, interp))
        want = _four_corner_rows(tri, mesh, g)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    # The control row and the implicit-solve denominator come from
    # _edge_rows alone and must not carry any rounding of the tables.
    ac = controller._grid_caches(kp, g)
    w_last = _volterra_weights(g.n_x + 1, g.dx)[-1]
    ku_row, kv_row = controller._edge_rows(kp, g)
    m_v_last = w_last * kv_row
    assert np.array_equal(ac.m_u[-1], w_last * ku_row)
    assert np.array_equal(ac.m_v[-1], m_v_last)
    assert ac.denom == 1.0 - m_v_last[-1]


def test_closed_loop_matches_four_corner_tables(params, monkeypatch):
    # The tables feed only the V1/V2 diagnostics; every state, estimate
    # and control value must be bit-identical to a loop run on the
    # reference gather, and the functionals equal to rounding.
    g = GridSpec(n_x=60, dt=0.1, t_end=5.0)
    cfg = ControllerConfig()
    new = run_closed_loop(params, cfg, g)
    monkeypatch.setattr(
        controller, "_rows_on_grid",
        lambda tri, interp: _four_corner_rows(tri, TriMesh(cfg.mesh_n), g),
    )
    ref = run_closed_loop(params, cfg, g)
    for name in ("u", "v", "u_hat", "v_hat", "c_hat", "control"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("v1", "v2", "v_lyap", "v4"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name), rtol=1e-12)


def _per_step_reference(tr, lp, cfg: ControllerConfig, g: GridSpec, kernels):
    """The per-step record() arithmetic the loop used to run on every row.

    Row k > 0 carries the kernels refreshed at step k - 1, row 0 those of
    the initial refresh; with no kernels (open loop) the kernel
    functionals are NaN.
    """
    const = derive_constants(lp)
    c_true = np.asarray(lp.c(g.x))
    rows = len(tr.t)
    names = (
        "u_norm", "v_norm", "e_norm", "eps_norm", "control",
        "v1", "v2", "v_lyap", "v3", "v4", "s_norm",
    )
    cols = {name: np.empty(rows) for name in names}
    cols["rho"], cols["speed"] = np.empty_like(tr.u), np.empty_like(tr.u)
    for k in range(rows):
        u, v, u_hat, v_hat = tr.u[k], tr.v[k], tr.u_hat[k], tr.v_hat[k]
        e = u - u_hat
        eps = v - v_hat
        c_tilde = c_true - tr.c_hat[k]
        cols["u_norm"][k] = l2_norm(u, g)
        cols["v_norm"][k] = l2_norm(v, g)
        cols["e_norm"][k] = l2_norm(e, g)
        cols["eps_norm"][k] = l2_norm(eps, g)
        cols["control"][k] = v[-1]
        cols["v3"][k] = lyapunov_v3(e, eps, c_tilde, cfg.gamma, cfg.gamma1, g)
        if not kernels:
            for name in ("v1", "v2", "v_lyap", "v4"):
                cols[name][k] = np.nan
        else:
            ac = controller._grid_caches(kernels[max(k - 1, 0)], g)
            z_f = controller._z_field(ac, u_hat, v_hat)
            v1, v2, v_l = lyapunov_v1_v2(u_hat, z_f, const, g)
            cols["v1"][k] = v1
            cols["v2"][k] = v2
            cols["v_lyap"][k] = v_l
            cols["v4"][k] = v_l + cols["v3"][k]
        cols["s_norm"][k] = global_norm_S(u, v, u_hat, v_hat, c_tilde, g)
        cols["rho"][k], cols["speed"][k] = from_riemann(lp, g.x, u, v)
    return cols


@pytest.mark.parametrize(
    "open_loop", [False, True], ids=["default-cadence", "open-loop"]
)
def test_history_pass_matches_per_step_record(params, open_loop):
    g = GridSpec(n_x=60, dt=0.1, t_end=20.0)
    cfg = ControllerConfig()
    kernels = []
    tr = run_closed_loop(
        params, cfg, g, open_loop=open_loop,
        on_refresh=lambda t, c_mesh, kp, ns: kernels.append(kp),
    )
    ref = _per_step_reference(tr, derive_linearized(params), cfg, g, kernels)
    for name in (
        "u_norm", "v_norm", "e_norm", "eps_norm", "control",
        "v3", "s_norm", "rho", "speed",
    ):
        assert np.array_equal(getattr(tr, name), ref[name]), name
        assert getattr(tr, name).dtype == np.float64, name
    for name in ("v1", "v2", "v_lyap", "v4"):
        got = getattr(tr, name)
        assert np.all(np.isnan(got)) == open_loop, name
        np.testing.assert_allclose(got, ref[name], rtol=1e-12, err_msg=name)


def _fmt(v: float) -> str:
    return repr(float(v))


def _per_cell_csvs(tr, comments: tuple[str, ...]) -> dict[str, str]:
    """Reference: the two CSV artifacts built cell by cell and joined."""
    head = [f"# {c}" for c in comments]
    trace = head + ["t,u_norm,v_norm,e_norm,eps_norm,U,V1,V2,V3,V4,S,kernel_ns"]
    for k in range(len(tr.t)):
        cells = [
            tr.t[k], tr.u_norm[k], tr.v_norm[k], tr.e_norm[k], tr.eps_norm[k],
            tr.control[k], tr.v1[k], tr.v2[k], tr.v3[k], tr.v4[k], tr.s_norm[k],
        ]
        trace.append(",".join([_fmt(c) for c in cells] + [str(int(tr.kernel_ns[k]))]))
    refresh = head + ["t,kernel_ns,dku_dt,dkv_dt"]
    for k in range(len(tr.refresh_t)):
        refresh.append(",".join([
            _fmt(tr.refresh_t[k]), str(int(tr.refresh_ns[k])),
            _fmt(tr.dku_dt[k]), _fmt(tr.dkv_dt[k]),
        ]))
    return {
        name: "\n".join(lines) + "\n"
        for name, lines in (
            ("trace.csv", trace), ("refresh.csv", refresh),
        )
    }


@pytest.mark.parametrize("open_loop", [False, True], ids=["closed", "open-loop"])
def test_streamed_csvs_match_per_cell_format(params, tmp_path, open_loop):
    g = GridSpec(n_x=20, dt=0.1, t_end=2.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=11), g, open_loop=open_loop)
    assert np.all(np.isnan(tr.v4)) == open_loop
    assert np.any(tr.kernel_ns > 0) != open_loop
    comments = ("mode=exact", "hash=abc")
    tr.write_csv(tmp_path / "trace.csv", comments)
    tr.write_refresh_csv(tmp_path / "refresh.csv", comments)
    for name, text in _per_cell_csvs(tr, comments).items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    tr.write_fields_csv(tmp_path / "fields.npz", comments)
    _check_fields_npz(tmp_path / "fields.npz", tr, comments)


# Reference stepping: the stepper bodies and the surrogate acquisition as
# they were before their per-run constants were cached, with the
# adaptation step clipped after the explicit projection.  Each computes
# fresh arrays and copies them into out when the loop passes one.


def _written(out, new):
    """new copied into out, as the steppers' out argument asks, or new."""
    if out is None:
        return new
    out[...] = new
    return tuple(out) if out.ndim == 2 else out


def _ref_step_plant(u, v, U, lp, g, t, out=None):
    check_cfl(g, lp)
    nu_a = lp.lam_n * g.dt / g.dx
    nu_b = lp.mu_n * g.dt / g.dx
    c = lp.c(g.x)
    u_new = np.empty_like(u)
    v_new = np.empty_like(v)
    u_new[1:] = u[1:] - nu_a * (u[1:] - u[:-1])
    v_new[:-1] = v[:-1] + nu_b * (v[1:] - v[:-1]) + g.dt * (c[:-1] * u[:-1])
    v_new[-1] = U
    u_new[0] = lp.r * v_new[0]
    assert np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))
    return _written(out, (u_new, v_new))


def _ref_step_identifier(u_hat, v_hat, c_hat, u, v, U, rho_gain, lp, g, t, out=None):
    check_cfl(g, lp)
    nu_a = lp.lam_n * g.dt / g.dx
    nu_b = lp.mu_n * g.dt / g.dx
    e = u - u_hat
    eps = v - v_hat
    w2 = l2_norm(u, g) ** 2 + l2_norm(v, g) ** 2
    u_new = np.empty_like(u_hat)
    v_new = np.empty_like(v_hat)
    u_new[1:] = u_hat[1:] - nu_a * (u_hat[1:] - u_hat[:-1]) + g.dt * (
        rho_gain * w2 * e[1:]
    )
    v_new[:-1] = v_hat[:-1] + nu_b * (v_hat[1:] - v_hat[:-1]) + g.dt * (
        c_hat[:-1] * u[:-1] + rho_gain * w2 * eps[:-1]
    )
    v_new[-1] = U
    u_new[0] = lp.r * v_new[0]
    assert np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))
    return _written(out, (u_new, v_new))


def _ref_update_c_hat(c_hat, v_hat, u, v, gamma1, gamma, c_bar, g, out=None):
    eps = v - v_hat
    raw = gamma1 * np.exp(gamma * g.x) * eps * u
    outward = ((c_hat >= c_bar) & (raw > 0)) | ((c_hat <= -c_bar) & (raw < 0))
    masked = np.where(outward, 0.0, raw)
    return _written(out, np.clip(c_hat + g.dt * masked, -c_bar, c_bar))


def _ref_acquire(self, c_mesh):
    model = self.model
    coef = _forward_stack(model.params, c_mesh / model.c_scale, len(model.hidden))[-1]
    pred = model.params["mean"] + coef @ model.params["modes"]
    lp = self.lp
    return KernelPair(mesh=self.mesh, ku_tri=pred, lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r)


_TIMING = ("kernel_ns", "refresh_ns")


def _reference_run(monkeypatch, *args, update=_ref_update_c_hat, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(controller, "step_plant", _ref_step_plant)
        m.setattr(controller, "step_identifier", _ref_step_identifier)
        m.setattr(controller, "update_c_hat", update)
        m.setattr(NeuralKernelSource, "acquire", _ref_acquire)
        return run_closed_loop(*args, **kwargs)


def _assert_traces_equal(got, want):
    for f in dataclasses.fields(got):
        if f.name not in _TIMING:
            a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b, equal_nan=True), f.name


@pytest.mark.parametrize(
    "source,open_loop",
    [("solver", False), ("neural", False), ("solver", True)],
    ids=["exact", "surrogate", "open-loop"],
)
def test_loop_matches_reference_steppers(params, monkeypatch, source, open_loop):
    g = GridSpec(n_x=60, dt=0.1, t_end=20.0)
    cfg = ControllerConfig()
    model = init_model(seed=7) if source == "neural" else None
    got = run_closed_loop(params, cfg, g, model=model, open_loop=open_loop)
    want = _reference_run(monkeypatch, params, cfg, g, model=model, open_loop=open_loop)
    _assert_traces_equal(got, want)
    assert np.any(got.c_hat != got.c_hat[0])


def test_cached_constants_do_not_leak_between_runs(params, monkeypatch):
    # Two runs back to back on one mesh whose time steps, plants and
    # adaptation weights differ: each must match its own reference, not
    # the constants of the run before it.
    runs = [
        (params, ControllerConfig(mesh_n=21), GridSpec(n_x=60, dt=0.1, t_end=5.0)),
        (
            dataclasses.replace(params, tau=45.0),
            ControllerConfig(mesh_n=21, gamma=2.5),
            GridSpec(n_x=60, dt=0.05, t_end=5.0),
        ),
    ]
    got = [run_closed_loop(*run) for run in runs]
    for run, trace in zip(runs, got):
        _assert_traces_equal(trace, _reference_run(monkeypatch, *run))


def test_loop_with_reuse_mid_run_matches_reference_steppers(params, monkeypatch):
    # With the estimate frozen on chosen steps, refreshes after the first
    # keep their pair: the loop must still match the reference steppers,
    # its z must be the per-row z of the pair active at each row, and a
    # refresh whose estimate row is unchanged hands the hook the last
    # c_mesh again, read-only.
    g = GridSpec(n_x=60, dt=0.1, t_end=3.0)
    cfg = ControllerConfig(mesh_n=21)
    hooked = []
    with monkeypatch.context() as m:
        m.setattr(controller, "update_c_hat", _freezing(update_c_hat))
        got = run_closed_loop(
            params, cfg, g, on_refresh=lambda t, c, kp, ns: hooked.append((c, kp))
        )
    want = _reference_run(
        monkeypatch, params, cfg, g, update=_freezing(_ref_update_c_hat)
    )
    _assert_traces_equal(got, want)
    assert 1 < got.kernel_acquisitions < len(hooked) == len(got.refresh_t)

    mesh = TriMesh(cfg.mesh_n)
    kept = 0
    for k, (c, kp) in enumerate(hooked):
        assert not c.flags.writeable
        assert np.array_equal(c, np.interp(mesh.x, g.x, got.c_hat[k]))
        if k and np.array_equal(got.c_hat[k], got.c_hat[k - 1]):
            assert c is hooked[k - 1][0] and kp is hooked[k - 1][1]
            kept += 1
    assert kept == len(_FROZEN)

    # Row k > 0 carries the pair refreshed at row k - 1, row 0 the first.
    caches = {}
    z = np.empty_like(got.v_hat)
    for k in range(len(got.t)):
        kp = hooked[max(k - 1, 0)][1]
        ac = caches.setdefault(id(kp), controller._grid_caches(kp, g))
        z[k] = got.v_hat[k] - ac.m_u @ got.u_hat[k] - ac.m_v @ got.v_hat[k]
    v1, v2, _ = lyapunov_v1_v2(got.u_hat, z, derive_constants(derive_linearized(params)), g)
    np.testing.assert_allclose(got.v1, v1, rtol=1e-15, atol=0)
    np.testing.assert_allclose(got.v2, v2, rtol=1e-15, atol=0)

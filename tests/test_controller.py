"""Tests for the closed-loop orchestration and boundary feedback."""

import numpy as np
import pytest

from arzno import controller
from arzno.controller import (
    ControllerConfig,
    SolverKernelSource,
    backstepping_transform,
    control_value,
    initial_plant_state,
    run_closed_loop,
)
from arzno.kernels import KernelPair, TriMesh, _volterra_weights, solve_kernels
from arzno.model import to_riemann
from arzno.sim import GridSpec, IdentifierState


def _ident_from_trace(tr, k: int, cfg: ControllerConfig) -> IdentifierState:
    return IdentifierState(
        u_hat=tr.u_hat[k].copy(),
        v_hat=tr.v_hat[k].copy(),
        c_hat=tr.c_hat[k].copy(),
        rho_gain=cfg.rho_gain,
        gamma=cfg.gamma,
        gamma1=cfg.gamma1,
        c_bar=cfg.c_bar,
        t=tr.t[k],
    )


def test_transformed_boundary_vanishes_along_trajectory(params, lp):
    # The boundary value is solved implicitly against the same quadrature
    # used by the transform, so z(1) = 0 must hold to rounding at every
    # recorded step, with the kernels that produced that step's boundary.
    g = GridSpec(n_x=60, dt=0.1, t_end=3.0)
    cfg = ControllerConfig(mesh_n=21)
    tr = run_closed_loop(params, cfg, g)
    mesh = TriMesh(cfg.mesh_n)
    for k in (1, 7, 23):
        c_mesh = np.interp(mesh.x, g.x, tr.c_hat[k - 1])
        kp = solve_kernels(
            c_mesh, lp, mesh, tol=cfg.tol, max_iter=cfg.max_iter, c_bound=cfg.c_bar
        )
        _, z = backstepping_transform(kp, _ident_from_trace(tr, k, cfg), g)
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
        mesh=mesh, ku=np.zeros((11, 11)), kv=np.zeros((11, 11)),
        lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r,
    )
    rng = np.random.default_rng(2)
    ident = IdentifierState(
        u_hat=rng.standard_normal(g.n_x + 1),
        v_hat=rng.standard_normal(g.n_x + 1),
        c_hat=np.zeros(g.n_x + 1),
    )
    assert control_value(kp, ident, g) == 0.0
    w, z = backstepping_transform(kp, ident, g)
    np.testing.assert_array_equal(w, ident.u_hat)
    np.testing.assert_array_equal(z, ident.v_hat)


def test_control_value_constant_kernel_quadrature(lp):
    # Ku(1, xi) == 1 against u_hat == 2 integrates to exactly 2 because
    # the trapezoid weights are exact for constants.
    g = GridSpec(n_x=50, dt=0.1, t_end=1.0)
    mesh = TriMesh(11)
    kp = KernelPair(
        mesh=mesh, ku=np.tril(np.ones((11, 11))), kv=np.zeros((11, 11)),
        lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r,
    )
    ident = IdentifierState(
        u_hat=np.full(g.n_x + 1, 2.0),
        v_hat=np.zeros(g.n_x + 1),
        c_hat=np.zeros(g.n_x + 1),
    )
    assert control_value(kp, ident, g) == pytest.approx(2.0, rel=1e-12)


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
    cfg = ControllerConfig(mesh_n=21, kernel_refresh_dt=0.1)
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


def test_refresh_cadence_coarser_than_dt(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=2.0)
    cfg = ControllerConfig(mesh_n=21, kernel_refresh_dt=0.5)
    tr = run_closed_loop(params, cfg, g)
    np.testing.assert_allclose(tr.refresh_t, [0.0, 0.5, 1.0, 1.5], atol=1e-9)


def test_open_loop_has_no_kernel_functionals(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g, open_loop=True)
    assert np.all(np.isnan(tr.v1))
    assert np.all(np.isnan(tr.v2))
    assert np.all(np.isnan(tr.v4))
    assert np.all(np.isfinite(tr.v3))
    assert len(tr.refresh_t) == 0


def test_closed_loop_functionals_are_finite(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g)
    for col in (tr.v1, tr.v2, tr.v_lyap, tr.v3, tr.v4, tr.s_norm):
        assert np.all(np.isfinite(col))


def test_initial_plant_state_families(lp):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    s = initial_plant_state(lp, g, "zero")
    assert np.all(s.u == 0.0) and np.all(s.v == 0.0)

    s = initial_plant_state(lp, g, "sine")
    bump = np.sin(3.0 * np.pi * g.x)
    want_u, want_v = to_riemann(
        lp, g.x, lp.rho_star * (1.0 + 0.1 * bump), lp.v_star * (1.0 - 0.01 * bump)
    )
    np.testing.assert_array_equal(s.u, want_u)
    np.testing.assert_array_equal(s.v, want_v)

    with pytest.raises(ValueError, match="sine"):
        initial_plant_state(lp, g, "box")


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

    path = tmp_path / "fields.csv"
    tr.write_fields_csv(path)
    header, arr, _ = read_table(path)
    assert header == ["t", "x", "u", "v", "rho", "speed"]
    assert arr.shape == (len(tr.t) * len(tr.x), 6)
    np.testing.assert_array_equal(arr[: len(tr.x), 1], tr.x)
    np.testing.assert_array_equal(
        arr[:, 4].reshape(len(tr.t), len(tr.x)), tr.rho
    )


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
        ({"kernel_refresh_dt": 0.0}, "positive"),
    ],
)
def test_controller_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ControllerConfig(**kwargs)


def test_refresh_cadence_validation():
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match="at least"):
        ControllerConfig(kernel_refresh_dt=0.05).refresh_every(g)
    with pytest.raises(ValueError, match="multiple"):
        ControllerConfig(kernel_refresh_dt=0.25).refresh_every(g)
    assert ControllerConfig(kernel_refresh_dt=0.3).refresh_every(g) == 3


def test_neural_source_requires_model(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    cfg = ControllerConfig(mesh_n=21, kernel_source="neural")
    with pytest.raises(ValueError, match="model"):
        run_closed_loop(params, cfg, g)


def test_solver_source_threads_its_options(lp):
    mesh = TriMesh(9)
    source = SolverKernelSource(lp, mesh, tol=1e-10, max_iter=300, c_bound=0.02)
    kp = source.acquire(np.full(9, -0.019))
    ref = solve_kernels(np.full(9, -0.019), lp, mesh, tol=1e-10, c_bound=0.02)
    np.testing.assert_array_equal(kp.ku, ref.ku)
    np.testing.assert_array_equal(kp.kv, ref.kv)


def _four_corner_rows(tri: np.ndarray, mesh: TriMesh, g: GridSpec) -> np.ndarray:
    """Reference: bilinear gather of the four mesh corners around each
    grid node pair, on the mirrored table, lower triangle kept."""
    work = controller._mirror(tri)
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
    for tri in (kp.ku, kp.kv):
        got = np.tril(controller._rows_on_grid(tri, mesh, g))
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
    monkeypatch.setattr(controller, "_rows_on_grid", _four_corner_rows)
    ref = run_closed_loop(params, cfg, g)
    for name in ("u", "v", "u_hat", "v_hat", "c_hat", "control"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("v1", "v2", "v_lyap", "v4"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name), rtol=1e-12)

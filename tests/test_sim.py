"""Upwind stepper, identifier, and adaptation-law properties."""

import dataclasses
import pickle

import numpy as np
import pytest

from arzno.kernels import TriMesh
from arzno.model import LinearizedParams
from arzno.sim import (
    CFLError,
    GridSpec,
    IdentifierState,
    InstabilityError,
    PlantState,
    check_cfl,
    l2_norm,
    project,
    step_identifier,
    step_plant,
    update_c_hat,
)


def _transport_only_lp() -> LinearizedParams:
    """Default speeds with the relaxation coupling switched off."""
    return LinearizedParams(
        lam=10.0, mu=20.0, r=1.12, c_bar=1e-18, tau=1e18,
        v_star=10.0, p_prime_star=250.0, length=600.0,
    )


def test_grid_properties():
    g = GridSpec(n_x=60, dt=0.1, t_end=300.0)
    assert g.dx == pytest.approx(1.0 / 60.0)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0 and g.x.size == 61
    assert g.n_steps == 3000


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(n_x=15)
    with pytest.raises(ValueError):
        GridSpec(dt=0.0)
    with pytest.raises(ValueError):
        GridSpec(t_end=-1.0)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(t_end=float("inf"))
    # A horizon between two steps would be silently rounded to one.
    with pytest.raises(ValueError, match="multiple"):
        GridSpec(dt=0.1, t_end=0.25)


@pytest.mark.parametrize(
    "t_end,steps",
    # The shipped, dataset and test horizons, and the bench command's
    # harvest horizons (refreshes x 0.1 s cadence).
    [(300.0, 3000), (50.0, 500), (10.0, 100), (2.0, 20), (3 * 0.1, 3),
     (200 * 0.1, 200), (0.0, 0)],
)
def test_grid_horizons_on_the_step_lattice(t_end, steps):
    assert GridSpec(n_x=60, dt=0.1, t_end=t_end).n_steps == steps


def test_node_coordinates_are_cached_and_read_only():
    g = GridSpec(n_x=60, dt=0.1, t_end=1.0)
    mesh = TriMesh(41)
    for x, n in ((g.x, 61), (mesh.x, 41)):
        np.testing.assert_array_equal(x, np.linspace(0.0, 1.0, n))
        with pytest.raises(ValueError):
            x[0] = 1.0
    assert g.x is g.x and mesh.x is mesh.x
    assert GridSpec(n_x=40).x is TriMesh(41).x

    g2 = dataclasses.replace(g, n_x=32)
    assert g2.x.size == 33 and g.x.size == 61

    # The coordinates are not instance state: equality, hashing and
    # pickling (gen-dataset --jobs ships grids to worker processes) see
    # only the three fields.
    assert vars(g) == {"n_x": 60, "dt": 0.1, "t_end": 1.0}
    assert g == GridSpec(n_x=60, dt=0.1, t_end=1.0) and g != g2
    assert hash(g) == hash(GridSpec(n_x=60, dt=0.1, t_end=1.0))
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and back.x is g.x


def test_cfl_number_value(lp):
    g = GridSpec(n_x=60, dt=0.1)
    # dt * mu_n / dx = 0.1 * (1/30) * 60 = 0.2.
    assert check_cfl(g, lp) == pytest.approx(0.2, rel=1e-12)


def test_cfl_violation_raises(lp):
    g = GridSpec(n_x=60, dt=20.0)
    with pytest.raises(CFLError):
        check_cfl(g, lp)
    s = PlantState(u=np.zeros(61), v=np.zeros(61))
    with pytest.raises(CFLError):
        step_plant(s, lp, 0.0, g)


def test_v_pulse_exact_shift_at_unit_courant():
    # With nu_b = 1 the donor-cell update is the exact left shift, and a
    # 0/1 pulse makes the arithmetic itself exact.
    lp = _transport_only_lp()
    g = GridSpec(n_x=32, dt=(1.0 / 32.0) / lp.mu_n)
    v0 = np.zeros(33)
    v0[20] = 1.0
    s = PlantState(u=np.zeros(33), v=v0)
    for _ in range(5):
        s = step_plant(s, lp, 0.0, g)
    expect = np.zeros(33)
    expect[15] = 1.0
    assert np.array_equal(s.v, expect)
    assert np.array_equal(s.u, np.zeros(33))


def test_upwind_first_order_convergence():
    # Smooth bump advected left; error vs the characteristic solution
    # shrinks at first order under simultaneous dx, dt refinement.
    lp = _transport_only_lp()
    t_f = 3.75
    errs = []
    for n_x in (64, 128):
        g = GridSpec(n_x=n_x, dt=15.0 / n_x, t_end=t_f)
        v0 = np.exp(-80.0 * (g.x - 0.65) ** 2)
        s = PlantState(u=np.zeros(n_x + 1), v=v0)
        for _ in range(g.n_steps):
            s = step_plant(s, lp, 0.0, g)
        exact = np.exp(-80.0 * (g.x + lp.mu_n * t_f - 0.65) ** 2)
        errs.append(np.max(np.abs(s.v - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 0.7 <= order <= 1.3


def test_inlet_reflection_applied(lp):
    g = GridSpec(n_x=32, dt=0.1)
    v = np.linspace(0.5, -0.2, 33)
    s = PlantState(u=np.zeros(33), v=v)
    s2 = step_plant(s, lp, 0.3, g)
    assert s2.v[-1] == 0.3
    assert s2.u[0] == pytest.approx(lp.r * s2.v[0], rel=1e-15)
    assert s2.t == pytest.approx(0.1)


def test_l2_norm_sine_oracle():
    # sin(3 pi x) spans full half-periods of sin^2, where the trapezoid
    # rule integrates exactly: ||f|| = sqrt(1/2).
    g = GridSpec(n_x=60, dt=0.1)
    f = np.sin(3.0 * np.pi * g.x)
    assert l2_norm(f, g) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_l2_norm_shape_guard():
    g = GridSpec(n_x=60, dt=0.1)
    with pytest.raises(ValueError):
        l2_norm(np.zeros(60), g)


def test_exact_knowledge_invariance(lp):
    # Identifier seeded with the true state and true coefficient follows
    # the plant through identical arithmetic: e and eps stay at zero.
    g = GridSpec(n_x=60, dt=0.1)
    rng = np.random.default_rng(3)
    u0 = 0.1 * rng.standard_normal(61)
    v0 = 0.1 * rng.standard_normal(61)
    c_true = np.asarray(lp.c(g.x))
    s = PlantState(u=u0, v=v0)
    ident = IdentifierState(
        u_hat=u0.copy(), v_hat=v0.copy(), c_hat=c_true.copy(),
        c_bar=lp.c_bar,
    )
    for k in range(100):
        control = float(np.sin(0.1 * k))
        ident = step_identifier(ident, s, control, lp, g)
        s = step_plant(s, lp, control, g)
        ident = update_c_hat(ident, s, g)
        assert np.max(np.abs(s.u - ident.u_hat)) <= 1e-10
        assert np.max(np.abs(s.v - ident.v_hat)) <= 1e-10
    np.testing.assert_array_equal(ident.c_hat, c_true)


def test_projection_cases():
    c_bar = 1.0
    c = np.array([1.0, 1.0, -1.0, -1.0, 0.3, 0.99])
    upd = np.array([0.5, -0.5, -0.5, 0.5, 2.0, 5.0])
    out = project(c, upd, c_bar)
    # Outward pushes at the bound are zeroed, everything else passes.
    np.testing.assert_array_equal(out, [0.0, -0.5, 0.0, 0.5, 2.0, 5.0])


def test_update_c_hat_respects_bound(lp):
    g = GridSpec(n_x=24, dt=0.1)
    rng = np.random.default_rng(11)
    s = PlantState(u=5.0 * rng.standard_normal(25), v=5.0 * rng.standard_normal(25))
    ident = IdentifierState(
        u_hat=np.zeros(25), v_hat=np.zeros(25), c_hat=np.zeros(25),
        gamma1=1e6, c_bar=0.02,
    )
    for _ in range(10):
        ident = update_c_hat(ident, s, g)
    assert np.max(np.abs(ident.c_hat)) <= 0.02 + 1e-15


def test_update_c_hat_drives_toward_regressor_sign():
    g = GridSpec(n_x=24, dt=0.1)
    s = PlantState(u=np.ones(25), v=np.ones(25))
    ident = IdentifierState(
        u_hat=np.ones(25), v_hat=np.zeros(25), c_hat=np.zeros(25),
        gamma1=0.01, c_bar=0.02,
    )
    out = update_c_hat(ident, s, g)
    # eps = 1 and u = 1, so the update is positive everywhere.
    assert np.all(out.c_hat > 0)
    assert np.array_equal(out.u_hat, ident.u_hat)


def test_instability_detected(lp):
    g = GridSpec(n_x=32, dt=0.1)
    s = PlantState(u=np.zeros(33), v=np.zeros(33))
    with pytest.raises(InstabilityError) as info:
        step_plant(s, lp, np.inf, g)
    assert info.value.t == pytest.approx(0.1)


def test_state_arrays_read_only():
    s = PlantState(u=np.zeros(33), v=np.zeros(33))
    with pytest.raises(ValueError):
        s.u[0] = 1.0


def test_state_validation():
    with pytest.raises(ValueError):
        PlantState(u=np.zeros(10), v=np.zeros(11))
    with pytest.raises(ValueError):
        IdentifierState(
            u_hat=np.zeros(5), v_hat=np.zeros(5), c_hat=np.full(5, 0.5),
            c_bar=0.02,
        )

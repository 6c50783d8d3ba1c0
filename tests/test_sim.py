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
    InstabilityError,
    check_cfl,
    l2_norm,
    regressor_norm2,
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
    # harvest horizons (steps x 0.1 s dt).
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
    # pickling see only the three fields.
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
    z = np.zeros(61)
    # The per-run stepping constants are cached, the failed check is not:
    # every call raises, not only the first.
    for _ in range(3):
        with pytest.raises(CFLError):
            step_plant(z, z, 0.0, lp, g)
        with pytest.raises(CFLError):
            step_identifier(z, z, z, z, z, 0.0, 0.05, lp, g)
    step_plant(z, z, 0.0, lp, GridSpec(n_x=60, dt=0.1))
    with pytest.raises(CFLError):
        step_plant(z, z, 0.0, lp, g)


def test_v_pulse_exact_shift_at_unit_courant():
    # With nu_b = 1 the donor-cell update is the exact left shift, and a
    # 0/1 pulse makes the arithmetic itself exact.
    lp = _transport_only_lp()
    g = GridSpec(n_x=32, dt=(1.0 / 32.0) / lp.mu_n)
    v0 = np.zeros(33)
    v0[20] = 1.0
    u, v = np.zeros(33), v0
    for _ in range(5):
        u, v = step_plant(u, v, 0.0, lp, g)
    expect = np.zeros(33)
    expect[15] = 1.0
    assert np.array_equal(v, expect)
    assert np.array_equal(u, np.zeros(33))


def test_upwind_first_order_convergence():
    # Smooth bump advected left; error vs the characteristic solution
    # shrinks at first order under simultaneous dx, dt refinement.
    lp = _transport_only_lp()
    t_f = 3.75
    errs = []
    for n_x in (64, 128):
        g = GridSpec(n_x=n_x, dt=15.0 / n_x, t_end=t_f)
        v0 = np.exp(-80.0 * (g.x - 0.65) ** 2)
        u, v = np.zeros(n_x + 1), v0
        for _ in range(g.n_steps):
            u, v = step_plant(u, v, 0.0, lp, g)
        exact = np.exp(-80.0 * (g.x + lp.mu_n * t_f - 0.65) ** 2)
        errs.append(np.max(np.abs(v - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 0.7 <= order <= 1.3


def test_inlet_reflection_applied(lp):
    g = GridSpec(n_x=32, dt=0.1)
    v = np.linspace(0.5, -0.2, 33)
    u2, v2 = step_plant(np.zeros(33), v, 0.3, lp, g)
    assert v2[-1] == 0.3
    assert u2[0] == pytest.approx(lp.r * v2[0], rel=1e-15)


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
    # The identifier's regressor norm guards its grid the same way, even
    # when plant and identifier fields agree with each other.
    z = np.zeros(33)
    with pytest.raises(ValueError, match="grid"):
        step_identifier(z, z, z, z, z, 0.0, 0.05, _transport_only_lp(), g)


def test_exact_knowledge_invariance(lp):
    # Identifier seeded with the true state and true coefficient follows
    # the plant through identical arithmetic: e and eps stay at zero.
    g = GridSpec(n_x=60, dt=0.1)
    rng = np.random.default_rng(3)
    u0 = 0.1 * rng.standard_normal(61)
    v0 = 0.1 * rng.standard_normal(61)
    c_true = np.asarray(lp.c(g.x))
    u, v = u0, v0
    u_hat, v_hat, c_hat = u0.copy(), v0.copy(), c_true.copy()
    for k in range(100):
        control = float(np.sin(0.1 * k))
        u_hat, v_hat = step_identifier(
            u_hat, v_hat, c_hat, u, v, control, 0.05, lp, g
        )
        u, v = step_plant(u, v, control, lp, g)
        c_hat = update_c_hat(c_hat, v_hat, u, v, 0.01, 1.0, lp.c_bar, g)
        assert np.max(np.abs(u - u_hat)) <= 1e-10
        assert np.max(np.abs(v - v_hat)) <= 1e-10
    np.testing.assert_array_equal(c_hat, c_true)


def _project(c_hat: np.ndarray, update: np.ndarray, c_bar: float) -> np.ndarray:
    """Reference projection: zero the update where c_hat sits on the bound
    and the update points outward; elsewhere pass it through."""
    outward = ((c_hat >= c_bar) & (update > 0)) | ((c_hat <= -c_bar) & (update < 0))
    return np.where(outward, 0.0, update)


def test_clip_alone_equals_clip_of_projected_update():
    # update_c_hat clips c_hat + dt * raw; the reference clips the projected
    # update.  Both must agree bit for bit, at and just past the bound, for
    # inward and outward updates and for infinite ones.
    c_bar, dt = 0.02, 0.1
    rng = np.random.default_rng(17)
    near = c_bar * np.array([1.0, 1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 1e-12])
    special = np.array([np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300])
    hit = np.zeros(4, dtype=bool)
    for _ in range(200):
        c = rng.uniform(-c_bar, c_bar, 64)
        c[:32] = rng.choice(np.concatenate([near, -near]), 32)
        raw = rng.standard_normal(64) * 10.0 ** rng.integers(-16, 2, 64)
        raw[:8] = rng.choice(special, 8)
        got = np.minimum(np.maximum(c + dt * raw, -c_bar), c_bar)
        want = np.clip(c + dt * _project(c, raw, c_bar), -c_bar, c_bar)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        at = np.abs(c) >= c_bar
        outward = np.sign(raw) == np.sign(c)
        hit |= [np.any(at & outward), np.any(at & ~outward),
                np.any(np.isinf(raw) & at), np.any(np.abs(c) > c_bar)]
    assert hit.all()

    # The same through update_c_hat, with every node on or past the bound.
    g = GridSpec(n_x=24, dt=dt)
    c0 = np.repeat([c_bar, -c_bar, c_bar * (1 + 1e-13), -c_bar * (1 + 1e-13)], 7)[:25]
    u, v = rng.standard_normal((2, 25))
    v_hat = np.zeros(25)
    raw = 5.0 * np.exp(1.0 * g.x) * (v - v_hat) * u
    want = np.clip(c0 + g.dt * _project(c0, raw, c_bar), -c_bar, c_bar)
    assert np.array_equal(update_c_hat(c0, v_hat, u, v, 5.0, 1.0, c_bar, g), want)


def test_update_c_hat_respects_bound(lp):
    g = GridSpec(n_x=24, dt=0.1)
    rng = np.random.default_rng(11)
    u, v = 5.0 * rng.standard_normal((2, 25))
    c_hat = np.zeros(25)
    for _ in range(10):
        c_hat = update_c_hat(c_hat, np.zeros(25), u, v, 1e6, 1.0, 0.02, g)
    assert np.max(np.abs(c_hat)) <= 0.02 + 1e-15


def test_update_c_hat_drives_toward_regressor_sign():
    g = GridSpec(n_x=24, dt=0.1)
    out = update_c_hat(np.zeros(25), np.zeros(25), np.ones(25), np.ones(25),
                       0.01, 1.0, 0.02, g)
    # eps = 1 and u = 1, so the update is positive everywhere.
    assert np.all(out > 0)


def test_instability_detected(lp):
    g = GridSpec(n_x=32, dt=0.1)
    z = np.zeros(33)
    with pytest.raises(InstabilityError, match="plant state") as info:
        step_plant(z, z, np.inf, lp, g)
    assert info.value.t == pytest.approx(0.1)
    # The failing step's end time: a step from t = 2.5 fails at t = 2.6.
    with pytest.raises(InstabilityError, match="identifier state") as info:
        step_identifier(z, z, z, z, z, np.inf, 0.05, lp, g, 2.5)
    assert info.value.t == 2.5 + 0.1


def test_steppers_return_fresh_arrays_and_leave_inputs_alone(lp):
    g = GridSpec(n_x=32, dt=0.1)
    rng = np.random.default_rng(5)
    u, v, u_hat, v_hat = rng.standard_normal((4, 33))
    c_hat = rng.uniform(-0.02, 0.02, 33)
    inputs = (u, v, u_hat, v_hat, c_hat)
    before = pickle.dumps(inputs)
    out = (
        *step_plant(u, v, 0.3, lp, g),
        *step_identifier(u_hat, v_hat, c_hat, u, v, 0.3, 0.05, lp, g),
        update_c_hat(c_hat, v_hat, u, v, 0.01, 1.0, 0.02, g),
    )
    assert pickle.dumps(inputs) == before
    assert all(a.flags.writeable for a in inputs)
    for arr in out:
        assert arr.dtype == np.float64 and arr.shape == (33,)
        assert arr.flags.writeable and arr.flags.owndata
        assert not any(np.shares_memory(arr, a) for a in inputs)
    for i, arr in enumerate(out):
        assert not any(np.shares_memory(arr, b) for b in out[i + 1:])


def test_steppers_write_into_out_what_they_would_return(lp):
    # Given out, each stepper writes the arrays it would return fresh, bit
    # for bit, into out's rows and returns those rows.
    g = GridSpec(n_x=32, dt=0.1)
    rng = np.random.default_rng(6)
    u, v, u_hat, v_hat = rng.standard_normal((4, 33))
    c_hat = rng.uniform(-0.02, 0.02, 33)
    calls = [
        lambda **kw: step_plant(u, v, 0.3, lp, g, 1.0, **kw),
        lambda **kw: step_identifier(u_hat, v_hat, c_hat, u, v, 0.3, 0.05, lp, g, 1.0, **kw),
    ]
    for call in calls:
        out = np.full((2, 33), np.nan)
        got = call(out=out)
        for row, arr, want in zip(out, got, call()):
            assert np.shares_memory(arr, row) and np.array_equal(row, want)
    out = np.full(33, np.nan)
    got = update_c_hat(c_hat, v_hat, u, v, 0.01, 1.0, 0.02, g, out=out)
    assert got is out
    assert np.array_equal(out, update_c_hat(c_hat, v_hat, u, v, 0.01, 1.0, 0.02, g))


def test_regressor_norm_is_the_sum_of_squared_l2_norms():
    # The identifier's stacked norm keeps l2_norm's arithmetic row by row.
    g = GridSpec(n_x=60, dt=0.1)
    rng = np.random.default_rng(7)
    for scale in (1e-6, 1.0, 1e3):
        u, v = scale * rng.standard_normal((2, 61))
        assert regressor_norm2(np.array((u, v)), g) == l2_norm(u, g) ** 2 + l2_norm(v, g) ** 2

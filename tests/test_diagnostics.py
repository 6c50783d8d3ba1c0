"""Tests for the Lyapunov functionals and certification constants."""

import numpy as np
import pytest

from arzno.controller import ControllerConfig, run_closed_loop
from arzno.diagnostics import (
    LyapunovConstants,
    derive_constants,
    epsilon0_report,
    global_norm_S,
    lyapunov_v1_v2,
    lyapunov_v3,
    norm_equivalence_constants,
)
from arzno.kernels import kernel_sup_cap
from arzno.model import TrafficParams
from arzno.sim import GridSpec, l2_norm


def _fine_grid(n_x: int = 4000) -> GridSpec:
    return GridSpec(n_x=n_x, dt=1e-4, t_end=1e-4)


def test_v1_matches_closed_form_for_constant_field():
    # w == 1 gives V1 = int_0^1 e^{-delta x} dx = (1 - e^{-delta}) / delta.
    g = _fine_grid()
    const = LyapunovConstants(a=1.0, delta=2.5, k=0.7)
    ones = np.ones(g.n_x + 1)
    v1, _, _ = lyapunov_v1_v2(ones, np.zeros(g.n_x + 1), const, g)
    exact = (1.0 - np.exp(-const.delta)) / const.delta
    assert v1 == pytest.approx(exact, rel=1e-6)


def test_v2_matches_closed_form_for_constant_field():
    g = _fine_grid()
    const = LyapunovConstants(a=1.0, delta=1.0, k=1.3)
    ones = np.ones(g.n_x + 1)
    _, v2, _ = lyapunov_v1_v2(np.zeros(g.n_x + 1), ones, const, g)
    exact = (np.exp(const.k) - 1.0) / const.k
    assert v2 == pytest.approx(exact, rel=1e-6)


def test_v_combines_v1_and_v2_with_weight_a():
    g = GridSpec(n_x=64, dt=0.01, t_end=0.01)
    const = LyapunovConstants(a=0.6772, delta=2.0, k=0.5)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(g.n_x + 1)
    z = rng.standard_normal(g.n_x + 1)
    v1, v2, v = lyapunov_v1_v2(w, z, const, g)
    assert v == pytest.approx(v1 + const.a * v2, rel=1e-14)


@pytest.mark.parametrize(
    "const",
    [
        LyapunovConstants(a=1.0, delta=0.0, k=1.0),
        LyapunovConstants(a=1.0, delta=1.0, k=-0.1),
        LyapunovConstants(a=0.0, delta=1.0, k=1.0),
    ],
)
def test_v1_v2_rejects_bad_constants(const):
    g = GridSpec(n_x=16, dt=0.01, t_end=0.01)
    z = np.zeros(g.n_x + 1)
    with pytest.raises(ValueError):
        lyapunov_v1_v2(z, z, const, g)


def test_v1_v2_rejects_mismatched_field():
    g = GridSpec(n_x=16, dt=0.01, t_end=0.01)
    const = LyapunovConstants(a=1.0, delta=1.0, k=1.0)
    with pytest.raises(ValueError, match="grid"):
        lyapunov_v1_v2(np.zeros(g.n_x), np.zeros(g.n_x + 1), const, g)


def test_v3_reduces_to_estimate_error_term():
    # With e = eps = 0 and a constant c_tilde the trapezoid rule is
    # exact, so V3 = c_tilde^2 / gamma1 to rounding.
    g = GridSpec(n_x=60, dt=0.1, t_end=0.1)
    zero = np.zeros(g.n_x + 1)
    ct = np.full(g.n_x + 1, 0.0125)
    v3 = lyapunov_v3(zero, zero, ct, gamma=1.0, gamma1=0.01, g=g)
    assert v3 == pytest.approx(0.0125**2 / 0.01, rel=1e-14)


def test_v3_weights_match_closed_forms():
    g = _fine_grid()
    ones = np.ones(g.n_x + 1)
    zero = np.zeros(g.n_x + 1)
    gamma = 1.7
    got = lyapunov_v3(ones, zero, zero, gamma, 1.0, g)
    assert got == pytest.approx((1.0 - np.exp(-gamma)) / gamma, rel=1e-6)
    got = lyapunov_v3(zero, ones, zero, gamma, 1.0, g)
    assert got == pytest.approx((np.exp(gamma) - 1.0) / gamma, rel=1e-6)


@pytest.mark.parametrize("gamma,gamma1", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
def test_v3_rejects_bad_rates(gamma, gamma1):
    g = GridSpec(n_x=16, dt=0.01, t_end=0.01)
    z = np.zeros(g.n_x + 1)
    with pytest.raises(ValueError):
        lyapunov_v3(z, z, z, gamma, gamma1, g)


def test_derive_constants_against_hand_computation(lp):
    const = derive_constants(lp, margin=0.1)
    a = (lp.lam * lp.r**2 + 1.0) / lp.mu
    assert const.a == pytest.approx(a, rel=1e-14)
    delta_floor = max(1.0, (4.0 + 8.0 + 4.0 * a * 4.0) / lp.lam)
    assert const.delta == pytest.approx(1.1 * delta_floor, rel=1e-14)
    k_floor = (8.0 * np.exp(-const.delta) + 7.0 * a) / (a * lp.mu)
    assert const.k == pytest.approx(1.1 * k_floor, rel=1e-14)
    assert const.delta >= 1.0


def test_derive_constants_margin_monotone(lp):
    lo = derive_constants(lp, margin=0.05)
    hi = derive_constants(lp, margin=0.5)
    assert hi.delta > lo.delta
    assert hi.a == lo.a


def test_derive_constants_rejects_negative_margin(lp):
    with pytest.raises(ValueError, match="margin"):
        derive_constants(lp, margin=-0.1)


def test_global_norm_s_counts_five_components():
    g = GridSpec(n_x=32, dt=0.01, t_end=0.01)
    ones = np.ones(g.n_x + 1)
    assert global_norm_S(ones, ones, ones, ones, ones, g) == pytest.approx(
        5.0, rel=1e-14
    )


def test_epsilon0_closed_form():
    # d = 1, mu = 20, k = 0, l_bar = 0 collapses to 1 / (2 sqrt(20)).
    assert epsilon0_report(1.0, 20.0, 0.0, 0.0) == pytest.approx(
        1.0 / (2.0 * np.sqrt(20.0)), rel=1e-14
    )


def test_epsilon0_shrinks_with_kernel_bound():
    loose = epsilon0_report(1.0, 20.0, 0.5, 0.0)
    tight = epsilon0_report(1.0, 20.0, 0.5, 3.0)
    assert tight < loose


@pytest.mark.parametrize("d,mu", [(0.5, 20.0), (0.2, 20.0), (1.0, 0.0)])
def test_epsilon0_rejects_bad_arguments(d, mu):
    with pytest.raises(ValueError):
        epsilon0_report(d, mu, 0.0, 0.0)


def test_norm_equivalence_brackets_v4_along_trajectory(params, lp):
    # k1 S <= V4 <= k2 S must hold at every recorded step of a closed
    # loop.  The kernel bound comes from the a-priori cap and the
    # inverse bound from the Neumann series k_bar e^{k_bar}.
    g = GridSpec(n_x=60, dt=0.1, t_end=20.0)
    cfg = ControllerConfig(mesh_n=21)
    tr = run_closed_loop(params, cfg, g)
    const = derive_constants(lp)
    k_bar = kernel_sup_cap(cfg.c_bar, lp.lam_n, lp.mu_n)
    l_bar = k_bar * np.exp(k_bar)
    k1, k2 = norm_equivalence_constants(const, cfg.gamma, cfg.gamma1, k_bar, l_bar)
    assert 0.0 < k1 < k2
    assert np.all(k1 * tr.s_norm <= tr.v4 * (1.0 + 1e-12))
    assert np.all(tr.v4 <= k2 * tr.s_norm * (1.0 + 1e-12))


def test_v3_never_increases_in_closed_loop(params):
    g = GridSpec(n_x=60, dt=0.1, t_end=30.0)
    tr = run_closed_loop(params, ControllerConfig(mesh_n=21), g)
    assert np.all(np.diff(tr.v3) <= 1e-6 * tr.v3[0])
    assert tr.v3[-1] < tr.v3[0]


def test_stacked_fields_give_the_row_by_row_values():
    g = GridSpec(n_x=60, dt=0.1, t_end=0.1)
    const = LyapunovConstants(a=0.6772, delta=2.0, k=0.5)
    rng = np.random.default_rng(5)
    u, v, uh, vh, ct = rng.standard_normal((5, 7, g.n_x + 1))
    got = {
        "l2": l2_norm(u, g),
        "v1_v2": np.stack(lyapunov_v1_v2(u, v, const, g)),
        "v3": lyapunov_v3(u, v, ct, 1.3, 0.01, g),
        "S": global_norm_S(u, v, uh, vh, ct, g),
    }
    rows = [
        {
            "l2": l2_norm(u[k], g),
            "v1_v2": lyapunov_v1_v2(u[k], v[k], const, g),
            "v3": lyapunov_v3(u[k], v[k], ct[k], 1.3, 0.01, g),
            "S": global_norm_S(u[k], v[k], uh[k], vh[k], ct[k], g),
        }
        for k in range(7)
    ]
    for name, stacked in got.items():
        assert np.array_equal(stacked, np.array([r[name] for r in rows]).T), name
    assert all(isinstance(x, float) for x in rows[0]["v1_v2"])
    assert isinstance(rows[0]["S"], float)


@pytest.mark.parametrize(
    "shape",
    [(3, 60), (61, 3), (2, 3, 61), ()],
    ids=["short-rows", "transposed", "3d", "scalar"],
)
def test_stacked_shape_guard(shape):
    g = GridSpec(n_x=60, dt=0.1, t_end=0.1)
    const = LyapunovConstants(a=1.0, delta=1.0, k=1.0)
    bad = np.zeros(shape)
    with pytest.raises(ValueError, match="grid"):
        l2_norm(bad, g)
    with pytest.raises(ValueError, match="grid"):
        lyapunov_v1_v2(bad, bad, const, g)
    with pytest.raises(ValueError, match="grid"):
        lyapunov_v3(bad, bad, bad, 1.0, 1.0, g)
    with pytest.raises(ValueError, match="grid"):
        global_norm_S(bad, bad, bad, bad, bad, g)

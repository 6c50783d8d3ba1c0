"""Kernel solver oracles: structure, an independent scheme, convergence.

The cross-check oracle marches the Goursat system with a first-order
upwind finite-difference scheme, a different discretization family from
the solver's characteristic-trapezoid iteration, so agreement is
evidence about the equations rather than the implementation.
"""

import warnings

import numpy as np
import pytest

from arzno.kernels import (
    ConvergenceError,
    InverseKernelPair,
    KernelPair,
    TriMesh,
    _volterra_weights,
    kernel_sup_cap,
    kernel_time_derivative,
    solve_inverse_kernels,
    solve_kernels,
)
from arzno.controller import (
    ControllerConfig,
    inverse_transform_on_mesh,
    run_closed_loop,
    transform_on_mesh,
)
from arzno.model import LinearizedParams
from arzno.sim import GridSpec


def _march_kernels(c: np.ndarray, lam_n: float, mu_n: float, r: float) -> np.ndarray:
    """Independent first-order FD march of the Ku equation.

    Rows advance in x; the xi-derivative is upwinded toward the diagonal
    (where the data lives), and the node one step below the diagonal is
    seeded from the characteristic foot on the diagonal itself.  Kv is
    eliminated through its edge representation.
    """
    n = c.size
    h = 1.0 / (n - 1)
    a, b = lam_n, mu_n
    ratio = a * r / b
    x = np.linspace(0.0, 1.0, n)
    ku = np.zeros((n, n))
    ku[0, 0] = -c[0] / (a + b)
    for i in range(n - 1):
        if i >= 1:
            j = np.arange(i)
            kv_row = ratio * ku[i - j, 0]
            ku[i + 1, :i] = (
                ku[i, j]
                + (a / b) * (ku[i, j + 1] - ku[i, j])
                + (h / b) * c[j] * kv_row
            )
        # Node (i+1, i): integrate from the diagonal foot, a 2/3 h run.
        s = h / (1.0 + a / b)
        x_foot = x[i + 1] - s
        c_foot = np.interp(x_foot, x, c)
        ku[i + 1, i] = -c_foot / (a + b) + (s / b) * c[i] * ratio * ku[1, 0]
        ku[i + 1, i + 1] = -c[i + 1] / (a + b)
    return ku


def test_trimesh_properties():
    mesh = TriMesh(41)
    assert mesh.n_nodes == 861
    assert mesh.dx == pytest.approx(1.0 / 40.0)
    with pytest.raises(ValueError):
        TriMesh(7)


def test_zero_coupling_zero_kernels(lp):
    mesh = TriMesh(17)
    kp = solve_kernels(np.zeros(17), lp, mesh)
    assert np.array_equal(kp.ku, np.zeros((17, 17)))
    assert np.array_equal(kp.kv, np.zeros((17, 17)))


def test_diagonal_condition_exact(lp):
    mesh = TriMesh(21)
    rng = np.random.default_rng(5)
    c = -lp.c_bar * rng.uniform(0.2, 1.0, 21)
    kp = solve_kernels(c, lp, mesh)
    diag = np.diagonal(kp.ku)
    np.testing.assert_allclose(diag, -c / (lp.lam_n + lp.mu_n), rtol=1e-14)


def test_edge_relation_and_kv_structure(lp):
    mesh = TriMesh(21)
    kp = solve_kernels(lp.c_samples(21), lp, mesh)
    ratio = lp.lam_n * lp.r / lp.mu_n
    ii, jj = np.tril_indices(21)
    # Kv(x, 0) = (lam r / mu) Ku(x, 0) on the edge.
    np.testing.assert_allclose(kp.kv[:, 0], ratio * kp.ku[:, 0], rtol=1e-14)
    # Kv rides the difference coordinate: constant along x - xi.
    np.testing.assert_allclose(kp.kv[ii, jj], kp.kv[ii - jj, 0], rtol=1e-14)
    # Upper triangle stays zero.
    assert np.array_equal(np.triu(kp.ku, 1), np.zeros((21, 21)))
    assert np.array_equal(np.triu(kp.kv, 1), np.zeros((21, 21)))


def test_against_independent_marching_scheme(lp):
    n = 161
    c = lp.c_samples(n)
    mesh = TriMesh(n)
    kp = solve_kernels(c, lp, mesh, tol=1e-12)
    ku_fd = _march_kernels(c, lp.lam_n, lp.mu_n, lp.r)
    ii, jj = np.tril_indices(n)
    gap = np.max(np.abs(kp.ku[ii, jj] - ku_fd[ii, jj]))
    # First-order oracle on h = 1/160: agreement at the few-1e-3 level
    # pins coefficient conventions and kernel magnitude.
    assert gap < 5e-3
    assert np.max(np.abs(kp.ku)) > 0.1


def test_self_convergence_order(lp):
    sols = {}
    for n in (41, 81, 161):
        sols[n] = solve_kernels(lp.c_samples(n), lp, TriMesh(n), tol=1e-12)

    def gap(coarse: KernelPair, fine: KernelPair) -> float:
        nc = coarse.mesh.n
        idx = 2 * np.arange(nc)
        d_u = fine.ku[np.ix_(idx, idx)] - coarse.ku
        d_v = fine.kv[np.ix_(idx, idx)] - coarse.kv
        return max(np.max(np.abs(d_u)), np.max(np.abs(d_v)))

    e1 = gap(sols[41], sols[81])
    e2 = gap(sols[81], sols[161])
    order = np.log2(e1 / e2)
    assert order >= 1.8


def test_solver_deterministic(lp):
    mesh = TriMesh(33)
    c = lp.c_samples(33)
    a = solve_kernels(c, lp, mesh)
    b = solve_kernels(c, lp, mesh)
    assert np.array_equal(a.ku, b.ku)
    assert np.array_equal(a.kv, b.kv)


def test_input_validation(lp):
    mesh = TriMesh(21)
    with pytest.raises(ValueError, match="samples"):
        solve_kernels(np.zeros(20), lp, mesh)
    with pytest.raises(ValueError, match="bound"):
        solve_kernels(np.full(21, -2.0 * lp.c_bar), lp, mesh)
    with pytest.raises(ValueError):
        solve_kernels(np.zeros(21), lp, mesh, max_iter=0)


def test_convergence_error(lp):
    mesh = TriMesh(21)
    with pytest.raises(ConvergenceError) as info:
        solve_kernels(lp.c_samples(21), lp, mesh, tol=1e-14, max_iter=1)
    assert info.value.iterations == 1
    assert info.value.residual > 1e-14


def _loop_estimates(params, n: int) -> list[np.ndarray]:
    """The distinct estimates a 20 s loop refreshes its n-node kernels for."""
    seen: list[np.ndarray] = []
    run_closed_loop(
        params, ControllerConfig(mesh_n=n), GridSpec(t_end=20.0),
        on_refresh=lambda t, c_mesh, kp, ns: seen.append(c_mesh.copy()),
    )
    return [c for k, c in enumerate(seen) if k == 0 or not np.array_equal(c, seen[k - 1])]


def _sup_gap(a: KernelPair, b: KernelPair) -> float:
    return float(max(np.max(np.abs(a.ku - b.ku)), np.max(np.abs(a.kv - b.kv))))


@pytest.mark.parametrize("n", [8, 21, 41, 81])
def test_direct_solve_matches_the_iterate(params, lp, n):
    # The direct solve is the iteration's fixed point to rounding, on the
    # estimates a loop refreshes for, at both ends of the bound and on a
    # sign-changing estimate.
    mesh = TriMesh(n)
    c_bound = ControllerConfig().c_bar
    estimates = _loop_estimates(params, n)
    assert len(estimates) > 100
    estimates += [
        np.full(n, c_bound), np.full(n, -c_bound), c_bound * np.sin(7.0 * mesh.x),
    ]
    for c in estimates:
        direct = solve_kernels(c, lp, mesh, c_bound=c_bound)
        ref = solve_kernels(c, lp, mesh, tol=1e-14, max_iter=2000, c_bound=c_bound)
        assert _sup_gap(direct, ref) <= 1e-15


@pytest.mark.parametrize("tol", [None, 1e-8], ids=["direct", "iterative"])
def test_nan_estimate_violates_the_bound(lp, tol):
    # NaN compares False against the bound, so the check is written to
    # fail on it: both paths refuse it up front instead of solving.
    c = lp.c_samples(21)
    c[5] = np.nan
    with pytest.raises(ValueError, match="bound"):
        solve_kernels(c, lp, TriMesh(21), tol=tol)


def test_singular_edge_system_is_a_numerical_failure(lp):
    # Every pivot of the edge system but the first is 1 - h ratio c(0) / 2,
    # with h = dx / (lam + mu); at c(0) = 2 / (h ratio) it vanishes.
    mesh = TriMesh(21)
    hr = mesh.dx / (lp.lam_n + lp.mu_n) * (lp.lam_n * lp.r / lp.mu_n)
    c = np.zeros(21)
    c[0] = 2.0 / hr
    with pytest.raises(ArithmeticError, match="singular") as info:
        solve_kernels(c, lp, mesh, c_bound=c[0])
    assert not isinstance(info.value, ValueError)


def test_sup_cap_formula():
    got = kernel_sup_cap(0.02, 1.0 / 60.0, 1.0 / 30.0)
    assert got == pytest.approx(10.0 * 0.02 / 0.05 * np.exp(0.02), rel=1e-12)


def test_sup_cap_warning_on_runaway_feedback():
    # Strong positive feedback (ratio * c > 0) grows the edge values like
    # exp(8 x), far past the cap computed for this bound.
    lp_hot = LinearizedParams(
        lam=0.5, mu=0.5, r=-8.0, c_bar=1.0, tau=1.0,
        v_star=0.5, p_prime_star=1.0, length=1.0,
    )
    mesh = TriMesh(33)
    with pytest.warns(UserWarning, match="a-priori cap"):
        kp = solve_kernels(
            np.full(33, -1.0), lp_hot, mesh, tol=1e-6, max_iter=500
        )
    assert kp.sup_norm() > kernel_sup_cap(1.0, 0.5, 0.5)


def test_transform_round_trip(lp):
    n = 128
    mesh = TriMesh(n)
    c = lp.c_samples(n)
    kp = solve_kernels(c, lp, mesh, tol=1e-10)
    ikp = solve_inverse_kernels(kp)
    x = mesh.x
    u_hat = np.sin(2.0 * np.pi * x) + 0.3 * np.cos(5.0 * x)
    v_hat = x * np.cos(np.pi * x) - 0.2
    w, z = transform_on_mesh(kp, u_hat, v_hat)
    u_back, v_back = inverse_transform_on_mesh(ikp, w, z)
    rel_v = np.max(np.abs(v_back - v_hat)) / np.max(np.abs(v_hat))
    assert np.array_equal(u_back, u_hat)
    assert rel_v <= 1e-6


def test_inverse_kernels_match_the_neumann_series(lp):
    # The direct resolvent solve agrees with the Neumann series
    # R = A + A R iterated to a fixed point, A = w * Kv on the mesh.
    mesh = TriMesh(41)
    c = lp.c_samples(41)
    kp = solve_kernels(c, lp, mesh, tol=1e-12)
    w = _volterra_weights(mesh.n, mesh.dx)
    av, au = w * kp.kv, w * kp.ku
    resolvent = np.zeros_like(av)
    for _ in range(100):
        r_new = av + av @ resolvent
        if np.max(np.abs(r_new - resolvent)) <= 1e-16:
            break
        resolvent = r_new
    ikp = solve_inverse_kernels(kp)
    off = w > 0
    scale = np.max(np.abs(resolvent))
    assert np.max(np.abs(ikp.lv * w - resolvent)[off]) <= 1e-12 * scale
    lu_op = au + resolvent @ au
    assert np.max(np.abs(ikp.lu * w - lu_op)[off]) <= 1e-12 * np.max(np.abs(lu_op))


def test_inverse_kernel_validation(lp):
    # The inverse lives on its forward pair's mesh; a table of another
    # size is refused.
    mesh = TriMesh(21)
    kp = solve_kernels(lp.c_samples(21), lp, mesh)
    ikp = solve_inverse_kernels(kp)
    assert ikp.mesh is mesh and ikp.lu.shape == ikp.lv.shape == (21, 21)
    with pytest.raises(ValueError):
        InverseKernelPair(mesh=mesh, lu=np.zeros((3, 3)), lv=np.zeros((21, 21)))


def test_time_derivative(lp):
    mesh = TriMesh(21)
    a = solve_kernels(lp.c_samples(21), lp, mesh)
    b = solve_kernels(0.5 * lp.c_samples(21), lp, mesh)
    d_u, d_v = kernel_time_derivative(a, b, 0.1)
    ii, jj = np.tril_indices(21)
    np.testing.assert_allclose(d_u, (a.ku - b.ku)[ii, jj] / 0.1, rtol=1e-14)
    np.testing.assert_allclose(d_v, (a.kv - b.kv)[ii, jj] / 0.1, rtol=1e-14)
    with pytest.raises(ValueError):
        kernel_time_derivative(a, b, 0.0)
    with pytest.raises(ValueError):
        kernel_time_derivative(a, solve_kernels(lp.c_samples(33), lp, TriMesh(33)), 0.1)


def test_kernel_pair_validation(lp):
    mesh = TriMesh(21)
    for bad in (np.zeros(mesh.n_nodes - 1), np.zeros((21, 21))):
        with pytest.raises(ValueError, match="ku_tri"):
            KernelPair(mesh=mesh, ku_tri=bad, lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r)
    tri = np.zeros(mesh.n_nodes)
    kp = KernelPair(mesh=mesh, ku_tri=tri, lam_n=lp.lam_n, mu_n=lp.mu_n, r=lp.r)
    # The pair holds its own copy, and neither it nor a derived table
    # can be written.
    tri[0] = 1.0
    assert kp.ku_tri[0] == 0.0
    for arr in (kp.ku_tri, kp.kv_tri, kp.ku, kp.kv):
        with pytest.raises(ValueError):
            arr[0] = 1.0

"""Gain kernels of the boundary-feedback transform on the unit triangle.

The pair (Ku, Kv) satisfies, for a frozen coupling estimate c_hat,

    mu Ku_x = lam Ku_xi + c_hat(xi) Kv        on T = {0 <= xi <= x <= 1}
    mu Kv_x = -mu Kv_xi
    Ku(x, x) = -c_hat(x) / (lam + mu)
    Kv(x, 0) = (lam r / mu) Ku(x, 0)

with lam, mu the normalized transport rates.  The second equation makes
Kv constant along lines of constant x - xi, so Kv(x, xi) =
(lam r / mu) Ku(x - xi, 0).  Ku is integrated along its characteristics
(slope dxi/dx = -lam/mu) from the diagonal, and the trapezoid point q
of node (i, j) sits at the diagonal foot of node (i - q, j).  The
discrete equations are therefore a lower-triangular Volterra system:
solve_kernels solves it directly, one triangular solve for the edge
trace Ku(:, 0) and one product for the triangle, or, given a tol, by
successive approximation from Kv == 0 (the classical solver).

A KernelPair therefore stores Ku's lower triangle alone, in the
row-major order corpus records use; Kv and the (n, n) tables are
derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import warnings

import numpy as np

from arzno.model import LinearizedParams, unit_nodes

__all__ = [
    "ConvergenceError",
    "TriMesh",
    "KernelPair",
    "InverseKernelPair",
    "kernel_sup_cap",
    "solve_kernels",
    "solve_inverse_kernels",
    "kernel_time_derivative",
]


class ConvergenceError(RuntimeError):
    """Successive approximation did not reach tolerance within max_iter."""

    def __init__(self, iterations: int, residual: float, tol: float):
        super().__init__(
            f"kernel iteration stalled after {iterations} sweeps: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class TriMesh:
    """Uniform mesh of the triangle {0 <= xi <= x <= 1} with n nodes per side."""

    n: int = 41

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError("mesh needs at least 8 nodes per side")

    @property
    def x(self) -> np.ndarray:
        """Node coordinates along one side; read-only, shared per n."""
        return unit_nodes(self.n)

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def n_nodes(self) -> int:
        """Number of triangle nodes, n (n + 1) / 2."""
        return self.n * (self.n + 1) // 2


@dataclass(frozen=True)
class KernelPair:
    """A gain-kernel pair on a TriMesh and the coefficients it was solved for.

    The pair holds Ku alone: ku_tri is a read-only copy of its lower
    triangle (xi <= x) in row-major tril order, the order records store.
    Kv is derived from Ku's edge, Kv(x, xi) = ratio Ku(x - xi, 0) with
    ratio = lam_n r / mu_n: kv_tri is that trace in the same order, built
    once, and ku and kv are read-only (n, n) squares, zero above the
    diagonal, built on each read.
    """

    mesh: TriMesh
    ku_tri: np.ndarray
    lam_n: float
    mu_n: float
    r: float

    def __post_init__(self) -> None:
        ku_tri = np.array(self.ku_tri, dtype=float)
        if ku_tri.shape != (self.mesh.n_nodes,):
            raise ValueError(f"ku_tri must hold the {self.mesh.n_nodes} triangle nodes")
        ku_tri.setflags(write=False)
        object.__setattr__(self, "ku_tri", ku_tri)

    @property
    def ratio(self) -> float:
        """lam_n r / mu_n, the factor from Ku's edge to Kv."""
        return self.lam_n * self.r / self.mu_n

    @cached_property
    def kv_tri(self) -> np.ndarray:
        kv = _kv_from_edge(self.ku_tri, self.ratio, self.mesh.n)
        kv.setflags(write=False)
        return kv

    @property
    def ku(self) -> np.ndarray:
        return _square(self.ku_tri, self.mesh.n)

    @property
    def kv(self) -> np.ndarray:
        return _square(self.kv_tri, self.mesh.n)

    def sup_norm(self) -> float:
        """max |Ku| and |Kv| over the triangle.  Every Kv value is ratio
        times an edge value of Ku, so Kv's sup is read off Ku's n edge
        nodes and kv_tri is not built."""
        n = self.mesh.n
        edge = np.abs(self.ku_tri[_tril_layout(n)[2][-n:]])  # |Ku(d dx, 0)|
        return float(max(np.max(np.abs(self.ku_tri)), abs(self.ratio) * np.max(edge)))


@dataclass(frozen=True)
class InverseKernelPair:
    """Kernels (Lu, Lv) of the inverse transform, on the same mesh layout."""

    mesh: TriMesh
    lu: np.ndarray
    lv: np.ndarray

    def __post_init__(self) -> None:
        n = self.mesh.n
        for name in ("lu", "lv"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n, n):
                raise ValueError(f"{name} must be ({n}, {n})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# Characteristic geometry depends only on (n, lam_n, mu_n), the mesh
# being hashed by n; cache it across solves so repeated calls inside a
# control loop stay cheap.
@lru_cache(maxsize=None)
def _geometry(mesh: TriMesh, a: float, b: float) -> dict[str, np.ndarray]:
    n = mesh.n
    dx = mesh.dx
    rows_i, cols_j = np.tril_indices(n)
    node_id = np.arange(rows_i.size)
    # Diagonal foot of the Ku characteristic through node (i, j).
    foot_x = dx * (a * rows_i + b * cols_j) / (a + b)

    # Flattened quadrature net: node (i, j) with d = i - j intervals
    # carries d + 1 trapezoid points sigma_q; the Kv factor at point q
    # is exactly the edge value Ku(x_q - xi_q = q dx, 0), on-grid.
    d_all = rows_i - cols_j
    reps = d_all + 1
    has_quad = d_all >= 1
    q_rows = np.repeat(node_id[has_quad], reps[has_quad])
    d_rep = np.repeat(d_all[has_quad], reps[has_quad])
    base = np.repeat(
        np.concatenate(([0], np.cumsum(reps[has_quad])))[:-1], reps[has_quad]
    )
    q_idx = np.arange(q_rows.size) - base
    h_sigma = dx / (a + b)
    w = np.where((q_idx == 0) | (q_idx == d_rep), 0.5, 1.0) * h_sigma
    foot_rep = np.repeat(foot_x[has_quad], reps[has_quad])
    xi_q = foot_rep - a * h_sigma * q_idx

    # Direct solve: tau[i, q] weighs edge point q in row i's integral, and
    # entry n - 1 + i - p of n - 1 zeros followed by v is v[i - p].
    tau = np.tril(np.ones((n, n)))
    tau[:, 0] = tau[np.diag_indices(n)] = 0.5
    tau[0, 0] = 0.0

    return {
        "foot_x": foot_x,
        "q_rows": q_rows,
        "q_idx": q_idx,
        "q_weight": w,
        "xi_q": xi_q,
        "edge_ids": node_id[cols_j == 0],
        "tau": tau,
        "d": d_all,
        "diag_ids": node_id[d_all == 0],
        "col_diag_ids": node_id[d_all == 0][cols_j],  # node (j, j) of (i, j)
        "tril_flat": rows_i * n + cols_j,
        "lag_ids": np.subtract.outer(np.arange(n - 1, 2 * n - 1), np.arange(n)),
    }


def kernel_sup_cap(c_bound: float, lam_n: float, mu_n: float) -> float:
    """A-priori cap on kernel magnitudes, 10 c_bar/(a+b) e^{c_bar}.

    Generous by construction; a solved pair exceeding it indicates
    mis-scaled coefficients rather than a genuine solution.
    """
    return 10.0 * c_bound / (lam_n + mu_n) * np.exp(c_bound)


def solve_kernels(
    c_hat: np.ndarray,
    lp: LinearizedParams,
    mesh: TriMesh,
    tol: float | None = None,
    max_iter: int = 200,
    c_bound: float | None = None,
) -> KernelPair:
    """Solve the kernel equations for a frozen coupling estimate.

    Args:
        c_hat: samples of the estimate on mesh.x (linear interpolation is
            used between nodes).  Must satisfy |c_hat| <= c_bound.
        lp: linearized plant coefficients.
        mesh: triangle mesh.
        tol: None solves the discrete system directly, exact to rounding.
            A tol runs successive approximation from Kv == 0 instead and
            stops when the sup-norm change between sweeps is <= tol.
        max_iter: sweep budget of the iteration; exceeding it raises
            ConvergenceError.
        c_bound: known bound on |c_hat|.  Defaults to lp.c_bar; adaptive
            callers pass their projection bound, which may be larger.

    Returns:
        KernelPair wrapping the Ku triangle, with the diagonal and edge
        conditions satisfied exactly at the nodes; its Kv is the edge
        trace of that Ku.

    Raises:
        ValueError: c_hat has the wrong shape, violates the bound or is
            not finite, or max_iter < 1.
        ArithmeticError: the direct edge system is singular.
        ConvergenceError: the iteration missed tol within max_iter.
    """
    c_hat = np.asarray(c_hat, dtype=float)
    if c_bound is None:
        c_bound = lp.c_bar
    if c_hat.shape != (mesh.n,):
        raise ValueError(f"c_hat must have {mesh.n} samples on the mesh grid")
    if not np.max(np.abs(c_hat)) <= c_bound * (1 + 1e-9):  # NaN fails too
        raise ValueError("c_hat violates the known bound |c_hat| <= c_bar")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    a, b = lp.lam_n, lp.mu_n
    ratio = a * lp.r / b
    geo = _geometry(mesh, a, b)
    if tol is None:
        ku_flat = _solve_direct(c_hat, mesh, geo, a + b, ratio)
    else:
        x = mesh.x
        diag_at_foot = -np.interp(geo["foot_x"], x, c_hat) / (a + b)
        c_at_quad = np.interp(geo["xi_q"], x, c_hat)
        quad_vals = geo["q_weight"] * c_at_quad

        n_nodes = mesh.n_nodes
        ku_flat = diag_at_foot.copy()
        g = np.zeros(mesh.n)  # edge values Ku(:, 0); g == 0 encodes Kv == 0
        residual = np.inf
        for _ in range(max_iter):
            contrib = np.bincount(
                geo["q_rows"],
                weights=quad_vals * (ratio * g)[geo["q_idx"]],
                minlength=n_nodes,
            )
            ku_new = diag_at_foot + contrib
            g_new = ku_new[geo["edge_ids"]]
            residual = max(
                float(np.max(np.abs(ku_new - ku_flat))),
                float(abs(ratio) * np.max(np.abs(g_new - g))) if ratio != 0 else 0.0,
            )
            ku_flat, g = ku_new, g_new
            if residual <= tol:
                break
        else:
            raise ConvergenceError(max_iter, residual, tol)

    kp = KernelPair(mesh=mesh, ku_tri=ku_flat, lam_n=a, mu_n=b, r=lp.r)
    if kp.sup_norm() > kernel_sup_cap(c_bound, a, b):
        warnings.warn(
            "kernel sup-norm exceeds the a-priori cap; "
            "coefficient scaling is suspect",
            stacklevel=2,
        )
    return kp


def _solve_direct(
    c_hat: np.ndarray, mesh: TriMesh, geo: dict, s: float, ratio: float
) -> np.ndarray:
    """Ku's triangle from one triangular edge solve and one product.

    With C[i, j] = c_hat at the diagonal foot of node (i, j), h = dx / s
    and tau the trapezoid weights, node (i, j), d = i - j >= 1, reads
        Ku[i, j] = -C[i, j] / s + h ratio sum_q tau_q C[i - q, j] g[q],
    where g = Ku(:, 0).  On the edge that is (I - h ratio T) g = -C[:, 0] / s
    with T[i, q] = tau[i, q] C[i - q, 0]; every pivot but the first is
    1 - h ratio C[0, 0] / 2.  Over the triangle the sums are the
    lower-triangular product G @ C, G[i, p] = g[i - p], less half of its
    end terms g[0] C[i, j] and g[d] C[j, j].
    """
    n = mesh.n
    c_tri = np.interp(geo["foot_x"], mesh.x, c_hat)  # C in row-major tril order
    c_edge = c_tri[geo["edge_ids"]]
    hr = mesh.dx / s * ratio
    if abs(1.0 - 0.5 * hr * c_edge[0]) < 1e-8:
        raise ArithmeticError("direct kernel edge solve is singular")
    edge = np.eye(n) - hr * geo["tau"] * _lower_toeplitz(c_edge, geo)
    g = np.linalg.solve(edge, -c_edge / s)
    c_sq = np.zeros((n, n))
    c_sq.put(geo["tril_flat"], c_tri)
    conv = (_lower_toeplitz(g, geo) @ c_sq).take(geo["tril_flat"])
    base = -c_tri / s
    ends = 0.5 * g[geo["d"]] * c_tri[geo["col_diag_ids"]]
    ku = base + hr * (conv - 0.5 * g[0] * c_tri - ends)
    ku[geo["diag_ids"]] = base[geo["diag_ids"]]  # d = 0: no integral
    return ku


def _lower_toeplitz(v: np.ndarray, geo: dict) -> np.ndarray:
    """L[i, p] = v[i - p] for p <= i, else 0."""
    return np.concatenate((np.zeros(v.size - 1), v)).take(geo["lag_ids"])


def _volterra_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid weights for integrals from 0 to x_i on a uniform grid."""
    w = np.tril(np.full((n, n), dx))
    w[:, 0] = 0.5 * dx
    w[np.diag_indices(n)] = 0.5 * dx
    w[0, 0] = 0.0
    return w


def solve_inverse_kernels(kp: KernelPair) -> InverseKernelPair:
    """Inverse-transform kernels via the resolvent of the Kv integral operator.

    The forward transform is identity minus a Volterra operator in v;
    on the mesh quadrature (Nystrom form) that operator is the matrix
    A = w * Kv, and its resolvent R = A + A R is one direct solve of
    (I - A) R = A, which makes the forward/inverse round trip exact to
    rounding.  The result lives on kp's mesh.
    """
    mesh = kp.mesh
    w = _volterra_weights(mesh.n, mesh.dx)
    ku, kv = kp.ku, kp.kv
    av = w * kv
    au = w * ku
    resolvent = np.linalg.solve(np.eye(mesh.n) - av, av)

    lu_op = au + resolvent @ au
    safe_w = np.where(w > 0, w, 1.0)
    lv = np.where(w > 0, resolvent / safe_w, 0.0)
    lu = np.where(w > 0, lu_op / safe_w, 0.0)
    # The (0,0) node has zero quadrature weight; its nodal value is the
    # zero-length-integral limit, which matches the forward diagonal.
    lv[0, 0] = kv[0, 0]
    lu[0, 0] = ku[0, 0]
    return InverseKernelPair(mesh=mesh, lu=np.tril(lu), lv=np.tril(lv))


def kernel_time_derivative(
    curr: KernelPair, prev: KernelPair, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference time derivative of successive kernel pairs, as
    (dKu/dt, dKv/dt) over the lower triangle in row-major tril order."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if curr.mesh.n != prev.mesh.n:
        raise ValueError("kernel pairs live on different meshes")
    return (curr.ku_tri - prev.ku_tri) / dt, (curr.kv_tri - prev.kv_tri) / dt


@lru_cache(maxsize=None)
def _tril_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major lower-triangle indices (i, j) and, per node, the position
    of its edge node (i - j, 0) in the same order."""
    ii, jj = np.tril_indices(n)
    d = ii - jj
    layout = (ii, jj, d * (d + 1) // 2)
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _kv_from_edge(ku_tri: np.ndarray, ratio: float | np.ndarray, n: int) -> np.ndarray:
    """Kv(x, xi) = (lam r / mu) Ku(x - xi, 0) over the lower triangle.

    ku_tri holds Ku in row-major tril order along its last axis; ratio is
    lam_n * r / mu_n, a scalar or one value per row of a stack.  The
    operand order is solve_kernels', so the result is bit-identical to
    the Kv it builds.
    """
    return ratio * np.take(ku_tri, _tril_layout(n)[2], axis=-1)


def _square(tri: np.ndarray, n: int) -> np.ndarray:
    """A read-only (n, n) table holding tri below and on the diagonal."""
    ii, jj, _ = _tril_layout(n)
    sq = np.zeros((n, n))
    sq[ii, jj] = tri
    sq.setflags(write=False)
    return sq

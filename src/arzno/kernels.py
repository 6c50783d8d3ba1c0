"""Gain kernels of the boundary-feedback transform on the unit triangle.

The pair (Ku, Kv) satisfies, for a frozen coupling estimate c_hat,

    mu Ku_x = lam Ku_xi + c_hat(xi) Kv        on T = {0 <= xi <= x <= 1}
    mu Kv_x = -mu Kv_xi
    Ku(x, x) = -c_hat(x) / (lam + mu)
    Kv(x, 0) = (lam r / mu) Ku(x, 0)

with lam, mu the normalized transport rates.  The second equation makes
Kv constant along lines of constant x - xi, so Kv(x, xi) =
(lam r / mu) Ku(x - xi, 0).  Ku is integrated along its characteristics
(slope dxi/dx = -lam/mu) from the diagonal; the coupling to Kv is
resolved by successive approximation starting from Kv == 0.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct
import warnings

import numpy as np

from arzno.model import LinearizedParams, unit_nodes

__all__ = [
    "ConvergenceError",
    "RecordFormatError",
    "TriMesh",
    "KernelPair",
    "InverseKernelPair",
    "kernel_sup_cap",
    "solve_kernels",
    "solve_inverse_kernels",
    "kernel_time_derivative",
    "kernel_record_bytes",
    "kernel_pair_from_record",
    "RECORD_HEADER_BYTES",
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


class RecordFormatError(ValueError):
    """Raised for malformed or truncated kernel records."""


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
    """Kernel values on a TriMesh plus the coefficients they were solved for.

    ku and kv are (n, n) arrays holding the lower triangle (xi <= x,
    column index <= row index); entries above the diagonal are zero.
    """

    mesh: TriMesh
    ku: np.ndarray
    kv: np.ndarray
    lam_n: float
    mu_n: float
    r: float

    def __post_init__(self) -> None:
        n = self.mesh.n
        for name in ("ku", "kv"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (n, n):
                raise ValueError(f"{name} must be ({n}, {n})")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def sup_norm(self) -> float:
        return float(max(np.max(np.abs(self.ku)), np.max(np.abs(self.kv))))

    @classmethod
    def _trusted(
        cls,
        mesh: TriMesh,
        ku: np.ndarray,
        kv: np.ndarray,
        lam_n: float,
        mu_n: float,
        r: float,
    ) -> "KernelPair":
        """Construct without copying or validating.

        For hot acquisition paths that allocate fresh, correctly shaped
        float64 arrays; the caller cedes ownership.  Array freezing is
        kept since downstream caches rely on immutability.
        """
        pair = object.__new__(cls)
        ku.setflags(write=False)
        kv.setflags(write=False)
        object.__setattr__(pair, "mesh", mesh)
        object.__setattr__(pair, "ku", ku)
        object.__setattr__(pair, "kv", kv)
        object.__setattr__(pair, "lam_n", lam_n)
        object.__setattr__(pair, "mu_n", mu_n)
        object.__setattr__(pair, "r", r)
        return pair


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


# Characteristic geometry depends only on (n, lam_n, mu_n); cache it
# across solves so repeated calls inside a control loop stay cheap.
_GEOMETRY_CACHE: dict[tuple[int, float, float], dict[str, np.ndarray]] = {}


def _geometry(mesh: TriMesh, a: float, b: float) -> dict[str, np.ndarray]:
    key = (mesh.n, a, b)
    geo = _GEOMETRY_CACHE.get(key)
    if geo is not None:
        return geo

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

    geo = {
        "rows_i": rows_i,
        "cols_j": cols_j,
        "foot_x": foot_x,
        "q_rows": q_rows,
        "q_idx": q_idx,
        "q_weight": w,
        "xi_q": xi_q,
        "edge_ids": node_id[cols_j == 0],
    }
    _GEOMETRY_CACHE[key] = geo
    return geo


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
    tol: float = 1e-8,
    max_iter: int = 200,
    c_bound: float | None = None,
) -> KernelPair:
    """Solve the kernel equations for a frozen coupling estimate.

    Args:
        c_hat: samples of the estimate on mesh.x (linear interpolation is
            used between nodes).  Must satisfy |c_hat| <= c_bound.
        lp: linearized plant coefficients.
        mesh: triangle mesh.
        tol: sup-norm change between sweeps at which iteration stops.
        max_iter: sweep budget; exceeding it raises ConvergenceError.
        c_bound: known bound on |c_hat|.  Defaults to lp.c_bar; adaptive
            callers pass their projection bound, which may be larger.

    Returns:
        KernelPair with the diagonal and edge conditions satisfied
        exactly at the nodes.
    """
    c_hat = np.asarray(c_hat, dtype=float)
    if c_bound is None:
        c_bound = lp.c_bar
    if c_hat.shape != (mesh.n,):
        raise ValueError(f"c_hat must have {mesh.n} samples on the mesh grid")
    if np.max(np.abs(c_hat)) > c_bound * (1 + 1e-9):
        raise ValueError("c_hat violates the known bound |c_hat| <= c_bar")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    a, b = lp.lam_n, lp.mu_n
    ratio = a * lp.r / b
    geo = _geometry(mesh, a, b)
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

    n = mesh.n
    ku = np.zeros((n, n))
    ku[geo["rows_i"], geo["cols_j"]] = ku_flat
    kv = np.zeros((n, n))
    ii, jj = np.tril_indices(n)
    kv[ii, jj] = ratio * g[ii - jj]
    kp = KernelPair(mesh=mesh, ku=ku, kv=kv, lam_n=a, mu_n=b, r=lp.r)
    if kp.sup_norm() > kernel_sup_cap(c_bound, a, b):
        warnings.warn(
            "kernel sup-norm exceeds the a-priori cap; "
            "coefficient scaling is suspect",
            stacklevel=2,
        )
    return kp


def _volterra_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid weights for integrals from 0 to x_i on a uniform grid."""
    w = np.tril(np.full((n, n), dx))
    w[:, 0] = 0.5 * dx
    w[np.diag_indices(n)] = 0.5 * dx
    w[0, 0] = 0.0
    return w


def solve_inverse_kernels(
    kp: KernelPair,
    c_hat: np.ndarray,
    lp: LinearizedParams,
    mesh: TriMesh,
    tol: float = 1e-8,
    max_iter: int = 200,
    c_bound: float | None = None,
) -> InverseKernelPair:
    """Inverse-transform kernels via the resolvent of the Kv integral operator.

    The forward transform is identity minus a Volterra operator in v;
    its inverse is computed by successive approximation of the Neumann
    series on the mesh quadrature (Nystrom form), which makes the
    forward/inverse round trip exact to the iteration tolerance.

    Args:
        kp: converged forward kernels.
        c_hat: the estimate kp was solved for (bound re-checked here).
        lp: linearized plant coefficients.
        mesh: must be the mesh kp lives on.
        tol: sup-norm change between Neumann sweeps at which to stop.
        max_iter: sweep budget; exceeding it raises ConvergenceError.
    """
    if mesh.n != kp.mesh.n:
        raise ValueError("mesh does not match the kernel pair")
    c_hat = np.asarray(c_hat, dtype=float)
    if c_bound is None:
        c_bound = lp.c_bar
    if c_hat.shape == (mesh.n,) and np.max(np.abs(c_hat)) > c_bound * (1 + 1e-9):
        raise ValueError("c_hat violates the known bound |c_hat| <= c_bar")

    w = _volterra_weights(mesh.n, mesh.dx)
    av = w * kp.kv
    au = w * kp.ku
    resolvent = np.zeros_like(av)
    residual = np.inf
    for _ in range(max_iter):
        r_new = av + av @ resolvent
        residual = float(np.max(np.abs(r_new - resolvent)))
        resolvent = r_new
        if residual <= tol:
            break
    else:
        raise ConvergenceError(max_iter, residual, tol)

    lu_op = au + resolvent @ au
    safe_w = np.where(w > 0, w, 1.0)
    lv = np.where(w > 0, resolvent / safe_w, 0.0)
    lu = np.where(w > 0, lu_op / safe_w, 0.0)
    # The (0,0) node has zero quadrature weight; its nodal value is the
    # zero-length-integral limit, which matches the forward diagonal.
    lv[0, 0] = kp.kv[0, 0]
    lu[0, 0] = kp.ku[0, 0]
    return InverseKernelPair(mesh=mesh, lu=np.tril(lu), lv=np.tril(lv))


def kernel_time_derivative(
    curr: KernelPair, prev: KernelPair, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference time derivative of successive kernel pairs."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if curr.mesh.n != prev.mesh.n:
        raise ValueError("kernel pairs live on different meshes")
    return (curr.ku - prev.ku) / dt, (curr.kv - prev.kv) / dt


_HEADER = struct.Struct("<I3d")
RECORD_HEADER_BYTES = _HEADER.size


def record_byte_length(n: int) -> int:
    """Byte length of a serialized kernel record with n nodes per side."""
    return RECORD_HEADER_BYTES + 2 * 8 * (n * (n + 1) // 2)


def kernel_record_bytes(kp: KernelPair) -> bytes:
    """Serialize a KernelPair: header (n, lam, mu, r), then the lower
    triangles of Ku and Kv as little-endian float64, row-major."""
    n = kp.mesh.n
    ii, jj = np.tril_indices(n)
    header = _HEADER.pack(n, kp.lam_n, kp.mu_n, kp.r)
    payload = np.concatenate([kp.ku[ii, jj], kp.kv[ii, jj]]).astype("<f8")
    return header + payload.tobytes()


def kernel_pair_from_record(buf: bytes) -> KernelPair:
    """Parse bytes produced by kernel_record_bytes."""
    if len(buf) < RECORD_HEADER_BYTES:
        raise RecordFormatError("record shorter than its header")
    n, lam_n, mu_n, r = _HEADER.unpack_from(buf)
    if n < 8:
        raise RecordFormatError(f"implausible mesh size {n}")
    if len(buf) != record_byte_length(n):
        raise RecordFormatError(
            f"record length {len(buf)} does not match n = {n} "
            f"(expected {record_byte_length(n)})"
        )
    tri = n * (n + 1) // 2
    flat = np.frombuffer(buf, dtype="<f8", count=2 * tri, offset=RECORD_HEADER_BYTES)
    mesh = TriMesh(n=n)
    ii, jj = np.tril_indices(n)
    ku = np.zeros((n, n))
    kv = np.zeros((n, n))
    ku[ii, jj] = flat[:tri]
    kv[ii, jj] = flat[tri:]
    return KernelPair(mesh=mesh, ku=ku, kv=kv, lam_n=lam_n, mu_n=mu_n, r=r)

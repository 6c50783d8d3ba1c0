"""Adaptive boundary control loop for the linearized plant.

The control value is the backstepping feedback
    U(t) = int_0^1 Ku(1, xi) u_hat(xi) + Kv(1, xi) v_hat(xi) dxi
evaluated on the state grid with kernels interpolated from the solver
mesh.  run_closed_loop orchestrates one simulation: kernels are
refreshed from the current coupling estimate at every time step, the
plant and identifier advance by upwind steps, and the estimate adapts
under projection.  A refresh that acquires a new pair derives its grid
tables and drift rates once, from Ku's triangle alone.  A refresh whose
estimate on the kernel mesh is bitwise unchanged since the last
acquisition keeps the active kernels and their grid tables instead of
acquiring them again; the refresh hook still fires for it, with the kept
pair.  An estimate row that is itself unchanged since the last refresh
is not interpolated onto the mesh again.  The boundary value entering a
step is solved implicitly (the quadrature includes the endpoint being
set), which makes the transformed boundary z(1, t) vanish identically.
The state lives in its history arrays: the array steppers of arzno.sim
write row k + 1 of the plant, identifier and estimate histories in
place from row k.  z needs the kernels active at each row, so it is
filled once per run of rows that share one kernel pair, when a fresh
pair replaces that one and after the last step.  Norms, Lyapunov
functionals and physical fields are derived from the histories in one
vectorized pass after the last step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from arzno.diagnostics import (
    derive_constants,
    global_norm_S,
    lyapunov_v1_v2,
    lyapunov_v3,
)
from arzno.kernels import (
    InverseKernelPair,
    KernelPair,
    TriMesh,
    _tril_layout,
    _volterra_weights,
    kernel_time_derivative,
    solve_kernels,
)
from arzno.model import (
    LinearizedParams,
    TrafficParams,
    derive_linearized,
    from_riemann,
    to_riemann,
    unit_nodes,
)
from arzno.sim import (
    GridSpec,
    check_cfl,
    l2_norm,
    step_identifier,
    step_plant,
    update_c_hat,
)

__all__ = [
    "ControllerConfig",
    "SimTrace",
    "initial_plant_state",
    "transform_on_mesh",
    "inverse_transform_on_mesh",
    "run_closed_loop",
]

RefreshHook = Callable[[float, np.ndarray, KernelPair, int], None]


@dataclass(frozen=True)
class ControllerConfig:
    """Closed-loop configuration.

    Where the kernels come from is not configured here: run_closed_loop
    solves them unless it is handed a trained surrogate.  Nor is when:
    the loop refreshes them at every grid step.

    Attributes:
        mesh_n: kernel mesh nodes per side, at least 8 (TriMesh's bound).
        tol: stopping tolerance of the iterative solver, > 0, which
            `arzno bench` times (criterion 5) with solve_kernels' default
            sweep budget.  The loop, its corpus labels and verify_labels
            solve the kernels directly and do not read it.
        rho_gain: identifier correction gain rho.
        gamma: exponential weight rate of the adaptation law.
        gamma1: adaptation gain.
        tau_guess: prior for the relaxation time; the initial estimate
            is c_hat0 = -1/(2 tau_guess) uniformly.
        c_bar: known bound on |c|; the projection keeps |c_hat| <= c_bar.
        ic: initial condition family, "sine" or "zero".
    """

    mesh_n: int = 41
    tol: float = 1e-8
    rho_gain: float = 0.05
    gamma: float = 1.0
    gamma1: float = 0.01
    tau_guess: float = 60.0
    c_bar: float = 0.02
    ic: str = "sine"

    def __post_init__(self) -> None:
        TriMesh(self.mesh_n)  # refuses a mesh too small to solve on
        if self.ic not in ("sine", "zero"):
            raise ValueError("ic must be 'sine' or 'zero'")
        for name in ("rho_gain", "gamma", "gamma1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (self.tau_guess > 0 and self.c_bar > 0):
            raise ValueError("tau_guess and c_bar must be positive")
        if 0.5 / self.tau_guess > self.c_bar * (1 + 1e-12):
            raise ValueError("initial estimate -1/(2 tau_guess) exceeds c_bar")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def initial_plant_state(
    lp: LinearizedParams, g: GridSpec, kind: str = "sine"
) -> tuple[np.ndarray, np.ndarray]:
    """Initial plant fields (u, v).

    "sine": density 10% and speed -1% sinusoidal deviations from
    equilibrium with one and a half periods across the road, mapped to
    plant coordinates.  "zero": equilibrium.
    """
    if kind == "zero":
        return np.zeros(g.n_x + 1), np.zeros(g.n_x + 1)
    if kind != "sine":
        raise ValueError("initial condition must be 'sine' or 'zero'")
    bump = np.sin(3.0 * np.pi * g.x)
    rho = lp.rho_star * (1.0 + 0.1 * bump)
    vel = lp.v_star * (1.0 - 0.01 * bump)
    return to_riemann(lp, g.x, rho, vel)


@lru_cache(maxsize=None)
def _grid_ops(mesh: TriMesh, n_x: int) -> tuple[np.ndarray, ...]:
    """Cached (P, P^T, mirror, w) of (mesh.n, n_x): the mesh-to-grid
    interpolation operator, its contiguous transpose, a (2, n, n) index
    into Ku's triangle and the grid Volterra weights.

    P @ f equals np.interp(x, mesh.x, f) up to rounding, x the n_x + 1
    grid nodes.  mirror[:, i, j] holds the tril positions of node
    (max(i, j), min(i, j)) and of its edge node (|i - j|, 0).
    """
    x = unit_nodes(n_x + 1)
    interp = np.column_stack([np.interp(x, mesh.x, e) for e in np.eye(mesh.n)])
    ii, jj, lag, _ = _tril_layout(mesh.n)
    pos = np.empty((mesh.n, mesh.n), np.intp)
    pos[ii, jj] = pos[jj, ii] = np.arange(mesh.n_nodes)
    mirror = np.stack((pos, lag[pos]))
    ops = (interp, interp.T.copy(), mirror, _volterra_weights(n_x + 1, 1.0 / n_x))
    for arr in ops:
        arr.setflags(write=False)
    return ops


@dataclass
class _ActiveKernels:
    """Per-refresh caches: quadrature-weighted kernel rows on the grid."""

    kp: KernelPair
    m_u: np.ndarray
    m_v: np.ndarray
    denom: float


def _grid_caches(kp: KernelPair, g: GridSpec) -> _ActiveKernels:
    """Ku and Kv at all state-grid node pairs times the quadrature weights,
    from Ku's triangle alone: kp.kv_tri is never read.

    One gather mirrors Ku and Kv = ratio Ku(x - xi, 0) across the diagonal,
    as bilinear cells straddling it need values on both sides; one stacked
    product P S P^T interpolates both.  Entries with xi_j > x_i are the
    mirror's and are zeroed by the weights.  The x = 1 rows are the 1-D
    interpolants of the mesh's last rows instead, shared by the control
    and the transform so that z(1, t) = v_hat(1, t) - U(t) exactly.
    """
    interp, interp_t, mirror, w = _grid_ops(kp.mesh, g.n_x)
    sym = kp.ku_tri.take(mirror)
    sym[1] *= kp.ratio
    tables = interp @ sym @ interp_t
    tables *= w
    m_u, m_v = tables
    m_u[-1] = w[-1] * np.interp(g.x, kp.mesh.x, sym[0, -1])
    m_v[-1] = w[-1] * np.interp(g.x, kp.mesh.x, sym[1, -1])
    denom = 1.0 - m_v[-1, -1]
    if abs(denom) < 1e-8:
        raise ArithmeticError("implicit boundary solve is singular")
    return _ActiveKernels(kp=kp, m_u=m_u, m_v=m_v, denom=denom)


def _z_field(ac: _ActiveKernels, u_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """The transformed field z of the identifier state on the grid.

    z = v_hat minus the running kernel integrals; the other transformed
    field is w = u_hat itself.  Feeds the Lyapunov functionals; z(1)
    vanishes when the boundary carries the matching control value.
    Takes one state or a (rows, n_x + 1) stack of them.  Each row is a
    matrix-vector product of its own (the trailing unit axis keeps
    matmul on BLAS gemv), so a stacked row has the bits it has alone.
    """
    return (
        v_hat
        - (ac.m_u @ u_hat[..., None])[..., 0]
        - (ac.m_v @ v_hat[..., None])[..., 0]
    )


def transform_on_mesh(
    kp: KernelPair, u_hat: np.ndarray, v_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(w, z) for fields sampled on the kernel mesh nodes themselves.

    Uses the mesh's own quadrature, so it composes exactly with
    inverse_transform_on_mesh.
    """
    w = _volterra_weights(kp.mesh.n, kp.mesh.dx)
    z = v_hat - (w * kp.ku) @ u_hat - (w * kp.kv) @ v_hat
    return np.asarray(u_hat, dtype=float).copy(), z


def inverse_transform_on_mesh(
    ikp: InverseKernelPair, w_field: np.ndarray, z_field: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover (u_hat, v_hat) from (w, z) sampled on the mesh nodes."""
    w = _volterra_weights(ikp.mesh.n, ikp.mesh.dx)
    v_hat = z_field + (w * ikp.lu) @ w_field + (w * ikp.lv) @ z_field
    return np.asarray(w_field, dtype=float).copy(), v_hat


@dataclass(frozen=True)
class SimTrace:
    """Full record of one closed-loop (or open-loop) run.

    Per-step arrays are aligned with t; per-refresh arrays are aligned
    with refresh_t, which is t without its last row (a closed loop
    refreshes at the start of every step) or empty.  Field histories
    have shape (len(t), n_x + 1).  V1, V2, V4 are NaN on runs without
    kernels: open-loop ones, and those with no step (t_end = 0), which
    never refresh.
    kernel_acquisitions counts the refreshes that solved or queried the
    surrogate; the others kept the active pair (zero drift rates).
    table_ns is the wall time spent building grid tables, summed over
    those acquisitions; a kept pair keeps its tables and adds none.
    """

    x: np.ndarray
    t: np.ndarray
    u_norm: np.ndarray
    v_norm: np.ndarray
    e_norm: np.ndarray
    eps_norm: np.ndarray
    control: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v_lyap: np.ndarray
    v3: np.ndarray
    v4: np.ndarray
    s_norm: np.ndarray
    kernel_ns: np.ndarray
    refresh_t: np.ndarray
    refresh_ns: np.ndarray
    dku_dt: np.ndarray
    dkv_dt: np.ndarray
    kernel_acquisitions: int
    table_ns: int
    u: np.ndarray
    v: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray
    c_hat: np.ndarray
    rho: np.ndarray
    speed: np.ndarray

    def write_csv(self, path: str | Path, comments: tuple[str, ...] = ()) -> None:
        """Per-step table: norms, control, functionals, kernel timing."""
        _write_table(
            path,
            comments,
            "t,u_norm,v_norm,e_norm,eps_norm,U,V1,V2,V3,V4,S,kernel_ns",
            _csv_rows(
                self.t, self.u_norm, self.v_norm, self.e_norm,
                self.eps_norm, self.control, self.v1, self.v2, self.v3,
                self.v4, self.s_norm, self.kernel_ns,
            ),
        )

    def write_refresh_csv(
        self, path: str | Path, comments: tuple[str, ...] = ()
    ) -> None:
        """Per-refresh table: wall time and kernel drift rates."""
        _write_table(
            path,
            comments,
            "t,kernel_ns,dku_dt,dkv_dt",
            _csv_rows(self.refresh_t, self.refresh_ns, self.dku_dt, self.dkv_dt),
        )

    def write_fields_csv(
        self, path: str | Path, comments: tuple[str, ...] = ()
    ) -> None:
        """Field history as an uncompressed .npz archive.

        Members t, x, u, v, rho and speed hold the trace's arrays, and
        comments the given lines as a string array; np.load(path,
        allow_pickle=False) returns each exactly.  np.savez dates every
        entry 1980-01-01 rather than by the clock, so one trace always
        writes the same bytes.  The name predates the format: the
        benchmark's tracer wraps this method by name, so it is renamed
        with the benchmark.
        """
        with open(path, "wb") as f:  # a handle: savez adds no suffix
            np.savez(
                f, t=self.t, x=self.x, u=self.u, v=self.v, rho=self.rho,
                speed=self.speed, comments=np.array(comments, dtype=str),
            )


def _csv_rows(*cols: np.ndarray) -> Iterator[str]:
    """CSV lines of equal-length columns.

    Values are written with repr, so floats round-trip exactly and
    integer columns stay integers.
    """
    for row in zip(*(col.tolist() for col in cols)):
        yield ",".join(map(repr, row)) + "\n"


def _write_table(
    path: str | Path, comments: tuple[str, ...], header: str, body: Iterable[str]
) -> None:
    """Stream a CSV: comment lines, the header, then the body's text."""
    with open(path, "w") as f:
        f.writelines(f"# {c}\n" for c in comments)
        f.write(header + "\n")
        f.writelines(body)


def run_closed_loop(
    p: TrafficParams,
    cfg: ControllerConfig,
    g: GridSpec,
    model=None,
    open_loop: bool = False,
    on_refresh: RefreshHook | None = None,
) -> SimTrace:
    """Run one simulation and return its full trace.

    Args:
        p: physical parameters; the linearization is derived here.
        cfg: controller configuration.
        g: space-time grid; the CFL bound is enforced up front.
        model: trained kernel surrogate; when given, it supplies the
            kernels, otherwise the direct solver does (with cfg.c_bar).
        open_loop: if True, U = 0 throughout and no kernels are
            computed (the identifier still runs); model is unused.
        on_refresh: optional hook called after the refresh that opens
            each step, with (t, c_mesh, kernel_pair, elapsed_ns); used
            by dataset generation.  It fires for reused refreshes too,
            with the kept pair; elapsed_ns is then the time of the
            unchanged-estimate check rather than of an acquisition.

    Raises:
        InstabilityError: a field stopped being finite; carries the time.
    """
    lp = derive_linearized(p)
    check_cfl(g, lp)
    mesh = TriMesh(cfg.mesh_n)

    # The kernel path follows from the inputs: none open-loop, the
    # surrogate when one is given, the solver otherwise.
    acquire: Callable[[np.ndarray], KernelPair] | None
    if open_loop:
        acquire = None
    elif model is not None:
        from arzno.deeponet import NeuralKernelSource

        acquire = NeuralKernelSource(model, mesh, lp).acquire
    else:

        # Direct solves, through the module's solve_kernels at call time.
        def acquire(c_mesh: np.ndarray) -> KernelPair:
            return solve_kernels(c_mesh, lp, mesh, c_bound=cfg.c_bar)

    n = g.n_x + 1
    rows = g.n_steps + 1
    refresh_rows = np.arange(0 if acquire is None else g.n_steps)

    t = np.zeros(rows)
    kernel_ns = np.zeros(rows, dtype=np.int64)
    # Row k of a block holds (u, v), or (u_hat, v_hat), at t[k], so each
    # stepper writes and checks one contiguous (2, n) row.
    plant, ident = np.empty((rows, 2, n)), np.empty((rows, 2, n))
    u, v = plant[:, 0], plant[:, 1]
    u_hat, v_hat = ident[:, 0], ident[:, 1]
    c_hat, z = np.empty((rows, n)), np.empty((rows, n))
    dku_dt, dkv_dt = np.zeros((2, refresh_rows.size))

    u[0], v[0] = initial_plant_state(lp, g, cfg.ic)
    ident[0] = plant[0]
    c_hat[0] = -0.5 / cfg.tau_guess

    ac: _ActiveKernels | None = None
    ac_key: bytes | None = None
    c_row: bytes | None = None
    c_mesh: np.ndarray | None = None
    seg = 0  # first row of z still to fill, with the active kernels
    acquisitions = 0
    table_ns = 0
    mesh_x, g_x = mesh.x, g.x

    def refresh(k: int) -> None:
        nonlocal ac, ac_key, c_row, c_mesh, seg, acquisitions, table_ns
        # Equal estimate rows interpolate to equal bytes, so an unchanged
        # row keeps the last c_mesh; read-only, as the hook may hold it.
        row = c_hat[k].tobytes()
        if row != c_row:
            c_mesh = np.interp(mesh_x, g_x, c_hat[k])
            c_mesh.setflags(write=False)
            c_row = row
        t0 = time.perf_counter_ns()
        # Both kernel paths are pure functions of the estimate's bytes, so
        # an unchanged estimate keeps the active pair and its tables.
        key = c_mesh.tobytes()
        fresh = key != ac_key
        kp = acquire(c_mesh) if fresh else ac.kp
        elapsed = time.perf_counter_ns() - t0
        if fresh:
            if ac is not None:
                # A kept pair's drift is exactly zero, as is the first's.
                dku_dt[k], dkv_dt[k] = kernel_time_derivative(kp, ac.kp, g.dt)
                # Rows seg..k took their boundary value from the outgoing
                # pair (row 0 has none and takes the first pair), so their
                # z uses it; the new pair's rows start at k + 1.
                z[seg : k + 1] = _z_field(ac, u_hat[seg : k + 1], v_hat[seg : k + 1])
                seg = k + 1
            acquisitions += 1
            t1 = time.perf_counter_ns()
            ac, ac_key = _grid_caches(kp, g), key
            table_ns += time.perf_counter_ns() - t1
        kernel_ns[k] = elapsed
        if on_refresh is not None:
            on_refresh(t[k], c_mesh, kp, elapsed)

    # A blow-up surfaces as the steppers' InstabilityError alone, not as
    # NumPy overflow warnings from the steps leading up to it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(g.n_steps):
            if acquire is not None:
                refresh(k)
            uh, vh = step_identifier(
                u_hat[k], v_hat[k], c_hat[k], u[k], v[k], 0.0, cfg.rho_gain,
                lp, g, t[k], out=ident[k + 1],
            )
            if ac is None:
                u_next = 0.0
            else:
                # ndarray.dot: the BLAS dot of @, at half its call overhead.
                quad = ac.m_u[-1].dot(uh) + ac.m_v[-1].dot(vh)
                u_next = float(quad / ac.denom)
            step_plant(u[k], v[k], u_next, lp, g, t[k], out=plant[k + 1])
            vh[-1] = u_next
            # Adaptation last, from the freshly advanced states.  Driving
            # the estimate with the post-step regressor makes the discrete
            # cross term in the identifier functional overshoot toward
            # descent instead of lagging it, so per-step monotonicity
            # survives the forward-Euler startup transient where the error
            # fields grow from zero before any estimate credit has accrued.
            update_c_hat(
                c_hat[k], vh, u[k + 1], v[k + 1],
                cfg.gamma1, cfg.gamma, cfg.c_bar, g, out=c_hat[k + 1],
            )
            t[k + 1] = t[k] + g.dt

    if ac is not None:
        z[seg:] = _z_field(ac, u_hat[seg:], v_hat[seg:])

    e = u - u_hat
    eps = v - v_hat
    c_tilde = lp.c(g_x) - c_hat
    v3 = lyapunov_v3(e, eps, c_tilde, cfg.gamma, cfg.gamma1, g)
    if ac is None:
        v1, v2, v_lyap = np.full((3, rows), np.nan)
    else:
        v1, v2, v_lyap = lyapunov_v1_v2(u_hat, z, derive_constants(lp), g)
    rho, speed = from_riemann(lp, g_x, u, v)

    return SimTrace(
        x=g_x.copy(),
        t=t,
        u_norm=l2_norm(u, g),
        v_norm=l2_norm(v, g),
        e_norm=l2_norm(e, g),
        eps_norm=l2_norm(eps, g),
        control=v[:, -1].copy(),
        v1=v1,
        v2=v2,
        v_lyap=v_lyap,
        v3=v3,
        v4=v_lyap + v3,
        s_norm=global_norm_S(u, v, u_hat, v_hat, c_tilde, g),
        kernel_ns=kernel_ns,
        refresh_t=t[refresh_rows],
        refresh_ns=kernel_ns[refresh_rows],
        dku_dt=dku_dt,
        dkv_dt=dkv_dt,
        kernel_acquisitions=acquisitions,
        table_ns=table_ns,
        u=u,
        v=v,
        u_hat=u_hat,
        v_hat=v_hat,
        c_hat=c_hat,
        rho=rho,
        speed=speed,
    )

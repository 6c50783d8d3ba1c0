"""Adaptive boundary control loop for the linearized plant.

The control value is the backstepping feedback
    U(t) = int_0^1 Ku(1, xi) u_hat(xi) + Kv(1, xi) v_hat(xi) dxi
evaluated on the state grid with kernels interpolated from the solver
mesh.  run_closed_loop orchestrates one simulation: kernels are
refreshed from the current coupling estimate on a fixed cadence, the
plant and identifier advance by upwind steps, and the estimate adapts
under projection.  The boundary value entering a step is solved
implicitly (the quadrature includes the endpoint being set), which
makes the transformed boundary z(1, t) vanish identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from arzno.diagnostics import (
    LyapunovConstants,
    derive_constants,
    global_norm_S,
    lyapunov_v1_v2,
    lyapunov_v3,
)
from arzno.kernels import (
    InverseKernelPair,
    KernelPair,
    TriMesh,
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
)
from arzno.sim import (
    GridSpec,
    IdentifierState,
    PlantState,
    check_cfl,
    l2_norm,
    step_identifier,
    step_plant,
    update_c_hat,
)

__all__ = [
    "ControllerConfig",
    "KernelSource",
    "SolverKernelSource",
    "SimTrace",
    "initial_plant_state",
    "control_value",
    "backstepping_transform",
    "transform_on_mesh",
    "inverse_transform_on_mesh",
    "run_closed_loop",
]

RefreshHook = Callable[[float, np.ndarray, KernelPair, int], None]


@dataclass(frozen=True)
class ControllerConfig:
    """Closed-loop configuration.

    Attributes:
        kernel_source: "solver" for the classical fixed-point solver,
            "neural" for a trained surrogate (model must be supplied).
        kernel_refresh_dt: seconds between kernel recomputations; must
            be a multiple of the grid dt.
        mesh_n: kernel mesh nodes per side.
        tol, max_iter: solver stopping parameters.
        rho_gain: identifier correction gain rho.
        gamma: exponential weight rate of the adaptation law.
        gamma1: adaptation gain.
        tau_guess: prior for the relaxation time; the initial estimate
            is c_hat0 = -1/(2 tau_guess) uniformly.
        c_bar: known bound on |c|; the projection keeps |c_hat| <= c_bar.
        ic: initial condition family, "sine" or "zero".
    """

    kernel_source: str = "solver"
    kernel_refresh_dt: float = 0.1
    mesh_n: int = 41
    tol: float = 1e-8
    max_iter: int = 200
    rho_gain: float = 0.05
    gamma: float = 1.0
    gamma1: float = 0.01
    tau_guess: float = 60.0
    c_bar: float = 0.02
    ic: str = "sine"

    def __post_init__(self) -> None:
        if self.kernel_source not in ("solver", "neural"):
            raise ValueError("kernel_source must be 'solver' or 'neural'")
        if self.ic not in ("sine", "zero"):
            raise ValueError("ic must be 'sine' or 'zero'")
        for name in ("rho_gain", "gamma", "gamma1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tau_guess <= 0 or self.c_bar <= 0:
            raise ValueError("tau_guess and c_bar must be positive")
        if 0.5 / self.tau_guess > self.c_bar * (1 + 1e-12):
            raise ValueError("initial estimate -1/(2 tau_guess) exceeds c_bar")
        if self.kernel_refresh_dt <= 0:
            raise ValueError("kernel_refresh_dt must be positive")

    def refresh_every(self, g: GridSpec) -> int:
        """Steps between kernel refreshes; validates cadence vs grid dt."""
        if self.kernel_refresh_dt < g.dt * (1 - 1e-9):
            raise ValueError("kernel_refresh_dt must be at least the grid dt")
        every = int(round(self.kernel_refresh_dt / g.dt))
        if abs(every * g.dt - self.kernel_refresh_dt) > 1e-9 * self.kernel_refresh_dt:
            raise ValueError("kernel_refresh_dt must be a multiple of dt")
        return every


class KernelSource(Protocol):
    """Anything that turns mesh samples of c_hat into a KernelPair."""

    mesh: TriMesh

    def acquire(self, c_mesh: np.ndarray) -> KernelPair: ...


class SolverKernelSource:
    """Kernel acquisition through the classical fixed-point solver."""

    def __init__(
        self,
        lp: LinearizedParams,
        mesh: TriMesh,
        tol: float = 1e-8,
        max_iter: int = 200,
        c_bound: float | None = None,
    ):
        self.lp = lp
        self.mesh = mesh
        self.tol = tol
        self.max_iter = max_iter
        self.c_bound = lp.c_bar if c_bound is None else c_bound

    def acquire(self, c_mesh: np.ndarray) -> KernelPair:
        return solve_kernels(
            c_mesh,
            self.lp,
            self.mesh,
            tol=self.tol,
            max_iter=self.max_iter,
            c_bound=self.c_bound,
        )


def initial_plant_state(
    lp: LinearizedParams, g: GridSpec, kind: str = "sine"
) -> PlantState:
    """Initial plant fields.

    "sine": density 10% and speed -1% sinusoidal deviations from
    equilibrium with one and a half periods across the road, mapped to
    plant coordinates.  "zero": equilibrium.
    """
    if kind == "zero":
        z = np.zeros(g.n_x + 1)
        return PlantState(u=z, v=z.copy(), t=0.0)
    if kind != "sine":
        raise ValueError("initial condition must be 'sine' or 'zero'")
    bump = np.sin(3.0 * np.pi * g.x)
    rho = lp.rho_star * (1.0 + 0.1 * bump)
    vel = lp.v_star * (1.0 - 0.01 * bump)
    u, v = to_riemann(lp, g.x, rho, vel)
    return PlantState(u=u, v=v, t=0.0)


def _mirror(tri: np.ndarray) -> np.ndarray:
    """Reflect a lower-triangular table across the diagonal.

    Bilinear cells straddling the diagonal need values on both sides;
    symmetric continuation keeps the interpolant continuous there.
    """
    idx = np.arange(tri.shape[0])
    return np.where(idx[:, None] >= idx[None, :], tri, tri.T)


# The interpolation operator and the grid's quadrature weights depend only
# on (mesh.n, n_x); cache them across refreshes like the solver's geometry.
_GRID_OPS_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _grid_ops(mesh: TriMesh, g: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mesh-to-grid interpolation operator P and grid Volterra weights w.

    Column m of P is the linear interpolant of the m-th unit vector, so
    P @ f equals np.interp(g.x, mesh.x, f) up to rounding.
    """
    key = (mesh.n, g.n_x)
    ops = _GRID_OPS_CACHE.get(key)
    if ops is not None:
        return ops
    interp = np.column_stack([np.interp(g.x, mesh.x, e) for e in np.eye(mesh.n)])
    w = _volterra_weights(g.n_x + 1, g.dx)
    interp.setflags(write=False)
    w.setflags(write=False)
    ops = _GRID_OPS_CACHE[key] = (interp, w)
    return ops


def _rows_on_grid(tri: np.ndarray, mesh: TriMesh, g: GridSpec) -> np.ndarray:
    """Kernel values K(x_i, xi_j) at all state-grid node pairs.

    The separable bilinear interpolant P K P^T of the mirrored table; only
    entries with xi_j <= x_i are kernel values, the rest are its mirror
    image and are zeroed by the quadrature weights.
    """
    interp = _grid_ops(mesh, g)[0]
    return interp @ _mirror(tri) @ interp.T


def _edge_rows(kp: KernelPair, g: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The x = 1 kernel rows interpolated to the state grid.

    Shared by the control quadrature and the transform's last row so
    that z(1, t) = v_hat(1, t) - U(t) is an arithmetic identity.
    """
    ku_row = np.interp(g.x, kp.mesh.x, kp.ku[-1])
    kv_row = np.interp(g.x, kp.mesh.x, kp.kv[-1])
    return ku_row, kv_row


@dataclass
class _ActiveKernels:
    """Per-refresh caches: quadrature-weighted kernel rows on the grid."""

    kp: KernelPair
    m_u: np.ndarray
    m_v: np.ndarray
    denom: float


def _grid_caches(kp: KernelPair, g: GridSpec) -> _ActiveKernels:
    w = _grid_ops(kp.mesh, g)[1]
    m_u = w * _rows_on_grid(kp.ku, kp.mesh, g)
    m_v = w * _rows_on_grid(kp.kv, kp.mesh, g)
    ku_row, kv_row = _edge_rows(kp, g)
    m_u[-1] = w[-1] * ku_row
    m_v[-1] = w[-1] * kv_row
    denom = 1.0 - m_v[-1, -1]
    if abs(denom) < 1e-8:
        raise ArithmeticError("implicit boundary solve is singular")
    return _ActiveKernels(kp=kp, m_u=m_u, m_v=m_v, denom=denom)


def _check_grid(i: IdentifierState, g: GridSpec) -> None:
    if i.u_hat.shape != (g.n_x + 1,):
        raise ValueError("identifier fields do not match the grid")


def control_value(kp: KernelPair, i: IdentifierState, g: GridSpec) -> float:
    """Boundary feedback from the x = 1 kernel row and identifier fields."""
    _check_grid(i, g)
    ac = _grid_caches(kp, g)
    return float(ac.m_u[-1] @ i.u_hat + ac.m_v[-1] @ i.v_hat)


def backstepping_transform(
    kp: KernelPair, i: IdentifierState, g: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Transformed fields (w, z) of the identifier state on the grid.

    w = u_hat; z = v_hat minus the running kernel integrals.  Feeds the
    Lyapunov functionals; z(1) vanishes when the boundary carries the
    matching control value.
    """
    _check_grid(i, g)
    ac = _grid_caches(kp, g)
    return _transform(ac, i.u_hat, i.v_hat)


def _transform(
    ac: _ActiveKernels, u_hat: np.ndarray, v_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    return u_hat.copy(), v_hat - ac.m_u @ u_hat - ac.m_v @ v_hat


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
    with refresh_t.  Field histories have shape (len(t), n_x + 1).
    V1, V2, V4 are NaN on open-loop runs, where no kernels exist.
    """

    x: np.ndarray
    t: np.ndarray
    u_norm: np.ndarray
    v_norm: np.ndarray
    e_norm: np.ndarray
    eps_norm: np.ndarray
    c_err_norm: np.ndarray
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
    u: np.ndarray
    v: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray
    c_hat: np.ndarray
    rho: np.ndarray
    speed: np.ndarray

    def write_csv(self, path: str | Path, comments: tuple[str, ...] = ()) -> None:
        """Per-step table: norms, control, functionals, kernel timing."""
        cols = (
            "t,u_norm,v_norm,e_norm,eps_norm,U,V1,V2,V3,V4,S,kernel_ns"
        )
        lines = [f"# {c}" for c in comments]
        lines.append(cols)
        for k in range(len(self.t)):
            lines.append(
                ",".join(
                    [
                        _fmt(self.t[k]),
                        _fmt(self.u_norm[k]),
                        _fmt(self.v_norm[k]),
                        _fmt(self.e_norm[k]),
                        _fmt(self.eps_norm[k]),
                        _fmt(self.control[k]),
                        _fmt(self.v1[k]),
                        _fmt(self.v2[k]),
                        _fmt(self.v3[k]),
                        _fmt(self.v4[k]),
                        _fmt(self.s_norm[k]),
                        str(int(self.kernel_ns[k])),
                    ]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")

    def write_refresh_csv(
        self, path: str | Path, comments: tuple[str, ...] = ()
    ) -> None:
        """Per-refresh table: wall time and kernel drift rates."""
        lines = [f"# {c}" for c in comments]
        lines.append("t,kernel_ns,dku_dt,dkv_dt")
        for k in range(len(self.refresh_t)):
            lines.append(
                ",".join(
                    [
                        _fmt(self.refresh_t[k]),
                        str(int(self.refresh_ns[k])),
                        _fmt(self.dku_dt[k]),
                        _fmt(self.dkv_dt[k]),
                    ]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")

    def write_fields_csv(
        self, path: str | Path, comments: tuple[str, ...] = ()
    ) -> None:
        """Long-format field history: t, x, u, v, rho, speed per row."""
        lines = [f"# {c}" for c in comments]
        lines.append("t,x,u,v,rho,speed")
        for k in range(len(self.t)):
            tk = _fmt(self.t[k])
            for j in range(len(self.x)):
                lines.append(
                    ",".join(
                        [
                            tk,
                            _fmt(self.x[j]),
                            _fmt(self.u[k, j]),
                            _fmt(self.v[k, j]),
                            _fmt(self.rho[k, j]),
                            _fmt(self.speed[k, j]),
                        ]
                    )
                )
        Path(path).write_text("\n".join(lines) + "\n")


def _fmt(v: float) -> str:
    return repr(float(v))


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
        model: trained kernel surrogate, required when
            cfg.kernel_source == "neural".
        open_loop: if True, U = 0 throughout and no kernels are
            computed (the identifier still runs).
        on_refresh: optional hook called after each kernel acquisition
            with (t, c_mesh, kernel_pair, elapsed_ns); used by dataset
            generation.

    Raises:
        InstabilityError: a field stopped being finite; carries the time.
    """
    lp = derive_linearized(p)
    check_cfl(g, lp)
    refresh_every = cfg.refresh_every(g)
    mesh = TriMesh(cfg.mesh_n)

    source: KernelSource | None = None
    if not open_loop:
        if cfg.kernel_source == "solver":
            source = SolverKernelSource(
                lp, mesh, tol=cfg.tol, max_iter=cfg.max_iter, c_bound=cfg.c_bar
            )
        else:
            if model is None:
                raise ValueError("kernel_source 'neural' requires a model")
            from arzno.deeponet import NeuralKernelSource

            source = NeuralKernelSource(model, mesh, lp)

    s = initial_plant_state(lp, g, cfg.ic)
    i = IdentifierState(
        u_hat=s.u.copy(),
        v_hat=s.v.copy(),
        c_hat=np.full(g.n_x + 1, -0.5 / cfg.tau_guess),
        rho_gain=cfg.rho_gain,
        gamma=cfg.gamma,
        gamma1=cfg.gamma1,
        c_bar=cfg.c_bar,
        t=0.0,
    )

    const = derive_constants(lp)
    c_true = np.asarray(lp.c(g.x))
    n = g.n_x + 1
    rows = g.n_steps + 1

    cols = {
        name: np.empty(rows)
        for name in (
            "t",
            "u_norm",
            "v_norm",
            "e_norm",
            "eps_norm",
            "c_err_norm",
            "control",
            "v1",
            "v2",
            "v_lyap",
            "v3",
            "v4",
            "s_norm",
        )
    }
    kernel_ns = np.zeros(rows, dtype=np.int64)
    hist = {
        name: np.empty((rows, n))
        for name in ("u", "v", "u_hat", "v_hat", "c_hat", "rho", "speed")
    }
    refresh_t: list[float] = []
    refresh_ns: list[int] = []
    dku_dt: list[float] = []
    dkv_dt: list[float] = []

    ac: _ActiveKernels | None = None

    def record(k: int) -> None:
        e = s.u - i.u_hat
        eps = s.v - i.v_hat
        c_tilde = c_true - i.c_hat
        cols["t"][k] = s.t
        cols["u_norm"][k] = l2_norm(s.u, g)
        cols["v_norm"][k] = l2_norm(s.v, g)
        cols["e_norm"][k] = l2_norm(e, g)
        cols["eps_norm"][k] = l2_norm(eps, g)
        cols["c_err_norm"][k] = l2_norm(c_tilde, g)
        cols["control"][k] = s.v[-1]
        cols["v3"][k] = lyapunov_v3(e, eps, c_tilde, cfg.gamma, cfg.gamma1, g)
        if ac is None:
            cols["v1"][k] = np.nan
            cols["v2"][k] = np.nan
            cols["v_lyap"][k] = np.nan
            cols["v4"][k] = np.nan
        else:
            w_f, z_f = _transform(ac, i.u_hat, i.v_hat)
            v1, v2, v_l = lyapunov_v1_v2(w_f, z_f, const, g)
            cols["v1"][k] = v1
            cols["v2"][k] = v2
            cols["v_lyap"][k] = v_l
            cols["v4"][k] = v_l + cols["v3"][k]
        cols["s_norm"][k] = global_norm_S(s.u, s.v, i.u_hat, i.v_hat, c_tilde, g)
        hist["u"][k] = s.u
        hist["v"][k] = s.v
        hist["u_hat"][k] = i.u_hat
        hist["v_hat"][k] = i.v_hat
        hist["c_hat"][k] = i.c_hat
        hist["rho"][k], hist["speed"][k] = from_riemann(lp, g.x, s.u, s.v)

    def refresh(k: int) -> None:
        nonlocal ac
        c_mesh = np.interp(mesh.x, g.x, i.c_hat)
        t0 = time.perf_counter_ns()
        kp = source.acquire(c_mesh)
        elapsed = time.perf_counter_ns() - t0
        if ac is None:
            dku, dkv = 0.0, 0.0
        else:
            d_u, d_v = kernel_time_derivative(kp, ac.kp, cfg.kernel_refresh_dt)
            dku = float(np.max(np.abs(d_u)))
            dkv = float(np.max(np.abs(d_v)))
        ac = _grid_caches(kp, g)
        refresh_t.append(s.t)
        refresh_ns.append(elapsed)
        dku_dt.append(dku)
        dkv_dt.append(dkv)
        kernel_ns[k] = elapsed
        if on_refresh is not None:
            on_refresh(s.t, c_mesh, kp, elapsed)

    for k in range(g.n_steps):
        # Row k is recorded with the kernels that set its boundary value,
        # so a refresh due at t_k lands after the record (except at k = 0,
        # where no control has been applied yet and the refresh supplies
        # the functionals of the initial row).
        due = source is not None and k % refresh_every == 0
        if due and k == 0:
            refresh(k)
        record(k)
        if due and k > 0:
            refresh(k)

        i_stepped = step_identifier(i, s, 0.0, lp, g)
        if ac is None:
            u_next = 0.0
        else:
            quad = ac.m_u[-1] @ i_stepped.u_hat + ac.m_v[-1] @ i_stepped.v_hat
            u_next = float(quad / ac.denom)
        s = step_plant(s, lp, u_next, g)
        v_hat_new = i_stepped.v_hat.copy()
        v_hat_new[-1] = u_next
        # Adaptation last, from the freshly advanced states.  Driving the
        # estimate with the post-step regressor makes the discrete cross
        # term in the identifier functional overshoot toward descent
        # instead of lagging it, so per-step monotonicity survives the
        # forward-Euler startup transient where the error fields grow
        # from zero before any estimate credit has accrued.
        i = update_c_hat(replace(i_stepped, v_hat=v_hat_new), s, g)

    record(g.n_steps)

    return SimTrace(
        x=g.x.copy(),
        t=cols["t"],
        u_norm=cols["u_norm"],
        v_norm=cols["v_norm"],
        e_norm=cols["e_norm"],
        eps_norm=cols["eps_norm"],
        c_err_norm=cols["c_err_norm"],
        control=cols["control"],
        v1=cols["v1"],
        v2=cols["v2"],
        v_lyap=cols["v_lyap"],
        v3=cols["v3"],
        v4=cols["v4"],
        s_norm=cols["s_norm"],
        kernel_ns=kernel_ns,
        refresh_t=np.asarray(refresh_t),
        refresh_ns=np.asarray(refresh_ns, dtype=np.int64),
        dku_dt=np.asarray(dku_dt),
        dkv_dt=np.asarray(dkv_dt),
        u=hist["u"],
        v=hist["v"],
        u_hat=hist["u_hat"],
        v_hat=hist["v_hat"],
        c_hat=hist["c_hat"],
        rho=hist["rho"],
        speed=hist["speed"],
    )

"""First-order upwind simulation of the linearized plant and its identifier.

Fields live on the n_x + 1 nodes of a uniform grid over the normalized
stretch [0, 1].  Interior nodes are updated by donor-cell upwinding,
then the boundary conditions u(0) = r v(0) and v(1) = U are applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from arzno.model import LinearizedParams, unit_nodes

__all__ = [
    "CFLError",
    "InstabilityError",
    "GridSpec",
    "PlantState",
    "IdentifierState",
    "l2_norm",
    "check_cfl",
    "step_plant",
    "step_identifier",
    "project",
    "update_c_hat",
]


class CFLError(ValueError):
    """Raised when a grid/step combination violates the CFL bound."""


class InstabilityError(RuntimeError):
    """Raised when a field stops being finite during time stepping."""

    def __init__(self, t: float, what: str = "field"):
        super().__init__(f"{what} became non-finite at t = {t:.6g} s")
        self.t = t


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid on the normalized domain.

    Attributes:
        n_x: number of cells; fields carry n_x + 1 nodes.
        dt: time step (s).
        t_end: final time (s).
    """

    n_x: int = 60
    dt: float = 0.1
    t_end: float = 300.0

    def __post_init__(self) -> None:
        if self.n_x < 16:
            raise ValueError("n_x must be at least 16")
        if not (self.dt > 0 and 0 <= self.t_end < np.inf):
            raise ValueError("dt must be positive and t_end finite and non-negative")
        steps = round(self.t_end / self.dt)
        if abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be a multiple of dt")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def x(self) -> np.ndarray:
        """Node coordinates, n_x + 1 points including both boundaries.

        Read-only and shared by every grid with the same n_x.
        """
        return unit_nodes(self.n_x + 1)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def check_cfl(g: GridSpec, lp: LinearizedParams) -> float:
    """Validate dt * max(lam, mu) / (L dx) <= 1; return the CFL number."""
    cfl = g.dt * max(lp.lam_n, lp.mu_n) / g.dx
    if cfl > 1.0 + 1e-12:
        raise CFLError(
            f"CFL number {cfl:.4g} exceeds 1 (dt={g.dt}, n_x={g.n_x}); "
            "shrink dt or coarsen the grid"
        )
    return cfl


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PlantState:
    """Plant fields (u, v) at time t.  Arrays are read-only."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _frozen(self.u))
        object.__setattr__(self, "v", _frozen(self.v))
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")


@dataclass(frozen=True)
class IdentifierState:
    """Identifier fields and adaptation gains at time t.

    Attributes:
        u_hat, v_hat: identifier copies of the plant fields.
        c_hat: estimate of the coupling coefficient on the grid nodes.
        rho_gain: gain of the norm-weighted output-error corrections.
        gamma: exponential weight rate of the adaptation law.
        gamma1: adaptation gain.
        c_bar: known bound enforced on |c_hat|.
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    c_hat: np.ndarray
    rho_gain: float = 0.05
    gamma: float = 1.0
    gamma1: float = 0.01
    c_bar: float = 1.0 / 60.0
    t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("u_hat", "v_hat", "c_hat"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if not (self.u_hat.shape == self.v_hat.shape == self.c_hat.shape):
            raise ValueError("identifier fields must share one grid")
        if self.c_bar <= 0:
            raise ValueError("c_bar must be positive")
        if np.any(np.abs(self.c_hat) > self.c_bar * (1 + 1e-12)):
            raise ValueError("initial c_hat violates |c_hat| <= c_bar")


def l2_norm(field: np.ndarray, g: GridSpec) -> float:
    """Trapezoid-rule L2 norm of a nodal field over [0, 1]."""
    field = np.asarray(field, dtype=float)
    if field.shape != (g.n_x + 1,):
        raise ValueError("field does not match the grid")
    return float(np.sqrt(np.trapezoid(field * field, dx=g.dx)))


def regressor_norm2(s: PlantState, g: GridSpec) -> float:
    """Squared norm of the plant state, ||u||^2 + ||v||^2."""
    return l2_norm(s.u, g) ** 2 + l2_norm(s.v, g) ** 2


def _require_finite(arrs: tuple[np.ndarray, ...], t: float, what: str) -> None:
    for a in arrs:
        if not np.all(np.isfinite(a)):
            raise InstabilityError(t, what)


def step_plant(s: PlantState, lp: LinearizedParams, U: float, g: GridSpec) -> PlantState:
    """Advance the plant one step of size g.dt with boundary input U.

    Interior update first (upwind in the transport direction of each
    field), then v(1) = U and u(0) = r v(0) using the fresh v.
    """
    check_cfl(g, lp)
    nu_a = lp.lam_n * g.dt / g.dx
    nu_b = lp.mu_n * g.dt / g.dx
    c = lp.c(g.x)
    u, v = s.u, s.v

    u_new = np.empty_like(u)
    v_new = np.empty_like(v)
    u_new[1:] = u[1:] - nu_a * (u[1:] - u[:-1])
    v_new[:-1] = v[:-1] + nu_b * (v[1:] - v[:-1]) + g.dt * (c[:-1] * u[:-1])
    v_new[-1] = U
    u_new[0] = lp.r * v_new[0]

    t_new = s.t + g.dt
    _require_finite((u_new, v_new), t_new, "plant state")
    return PlantState(u=u_new, v=v_new, t=t_new)


def step_identifier(
    i: IdentifierState,
    s: PlantState,
    U: float,
    lp: LinearizedParams,
    g: GridSpec,
) -> IdentifierState:
    """Advance the identifier one step, driven by the plant state at time t.

    The copies of the plant equations carry the estimated coupling
    c_hat * u plus output-error corrections rho ||w||^2 e and
    rho ||w||^2 eps, with ||w||^2 = ||u||^2 + ||v||^2 evaluated once.
    c_hat itself is advanced separately by update_c_hat.
    """
    check_cfl(g, lp)
    nu_a = lp.lam_n * g.dt / g.dx
    nu_b = lp.mu_n * g.dt / g.dx
    u_hat, v_hat = i.u_hat, i.v_hat
    e = s.u - u_hat
    eps = s.v - v_hat
    w2 = regressor_norm2(s, g)

    u_new = np.empty_like(u_hat)
    v_new = np.empty_like(v_hat)
    u_new[1:] = u_hat[1:] - nu_a * (u_hat[1:] - u_hat[:-1]) + g.dt * (
        i.rho_gain * w2 * e[1:]
    )
    v_new[:-1] = v_hat[:-1] + nu_b * (v_hat[1:] - v_hat[:-1]) + g.dt * (
        i.c_hat[:-1] * s.u[:-1] + i.rho_gain * w2 * eps[:-1]
    )
    v_new[-1] = U
    u_new[0] = lp.r * v_new[0]

    t_new = i.t + g.dt
    _require_finite((u_new, v_new), t_new, "identifier state")
    return replace(i, u_hat=u_new, v_hat=v_new, t=t_new)


def project(c_hat: np.ndarray, update: np.ndarray, c_bar: float) -> np.ndarray:
    """Pointwise projection of an adaptation update onto |c_hat| <= c_bar.

    The update is zeroed wherever c_hat sits on the bound and the update
    points outward; elsewhere it passes through unchanged.
    """
    c_hat = np.asarray(c_hat, dtype=float)
    update = np.asarray(update, dtype=float)
    outward = ((c_hat >= c_bar) & (update > 0)) | ((c_hat <= -c_bar) & (update < 0))
    return np.where(outward, 0.0, update)


def update_c_hat(i: IdentifierState, s: PlantState, g: GridSpec) -> IdentifierState:
    """One forward-Euler step of the adaptation law for c_hat.

    Raw update gamma1 * exp(gamma x) * eps * u, projected at the bound;
    the Euler step is additionally clipped to [-c_bar, c_bar] so the
    bound survives discretization.  Fields and time are left untouched;
    callers sequence this against the field steps.
    """
    eps = s.v - i.v_hat
    raw = i.gamma1 * np.exp(i.gamma * g.x) * eps * s.u
    masked = project(i.c_hat, raw, i.c_bar)
    return replace(i, c_hat=np.clip(i.c_hat + g.dt * masked, -i.c_bar, i.c_bar))

"""First-order upwind simulation of the linearized plant and its identifier.

Fields live on the n_x + 1 nodes of a uniform grid over the normalized
stretch [0, 1].  Interior nodes are updated by donor-cell upwinding,
then the boundary conditions u(0) = r v(0) and v(1) = U are applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _evolve(state, **fields):
    """A copy of a frozen state with some fields replaced, unvalidated.

    For hot stepping paths whose new arrays were just allocated, are
    float64 and already satisfy the state's invariants; they are frozen
    in place rather than copied, and the caller cedes ownership.
    """
    out = object.__new__(type(state))
    out.__dict__.update(state.__dict__)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(out, name, value)
    return out


def _as_fields(field: np.ndarray, g: GridSpec) -> np.ndarray:
    """A nodal field, or a (rows, n_x + 1) stack of them, as floats."""
    field = np.asarray(field, dtype=float)
    if field.ndim not in (1, 2) or field.shape[-1] != g.n_x + 1:
        raise ValueError("field does not match the grid")
    return field


def l2_norm(field: np.ndarray, g: GridSpec) -> float | np.ndarray:
    """Trapezoid-rule L2 norm of a nodal field over [0, 1].

    A (rows, n_x + 1) stack of fields gives the norm of each row.
    """
    field = _as_fields(field, g)
    out = np.sqrt(np.trapezoid(field * field, dx=g.dx, axis=-1))
    return float(out) if field.ndim == 1 else out


def regressor_norm2(s: PlantState, g: GridSpec) -> float:
    """Squared norm of the plant state, ||u||^2 + ||v||^2.

    l2_norm(s.u, g) ** 2 + l2_norm(s.v, g) ** 2 with np.trapezoid's
    arithmetic written out, since the identifier needs it every step.
    """
    if s.u.shape != (g.n_x + 1,):
        raise ValueError("field does not match the grid")
    dx = g.dx
    u2 = s.u * s.u
    v2 = s.v * s.v
    return (
        math.sqrt((dx * (u2[1:] + u2[:-1]) / 2.0).sum()) ** 2
        + math.sqrt((dx * (v2[1:] + v2[:-1]) / 2.0).sum()) ** 2
    )


def _require_finite(arrs: tuple[np.ndarray, ...], t: float, what: str) -> None:
    for a in arrs:
        if not np.isfinite(a).all():
            raise InstabilityError(t, what)


@lru_cache(maxsize=64)
def _stepping(
    g: GridSpec, lp: LinearizedParams
) -> tuple[float, float, float, float, np.ndarray]:
    """Per-run constants of the upwind steps: (nu_a, nu_b, dt, r, c).

    c is the coupling on every node but the last.  The CFL bound is
    checked here; lru_cache stores no raised exception, so a violating
    grid fails on every step, not only the first.
    """
    check_cfl(g, lp)
    c = lp.c(g.x)[:-1]
    c.setflags(write=False)
    return lp.lam_n * g.dt / g.dx, lp.mu_n * g.dt / g.dx, g.dt, lp.r, c


@lru_cache(maxsize=64)
def _adaptation_weight(gamma1: float, gamma: float, g: GridSpec) -> np.ndarray:
    """gamma1 * exp(gamma x), the leading factor of the adaptation law."""
    w = gamma1 * np.exp(gamma * g.x)
    w.setflags(write=False)
    return w


def step_plant(s: PlantState, lp: LinearizedParams, U: float, g: GridSpec) -> PlantState:
    """Advance the plant one step of size g.dt with boundary input U.

    Interior update first (upwind in the transport direction of each
    field), then v(1) = U and u(0) = r v(0) using the fresh v.
    """
    nu_a, nu_b, dt, r, c = _stepping(g, lp)
    u, v = s.u, s.v

    u_new = np.empty_like(u)
    v_new = np.empty_like(v)
    u_new[1:] = u[1:] - nu_a * (u[1:] - u[:-1])
    v_new[:-1] = v[:-1] + nu_b * (v[1:] - v[:-1]) + dt * (c * u[:-1])
    v_new[-1] = U
    u_new[0] = r * v_new[0]

    t_new = s.t + dt
    _require_finite((u_new, v_new), t_new, "plant state")
    return _evolve(s, u=u_new, v=v_new, t=t_new)


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
    nu_a, nu_b, dt, r, _ = _stepping(g, lp)
    u_hat, v_hat = i.u_hat, i.v_hat
    e = s.u - u_hat
    eps = s.v - v_hat
    gain = i.rho_gain * regressor_norm2(s, g)

    u_new = np.empty_like(u_hat)
    v_new = np.empty_like(v_hat)
    u_new[1:] = u_hat[1:] - nu_a * (u_hat[1:] - u_hat[:-1]) + dt * (gain * e[1:])
    v_new[:-1] = v_hat[:-1] + nu_b * (v_hat[1:] - v_hat[:-1]) + dt * (
        i.c_hat[:-1] * s.u[:-1] + gain * eps[:-1]
    )
    v_new[-1] = U
    u_new[0] = r * v_new[0]

    t_new = i.t + dt
    _require_finite((u_new, v_new), t_new, "identifier state")
    return _evolve(i, u_hat=u_new, v_hat=v_new, t=t_new)


def update_c_hat(i: IdentifierState, s: PlantState, g: GridSpec) -> IdentifierState:
    """One forward-Euler step of the adaptation law for c_hat.

    Raw update gamma1 * exp(gamma x) * eps * u; the Euler step is clipped
    to [-c_bar, c_bar].  The clip alone is the projection: where c_hat
    sits on the bound and the update points outward, both give the bound,
    and elsewhere the projection passes the update through unchanged.
    Fields and time are left untouched; callers sequence this against
    the field steps.
    """
    raw = _adaptation_weight(i.gamma1, i.gamma, g) * (s.v - i.v_hat) * s.u
    c_bar = i.c_bar
    return _evolve(
        i, c_hat=np.minimum(np.maximum(i.c_hat + g.dt * raw, -c_bar), c_bar)
    )

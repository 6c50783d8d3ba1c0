"""First-order upwind simulation of the linearized plant and its identifier.

Fields live on the n_x + 1 nodes of a uniform grid over the normalized
stretch [0, 1].  Interior nodes are updated by donor-cell upwinding,
then the boundary conditions u(0) = r v(0) and v(1) = U are applied.
The steppers take the fields as plain arrays and return fresh ones, or
write them into a caller's array given as out; the caller holds the
state and its time.
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
        self.t = float(t)


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


def regressor_norm2(w: np.ndarray, g: GridSpec) -> float:
    """Squared norm of the plant state w = (u, v), ||u||^2 + ||v||^2.

    l2_norm(u, g) ** 2 + l2_norm(v, g) ** 2 with np.trapezoid's
    arithmetic written out on the (2, n_x + 1) block, since the
    identifier needs it every step; each row sums as it would alone.
    """
    if w.shape != (2, g.n_x + 1):
        raise ValueError("field does not match the grid")
    w2 = w * w
    su, sv = np.add.reduce(g.dx * (w2[:, 1:] + w2[:, :-1]) / 2.0, 1).tolist()
    return math.sqrt(su) ** 2 + math.sqrt(sv) ** 2


def _require_finite(fields: np.ndarray, t: float, what: str) -> None:
    if not np.isfinite(fields).all():
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


def step_plant(
    u: np.ndarray,
    v: np.ndarray,
    U: float,
    lp: LinearizedParams,
    g: GridSpec,
    t: float = 0.0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the plant fields one step of g.dt from time t with input U.

    Interior update first (upwind in the transport direction of each
    field), then v(1) = U and u(0) = r v(0) using the fresh v.  Returns
    fresh arrays, or, given a (2, n_x + 1) array out that overlaps no
    input, writes the new u and v into its rows and returns those; a
    non-finite result raises InstabilityError at t + dt.
    """
    nu_a, nu_b, dt, r, c = _stepping(g, lp)
    new = np.empty((2, u.size)) if out is None else out
    u_new, v_new = new
    u_new[1:] = u[1:] - nu_a * (u[1:] - u[:-1])
    v_new[:-1] = v[:-1] + nu_b * (v[1:] - v[:-1]) + dt * (c * u[:-1])
    v_new[-1] = U
    u_new[0] = r * v_new[0]
    _require_finite(new, t + dt, "plant state")
    return (u_new, v_new) if out is not None else (u_new.copy(), v_new.copy())


def step_identifier(
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    c_hat: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    U: float,
    rho_gain: float,
    lp: LinearizedParams,
    g: GridSpec,
    t: float = 0.0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the identifier one step from time t, driven by the plant (u, v).

    The copies of the plant equations carry the estimated coupling
    c_hat * u plus output-error corrections rho ||w||^2 e and
    rho ||w||^2 eps, with ||w||^2 = ||u||^2 + ||v||^2 evaluated once.
    c_hat itself is advanced separately by update_c_hat.  Returns fresh
    (u_hat, v_hat), or writes them into the rows of out as step_plant
    does; a non-finite result raises InstabilityError at t + dt.
    """
    nu_a, nu_b, dt, r, _ = _stepping(g, lp)
    e = u - u_hat
    eps = v - v_hat
    gain = rho_gain * regressor_norm2(np.array((u, v)), g)

    new = np.empty((2, u_hat.size)) if out is None else out
    u_new, v_new = new
    u_new[1:] = u_hat[1:] - nu_a * (u_hat[1:] - u_hat[:-1]) + dt * (gain * e[1:])
    v_new[:-1] = v_hat[:-1] + nu_b * (v_hat[1:] - v_hat[:-1]) + dt * (
        c_hat[:-1] * u[:-1] + gain * eps[:-1]
    )
    v_new[-1] = U
    u_new[0] = r * v_new[0]
    _require_finite(new, t + dt, "identifier state")
    return (u_new, v_new) if out is not None else (u_new.copy(), v_new.copy())


def update_c_hat(
    c_hat: np.ndarray,
    v_hat: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    gamma1: float,
    gamma: float,
    c_bar: float,
    g: GridSpec,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One forward-Euler step of the adaptation law; returns the new c_hat.

    Raw update gamma1 * exp(gamma x) * eps * u with eps = v - v_hat; the
    Euler step is clipped to [-c_bar, c_bar].  The clip alone is the
    projection: where c_hat sits on the bound and the update points
    outward, both give the bound, and elsewhere the projection passes the
    update through unchanged.  Callers sequence this against the field
    steps.  Given out, the new c_hat is written there and returned.
    """
    raw = _adaptation_weight(gamma1, gamma, g) * (v - v_hat) * u
    return np.minimum(np.maximum(c_hat + g.dt * raw, -c_bar), c_bar, out=out)

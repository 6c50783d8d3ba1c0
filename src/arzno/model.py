"""Congested-regime ARZ traffic model and its linearization.

Physical quantities are SI throughout: speeds in m/s, densities in
veh/m, lengths in m, times in s.  The linearized plant lives on the
normalized stretch x in [0, 1]; transport speeds on that domain are
lambda/L and mu/L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TrafficParams",
    "LinearizedParams",
    "equilibrium_velocity",
    "derive_linearized",
    "to_riemann",
    "from_riemann",
]


@lru_cache(maxsize=64)
def unit_nodes(n: int) -> np.ndarray:
    """The n uniform nodes of [0, 1] as one shared, read-only array.

    Grids and kernel meshes serve their coordinates from here, so the
    control loop does not rebuild the same linspace several times a step.
    """
    x = np.linspace(0.0, 1.0, n)
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class TrafficParams:
    """Physical parameters of the ARZ model on a road of length L.

    Attributes:
        v_f: free-flow speed (m/s).
        rho_m: maximal (jam) density (veh/m).
        rho_star: equilibrium density of the congested steady state (veh/m).
        tau: relaxation time of driver adaptation (s).
        gamma0: pressure exponent, p(rho) = c0 * rho**gamma0 with
            c0 = v_f / rho_m**gamma0 so that V(rho) = v_f - p(rho).
        length: road length L (m).
    """

    v_f: float = 40.0
    rho_m: float = 0.160
    rho_star: float = 0.120
    tau: float = 60.0
    gamma0: float = 1.0
    length: float = 600.0

    def __post_init__(self) -> None:
        if self.v_f <= 0 or self.rho_m <= 0 or self.tau <= 0 or self.length <= 0:
            raise ValueError("v_f, rho_m, tau and length must be positive")
        if self.gamma0 <= 0:
            raise ValueError("pressure exponent gamma0 must be positive")
        if not 0.0 < self.rho_star < self.rho_m:
            raise ValueError("equilibrium density must satisfy 0 < rho_star < rho_m")

    @property
    def c0(self) -> float:
        """Pressure coefficient tying p to the speed law, c0 = v_f / rho_m**gamma0."""
        return self.v_f / self.rho_m**self.gamma0

    @property
    def v_star(self) -> float:
        """Equilibrium speed V(rho_star) (m/s)."""
        return equilibrium_velocity(self, self.rho_star)

    @property
    def p_prime_star(self) -> float:
        """Pressure slope dp/drho at the equilibrium density."""
        return self.gamma0 * self.c0 * self.rho_star ** (self.gamma0 - 1.0)


def equilibrium_velocity(p: TrafficParams, rho: float | np.ndarray) -> float | np.ndarray:
    """Greenshields-type speed law V(rho) = v_f * (1 - (rho/rho_m)**gamma0).

    Args:
        p: physical parameters.
        rho: density (veh/m), scalar or array, in [0, rho_m].

    Returns:
        Equilibrium speed (m/s), same shape as rho.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0) or np.any(rho > p.rho_m):
        raise ValueError("density outside [0, rho_m]")
    out = p.v_f * (1.0 - (rho / p.rho_m) ** p.gamma0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LinearizedParams:
    """Coefficients of the 2x2 linearized plant on normalized x in [0, 1].

    The plant is
        u_t = -(lam/L) u_x
        v_t = +(mu/L) v_x + c(x) u
        u(0, t) = r v(0, t),   v(1, t) = U(t)
    with c(x) = -(1/tau) exp(-x L / (tau v_star)).

    Attributes:
        lam: rightward characteristic speed, lam = v_star (m/s).
        mu: leftward characteristic speed, mu = gamma0 p_star - v_star (m/s),
            positive exactly in the congested regime.
        r: inlet reflection coefficient (dimensionless).  Computed verbatim
            as (rho_star V(rho_star) + v_star) / v_star in SI units.
        c_bar: known bound on |c(x)|, equal to |c(0)| = 1/tau.
        tau: relaxation time (s).
        v_star: equilibrium speed (m/s).
        p_prime_star: pressure slope at equilibrium; used by the
            Riemann coordinate maps.
        length: road length L (m).
    """

    lam: float
    mu: float
    r: float
    c_bar: float
    tau: float
    v_star: float
    p_prime_star: float
    length: float

    @property
    def lam_n(self) -> float:
        """Transport rate of u on the normalized domain (1/s)."""
        return self.lam / self.length

    @property
    def mu_n(self) -> float:
        """Transport rate of v on the normalized domain (1/s)."""
        return self.mu / self.length

    @property
    def kappa(self) -> float:
        """Spatial decay exponent of c(x), kappa = L / (tau v_star)."""
        return self.length / (self.tau * self.v_star)

    @property
    def rho_star(self) -> float:
        """Equilibrium density (veh/m), recovered from the coefficients.

        mu = gamma0 p* - v* and p* = p'(rho*) rho* / gamma0 for the
        power-law pressure, so rho* needs no separate field.
        """
        return (self.mu + self.v_star) / self.p_prime_star

    def c(self, x: float | np.ndarray) -> float | np.ndarray:
        """Relaxation coupling coefficient c(x) at normalized positions x."""
        x = np.asarray(x, dtype=float)
        out = -(1.0 / self.tau) * np.exp(-self.kappa * x)
        return float(out) if out.ndim == 0 else out

    def c_samples(self, n: int) -> np.ndarray:
        """c(x) sampled on the uniform n-point grid over [0, 1]."""
        if n < 2:
            raise ValueError("need at least two sample points")
        return np.asarray(self.c(np.linspace(0.0, 1.0, n)))


def derive_linearized(p: TrafficParams) -> LinearizedParams:
    """Derive the linearized plant coefficients from physical parameters.

    Rejects parameter sets outside the congested regime, where the
    leftward characteristic speed mu would not be positive.

    Args:
        p: physical parameters.

    Returns:
        LinearizedParams with lam, mu, r, c_bar and the data needed to
        evaluate c(x) and the coordinate maps.
    """
    v_star = p.v_star
    p_star = p.c0 * p.rho_star**p.gamma0
    mu = p.gamma0 * p_star - v_star
    if mu <= 0:
        raise ValueError(
            "not in the congested regime: gamma0 * p_star must exceed v_star"
        )
    # Reflection coefficient kept verbatim from the design relation
    # (rho* V(rho*) + v*) / v*; the numerator mixes a flux with a speed,
    # so the value depends on the density unit.  SI (veh/m) is used.
    r = (p.rho_star * v_star + v_star) / v_star
    return LinearizedParams(
        lam=v_star,
        mu=mu,
        r=r,
        c_bar=1.0 / p.tau,
        tau=p.tau,
        v_star=v_star,
        p_prime_star=p.p_prime_star,
        length=p.length,
    )


def _weight(lp: LinearizedParams, x: np.ndarray) -> np.ndarray:
    return np.exp(lp.kappa * np.asarray(x, dtype=float))


def to_riemann(
    lp: LinearizedParams, x: np.ndarray, rho: np.ndarray, vel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map physical fields (rho, vel) to plant coordinates (u, v).

    u is the exponentially weighted combination of the speed and density
    deviations that rides the rightward characteristic; v is the raw
    speed deviation.

    Args:
        lp: linearized coefficients.
        x: normalized positions in [0, 1].
        rho: density field (veh/m).
        vel: speed field (m/s).

    Returns:
        (u, v) fields on the same grid.
    """
    rho_t = np.asarray(rho, dtype=float) - lp.rho_star
    vel_t = np.asarray(vel, dtype=float) - lp.v_star
    u = _weight(lp, x) * (vel_t + lp.p_prime_star * rho_t)
    return u, vel_t.copy()


def from_riemann(
    lp: LinearizedParams, x: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Invert to_riemann: recover physical (rho, vel) from (u, v)."""
    vel_t = np.asarray(v, dtype=float)
    rho_t = (np.asarray(u, dtype=float) / _weight(lp, x) - vel_t) / lp.p_prime_star
    return lp.rho_star + rho_t, lp.v_star + vel_t

"""Lyapunov functionals and certification constants for closed-loop runs.

The target-system functional V = V1 + a V2 uses exponentially weighted
norms of the transformed fields (w, z); the identifier functional V3
adds weighted output errors and the estimate error.  The constants
(a, delta, k) are derived from the plant coefficients with a
configurable safety margin.

Each functional takes single nodal fields and returns a float, or
(rows, n_x + 1) stacks of fields (a run's histories) and returns one
value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from arzno.model import LinearizedParams
from arzno.sim import GridSpec, _as_fields

__all__ = [
    "LyapunovConstants",
    "derive_constants",
    "lyapunov_v1_v2",
    "lyapunov_v3",
    "global_norm_S",
    "norm_equivalence_constants",
    "epsilon0_report",
]


@dataclass(frozen=True)
class LyapunovConstants:
    """Weights of the certification functionals.

    a scales V2 against V1; delta and k are the exponential rates of the
    V1 and V2 weights.  delta >= 1 is assumed by the decay estimates;
    the evaluation routines accept smaller positive values for
    exploratory use.
    """

    a: float
    delta: float
    k: float


def derive_constants(
    lp: LinearizedParams,
    margin: float = 0.1,
    a3: float = 1.0,
    a4: float = 1.0,
) -> LyapunovConstants:
    """Constants for V = V1 + a V2 from the plant coefficients.

    a = (lam r^2 + 1)/mu, then delta and k from the decay inequalities
        delta > max{1, (4 + 8 a3^2 + 4 a (1 + a3)^2) / lam}
        k     > (8 e^{-delta} a4^2 + a (3 + 4 a4^2)) / (a mu)
    with the kernel-magnitude surrogates a3, a4 set to 1 by default and
    a multiplicative margin on top of each lower bound.
    """
    if margin < 0:
        raise ValueError("margin must be non-negative")
    a = (lp.lam * lp.r**2 + 1.0) / lp.mu
    delta = (1.0 + margin) * max(
        1.0, (4.0 + 8.0 * a3**2 + 4.0 * a * (1.0 + a3) ** 2) / lp.lam
    )
    k = (1.0 + margin) * (
        (8.0 * np.exp(-delta) * a4**2 + a * (3.0 + 4.0 * a4**2)) / (a * lp.mu)
    )
    return LyapunovConstants(a=a, delta=delta, k=k)


def _weighted_sq(
    field: np.ndarray, weight: np.ndarray, g: GridSpec
) -> float | np.ndarray:
    field = _as_fields(field, g)
    out = np.trapezoid(weight * field * field, dx=g.dx, axis=-1)
    return float(out) if field.ndim == 1 else out


def lyapunov_v1_v2(
    w: np.ndarray,
    z: np.ndarray,
    const: LyapunovConstants,
    g: GridSpec,
) -> tuple[float, float, float]:
    """V1 = int e^{-delta x} w^2, V2 = int e^{k x} z^2, V = V1 + a V2."""
    if const.delta <= 0:
        raise ValueError("delta must be positive")
    if const.k < 0 or const.a <= 0:
        raise ValueError("k must be non-negative and a positive")
    x = g.x
    v1 = _weighted_sq(w, np.exp(-const.delta * x), g)
    v2 = _weighted_sq(z, np.exp(const.k * x), g)
    return v1, v2, v1 + const.a * v2


def lyapunov_v3(
    e: np.ndarray,
    eps: np.ndarray,
    c_tilde: np.ndarray,
    gamma: float,
    gamma1: float,
    g: GridSpec,
) -> float:
    """Identifier functional int e^{-gamma x} e^2 + int e^{gamma x} eps^2
    + ||c_tilde||^2 / gamma1.

    c_tilde = c - c_hat needs the true coefficient, so this is a
    simulation-only diagnostic.
    """
    if gamma <= 0 or gamma1 <= 0:
        raise ValueError("gamma and gamma1 must be positive")
    x = g.x
    out = _weighted_sq(e, np.exp(-gamma * x), g)
    out += _weighted_sq(eps, np.exp(gamma * x), g)
    out += _weighted_sq(c_tilde, np.ones_like(x), g) / gamma1
    return out


def global_norm_S(
    u: np.ndarray,
    v: np.ndarray,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    c_tilde: np.ndarray,
    g: GridSpec,
) -> float:
    """Sum of squared L2 norms of the plant, identifier and estimate errors."""
    ones = np.ones(g.n_x + 1)
    return (
        _weighted_sq(u, ones, g)
        + _weighted_sq(v, ones, g)
        + _weighted_sq(u_hat, ones, g)
        + _weighted_sq(v_hat, ones, g)
        + _weighted_sq(c_tilde, ones, g)
    )


def norm_equivalence_constants(
    const: LyapunovConstants,
    gamma: float,
    gamma1: float,
    k_bar: float,
    l_bar: float,
) -> tuple[float, float]:
    """Constants (k1, k2) with k1 S <= V4 <= k2 S along any trajectory.

    Derived by triangle inequalities from the transform bounds
    ||K|| <= k_bar and ||L|| <= l_bar:

      upper: ||z||^2 <= 2 (1 + k_bar)^2 (||u_hat||^2 + ||v_hat||^2),
             e = u - u_hat, eps = v - v_hat split by Young's inequality;
      lower: ||w||^2 <= e^delta V1, ||z||^2 <= V2, ||e||^2 <= e^gamma V3,
             ||eps||^2 <= V3, ||c_tilde||^2 <= gamma1 V3, and
             ||v_hat||^2 <= 3 (1 + l_bar)^2 (||z||^2 + ||w||^2).
    """
    a, delta, k = const.a, const.delta, const.k
    tk = 2.0 * (1.0 + k_bar) ** 2
    # V4 <= sum of per-component coefficients times squared norms.
    coef_uhat = 1.0 + a * np.exp(k) * tk + 2.0
    coef_vhat = a * np.exp(k) * tk + 2.0 * np.exp(gamma)
    coef_u = 2.0
    coef_v = 2.0 * np.exp(gamma)
    coef_ct = 1.0 / gamma1
    k2 = float(max(coef_uhat, coef_vhat, coef_u, coef_v, coef_ct))

    tl = 3.0 * (1.0 + l_bar) ** 2
    # Express each S component by V1, V2, V3 and collect the worst case.
    #   ||u_hat||^2 <= e^delta V1
    #   ||v_hat||^2 <= tl (V2 + e^delta V1)
    #   ||u||^2 <= 2 ||u_hat||^2 + 2 e^gamma V3
    #   ||v||^2 <= 2 ||v_hat||^2 + 2 V3
    #   ||c_tilde||^2 <= gamma1 V3
    c1 = np.exp(delta) * (3.0 + 3.0 * tl)   # multiplies V1
    c2 = 3.0 * tl                           # multiplies V2
    c3 = 2.0 * np.exp(gamma) + 2.0 + gamma1  # multiplies V3
    big = float(max(c1, c2 / a, c3))
    k1 = 1.0 / big
    return k1, k2


def epsilon0_report(d: float, mu: float, k: float, l_bar: float) -> float:
    """Admissible kernel-approximation margin for the perturbed decay bound.

    epsilon0 = sqrt(2 d - 1) / (2 sqrt(mu e^k L1)) with
    L1 = 2 l_bar^2 + 3 l_bar + 1; requires d > 1/2.
    """
    if d <= 0.5:
        raise ValueError("d must exceed 1/2")
    if mu <= 0:
        raise ValueError("mu must be positive")
    l1 = 2.0 * l_bar**2 + 3.0 * l_bar + 1.0
    return float(np.sqrt(2.0 * d - 1.0) / (2.0 * np.sqrt(mu * np.exp(k) * l1)))

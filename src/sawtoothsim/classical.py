"""Classical sawtooth map: iteration and stability diagnostics.

The map acts on the torus (theta, p) in [0, 2pi) x [-pi, pi):

    p'     = p + K (theta - pi)
    theta' = theta + p'

It is area preserving for every K, fully chaotic for K > 0 and K < -4,
and quasi-integrable for -4 <= K <= 0, where motion winds around an
elliptic island centered on the fixed point (pi, 0).  Because the force
is linear in theta, the tangent map is the constant matrix
[[1, K], [1, 1 + K]] and the maximum Lyapunov exponent has a closed
form in each regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "PhasePoint",
    "ClassicalParams",
    "step_classical",
    "step_array",
    "lyapunov_exponent",
    "lyapunov_numeric",
    "island_frequency",
    "island_rotation_number",
    "frequency_shift",
    "poincare_section",
    "trajectory",
    "torus_distance",
]


def _wrap_theta(theta):
    """Reduce angle(s) into [0, 2pi)."""
    return np.mod(theta, TWO_PI)


def _wrap_p(p):
    """Reduce momentum (momenta) into [-pi, pi)."""
    return np.mod(p + math.pi, TWO_PI) - math.pi


@dataclass(frozen=True)
class PhasePoint:
    """Point on the torus; coordinates are reduced on construction."""

    theta: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(_wrap_theta(self.theta)))
        object.__setattr__(self, "p", float(_wrap_p(self.p)))


@dataclass(frozen=True)
class ClassicalParams:
    """Kick parameter K = k T of the rescaled map."""

    K: float

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError("K must be finite")

    @property
    def stable(self) -> bool:
        """True in the quasi-integrable regime -4 <= K <= 0."""
        return -4.0 <= self.K <= 0.0


def step_array(theta, p, K):
    """Vectorized single map step; returns wrapped (theta', p') arrays."""
    p_new = _wrap_p(np.asarray(p) + K * (np.asarray(theta) - math.pi))
    theta_new = _wrap_theta(np.asarray(theta) + p_new)
    return theta_new, p_new


def step_classical(point: PhasePoint, params: ClassicalParams) -> PhasePoint:
    """One iteration of the sawtooth map."""
    theta, p = step_array(point.theta, point.p, params.K)
    return PhasePoint(float(theta), float(p))


def lyapunov_exponent(params) -> float:
    """Maximum Lyapunov exponent, from the closed form per regime.

    The tangent matrix [[1, K], [1, 1+K]] has eigenvalues
    (2 + K +/- sqrt(K^2 + 4K)) / 2; the exponent is the log of the
    larger modulus, which vanishes identically for -4 <= K <= 0.
    """
    K = params.K if isinstance(params, ClassicalParams) else float(params)
    if K > 0:
        return math.log((2.0 + K + math.sqrt(K * K + 4.0 * K)) / 2.0)
    if K < -4.0:
        return math.log(abs((2.0 + K - math.sqrt(K * K + 4.0 * K)) / 2.0))
    return 0.0


def lyapunov_numeric(params, steps: int = 2000, seed: int = 12345,
                     separation: float = 1e-9) -> float:
    """Finite-difference Lyapunov estimate from orbit divergence.

    Follows a fiducial orbit and a neighbor at fixed tiny separation,
    renormalizing the displacement each step and accumulating the log
    stretching factors.  Serves as an independent check on the closed
    form; in the stable regime the estimate hovers near zero.
    """
    K = params.K if isinstance(params, ClassicalParams) else float(params)
    rng = np.random.default_rng(seed)
    theta, p = rng.uniform(0, TWO_PI), rng.uniform(-math.pi, math.pi)
    dth, dp = separation, 0.0
    acc = 0.0
    for _ in range(steps):
        # displacement evolves under the tangent map of the current step
        dp_new = dp + K * dth
        dth_new = dth + dp_new
        norm = math.hypot(dth_new, dp_new)
        acc += math.log(norm / separation)
        dth, dp = dth_new * separation / norm, dp_new * separation / norm
        theta, p = step_array(theta, p, K)
    return acc / steps


def island_frequency(params) -> float:
    """Harmonic frequency nu = sqrt(-K) / 2pi of the central island.

    Valid in the quasi-integrable regime; raises outside -4 <= K < 0.
    """
    K = params.K if isinstance(params, ClassicalParams) else float(params)
    if not (-4.0 <= K < 0.0):
        raise ValueError(f"island frequency defined for -4 <= K < 0, got K={K}")
    return math.sqrt(-K) / TWO_PI


def island_rotation_number(params) -> float:
    """Exact per-step rotation angle at the island center.

    The linearized map at (pi, 0) rotates phase-space by
    omega = arccos(1 + K/2) per step, slightly faster than the harmonic
    estimate 2pi nu = sqrt(-K); the two agree as K -> 0-.
    """
    K = params.K if isinstance(params, ClassicalParams) else float(params)
    if not (-4.0 < K < 0.0):
        raise ValueError(f"rotation number defined for -4 < K < 0, got K={K}")
    return math.acos(1.0 + K / 2.0)


def frequency_shift(params, deltaK: float) -> float:
    """First-order island frequency shift magnitude under K -> K + deltaK.

    |d(nu)/dK| = 1 / (4pi sqrt(-K)), so the shift is
    deltaK / (4pi sqrt(-K)).  Sets the onset time of packet separation
    between perturbed and unperturbed island orbits.
    """
    K = params.K if isinstance(params, ClassicalParams) else float(params)
    if not (-4.0 < K < 0.0):
        raise ValueError(f"frequency shift defined for -4 < K < 0, got K={K}")
    return deltaK / (4.0 * math.pi * math.sqrt(-K))


def trajectory(point: PhasePoint, params: ClassicalParams, steps: int) -> np.ndarray:
    """Iterates of one seed point; returns array of shape (steps+1, 2)."""
    out = np.empty((steps + 1, 2))
    theta, p = point.theta, point.p
    out[0] = theta, p
    for t in range(1, steps + 1):
        theta, p = step_array(theta, p, params.K)
        out[t] = theta, p
    return out


def poincare_section(seeds, params: ClassicalParams, steps: int):
    """Iterates for each seed point; list of (steps+1, 2) arrays.

    Orbits launched inside an island stay confined to it; orbits in the
    chaotic component wander over the accessible layer.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return [trajectory(s, params, steps) for s in seeds]


def torus_distance(a, b) -> np.ndarray:
    """Shortest wrap-around separation between phase points.

    Accepts (..., 2) arrays of (theta, p) rows; both coordinates live on
    circles of circumference 2pi, so each difference is reduced to its
    minimal image before taking the Euclidean norm.
    """
    d = np.asarray(a, float) - np.asarray(b, float)
    d = np.mod(d + math.pi, TWO_PI) - math.pi
    return np.sqrt(np.sum(d * d, axis=-1))

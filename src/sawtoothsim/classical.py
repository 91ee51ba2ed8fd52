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

Every function takes the kick parameter K = k T as a plain float.
``poincare_section`` steps all its seed points at once through the
vectorized ``step_array``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "PhasePoint",
    "step_array",
    "lyapunov_exponent",
    "lyapunov_numeric",
    "poincare_section",
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


def step_array(theta, p, K):
    """Vectorized single map step; returns wrapped (theta', p') arrays."""
    p_new = _wrap_p(np.asarray(p) + K * (np.asarray(theta) - math.pi))
    theta_new = _wrap_theta(np.asarray(theta) + p_new)
    return theta_new, p_new


def lyapunov_exponent(K: float) -> float:
    """Maximum Lyapunov exponent, from the closed form per regime.

    The tangent matrix [[1, K], [1, 1+K]] has eigenvalues
    (2 + K +/- sqrt(K^2 + 4K)) / 2; the exponent is the log of the
    larger modulus, which vanishes identically for -4 <= K <= 0.
    """
    if K > 0:
        return math.log((2.0 + K + math.sqrt(K * K + 4.0 * K)) / 2.0)
    if K < -4.0:
        return math.log(abs((2.0 + K - math.sqrt(K * K + 4.0 * K)) / 2.0))
    return 0.0


# length of the renormalized displacement of the numeric estimate
_SEPARATION = 1e-9


def lyapunov_numeric(K: float, steps: int = 2000) -> float:
    """Lyapunov estimate from iterating the tangent map ``steps`` times.

    Starts a displacement (1e-9, 0), applies the constant tangent map
    [[1, K], [1, 1 + K]] each step, renormalizes the displacement and
    accumulates the log stretching factors.  The map is linear in
    theta, so no orbit is needed.  Serves as an independent check on
    the closed form; in the stable regime the estimate hovers near
    zero.  Raises ValueError unless ``steps`` >= 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    dth, dp = _SEPARATION, 0.0
    acc = 0.0
    for _ in range(steps):
        dp_new = dp + K * dth
        dth_new = dth + dp_new
        norm = math.hypot(dth_new, dp_new)
        acc += math.log(norm / _SEPARATION)
        dth, dp = dth_new * _SEPARATION / norm, dp_new * _SEPARATION / norm
    return acc / steps


def poincare_section(seeds, K: float, steps: int):
    """Iterates for each seed point; list of (steps+1, 2) arrays.

    All seeds are stepped together as one array, and row 0 of each
    orbit is its seed.  Orbits launched inside an island stay confined
    to it; orbits in the chaotic component wander over the accessible
    layer.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    theta = np.array([s.theta for s in seeds], float)
    p = np.array([s.p for s in seeds], float)
    out = np.empty((len(theta), steps + 1, 2))
    out[:, 0, 0], out[:, 0, 1] = theta, p
    for t in range(1, steps + 1):
        theta, p = step_array(theta, p, K)
        out[:, t, 0], out[:, t, 1] = theta, p
    return list(out)

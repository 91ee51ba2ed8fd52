"""Finite torus Hilbert space: lattice scales, grids, initial amplitudes.

States are plain complex arrays of momentum amplitudes: (N,) for one
state, (members, N) for an ensemble.

The N = 2^n_q dimensional space discretizes the torus with momentum
levels n = index - N/2 (n in [-N/2, N/2)) and angle grid
theta_l = 2 pi l / N.  The effective Planck constant is T = 2 pi / N:
commutators scale with T, so growing n_q approaches the classical
limit.  The basis change (see :mod:`sawtoothsim.propagator`) is the
unitary kernel

    <theta_l | n> = exp(i n theta_l) / sqrt(N),

implemented as a power-of-two FFT with (-1)^l twiddle factors that
account for the half-spectrum momentum offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "LatticeParams",
    "WavePacketSpec",
    "momentum_values",
    "angle_values",
    "packet_amplitudes",
    "random_amplitudes",
]


@dataclass(frozen=True)
class LatticeParams:
    """Single source of truth for all scales of one simulation.

    n_q qubits give dimension N = 2^n_q, effective Planck constant
    T = 2 pi / N, and kick strength k = K / T, so the classical limit
    at fixed K is n_q -> infinity.
    """

    n_q: int
    K: float

    def __post_init__(self):
        if not (isinstance(self.n_q, (int, np.integer)) and self.n_q >= 1):
            raise ValueError(f"n_q must be a positive integer, got {self.n_q!r}")
        if not math.isfinite(self.K):
            raise ValueError("K must be finite")

    @property
    def N(self) -> int:
        return 1 << self.n_q

    @property
    def T(self) -> float:
        return TWO_PI / self.N

    @property
    def k(self) -> float:
        return self.K / self.T


@dataclass(frozen=True)
class WavePacketSpec:
    """Center (theta0, p0) and momentum-space width of a Gaussian packet.

    ``sigma`` is the e-folding half-width of the momentum probability
    density in integer-n units; None selects the symmetric default
    sigma^2 = N / (2 pi) for which the packet has equal angle and
    momentum widths sqrt(T) (minimum uncertainty on the lattice).
    """

    theta0: float
    p0: float
    sigma: float | None = None

    def resolved_sigma(self, lattice: LatticeParams) -> float:
        sigma = self.sigma
        if sigma is None:
            sigma = math.sqrt(lattice.N / TWO_PI)
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        if sigma > lattice.N / 6:
            raise ValueError(
                f"sigma={sigma:.3g} wraps the torus (limit N/6={lattice.N / 6:.3g})")
        return sigma


def momentum_values(lattice: LatticeParams) -> np.ndarray:
    """Integer momentum levels n = index - N/2."""
    return np.arange(lattice.N) - lattice.N // 2


def angle_values(lattice: LatticeParams) -> np.ndarray:
    """Angle grid theta_l = 2 pi l / N."""
    return TWO_PI * np.arange(lattice.N) / lattice.N


def packet_amplitudes(spec: WavePacketSpec, lattice: LatticeParams) -> np.ndarray:
    """Raw normalized momentum amplitudes of a coherent Gaussian packet.

    The envelope is centered on n0 = p0 / T using wrapped distance, and
    the phase exp(-i (n - n0/2) theta0) places the angle center at
    theta0 under the transform convention above.
    """
    sigma = spec.resolved_sigma(lattice)
    N = lattice.N
    n = momentum_values(lattice)
    n0 = spec.p0 / lattice.T
    d = np.mod(n - n0 + N / 2, N) - N / 2
    amps = np.exp(-d * d / (2.0 * sigma * sigma)).astype(complex)
    amps *= np.exp(-1j * (n - n0 / 2.0) * spec.theta0)
    amps /= np.linalg.norm(amps)
    return amps


def random_amplitudes(N: int, rng: np.random.Generator) -> np.ndarray:
    """Moduli exactly 1/sqrt(N), phases i.i.d. uniform on [0, 2pi)."""
    phases = rng.uniform(0.0, TWO_PI, N)
    return np.exp(1j * phases) / math.sqrt(N)

"""Finite torus Hilbert space: lattice scales, grids, initial amplitudes.

States are plain complex arrays of momentum amplitudes: (N,) for one
state, (members, N) for an ensemble.  The initial states are Gaussian
packets of the minimum-uncertainty width and random-phase states.

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
    """Center (theta0, p0) of a Gaussian packet on the torus."""

    theta0: float
    p0: float


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
    theta0 under the transform convention above.  Its width sigma, the
    e-folding half-width of the momentum density in integer-n units, is
    sqrt(N / (2 pi)): equal angle and momentum widths sqrt(T), the
    minimum uncertainty on the lattice.  Raises ValueError when sigma
    exceeds N/6, where the packet would wrap the torus (n_q <= 2).
    """
    N = lattice.N
    sigma = math.sqrt(N / TWO_PI)
    if sigma > N / 6:
        raise ValueError(
            f"sigma={sigma:.3g} wraps the torus (limit N/6={N / 6:.3g})")
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

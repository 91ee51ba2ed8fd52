"""Split-operator reference evolution of the quantum sawtooth map.

One map step is the unitary

    U = exp(-i T n^2 / 2) . exp(i k (theta - pi)^2 / 2),

applied kick first: transform to the angle basis, multiply the
quadratic kick phase, transform back, multiply the free-rotation phase.
Both factors are diagonal in their own basis, so a step costs two FFTs.

The "classical error" channel perturbs the kick strength only: step t
uses k + delta_k(t) with delta_k(t) drawn uniformly from
[-delta_k_max, +delta_k_max], one draw per map step.  This channel has
a classical limit (it perturbs the map parameter), in contrast to the
per-gate noise of :mod:`sawtoothsim.circuit`.

``BatchPropagator`` holds precomputed phase tables and advances a whole
(members, N) ensemble per call; ``step_exact`` is the single-state
reference it is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    ANGLE,
    MOMENTUM,
    LatticeParams,
    QuantumState,
    angle_values,
    momentum_values,
    to_angle,
    to_momentum,
)

__all__ = [
    "step_exact",
    "BatchPropagator",
]


def step_exact(state: QuantumState, lattice: LatticeParams,
               delta_k: float = 0.0) -> QuantumState:
    """One full map step with kick strength k + delta_k.

    Accepts and returns momentum-basis states.  Applies the two
    diagonal factors in their own bases through explicit basis
    changes, so it serves as the test reference for
    :class:`BatchPropagator` and the gate circuit.
    """
    if state.lattice != lattice:
        raise ValueError("state lattice does not match")
    theta = angle_values(lattice)
    kick = np.exp(1j * (lattice.k + delta_k) * (theta - math.pi) ** 2 / 2.0)
    kicked = QuantumState(to_angle(state).amps * kick, ANGLE, lattice)
    n = momentum_values(lattice)
    rotation = np.exp(-1j * lattice.T * n.astype(float) ** 2 / 2.0)
    return QuantumState(to_momentum(kicked).amps * rotation, MOMENTUM, lattice)


class BatchPropagator:
    """Vectorized exact evolution of a (members, N) amplitude block.

    The (-1)^l twiddles of the two basis changes cancel between the
    inverse and forward transforms inside one step, leaving

        psi <- rot * fft(kick * ifft(psi))

    with kick and rot the diagonal phase tables.  Kick noise enters as
    a per-member column of extra quadratic phases.
    """

    def __init__(self, lattice: LatticeParams):
        self.lattice = lattice
        theta = angle_values(lattice)
        n = momentum_values(lattice).astype(float)
        self.kick_quad = (theta - math.pi) ** 2 / 2.0
        self.kick_phase = np.exp(1j * lattice.k * self.kick_quad)
        self.rot_phase = np.exp(-1j * lattice.T * n * n / 2.0)

    def step(self, amps: np.ndarray, delta_k=None) -> np.ndarray:
        """Advance a (members, N) block one map step.

        delta_k is None (noiseless) or a length-members vector of kick
        perturbations, one per ensemble member.
        """
        work = np.fft.ifft(amps, axis=-1)
        if delta_k is None:
            work *= self.kick_phase
        else:
            dk = np.asarray(delta_k, float).reshape(-1, 1)
            work *= self.kick_phase * np.exp(1j * dk * self.kick_quad)
        work = np.fft.fft(work, axis=-1)
        work *= self.rot_phase
        return work

    def step_inverse(self, amps: np.ndarray, delta_k=None) -> np.ndarray:
        """Inverse of :meth:`step` with the same noise values."""
        work = amps * self.rot_phase.conj()
        work = np.fft.ifft(work, axis=-1)
        if delta_k is None:
            work *= self.kick_phase.conj()
        else:
            dk = np.asarray(delta_k, float).reshape(-1, 1)
            work *= (self.kick_phase * np.exp(1j * dk * self.kick_quad)).conj()
        return np.fft.fft(work, axis=-1)

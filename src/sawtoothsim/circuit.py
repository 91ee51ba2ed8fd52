"""Gate-level realization of one sawtooth-map step, with unitary noise.

The step factors into four blocks over n_q qubits:

1. a Fourier ladder (Hadamard plus controlled-phase pairs, then an
   index bit reversal) taking the momentum register to the angle
   register;
2. a diagonal quadratic-phase block implementing the kick
   exp(i k (theta_l - pi)^2 / 2) on the angle index l;
3. the reversed ladder with negated angles, returning to momentum;
4. a diagonal quadratic-phase block implementing the free rotation
   exp(-i T n^2 / 2) on n = l - N/2.

Writing an index as l = sum_j a_j 2^j with binary digits a_j, any
quadratic exponent in l expands as single-digit terms (a_j^2 = a_j)
plus cross terms a_j1 a_j2 over ordered pairs j1 != j2, each symmetric
cross term split across its two ordered pairs.  Digit terms become
single-qubit phase gates, cross terms controlled-phase gates, and the
digit-independent remainder accumulates into one recorded scalar
``phase_offset`` per step (applied during execution but carried by no
gate, so it is exempt from gate noise).  The bit reversal is pure index
bookkeeping: no gates, no noise.

Gate budget per step: 2 n_q Hadamards and 3 n_q^2 - n_q gates of
controlled-phase class (counting the single-qubit phases, which are
controlled-phases restricted to a two-dimensional subspace).

Noise model: every counted gate is replaced by an imperfect unitary
with parameters drawn uniformly from [-epsilon, +epsilon].
Controlled-phase-class gates acquire independent extra phases on each
computational sector; Hadamards become pi rotations about a tilted
axis (polar angle pi/4 + nu1, azimuth nu2), with the global phase of
the rotation dropped (fidelity never sees it).  The engine takes the
drawn parameters as an argument; whether they are redrawn every step
(memoryless) or frozen (static) is decided by the noise source in
:mod:`sawtoothsim.experiments`.  A zero parameter block gives the
noiseless circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .states import LatticeParams

PARAMS_PER_GATE = 4  # fixed RNG consumption per noisy gate, every kind

__all__ = [
    "Gate",
    "CircuitProgram",
    "build_sawtooth_circuit",
    "bit_reversal_permutation",
    "CircuitEngine",
    "circuit_deviation",
]

HADAMARD = "hadamard"
CPHASE = "cphase"
PHASE1 = "phase"
BITREV = "bitrev"

@dataclass(frozen=True)
class Gate:
    """One circuit element.

    kind "hadamard": target only.  kind "cphase": control, target and
    angle on the |11> sector.  kind "phase": target and angle on the
    |1> sector (controlled-phase class for counting and noise).  kind
    "bitrev": index bookkeeping, no parameters, exempt from noise.
    """

    kind: str
    target: int = -1
    control: int = -1
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in (HADAMARD, CPHASE, PHASE1, BITREV):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == CPHASE and self.control == self.target:
            raise ValueError("cphase control and target must differ")


@dataclass(frozen=True)
class CircuitProgram:
    """Ordered gate list realizing exactly one map step.

    Raises IndexError when a gate addresses a qubit outside 0..n_q-1.
    """

    n_q: int
    gates: tuple
    phase_offset: float
    hadamard_count: int = field(init=False)
    cphase_count: int = field(init=False)

    def __post_init__(self):
        for g in self.gates:
            qubits = (g.control, g.target) if g.kind == CPHASE else (g.target,)
            if g.kind != BITREV and not all(0 <= q < self.n_q for q in qubits):
                raise IndexError(f"{g.kind} gate on qubits {qubits} "
                                 f"out of range for n_q={self.n_q}")
        h = sum(1 for g in self.gates if g.kind == HADAMARD)
        cp = sum(1 for g in self.gates if g.kind in (CPHASE, PHASE1))
        object.__setattr__(self, "hadamard_count", h)
        object.__setattr__(self, "cphase_count", cp)

    @property
    def noisy_gate_count(self) -> int:
        return self.hadamard_count + self.cphase_count

    @property
    def gate_count(self) -> int:
        """Total counted gates n_g = 3 n_q^2 + n_q."""
        return self.noisy_gate_count


def build_sawtooth_circuit(lattice: LatticeParams) -> CircuitProgram:
    """Gate program for one map step on the given lattice."""
    n_q = lattice.n_q
    N = float(lattice.N)
    k = lattice.k
    T = lattice.T
    gates = []

    # momentum -> angle: Hadamard/controlled-phase ladder, then index
    # bit reversal (bookkeeping only)
    for t in reversed(range(n_q)):
        gates.append(Gate(HADAMARD, target=t))
        for c in reversed(range(t)):
            gates.append(Gate(CPHASE, control=c, target=t,
                              angle=math.pi / 2.0 ** (t - c)))
    gates.append(Gate(BITREV))

    # kick phase exp(i k (2 pi l / N - pi)^2 / 2) expanded over the
    # binary digits of the angle index l
    for j in range(n_q):
        w = 2.0 ** j / N
        gates.append(Gate(PHASE1, target=j, angle=2.0 * k * math.pi ** 2 * w * (w - 1.0)))
    for j1 in range(n_q):
        for j2 in range(n_q):
            if j1 != j2:
                gates.append(Gate(CPHASE, control=j1, target=j2,
                                  angle=2.0 * k * math.pi ** 2 * 2.0 ** (j1 + j2) / N ** 2))

    # angle -> momentum: exact reversal of the forward ladder with
    # negated angles
    gates.append(Gate(BITREV))
    for t in range(n_q):
        for c in range(t):
            gates.append(Gate(CPHASE, control=c, target=t,
                              angle=-math.pi / 2.0 ** (t - c)))
        gates.append(Gate(HADAMARD, target=t))

    # free rotation exp(-i T (l - N/2)^2 / 2) expanded over the binary
    # digits of the momentum index l
    for j in range(n_q):
        w = 2.0 ** j
        gates.append(Gate(PHASE1, target=j, angle=(T * w / 2.0) * (N - w)))
    for j1 in range(n_q):
        for j2 in range(n_q):
            if j1 != j2:
                gates.append(Gate(CPHASE, control=j1, target=j2,
                                  angle=-(T / 2.0) * 2.0 ** (j1 + j2)))

    # digit-independent remainders of both quadratic expansions
    offset = k * math.pi ** 2 / 2.0 - T * N ** 2 / 8.0
    return CircuitProgram(n_q=n_q, gates=tuple(gates), phase_offset=offset)


def bit_reversal_permutation(n_q: int) -> np.ndarray:
    """Index permutation reversing the n_q-bit binary representation."""
    idx = np.arange(1 << n_q)
    rev = np.zeros_like(idx)
    for j in range(n_q):
        rev |= ((idx >> j) & 1) << (n_q - 1 - j)
    return rev


# ---------------------------------------------------------------------------
# batched kernels: amps has shape (members, N), C contiguous
# ---------------------------------------------------------------------------

def _qubit_views(amps, n_q, t):
    m = amps.shape[0]
    return amps.reshape(m, 1 << (n_q - 1 - t), 2, 1 << t)


def _apply_h_tilted(amps, n_q, t, nu1, nu2):
    """Pi rotation about the tilted axis, batched over members.

    Matrix [[cos th, sin th e^{-i phi}], [sin th e^{i phi}, -cos th]]
    with th = pi/4 + nu1, phi = nu2; nu arrays have length members.
    """
    th = math.pi / 4.0 + nu1
    c = np.cos(th)[:, None, None]
    s = np.sin(th)
    ep = (s * np.exp(1j * nu2))[:, None, None]
    em = (s * np.exp(-1j * nu2))[:, None, None]
    v = _qubit_views(amps, n_q, t)
    a = v[:, :, 0, :].copy()
    b = v[:, :, 1, :]
    v[:, :, 0, :] = c * a + em * b
    v[:, :, 1, :] = ep * a - c * b


def _cp_views(amps, n_q, qa, qb):
    m = amps.shape[0]
    hi, lo = max(qa, qb), min(qa, qb)
    return amps.reshape(m, 1 << (n_q - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _apply_cp_noisy(amps, n_q, control, target, angle, eps):
    """Ideal controlled-phase followed by sector dephasing.

    eps has shape (members, 4); sectors are labelled by the
    (control bit, target bit) pair as 00, 01, 10, 11, with the drawn
    phase eps[:, 3] joining the ideal angle on the 11 sector.
    """
    v = _cp_views(amps, n_q, control, target)
    hi = max(control, target)
    ph = np.exp(1j * eps)

    def sector(bc, bt):
        bh, bl = (bc, bt) if control == hi else (bt, bc)
        return v[:, :, bh, :, bl, :]

    sector(0, 0)[...] *= ph[:, 0, None, None, None]
    sector(0, 1)[...] *= ph[:, 1, None, None, None]
    sector(1, 0)[...] *= ph[:, 2, None, None, None]
    sector(1, 1)[...] *= (np.exp(1j * angle) * ph[:, 3])[:, None, None, None]


def _apply_p1_noisy(amps, n_q, t, angle, eps):
    """Phase gate with independent dephasing on both of its sectors."""
    v = _qubit_views(amps, n_q, t)
    v[:, :, 0, :] *= np.exp(1j * eps[:, 0])[:, None, None]
    v[:, :, 1, :] *= np.exp(1j * (angle + eps[:, 1]))[:, None, None]


class CircuitEngine:
    """Executes a program on (members, N) amplitude blocks in place.

    One engine instance precomputes the bit-reversal permutation and
    walks the gate list; parameters for noisy runs arrive as a
    (members, noisy_gate_count, 4) block per step.
    """

    def __init__(self, program: CircuitProgram):
        self.program = program
        self.n_q = program.n_q
        self.perm = bit_reversal_permutation(program.n_q)
        self.offset_phase = complex(np.exp(1j * program.phase_offset))

    def step_noisy(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        """params: (members, noisy_gate_count, 4) in program gate order."""
        n_q = self.n_q
        gi = 0
        for g in self.program.gates:
            if g.kind == HADAMARD:
                _apply_h_tilted(amps, n_q, g.target,
                                params[:, gi, 0], params[:, gi, 1])
                gi += 1
            elif g.kind == CPHASE:
                _apply_cp_noisy(amps, n_q, g.control, g.target, g.angle,
                                params[:, gi, :])
                gi += 1
            elif g.kind == PHASE1:
                _apply_p1_noisy(amps, n_q, g.target, g.angle, params[:, gi, :])
                gi += 1
            else:
                amps = np.ascontiguousarray(amps[:, self.perm])
        amps *= self.offset_phase
        return amps


def circuit_deviation(lattice: LatticeParams, n_states: int = 20,
                      seed: int = 0) -> float:
    """Max amplitude deviation, noiseless circuit vs split-operator step.

    Contract check used by tests and the command-line ``circuit-check``:
    the two engines must agree to near machine precision on random
    states.
    """
    from .propagator import step_exact
    from .states import random_state

    program = build_sawtooth_circuit(lattice)
    engine = CircuitEngine(program)
    zero = np.zeros((1, program.noisy_gate_count, PARAMS_PER_GATE))
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        psi = random_state(lattice, rng)
        via_circuit = engine.step_noisy(psi.amps.copy().reshape(1, -1), zero)[0]
        via_exact = step_exact(psi, lattice).amps
        worst = max(worst, float(np.max(np.abs(via_circuit - via_exact))))
    return worst

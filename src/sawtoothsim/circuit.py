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

Engine: :class:`CircuitEngine` compiles a program once.  Diagonal gates
between two Hadamards commute, and each noisy one adds a phase that is
affine in its sector bits, so a run of them collapses, per member, into
one phase table over the bits it touches: a constant plus linear and
pairwise bit terms whose coefficients are fixed angles plus signed sums
of drawn parameters.  A bit reversal only relabels which physical bit
carries each qubit.  One sawtooth step is then 2 n_q tilted Hadamards
and 2 n_q phase tables (the ladder runs span 2^(t+1) entries, the kick
and rotation runs the whole register), with no permutation, since the
two reversals cancel.  A gate-by-gate executor in the tests is the
reference the engine is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .propagator import step_exact
from .states import LatticeParams, random_amplitudes

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
        """Gates that draw noise; n_g = 3 n_q^2 + n_q for a sawtooth step."""
        return self.hadamard_count + self.cphase_count


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


class _DiagonalRun:
    """Phase of a run of consecutive diagonal gates, over physical bits.

    A basis index with bits b_j picks up the phase
    const + sum_j a_j b_j + sum_{i<j} a_ij b_i b_j, and every
    coefficient is a fixed angle plus a signed sum of drawn gate
    parameters.  Keys name the coefficients: () the constant, (j,) a
    linear and (i, j) a quadratic one.
    """

    def __init__(self):
        self.angles = {}  # key -> fixed angle
        self.terms = []  # (key, flat parameter index, sign)

    def _add(self, gi, angle_key, angle, expansion):
        for key, k, sign in expansion:
            self.angles.setdefault(key, 0.0)
            self.terms.append((key, gi * PARAMS_PER_GATE + k, sign))
        self.angles[angle_key] += angle

    def cphase(self, c, t, angle, gi):
        """Noisy cphase on bits c, t, its sector phases expanded as

        e00 + (e10 - e00) b_c + (e01 - e00) b_t
            + (angle + e11 - e10 - e01 + e00) b_c b_t,
        with sectors (b_c b_t) = 00, 01, 10, 11 at parameters 0..3.
        """
        q = (min(c, t), max(c, t))
        self._add(gi, q, angle, (
            ((), 0, 1.0), ((c,), 2, 1.0), ((c,), 0, -1.0), ((t,), 1, 1.0),
            ((t,), 0, -1.0), (q, 3, 1.0), (q, 2, -1.0), (q, 1, -1.0),
            (q, 0, 1.0)))

    def phase(self, t, angle, gi):
        """Noisy phase gate on bit t: e0 + (angle + e1 - e0) b_t."""
        self._add(gi, (t,), angle,
                  (((), 0, 1.0), ((t,), 1, 1.0), ((t,), 0, -1.0)))


def _doubled(lower, factor):
    """[lower, lower * factor] along the last axis.

    The product goes to a fresh buffer: numpy runs a multiply whose
    output shares a buffer with an input through a buffered loop that
    rounds differently, and only for blocks of more than one member,
    so an in-place doubling would make a member's row depend on the
    size of its block.
    """
    m, size = lower.shape
    out = np.empty((m, 2, size), dtype=complex)
    out[:, 0] = lower
    np.multiply(lower, factor, out=out[:, 1])
    return out.reshape(m, 2 * size)


def _bit_factor(phases, lin, quads):
    """Phase factor of setting bit j, as a function of the bits below it.

    (members, 2^j) table, or (members, 1) when the run couples bit j
    to no lower bit: the linear factor times the quadratic factors of
    the lower bits that are set.
    """
    f = phases[:, lin, None]
    if any(s is not None for s in quads):
        for s in quads:
            f = np.hstack((f, f)) if s is None else _doubled(f, phases[:, s, None])
    return f


def _phase_table(phases, const, bits):
    """(members, 2^len(bits)) phase factors of a diagonal run, by doubling.

    ``phases`` holds exp(i coefficient) per member and slot; ``bits``
    gives, for each bit j, its linear slot and its quadratic slots with
    the bits i < j (None where the run has no such term).
    """
    table = phases[:, const, None]
    for lin, quads in bits:
        if lin is None:  # a bit the run leaves alone
            table = np.hstack((table, table))
        else:
            table = _doubled(table, _bit_factor(phases, lin, quads))
    return table


def _apply_run(amps, phases, const, bits):
    """Multiply ``amps`` by the phases of one diagonal run, in place.

    The table covers the bits below the run's highest bit, and the
    highest bit's factor then multiplies the upper half in place, so
    no full-size table is built.  A one-bit run applies its two-entry
    table whole: an in-place multiply that reaches one amplitude per
    member loops over the members, and numpy rounds that loop
    differently for one member than for several.
    """
    m = amps.shape[0]
    if len(bits) == 1:
        view = amps.reshape(m, -1, 2)
        view *= _phase_table(phases, const, bits)[:, None, :]
        return
    *low, (lin, quads) = bits
    table = _phase_table(phases, const, low)
    view = amps.reshape(m, -1, 2, table.shape[1])
    view *= table[:, None, None, :]
    upper = view[:, :, 1, :]
    upper *= _bit_factor(phases, lin, quads)[:, None, :]


class CircuitEngine:
    """Executes a program on (members, N) amplitude blocks in place.

    The program is compiled once into segments: one tilted Hadamard
    per Hadamard gate, and one phase table per run of consecutive
    diagonal gates (cphase and phase gates, across bit reversals too).
    A bit reversal moves no data: it relabels the qubits, and later
    gates act on the physical bit their qubit sits on.  Only a program
    that ends with its qubits reversed permutes the block, once.  The
    program's phase offset joins the constant of the last run.

    Parameters arrive as a (members, noisy_gate_count, 4) block per
    step.  Every operation across members is elementwise or a
    per-member reduction, so a member's row does not depend on which
    other members share its block.
    """

    def __init__(self, program: CircuitProgram):
        self.program = program
        self.n_q = n_q = program.n_q
        # ("h", bit, gate index) or ("d", constant slot, per-bit slots)
        self.segments = []
        runs = []
        flipped = False
        gi = 0
        for g in program.gates:
            if g.kind == BITREV:
                flipped = not flipped
                continue
            c, t = (n_q - 1 - q if flipped else q for q in (g.control, g.target))
            if g.kind == HADAMARD:
                self.segments.append(("h", t, gi))
            else:
                if not self.segments or self.segments[-1][0] != "d":
                    runs.append(_DiagonalRun())
                    self.segments.append(("d", runs[-1], None))
                if g.kind == CPHASE:
                    runs[-1].cphase(c, t, g.angle, gi)
                else:
                    runs[-1].phase(t, g.angle, gi)
            gi += 1
        self.reversed = flipped
        self._perm = None  # built at the first step that needs it
        self._scale = None
        if runs:
            runs[-1].angles[()] += program.phase_offset
        elif program.phase_offset != 0.0:
            self._scale = complex(np.exp(1j * program.phase_offset))

        # every coefficient of every run gets a slot; one gather and
        # one per-slot reduction compute them all
        angles, terms = [], []
        for pos, (kind, run, _) in enumerate(self.segments):
            if kind != "d":
                continue
            slot = {key: len(angles) + n for n, key in enumerate(run.angles)}
            angles += run.angles.values()
            terms += [(slot[key], p, sign) for key, p, sign in run.terms]
            h = 1 + max(max(key) for key in run.angles if key)
            bits = [(slot.get((j,)), [slot.get((i, j)) for i in range(j)])
                    for j in range(h)]
            self.segments[pos] = ("d", slot[()], bits)
        terms.sort(key=lambda term: term[0])
        self._angles = np.array(angles)
        self._params = np.array([p for _, p, _ in terms], dtype=np.intp)
        self._signs = np.array([sign for _, _, sign in terms])
        self._starts = np.flatnonzero(np.diff([-1] + [s for s, _, _ in terms]))

    def step_noisy(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        """params: (members, noisy_gate_count, 4) in program gate order."""
        n_q = self.n_q
        m = amps.shape[0]
        if self._angles.size:
            coef = np.add.reduceat(params.reshape(m, -1)[:, self._params]
                                   * self._signs, self._starts, axis=1)
            coef += self._angles
            phases = np.exp(1j * coef)
        for kind, a, b in self.segments:
            if kind == "h":
                _apply_h_tilted(amps, n_q, a, params[:, b, 0], params[:, b, 1])
            else:
                _apply_run(amps, phases, a, b)
        if self._scale is not None:
            amps *= self._scale
        if self.reversed:
            if self._perm is None:
                self._perm = bit_reversal_permutation(n_q)
            amps = np.ascontiguousarray(amps[:, self._perm])
        return amps


def circuit_deviation(lattice: LatticeParams, n_states: int = 20,
                      seed: int = 0) -> float:
    """Max amplitude deviation, noiseless circuit vs split-operator step.

    Contract check used by tests and the command-line ``circuit-check``:
    the two engines must agree to near machine precision on random
    states.
    """
    program = build_sawtooth_circuit(lattice)
    engine = CircuitEngine(program)
    zero = np.zeros((1, program.noisy_gate_count, PARAMS_PER_GATE))
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        psi = random_amplitudes(lattice.N, rng)
        via_circuit = engine.step_noisy(psi.copy().reshape(1, -1), zero)[0]
        via_exact = step_exact(psi, lattice)
        worst = max(worst, float(np.max(np.abs(via_circuit - via_exact))))
    return worst

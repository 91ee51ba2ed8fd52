"""Gate-level realization of one sawtooth-map step, with unitary noise.

The step factors into four blocks over n_q qubits:

1. a Fourier ladder (Hadamard plus controlled-phase pairs) taking the
   momentum register to the angle register, with digit j of the angle
   index on qubit n_q - 1 - j;
2. a diagonal quadratic-phase block implementing the kick
   exp(i k (theta_l - pi)^2 / 2) on the angle index l, addressing each
   digit on its qubit;
3. the reversed ladder with negated angles, returning to momentum;
4. a diagonal quadratic-phase block implementing the free rotation
   exp(-i T n^2 / 2) on n = l - N/2.

Both diagonal blocks have one form, exp(i s (l - N/2)^2) on a register
index l: s_kick = 2 k pi^2 / N^2 on the angle index and s_rot = -T / 2
on the momentum index.  Writing l = sum_j a_j 2^j with binary digits
a_j, (l - N/2)^2 expands as single-digit terms 2^j (2^j - N) a_j (as
a_j^2 = a_j) plus cross terms 2^(j1 + j2) a_j1 a_j2 over ordered pairs
j1 != j2, each symmetric cross term split across its two ordered pairs.
Digit terms become single-qubit phase gates, cross terms
controlled-phase gates, and the digit-independent remainders
accumulate into one recorded scalar ``phase_offset`` = (s_kick + s_rot)
N^2 / 4 per step (applied during execution but carried by no gate, so
it is exempt from gate noise).  The ladder's bit reversal is not a
gate: the kick block reads the digits where the ladder leaves them, so
every gate of a program draws noise.

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
pairwise bit terms whose coefficients are fixed angles plus sums of the
gates' sector differences e00, e01 - e00, e10 - e00 and
e11 - e10 - e01 + e00 (see :class:`_Slots`).  Consecutive
Hadamards on up to k neighbouring bits (k = 2 below n_q = 9, 3 from
there on) fuse into one group: the diagonal gates among the group's
bits join it, and a diagonal gate that reaches outside them commutes
past the group's Hadamards to the run before or after it.  Each member
then applies one dense 2^k x 2^k unitary per group.  One sawtooth step
is then about 2 n_q / k dense passes and as many phase tables (8 and 8
at n_q = 12).  The coefficients, unitaries and phase tables of several
steps can also be built in one pass over their steps x members rows
and applied one step at a time, bit for bit what the step-by-step call
gives; on small registers, where a step costs numpy dispatch rather
than arithmetic, that pays the fixed costs once per chunk of steps.  A
gate-by-gate executor in the tests is the reference the engine is
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .propagator import step_exact
from .states import LatticeParams, random_amplitudes

PARAMS_PER_GATE = 4  # fixed RNG consumption per noisy gate, every kind

__all__ = [
    "Gate",
    "CircuitProgram",
    "build_sawtooth_circuit",
    "CircuitEngine",
    "circuit_deviation",
]

HADAMARD = "hadamard"
CPHASE = "cphase"
PHASE1 = "phase"

@dataclass(frozen=True)
class Gate:
    """One noisy gate.

    kind "hadamard": target only.  kind "cphase": control, target and
    angle on the |11> sector.  kind "phase": target and angle on the
    |1> sector (controlled-phase class for counting and noise).
    """

    kind: str
    target: int
    control: int = -1
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in (HADAMARD, CPHASE, PHASE1):
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

    def __post_init__(self):
        for g in self.gates:
            qubits = (g.control, g.target) if g.kind == CPHASE else (g.target,)
            if not all(0 <= q < self.n_q for q in qubits):
                raise IndexError(f"{g.kind} gate on qubits {qubits} "
                                 f"out of range for n_q={self.n_q}")

    @property
    def hadamard_count(self) -> int:
        return sum(g.kind == HADAMARD for g in self.gates)

    @property
    def cphase_count(self) -> int:
        """Controlled-phase class: cphase and single-qubit phase gates."""
        return len(self.gates) - self.hadamard_count

    @property
    def noisy_gate_count(self) -> int:
        """Every gate draws noise; n_g = 3 n_q^2 + n_q for a sawtooth step."""
        return len(self.gates)


def _quadratic(s, n_q, qubit):
    """Gates of exp(i s (l - N/2)^2) over the binary digits of l.

    Digit j is on qubit ``qubit(j)``.  The digit-independent remainder
    s N^2 / 4 is carried by no gate; the caller adds it to the offset.
    """
    N = 2.0 ** n_q
    return ([Gate(PHASE1, target=qubit(j), angle=s * 2.0 ** j * (2.0 ** j - N))
             for j in range(n_q)]
            + [Gate(CPHASE, control=qubit(j1), target=qubit(j2),
                    angle=s * 2.0 ** (j1 + j2))
               for j1 in range(n_q) for j2 in range(n_q) if j1 != j2])


def build_sawtooth_circuit(lattice: LatticeParams) -> CircuitProgram:
    """Gate program for one map step on the given lattice."""
    n_q = lattice.n_q
    N = float(lattice.N)

    # momentum -> angle: Hadamard/controlled-phase ladder, leaving digit
    # j of the angle index on qubit n_q - 1 - j
    ladder = []
    for t in reversed(range(n_q)):
        ladder.append(Gate(HADAMARD, target=t))
        ladder += [Gate(CPHASE, control=c, target=t,
                        angle=math.pi / 2.0 ** (t - c))
                   for c in reversed(range(t))]
    # angle -> momentum: the ladder reversed, its cphase angles negated
    back = [g if g.kind == HADAMARD else replace(g, angle=-g.angle)
            for g in reversed(ladder)]

    # kick exp(i k (2 pi l / N - pi)^2 / 2) on the angle index, each
    # digit on the qubit the ladder leaves it on, and free rotation
    # exp(-i T (l - N/2)^2 / 2) on the momentum index
    kick = 2.0 * lattice.k * math.pi ** 2 / N ** 2
    rotation = -lattice.T / 2.0
    gates = (ladder + _quadratic(kick, n_q, lambda j: n_q - 1 - j)
             + back + _quadratic(rotation, n_q, lambda j: j))
    offset = kick * N ** 2 / 4.0 + rotation * N ** 2 / 4.0
    return CircuitProgram(n_q=n_q, gates=tuple(gates), phase_offset=offset)


# ---------------------------------------------------------------------------
# compiling: Hadamard groups and diagonal runs
# ---------------------------------------------------------------------------

def _block_bits(n_q):
    """Widest Hadamard group, in bits, for an n_q-qubit register.

    Three-bit unitaries pay for their larger build once the register is
    big enough that the passes over the block dominate a step.
    """
    return 3 if n_q >= 9 else 2


def _split(window, width):
    """Sort the diagonal gates of a Hadamard group, or None if illegal.

    ``window`` runs from the group's first Hadamard to its last.  The
    group acts on the contiguous bits lo..top of its Hadamards, at most
    ``width`` of them.  A diagonal gate inside those bits stays in the
    group; one reaching outside them commutes to before the group when
    no earlier group Hadamard touches it, else to after the group when
    no later one does.  Returns (lo, bits, before, inside, after).
    """
    hs = [(p, op[2]) for p, op in enumerate(window) if op[0] == HADAMARD]
    lo = min(t for _, t in hs)
    top = max(t for _, t in hs)
    if top - lo >= width:
        return None
    before, inside, after = [], [], []
    for p, (kind, c, t, *_) in enumerate(window):
        bits = (c, t) if kind == CPHASE else (t,)
        if all(lo <= b <= top for b in bits):
            inside.append(window[p])
        elif not any(q < p and h in bits for q, h in hs):
            before.append(window[p])
        elif not any(q > p and h in bits for q, h in hs):
            after.append(window[p])
        else:
            return None
    return lo, top - lo + 1, before, inside, after


def _grouped(ops, width):
    """Split gates into diagonal runs and Hadamard groups.

    Each group extends, Hadamard by Hadamard, while :func:`_split`
    still accepts it.  Returns ("d", gates) and ("g", lo, bits, gates)
    items in execution order.
    """
    items, run, i = [], [], 0
    while i < len(ops):
        if ops[i][0] != HADAMARD:
            run.append(ops[i])
            i += 1
            continue
        end, split = i, _split(ops[i:i + 1], width)
        nxt = i + 1
        while True:
            while nxt < len(ops) and ops[nxt][0] != HADAMARD:
                nxt += 1
            wider = nxt < len(ops) and _split(ops[i:nxt + 1], width)
            if not wider:
                break
            end, split = nxt, wider
            nxt += 1
        lo, bits, before, inside, after = split
        run += before
        if run:
            items.append(("d", run))
        items.append(("g", lo, bits, inside))
        run, i = after, end + 1
    if run:
        items.append(("d", run))
    return items


class _Slots:
    """Coefficient slots of all phase tables, allocated run by run.

    A run of diagonal gates multiplies a basis index with bits b_j by
    the phase const + sum_j a_j b_j + sum_{i<j} a_ij b_i b_j.  Each
    coefficient has a slot, whose value is a fixed angle plus a sum of
    sector differences, given as flat indices into the (members,
    gates * 4) difference block.  A noisy cphase with sector phases
    e00, e01, e10, e11 (control bit, target bit) adds e00 to the
    constant, e01 - e00 to the target bit, e10 - e00 to the control
    bit, and e11 - e10 - e01 + e00 plus its angle to the pair; a phase
    gate adds e0 to the constant and e1 - e0 plus its angle to its bit.
    """

    def __init__(self):
        self.angles = []  # per slot: fixed angle
        self.terms = []  # per slot: flat indices of its differences

    def run(self, gates, lo=0, span=None):
        """Allocate the slots of one run, its bits counted from ``lo``.

        Returns the run's keys (() the constant, (j,) bit j, (i, j) the
        pair i < j) and its table: the constant slot and, for each bit
        j below ``span`` (default: the highest bit touched, plus one),
        its linear slot and its pair slots with the bits i < j, None
        where the run has no such term.
        """
        slots = {}
        for kind, c, t, angle, gi in gates:
            # key k takes the gate's sector difference k
            keys = [(), (t - lo,)]
            if kind == CPHASE:
                keys += [(c - lo,), (min(c, t) - lo, max(c, t) - lo)]
            for k, key in enumerate(keys):
                if key not in slots:
                    slots[key] = len(self.angles)
                    self.angles.append(0.0)
                    self.terms.append([])
                self.terms[slots[key]].append(gi * PARAMS_PER_GATE + k)
            self.angles[slots[key]] += angle  # the last key carries it
        if span is None:
            span = 1 + max(max(key) for key in slots if key)
        return frozenset(slots), (slots[()], [
            (slots.get((j,)), [slots.get((i, j)) for i in range(j)])
            for j in range(span)])


# ---------------------------------------------------------------------------
# batched kernels: amps has shape (members, N), C contiguous
# ---------------------------------------------------------------------------

def _doubled(lower, factor):
    """[lower, lower * factor] along the last axis.

    The product goes to a fresh buffer: numpy runs a multiply whose
    output shares a buffer with an input through a buffered loop that
    rounds differently, and only for blocks of more than one member,
    so an in-place doubling would make a member's row depend on the
    size of its block.
    """
    *lead, size = lower.shape
    out = np.empty((*lead, 2, size), dtype=complex)
    out[..., 0, :] = lower
    np.multiply(lower, factor, out=out[..., 1, :])
    return out.reshape(*lead, 2 * size)


def _bit_factor(phases, lin, quads):
    """Phase factor of setting bit j, as a function of the bits below it.

    (members, 2^j) table, or (members, 1) when the run couples bit j
    to no lower bit: the linear factor times the quadratic factors of
    the lower bits that are set, which is the phase table of a run
    whose constant is bit j's linear slot and whose bit i has the pair
    slot (i, j) as its linear slot.  Slots given as (groups,) index
    arrays give a (members, groups, ...) table, one per group.
    """
    if all(s is None for s in quads):
        return phases[:, lin, None]
    return _phase_table(phases, lin, [(s, ()) for s in quads])


def _phase_table(phases, const, bits):
    """(members, 2^len(bits)) phase factors of a diagonal run, by doubling.

    ``phases`` holds exp(i coefficient) per member and slot; ``bits``
    gives, for each bit j, its linear slot and its quadratic slots with
    the bits i < j (None where the run has no such term).
    """
    table = phases[:, const, None]
    for lin, quads in bits:
        if lin is None:  # a bit the run leaves alone
            table = np.concatenate((table, table), axis=-1)
        else:
            table = _doubled(table, _bit_factor(phases, lin, quads))
    return table


def _run_factors(phases, const, bits):
    """Phase factors of one diagonal run, each built when it is asked for.

    Yields the (members, 2^(len(bits) - 1)) table over the bits below
    the run's highest bit, then that bit's factor (see
    :func:`_bit_factor`); a one-bit run yields its two-entry table alone.
    """
    if len(bits) == 1:
        yield _phase_table(phases, const, bits)
        return
    *low, (lin, quads) = bits
    yield _phase_table(phases, const, low)
    yield _bit_factor(phases, lin, quads)


def _apply_run(amps, factors):
    """Multiply ``amps`` by the phases of one diagonal run, in place.

    ``factors`` holds the run's factors in the order of
    :func:`_run_factors`.  The table covers the bits below the run's
    highest bit, and the highest bit's factor then multiplies the upper
    half in place, so no full-size table is built; given the generator,
    the two half-size tables are not held at once.  A one-bit run
    applies its two-entry table whole: an in-place multiply that
    reaches one amplitude per member loops over the members, and numpy
    rounds that loop differently for one member than for several.
    """
    m = amps.shape[0]
    factors = iter(factors)
    table = next(factors)
    size = table.shape[-1]
    view = amps.reshape(m, -1, size)
    view *= table[:, None, :]
    del table  # before the highest bit's factor is built
    for top in factors:
        upper = view.reshape(m, -1, 2, size)[:, :, 1, :]
        upper *= top[:, None, :]


def _tilted(w, b, c, em, ep):
    """Tilted Hadamard on bit ``b`` of the last axis of ``w``, to a new array.

    The 2x2 matrix is [[c, em], [ep, -c]], with c = cos(pi/4 + nu1) and
    ep = conj(em) = sin(pi/4 + nu1) e^{i nu2}, broadcast against the
    leading axes of ``w``.
    """
    v = w.reshape(*w.shape[:-1], -1, 2, 1 << b)
    a, z = v[..., 0, :], v[..., 1, :]
    out = np.empty_like(v)
    np.add(c * a, em * z, out=out[..., 0, :])
    np.subtract(ep * a, c * z, out=out[..., 1, :])
    return out.reshape(w.shape)


def _unitaries(m, bits, ops, hadamard, phases):
    """(members, groups, 2^bits, 2^bits) images of the basis states.

    Row j of a group's matrix is the group applied to basis state j, so
    the matrix is the group's unitary U transposed.  ``ops`` is the
    shared local structure with per-group index arrays: ("h", bit,
    Hadamard indices) and ("d", keys, [constant slots, per-bit slots]).
    """
    size = 1 << bits
    w = np.zeros((m, len(ops[0][2]), size, size), dtype=complex)
    w[..., range(size), range(size)] = 1.0
    for kind, bit, index in ops:
        if kind == "h":
            w = _tilted(w, bit, *(f[:, index, None, None, None] for f in hadamard))
        else:
            w = w * _phase_table(phases, *index)[:, :, None, :]
    return w


def _apply_block(amps, w, lo, out):
    """A group's unitary on bits lo.. of ``amps``, written to ``out``.

    ``w`` (members, 2^bits, 2^bits) is the transposed unitary.  At bit
    0 the block's rows are right-multiplied by it; higher up the
    unitary left-multiplies the (2^bits, 2^lo) slices.  Either way each
    member gets its own matrix products, so its row does not depend on
    the other members.
    """
    m = amps.shape[0]
    size = w.shape[-1]
    if lo == 0:
        np.matmul(amps.reshape(m, -1, size), w, out=out.reshape(m, -1, size))
    else:
        shape = (m, -1, size, 1 << lo)
        np.matmul(w.swapaxes(1, 2)[:, None], amps.reshape(shape),
                  out=out.reshape(shape))


class CircuitEngine:
    """Executes a program on (members, N) amplitude blocks.

    The program is compiled once into segments: Hadamard groups and
    phase tables.  A group collects consecutive Hadamards on at most k
    contiguous bits (k from n_q, see :func:`_block_bits`), with the
    diagonal gates between them.  A diagonal gate inside the
    group's bits stays in the group; one that reaches outside commutes
    to before the group when no earlier group Hadamard touches its
    bits, else to after it when no later one does, and joins that
    phase table; where neither holds, the group ends before the next
    Hadamard, down to one Hadamard as a 2 x 2 block.  Each run of
    diagonal gates between groups is one phase table (cphase and phase
    gates).  The program's phase offset joins the constant of the first
    table.

    Parameters arrive as a (members,) + ``param_shape`` block per step,
    with ``param_shape`` = (noisy_gate_count, 4).  A step first takes
    every gate's four sector differences with elementwise operations on
    the whole block; each coefficient of every phase table is then its
    fixed angle plus a sum of gathered differences, all slots in one
    reduction (see :class:`_Slots`).  It takes the cosines, sines and
    exponentials of all the Hadamard parameters at once and builds the
    (members, 2^k, 2^k) unitaries of all groups with one local
    structure together (the groups of a ladder share one).  A group at
    bit 0 right-multiplies the block viewed as (members, N / 2^k, 2^k);
    a group higher up left-multiplies the (2^k, 2^lo) slices below its
    lowest bit lo.  The dense passes alternate between the block and
    one spare block.  Every other operation across members is
    elementwise or a per-member reduction, and each matrix product
    takes one member's unitary and rows, so a member's row does not
    depend on which other members share its block.  :meth:`step_factors`
    therefore builds the factors of several steps as one block of
    steps x members rows, and :meth:`step_with` applies one step of them
    bit for bit as :meth:`step_noisy` would; ``table_entries`` counts
    the phase-table entries of one member's step, read at compile time
    off the factors of one row of unit phases.  The compiled arrays are
    read-only, and a step writes only into its own blocks, so one engine
    can serve every caller on its lattice.
    """

    # amplitude rows a step holds per member besides its block: the spare
    # block of the dense passes, and up to one row of phase tables (a
    # half-size table, and the doubling that builds it or its top bit)
    step_rows = 2

    def __init__(self, program: CircuitProgram):
        self.program = program
        self.n_q = n_q = program.n_q
        ops = [(g.kind, g.control, g.target, g.angle, gi)
               for gi, g in enumerate(program.gates)]

        slots = _Slots()
        hadamards = []  # gate index of every Hadamard, in order
        # groups with one local structure (bits, Hadamard positions, the
        # keys of each phase table) form a batch whose unitaries are
        # built together, from stacked Hadamard and slot indices
        batches = {}  # structure -> (batch, per-group indices)
        self.segments = []  # ("d", constant slot, per-bit slots, None)
        # or ("g", batch, group in batch, lowest bit)
        for item in _grouped(ops, _block_bits(n_q)):
            if item[0] == "d":
                self.segments.append(("d", *slots.run(item[1])[1], None))
                continue
            _, lo, bits, gates = item
            shape, index = [bits], []
            for diagonal, part in groupby(gates,
                                          lambda op: op[0] != HADAMARD):
                if diagonal:
                    keys, table = slots.run(part, lo, bits)
                    shape.append(("d", keys))
                    index.append(table)
                    continue
                for op in part:
                    shape.append(("h", op[2] - lo))
                    index.append(len(hadamards))
                    hadamards.append(op[4])
            batch = batches.setdefault(tuple(shape), (len(batches), []))
            self.segments.append(("g", batch[0], len(batch[1]), lo))
            batch[1].append(index)
        self._batches = [
            (shape[0], [(kind, a, _stacked(index))
                        for (kind, a), index in zip(shape[1:], zip(*groups))])
            for shape, (_, groups) in batches.items()]
        self._hadamards = _frozen(np.array(hadamards, dtype=np.intp))

        self._scale = None
        if slots.angles:
            slots.angles[0] += program.phase_offset
        elif program.phase_offset != 0.0:
            self._scale = complex(np.exp(1j * program.phase_offset))
        # one gather and one per-slot reduction compute every coefficient
        self._angles = _frozen(np.array(slots.angles))
        self._terms = _frozen(np.array(
            [i for terms in slots.terms for i in terms], dtype=np.intp))
        self._starts = _frozen(np.cumsum([0] + [len(t) for t in
                                                slots.terms[:-1]]))
        # per member and step: the noise parameters, and the phase-table
        # entries, read off the factors of one row of unit phases
        self.param_shape = (program.noisy_gate_count, PARAMS_PER_GATE)
        unit = np.ones((1, len(slots.angles)), dtype=complex)
        self.table_entries = sum(
            f.size for kind, a, b, _ in self.segments if kind == "d"
            for f in _run_factors(unit, a, b))

    def step_noisy(self, amps: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Evolved block; ``amps`` may be overwritten.

        amps: (members, 2^n_q); params: (members,) + ``param_shape``, in
        program gate order.  Each phase table is built just before it
        is applied.
        """
        m = amps.shape[0]
        if amps.shape != (m, 1 << self.n_q):
            raise ValueError(f"amps has shape {amps.shape}, expected "
                             f"(members, {1 << self.n_q})")
        expected = (m, *self.param_shape)
        if params.shape != expected:
            raise ValueError(f"params has shape {params.shape}, "
                             f"expected {expected}")
        phases, blocks = self._coefficients(params)
        return self._apply(amps, blocks, (
            _run_factors(phases, a, b)
            for kind, a, b, _ in self.segments if kind == "d"))

    def step_factors(self, params: np.ndarray):
        """Every factor of the steps in ``params``, built in one pass.

        params: (steps, members) + ``param_shape``; the steps * members
        rows go through the coefficients, the unitaries and the phase
        tables together, row by row as in :meth:`step_noisy`.  The
        tables hold ``steps * members * table_entries`` entries.
        Returns what :meth:`step_with` takes.
        """
        if params.ndim != 4 or params.shape[2:] != self.param_shape:
            raise ValueError(f"params has shape {params.shape}, expected "
                             f"(steps, members) + {self.param_shape}")
        steps, m = params.shape[:2]
        phases, blocks = self._coefficients(
            params.reshape(steps * m, *self.param_shape))
        blocks = [w.reshape(steps, m, *w.shape[1:]) for w in blocks]
        runs = [[f.reshape(steps, m, -1) for f in _run_factors(phases, a, b)]
                for kind, a, b, _ in self.segments if kind == "d"]
        return m, blocks, runs

    def step_with(self, amps: np.ndarray, factors, step: int) -> np.ndarray:
        """``amps`` evolved by step ``step`` of :meth:`step_factors`.

        Bit for bit what :meth:`step_noisy` gives for that step's
        parameters; ``amps`` may be overwritten.
        """
        m, blocks, runs = factors
        if amps.shape != (m, 1 << self.n_q):
            raise ValueError(f"amps has shape {amps.shape}, expected "
                             f"({m}, {1 << self.n_q})")
        return self._apply(amps, [w[step] for w in blocks],
                           ([f[step] for f in run] for run in runs))

    def _coefficients(self, params):
        """Phase factors per slot and group unitaries of each params row.

        A row takes every gate's four sector differences with
        elementwise operations, then gathers and sums them into its
        coefficients, all slots in one reduction.
        """
        m = params.shape[0]
        phases = hadamard = None
        if self._angles.size:
            # sector differences: e00, e01 - e00, e10 - e00 and
            # e11 - e10 - e01 + e00 per gate
            d = params - params[..., :1]
            d[..., 0] = params[..., 0]
            d[..., 3] -= d[..., 1] + d[..., 2]
            coef = np.add.reduceat(d.reshape(m, -1)[:, self._terms],
                                   self._starts, axis=1)
            coef += self._angles
            phases = np.exp(1j * coef)
        if self._hadamards.size:
            nu = params[:, self._hadamards]
            th = math.pi / 4.0 + nu[:, :, 0]
            tilt = np.sin(th) * np.exp(1j * nu[:, :, 1])
            hadamard = (np.cos(th), tilt.conj(), tilt)
        blocks = [_unitaries(m, bits, ops, hadamard, phases)
                  for bits, ops in self._batches]
        return phases, blocks

    def _apply(self, amps, blocks, runs):
        """``amps`` through every segment, in order.

        ``blocks`` holds each batch's (members, groups, 2^k, 2^k)
        unitaries and ``runs`` yields each diagonal run's factors.
        """
        runs = iter(runs)
        spare = None  # the groups alternate between amps and one spare block
        for kind, a, b, lo in self.segments:
            if kind == "d":
                _apply_run(amps, next(runs))
                continue
            if spare is None:
                spare = np.empty_like(amps)
            _apply_block(amps, blocks[a][:, b], lo, spare)
            amps, spare = spare, amps
        if self._scale is not None:
            amps *= self._scale
        return amps


def _frozen(array):
    """``array``, made read-only: an engine may be shared between callers."""
    array.flags.writeable = False
    return array


def _stacked(items):
    """Same-shaped nested indices of several groups as (groups,) arrays.

    The leaves are ints (stacked into an index array) or None (kept).
    """
    if items[0] is None:
        return None
    if isinstance(items[0], (tuple, list)):
        return [_stacked(parts) for parts in zip(*items)]
    return _frozen(np.array(items))


def circuit_deviation(lattice: LatticeParams, n_states: int = 20,
                      seed: int = 0) -> float:
    """Max amplitude deviation, noiseless circuit vs split-operator step.

    Contract check used by tests and the command-line ``circuit-check``:
    the two engines must agree to near machine precision on random
    states.
    """
    engine = CircuitEngine(build_sawtooth_circuit(lattice))
    zero = np.zeros((1, *engine.param_shape))
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        psi = random_amplitudes(lattice.N, rng)
        via_circuit = engine.step_noisy(psi.copy().reshape(1, -1), zero)[0]
        via_exact = step_exact(psi, lattice)
        worst = max(worst, float(np.max(np.abs(via_circuit - via_exact))))
    return worst

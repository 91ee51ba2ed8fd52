"""Gate layer: counts, kernels, noise draws, engine equivalences."""

import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawtoothsim import streams
from sawtoothsim.circuit import (
    CPHASE,
    HADAMARD,
    PARAMS_PER_GATE,
    PHASE1,
    CircuitEngine,
    CircuitProgram,
    Gate,
    build_sawtooth_circuit,
    circuit_deviation,
)
from sawtoothsim.experiments import ExperimentConfig, noise_blocks
from circuit_reference import reference_step
from sawtoothsim.propagator import step_exact
from sawtoothsim.states import LatticeParams, random_amplitudes


# ---------------------------------------------------------------------------
# gate counts and structure
# ---------------------------------------------------------------------------

def test_gate_count_contract():
    for n_q in range(1, 17):
        prog = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=0.1))
        assert prog.hadamard_count == 2 * n_q
        assert prog.cphase_count == 3 * n_q * n_q - n_q
        assert prog.noisy_gate_count == 3 * n_q * n_q + n_q
        # every gate of the program is one that draws noise
        assert len(prog.gates) == prog.noisy_gate_count


def test_counts_examples():
    prog12 = build_sawtooth_circuit(LatticeParams(n_q=12, K=0.1))
    assert prog12.hadamard_count == 24
    assert prog12.cphase_count == 420
    assert prog12.noisy_gate_count == 444
    prog1 = build_sawtooth_circuit(LatticeParams(n_q=1, K=0.1))
    assert prog1.hadamard_count == 2
    assert prog1.cphase_count == 2


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(kind=CPHASE, control=2, target=2, angle=0.1)
    with pytest.raises(ValueError):
        Gate(kind="spin", target=0)


# sha256 of each program's gates, as "kind target control repr(angle)"
# lines, followed by repr(phase_offset); recorded from the gate-by-gate
# builder before its two quadratic blocks shared one expansion, so a
# change of one ulp in any angle or in the offset fails
_PROGRAM_DIGESTS = {
    (1, 0.1): "7073a729e40772909b61e929a791009bc7b0128220182694c0b7b5a5ac7593bb",
    (1, -0.5): "1ec9ae465f3dd811ac474f4756cfa5e37dd58a52512c5f8f90af2152b499f34c",
    (1, 3.0): "d129fc81240f0c3794f724198e1ac305a01fb573f51de0f2596507e5ce1683ed",
    (1, -7.3): "5575462868ead592e95d535268052e5e2904600b8544a03875c5283bdbe5259a",
    (3, 0.1): "4c029a6f185ee2a715d526a0ef5191c061906b8f9b67b236bdb11391c3ae482c",
    (3, -0.5): "bf5ef9df6dd7921ce5d5e3143409139b98080d50ee6acb804afc054429fef794",
    (3, 3.0): "522e3723e6f75c53e8213cd386770576ee114c2f32ee1fc7d7c312b17dbddc53",
    (3, -7.3): "40d191497f401751ae0c96fcf7d42f689676702aa4f93e0e3ab7d86ac0d3668a",
    (6, 0.1): "6e7250e3733678650bb6c7f4cb292a3afffe4045a29f7938b6f1af036954e5e4",
    (6, -0.5): "4e72bb39865419dc106515b229e14c685e11eeae017e19b7c4c06e9e8e7152db",
    (6, 3.0): "6fdd8d9207d861ccf5f431c5dfce9134b91a275e64391fdb80e12e8020e0aafb",
    (6, -7.3): "6c84d053b6012a341313a6ff24164b2a24977eaa261fd295c878d71851243382",
    (9, 0.1): "62346e209c200a75e06562996ec9f92888c42a727b313475855918c1e111fb8b",
    (9, -0.5): "87bbd7ba04475fb4e3f0bb4c5d531008578a6e1df41bcc6ee91a57aa82fb9022",
    (9, 3.0): "c5d0cf6ec04449f2de750af06aa27e5fc29537fe709dad822784ac464e5bc001",
    (9, -7.3): "5fd91c8f531527c4f29a9cd732184a984cfd1176fbbaa08b7d101937c41a2bbc",
    (12, 0.1): "22ae966472ef988433ca8e071deafadf735caeda08f52400fa692c9d171c32dc",
    (12, -0.5): "7b21f818db6bacebcf61634684d05a349da9a095444fe964251e85afd2de94a7",
    (12, 3.0): "50fa29a01b6c1b7aff0596ccf264dd1b8052624a352f93f6e8631b8282baa3be",
    (12, -7.3): "3070925360a74c5f66705aaa4fa8d69cde271c3720e4006e6b4eb7fcb2f12701",
    (16, 0.1): "de5d694dcc855d80810fbac671f7a1215dbe9caa7e302cec6e5d566fe75ca6b2",
    (16, -0.5): "ce4e73d52445ef2cb02e02afbf929ba8f6042db73442ef906924108397333ae7",
    (16, 3.0): "b059aef2241b57bc20d1705d13d1e49342892a8b5d2c7a6d52559db010823da1",
    (16, -7.3): "aace8d57fa3c56fc63722024ba09aec234a5aeef217461428150f0b4e077a87c",
}


def _program_digest(program):
    h = hashlib.sha256()
    for g in program.gates:
        h.update(f"{g.kind} {g.target} {g.control} {g.angle!r}\n".encode())
    h.update(repr(program.phase_offset).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n_q, K", sorted(_PROGRAM_DIGESTS))
def test_gate_program_frozen(n_q, K):
    program = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=K))
    assert _program_digest(program) == _PROGRAM_DIGESTS[n_q, K]


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def test_noiseless_circuit_matches_split_operator():
    for n_q in range(1, 13):
        dev = circuit_deviation(LatticeParams(n_q=n_q, K=0.7), n_states=5,
                                seed=n_q)
        assert dev < 1e-10


def test_oracle_on_other_K_values():
    for K in (-0.5, 5.0, 0.1):
        dev = circuit_deviation(LatticeParams(n_q=6, K=K), n_states=5, seed=2)
        assert dev < 1e-10


# ---------------------------------------------------------------------------
# single-gate kernels, run as one-gate programs on the engine
# ---------------------------------------------------------------------------

def one_gate_step(gate, n_q, amps, params=None):
    """``amps`` (members, N) after ``gate`` alone; zero parameters by default."""
    program = CircuitProgram(n_q=n_q, gates=(gate,), phase_offset=0.0)
    if params is None:
        params = np.zeros((amps.shape[0], program.noisy_gate_count,
                           PARAMS_PER_GATE))
    return CircuitEngine(program).step_noisy(amps.copy(), params)


def random_block(n_q, seed, members=1):
    return np.stack([random_amplitudes(1 << n_q, np.random.default_rng(seed + m))
                     for m in range(members)])


def test_cp_zero_angle_identity():
    amps = random_block(3, seed=1)
    out = one_gate_step(Gate(kind=CPHASE, control=0, target=2, angle=0.0), 3, amps)
    assert np.array_equal(out, amps)


def test_hadamard_involution():
    amps = random_block(3, seed=2)
    g = Gate(kind=HADAMARD, target=1)
    out = one_gate_step(g, 3, one_gate_step(g, 3, amps))
    assert np.max(np.abs(out - amps)) < 1e-14


def test_cp_pi_flips_11_sector():
    amps = np.full((1, 4), 0.5, dtype=complex)
    out = one_gate_step(Gate(kind=CPHASE, control=0, target=1, angle=math.pi),
                        2, amps)
    # basis order |q1 q0>: states 0,1,2,3; both bits set only for 3
    expected = np.array([[0.5, 0.5, 0.5, -0.5]], dtype=complex)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_apply_gate_index_errors():
    with pytest.raises(IndexError):
        CircuitProgram(n_q=2, gates=(Gate(kind=HADAMARD, target=5),),
                       phase_offset=0.0)
    with pytest.raises(IndexError):
        CircuitProgram(n_q=2, phase_offset=0.0, gates=(
            Gate(kind=CPHASE, control=3, target=0, angle=0.1),))
    with pytest.raises(IndexError):
        CircuitProgram(n_q=2, gates=(Gate(kind=PHASE1, target=-1),),
                       phase_offset=0.0)


# ---------------------------------------------------------------------------
# noisy gates
# ---------------------------------------------------------------------------

def _gate_matrix(gate, n_q, params):
    """Dense matrix of one realized noisy gate.

    Every basis vector is one member of the block and all members get
    the same parameter row, so the columns belong to one concrete noisy
    gate (not fresh noise per basis state).
    """
    n = 1 << n_q
    block = np.tile(params, (n, 1, 1))
    return one_gate_step(gate, n_q, np.eye(n, dtype=complex), block).T


def test_noisy_gates_are_unitary():
    for seed, (gate, n_q) in enumerate((
            (Gate(kind=HADAMARD, target=1), 2),
            (Gate(kind=CPHASE, control=0, target=1, angle=0.8), 2),
            (Gate(kind=PHASE1, target=0, angle=-0.4), 1))):
        params = np.random.default_rng(seed).uniform(
            -0.3, 0.3, (1, 1, PARAMS_PER_GATE))
        mat = _gate_matrix(gate, n_q, params)
        eye = mat.conj().T @ mat
        assert np.max(np.abs(eye - np.eye(mat.shape[0]))) < 1e-14


def _ideal_matrix(gate, n_q):
    """Textbook matrix of a noiseless gate on basis index l = sum a_j 2^j."""
    n = 1 << n_q
    idx = np.arange(n)

    def bit(q):
        return (idx >> q) & 1

    if gate.kind == HADAMARD:
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
        t = gate.target
        return np.kron(np.kron(np.eye(n >> (t + 1)), h), np.eye(1 << t))
    if gate.kind == CPHASE:
        return np.diag(np.exp(1j * gate.angle * bit(gate.control) * bit(gate.target)))
    return np.diag(np.exp(1j * gate.angle * bit(gate.target)))


def test_zero_noise_matches_ideal():
    amps = random_block(3, seed=3)
    for gate in (Gate(kind=HADAMARD, target=2),
                 Gate(kind=CPHASE, control=1, target=0, angle=0.6),
                 Gate(kind=PHASE1, target=1, angle=0.3)):
        out = one_gate_step(gate, 3, amps)
        ref = amps @ _ideal_matrix(gate, 3).T
        assert np.max(np.abs(out - ref)) < 1e-14


@settings(max_examples=15, deadline=None)
@given(n_q=st.integers(1, 7), K=st.floats(-10.0, 10.0))
def test_run_step_noisy_zero_eps_matches_exact(n_q, K):
    lat = LatticeParams(n_q=n_q, K=K)
    prog = build_sawtooth_circuit(lat)
    amps = random_block(n_q, seed=4)
    zero = np.zeros((1, prog.noisy_gate_count, PARAMS_PER_GATE))
    out = CircuitEngine(prog).step_noisy(amps.copy(), zero)
    ref = step_exact(amps[0], lat)
    assert np.max(np.abs(out[0] - ref)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(n_q=st.integers(1, 7), K=st.floats(-10.0, 10.0),
       eps=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 16))
def test_run_step_noisy_norm(n_q, K, eps, seed):
    lat = LatticeParams(n_q=n_q, K=K)
    prog = build_sawtooth_circuit(lat)
    amps = random_block(n_q, seed, members=2)
    params = np.random.default_rng(seed).uniform(
        -eps, eps, (2, prog.noisy_gate_count, PARAMS_PER_GATE))
    out = CircuitEngine(prog).step_noisy(amps, params)
    assert np.max(np.abs(np.sum(np.abs(out) ** 2, axis=1) - 1.0)) < 1e-12


def test_run_step_ideal_matches_exact():
    # the noiseless circuit is the zero parameter block, member by member
    lat = LatticeParams(n_q=5, K=0.4)
    prog = build_sawtooth_circuit(lat)
    amps = random_block(5, seed=6, members=3)
    zero = np.zeros((3, prog.noisy_gate_count, PARAMS_PER_GATE))
    out = CircuitEngine(prog).step_noisy(amps.copy(), zero)
    for m in range(3):
        assert np.max(np.abs(out[m] - step_exact(amps[m], lat))) < 1e-10


# ---------------------------------------------------------------------------
# draw bookkeeping: the noise source of the experiments
# ---------------------------------------------------------------------------

def gate_noise(n_q, epsilon, regime="memoryless", members=(0,), seed=3):
    """The gate-channel noise source, one step per chunk, and its program."""
    lat = LatticeParams(n_q=n_q, K=0.4)
    prog = build_sawtooth_circuit(lat)
    config = ExperimentConfig(lattice=lat, channel="quantum", epsilon=epsilon,
                              regime=regime, master_seed=seed)
    shape = (prog.noisy_gate_count, PARAMS_PER_GATE)
    chunks = noise_blocks(config, members, shape, itertools.repeat(1))
    return prog, (chunk[0] for chunk in chunks)


def test_noise_model_validation():
    # the gate noise source refuses a negative amplitude and an unknown regime
    with pytest.raises(ValueError):
        gate_noise(3, -0.1)
    with pytest.raises(ValueError):
        gate_noise(3, 0.1, "sometimes")


def test_memoryless_needs_rng():
    # memoryless blocks consume each member's own gate stream in step
    # order: three per-step draws equal one bulk draw of three steps
    prog, blocks = gate_noise(3, 1e-2, members=(0, 4), seed=21)
    steps = np.stack([next(blocks).copy() for _ in range(3)], axis=1)
    for row, m in enumerate((0, 4)):
        bulk = streams.stream(21, streams.DOMAIN_GATE, m).uniform(
            -1e-2, 1e-2, (3, prog.noisy_gate_count, PARAMS_PER_GATE))
        assert np.array_equal(steps[row], bulk)


def test_draw_log_shapes_and_alignment():
    prog, blocks = gate_noise(3, 1e-2, members=(0, 1))
    first = next(blocks).copy()
    second = next(blocks)
    assert first.shape == (2, prog.noisy_gate_count, PARAMS_PER_GATE)
    assert np.abs(first).max() <= 1e-2 and np.abs(second).max() <= 1e-2
    assert not np.array_equal(first, second)
    assert not np.array_equal(first[0], first[1])


def test_static_draws_repeat_across_steps():
    _, blocks = gate_noise(4, 1e-2, "static", members=(0, 1), seed=8)
    first = next(blocks).copy()
    for _ in range(2):
        assert np.array_equal(next(blocks), first)
    assert np.abs(first).max() <= 1e-2
    # the frozen table is the first memoryless draw of the same stream
    _, fresh = gate_noise(4, 1e-2, "memoryless", members=(0, 1), seed=8)
    assert np.array_equal(next(fresh), first)


def test_static_evolution_reproducible():
    psi = random_block(4, seed=9)
    outs = []
    for _ in range(2):
        prog, blocks = gate_noise(4, 1e-2, "static", seed=8)
        outs.append(CircuitEngine(prog).step_noisy(psi.copy(), next(blocks)))
    assert np.array_equal(outs[0], outs[1])


def test_memoryless_serial_correlation():
    # lag-1 correlation of the flattened draw stream stays below 0.05
    prog, blocks = gate_noise(3, 1e-2, seed=12)
    steps = (10 ** 4) // (prog.noisy_gate_count * PARAMS_PER_GATE) + 1
    flat = np.concatenate([next(blocks).ravel() for _ in range(steps)])
    x, y = flat[:-1], flat[1:]
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 0.05


def test_batch_engine_matches_single_gate_path():
    # the whole program against its gates run one at a time, each fed
    # the next parameter slice: the engine consumes the block row-major
    # in gate order
    lat = LatticeParams(n_q=4, K=0.4)
    prog = build_sawtooth_circuit(lat)
    amps = random_block(4, seed=10, members=2)
    params = streams.stream(77, streams.DOMAIN_GATE, 0).uniform(
        -2e-2, 2e-2, (2, prog.noisy_gate_count, PARAMS_PER_GATE))
    batch_out = CircuitEngine(prog).step_noisy(amps.copy(), params)

    single = amps
    for gi, gate in enumerate(prog.gates):
        single = one_gate_step(gate, 4, single, params[:, gi:gi + 1])
    single = single * np.exp(1j * prog.phase_offset)

    assert np.max(np.abs(batch_out - single)) < 1e-13


def test_fidelity_ignores_global_phase_choice():
    # multiplying the perturbed branch by any phase leaves f unchanged,
    # which is why the tilted Hadamard may drop its -i prefactor
    lat = LatticeParams(n_q=4, K=0.4)
    prog, blocks = gate_noise(4, 1e-2)
    psi = random_block(4, seed=11)
    noisy = CircuitEngine(prog).step_noisy(psi.copy(), next(blocks))[0]
    ref = step_exact(psi[0], lat)
    f_raw = abs(np.vdot(ref, noisy)) ** 2
    f_phased = abs(np.vdot(ref, noisy * np.exp(-1j * 0.77))) ** 2
    assert abs(f_raw - f_phased) < 1e-12


# ---------------------------------------------------------------------------
# compiled engine against the per-gate reference
# ---------------------------------------------------------------------------

def gate_lists(n_q, max_size=40):
    """Random gate lists on n_q qubits, of every kind."""
    qubit = st.integers(0, n_q - 1)
    angle = st.floats(-50.0, 50.0)
    kinds = [st.builds(lambda t: Gate(HADAMARD, target=t), qubit),
             st.builds(lambda t, a: Gate(PHASE1, target=t, angle=a), qubit, angle)]
    if n_q > 1:
        kinds.append(st.tuples(qubit, qubit, angle)
                     .filter(lambda cta: cta[0] != cta[1])
                     .map(lambda cta: Gate(CPHASE, control=cta[0],
                                           target=cta[1], angle=cta[2])))
    return st.lists(st.one_of(kinds), max_size=max_size)


@st.composite
def programs(draw, max_n_q):
    """The sawtooth program at any K, or a random gate list."""
    n_q = draw(st.integers(1, max_n_q))
    if draw(st.booleans()):
        return build_sawtooth_circuit(
            LatticeParams(n_q=n_q, K=draw(st.floats(-10.0, 10.0))))
    return CircuitProgram(n_q=n_q, gates=tuple(draw(gate_lists(n_q))),
                          phase_offset=draw(st.floats(-10.0, 10.0)))


def noisy_inputs(program, members, eps, seed):
    """Normalized random block and a parameter block for ``program``."""
    rng = np.random.default_rng(seed)
    n = 1 << program.n_q
    amps = rng.normal(size=(members, n)) + 1j * rng.normal(size=(members, n))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    params = rng.uniform(-eps, eps, (members, program.noisy_gate_count,
                                     PARAMS_PER_GATE))
    return amps, params


@settings(max_examples=60, deadline=None)
@given(program=programs(max_n_q=10), members=st.integers(1, 5),
       eps=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 16))
def test_compiled_engine_matches_per_gate_reference(program, members, eps, seed):
    amps, params = noisy_inputs(program, members, eps, seed)
    out = CircuitEngine(program).step_noisy(amps.copy(), params)
    ref = reference_step(program, amps.copy(), params)
    assert np.max(np.abs(out - ref)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(program=programs(max_n_q=8), members=st.integers(1, 5),
       steps=st.integers(1, 4), eps=st.floats(0.0, 0.1),
       seed=st.integers(0, 2 ** 16))
def test_step_factors_equal_step_noisy(program, members, steps, eps, seed):
    # the factors of several steps, built as one block of steps x members
    # rows, step a block bit for bit as step_noisy does step by step
    amps, _ = noisy_inputs(program, members, eps, seed)
    params = np.random.default_rng(seed + 1).uniform(
        -eps, eps, (steps, members, program.noisy_gate_count, PARAMS_PER_GATE))
    engine = CircuitEngine(program)
    factors = engine.step_factors(params)
    chunked, stepped = amps.copy(), amps.copy()
    for step in range(steps):
        chunked = engine.step_with(chunked, factors, step)
        stepped = engine.step_noisy(stepped, params[step])
        assert np.array_equal(chunked, stepped)


@settings(max_examples=60, deadline=None)
@given(program=programs(max_n_q=8), members=st.integers(1, 3))
@example(program=CircuitProgram(  # one-bit runs
    n_q=2, phase_offset=0.5, gates=(Gate(PHASE1, target=0, angle=0.3),
                                    Gate(HADAMARD, target=1),
                                    Gate(PHASE1, target=0, angle=0.2))),
    members=2)
@example(program=CircuitProgram(  # a run without pair terms
    n_q=4, phase_offset=0.0, gates=tuple(Gate(PHASE1, target=t, angle=t)
                                         for t in (3, 0, 2))),
    members=1)
@example(program=CircuitProgram(  # no diagonal gate
    n_q=3, phase_offset=1.0, gates=(Gate(HADAMARD, target=0),
                                    Gate(HADAMARD, target=2))),
    members=3)
def test_table_entries_count_the_step_tables(program, members):
    # table_entries is what step_factors builds per member for one step
    engine = CircuitEngine(program)
    _, _, runs = engine.step_factors(
        np.zeros((1, members, *engine.param_shape)))
    assert sum(f[0].size for run in runs for f in run) == (
        members * engine.table_entries)


def test_step_factors_reject_misshapen_blocks():
    program = build_sawtooth_circuit(LatticeParams(n_q=3, K=0.1))
    engine = CircuitEngine(program)
    n_g = program.noisy_gate_count
    for shape in ((2, 3, n_g + 1, 4), (2, 3, n_g, 3), (3, n_g, 4)):
        with pytest.raises(ValueError, match="params has shape"):
            engine.step_factors(np.zeros(shape))
    factors = engine.step_factors(np.zeros((2, 3, n_g, 4)))
    for amps in (np.ones((1, 8), complex), np.ones((3, 16), complex)):
        with pytest.raises(ValueError, match="amps has shape"):
            engine.step_with(amps, factors, 0)
    engine.step_with(np.ones((3, 8), complex), factors, 1)


@pytest.mark.parametrize("n_q", [3, 6])
@pytest.mark.parametrize("kind", [HADAMARD, CPHASE, PHASE1])
def test_one_kind_programs_match_reference(kind, n_q):
    # the sawtooth gates of one kind, as the micro benchmark runs them
    full = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=0.1))
    program = CircuitProgram(
        n_q=n_q, phase_offset=0.0,
        gates=tuple(g for g in full.gates if g.kind == kind))
    amps, params = noisy_inputs(program, 3, 1e-2, seed=n_q)
    out = CircuitEngine(program).step_noisy(amps.copy(), params)
    ref = reference_step(program, amps.copy(), params)
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_sawtooth_step_moves_no_data():
    # a step is Hadamard groups and phase tables only.  Each ladder's
    # Hadamards fuse into groups of up to two bits below n_q = 9 and
    # three from there on, and one phase table runs after each group.
    # The full-width groups of each ladder build their unitaries in one
    # batch; at n_q = 5 the one-bit groups of both ladders add a third
    for n_q, groups, batches in ((5, 6, 3), (8, 8, 2), (9, 6, 2), (12, 8, 2)):
        prog = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=0.1))
        engine = CircuitEngine(prog)
        kinds = [seg[0] for seg in engine.segments]
        assert kinds == ["g", "d"] * groups
        assert len(engine._batches) == batches


@settings(max_examples=20, deadline=None)
@given(program=programs(max_n_q=6), members=st.integers(2, 64),
       eps=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 16))
def test_member_rows_independent_of_block_size(program, members, eps, seed):
    amps, params = noisy_inputs(program, members, eps, seed)
    engine = CircuitEngine(program)
    out = engine.step_noisy(amps.copy(), params)
    for i in range(members):
        one = engine.step_noisy(amps[i:i + 1].copy(), params[i:i + 1])
        assert np.array_equal(one[0], out[i])


@pytest.mark.parametrize("n_q", [11, 12])
def test_large_sawtooth_step_matches_reference(n_q):
    # above the hypothesis property's range: three-bit groups at bit 0,
    # in the middle and at the top of the register, with a one- or
    # two-bit group where n_q is not a multiple of three
    for K in (0.1, -0.5, 3.0):
        program = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=K))
        amps, params = noisy_inputs(program, 2, 0.1, seed=n_q)
        out = CircuitEngine(program).step_noisy(amps.copy(), params)
        ref = reference_step(program, amps.copy(), params)
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_step_rejects_misshapen_params():
    # a parameter block with extra gates, a missing sector, a wrong
    # member count or no member axis is refused, not cut or broadcast
    program = build_sawtooth_circuit(LatticeParams(n_q=3, K=0.1))
    engine = CircuitEngine(program)
    amps, params = noisy_inputs(program, 2, 1e-2, seed=0)
    n_g = program.noisy_gate_count
    for shape in ((2, n_g + 3, 4), (2, n_g - 1, 4), (2, n_g, 3), (1, n_g, 4),
                  (n_g, 4)):
        with pytest.raises(ValueError, match="params has shape"):
            engine.step_noisy(amps.copy(), np.zeros(shape))
    with pytest.raises(ValueError, match="params has shape"):
        engine.step_noisy(amps[:1].copy(), np.zeros((1, n_g + 3, 4)))
    engine.step_noisy(amps.copy(), params)


def test_step_rejects_misshapen_amps():
    # rows that are not 2^n_q long, or a block with no member axis, are
    # refused rather than evolved as if they were a register
    program = build_sawtooth_circuit(LatticeParams(n_q=3, K=0.1))
    engine = CircuitEngine(program)
    params = np.zeros((2, program.noisy_gate_count, 4))
    for amps in (np.ones((2, 16), complex), np.ones((2, 4), complex),
                 np.ones(8, complex), np.ones((2, 8, 1), complex)):
        with pytest.raises(ValueError, match="amps has shape"):
            engine.step_noisy(amps, params)


ROWS_AT_12 = """
import numpy as np
from sawtoothsim.circuit import CircuitEngine, build_sawtooth_circuit
from sawtoothsim.states import LatticeParams

program = build_sawtooth_circuit(LatticeParams(n_q=12, K=0.1))
engine = CircuitEngine(program)
rng = np.random.default_rng(5)
amps = rng.normal(size=(50, 4096)) + 1j * rng.normal(size=(50, 4096))
params = rng.uniform(-0.05, 0.05, (50, program.noisy_gate_count, 4))
out = engine.step_noisy(amps.copy(), params)
print(sum(not np.array_equal(engine.step_noisy(amps[i:i + 1].copy(),
                                               params[i:i + 1])[0], out[i])
          for i in range(50)))
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_member_rows_independent_of_block_size_at_12(blas_threads):
    # the dense passes go through BLAS: right multiplies for the groups
    # at bit 0, left multiplies above, each one per member.  A member's
    # row must not depend on its block, at any BLAS thread count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = blas_threads
    run = subprocess.run([sys.executable, "-c", ROWS_AT_12], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0"

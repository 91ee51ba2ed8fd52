"""Gate layer: counts, kernels, noise draws, engine equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawtoothsim import streams
from sawtoothsim.circuit import (
    BITREV,
    CPHASE,
    HADAMARD,
    PARAMS_PER_GATE,
    PHASE1,
    CircuitEngine,
    CircuitProgram,
    Gate,
    bit_reversal_permutation,
    build_sawtooth_circuit,
    circuit_deviation,
)
from sawtoothsim.experiments import ExperimentConfig, noise_blocks
from sawtoothsim.propagator import step_exact
from sawtoothsim.states import LatticeParams, random_state


# ---------------------------------------------------------------------------
# gate counts and structure
# ---------------------------------------------------------------------------

def test_gate_count_contract():
    for n_q in range(1, 17):
        prog = build_sawtooth_circuit(LatticeParams(n_q=n_q, K=0.1))
        assert prog.hadamard_count == 2 * n_q
        assert prog.cphase_count == 3 * n_q * n_q - n_q
        assert prog.gate_count == 3 * n_q * n_q + n_q


def test_counts_examples():
    prog12 = build_sawtooth_circuit(LatticeParams(n_q=12, K=0.1))
    assert prog12.hadamard_count == 24
    assert prog12.cphase_count == 420
    assert prog12.gate_count == 444
    prog1 = build_sawtooth_circuit(LatticeParams(n_q=1, K=0.1))
    assert prog1.hadamard_count == 2
    assert prog1.cphase_count == 2


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(kind=CPHASE, control=2, target=2, angle=0.1)
    with pytest.raises(ValueError):
        Gate(kind="spin", target=0)


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def test_noiseless_circuit_matches_split_operator():
    for n_q in range(1, 9):
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
    lat = LatticeParams(n_q=n_q, K=0.1)
    return np.stack([random_state(lat, seed=seed + m).amps
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
    if gate.kind == PHASE1:
        return np.diag(np.exp(1j * gate.angle * bit(gate.target)))
    return np.eye(n)[bit_reversal_permutation(n_q)]


def test_zero_noise_matches_ideal():
    amps = random_block(3, seed=3)
    for gate in (Gate(kind=HADAMARD, target=2),
                 Gate(kind=CPHASE, control=1, target=0, angle=0.6),
                 Gate(kind=PHASE1, target=1, angle=0.3),
                 Gate(kind=BITREV)):
        out = one_gate_step(gate, 3, amps)
        ref = amps @ _ideal_matrix(gate, 3).T
        assert np.max(np.abs(out - ref)) < 1e-14


@settings(max_examples=15, deadline=None)
@given(n_q=st.integers(1, 7), K=st.floats(-10.0, 10.0))
def test_run_step_noisy_zero_eps_matches_exact(n_q, K):
    lat = LatticeParams(n_q=n_q, K=K)
    prog = build_sawtooth_circuit(lat)
    psi = random_state(lat, seed=4)
    zero = np.zeros((1, prog.noisy_gate_count, PARAMS_PER_GATE))
    out = CircuitEngine(prog).step_noisy(psi.amps.copy().reshape(1, -1), zero)
    ref = step_exact(psi, lat)
    assert np.max(np.abs(out[0] - ref.amps)) < 1e-10


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
    states = [random_state(lat, seed=6 + m) for m in range(3)]
    zero = np.zeros((3, prog.noisy_gate_count, PARAMS_PER_GATE))
    out = CircuitEngine(prog).step_noisy(np.stack([s.amps for s in states]), zero)
    for m, psi in enumerate(states):
        assert np.max(np.abs(out[m] - step_exact(psi, lat).amps)) < 1e-10


# ---------------------------------------------------------------------------
# draw bookkeeping: the noise source of the experiments
# ---------------------------------------------------------------------------

def gate_noise(n_q, epsilon, regime="memoryless", members=(0,), seed=3):
    """The gate-channel noise source and the program it feeds."""
    lat = LatticeParams(n_q=n_q, K=0.4)
    prog = build_sawtooth_circuit(lat)
    config = ExperimentConfig(lattice=lat, channel="quantum", epsilon=epsilon,
                              regime=regime, master_seed=seed)
    shape = (prog.noisy_gate_count, PARAMS_PER_GATE)
    return prog, noise_blocks(config, members, shape)


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
    lat = LatticeParams(n_q=4, K=0.4)
    psi = random_state(lat, seed=9).amps.reshape(1, -1)
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
    # in gate order, skipping the bit reversals
    lat = LatticeParams(n_q=4, K=0.4)
    prog = build_sawtooth_circuit(lat)
    amps = random_block(4, seed=10, members=2)
    params = streams.stream(77, streams.DOMAIN_GATE, 0).uniform(
        -2e-2, 2e-2, (2, prog.noisy_gate_count, PARAMS_PER_GATE))
    batch_out = CircuitEngine(prog).step_noisy(amps.copy(), params)

    single = amps
    gi = 0
    for gate in prog.gates:
        noisy = int(gate.kind != BITREV)
        single = one_gate_step(gate, 4, single, params[:, gi:gi + noisy])
        gi += noisy
    single = single * np.exp(1j * prog.phase_offset)

    assert gi == prog.noisy_gate_count
    assert np.max(np.abs(batch_out - single)) < 1e-13


def test_fidelity_ignores_global_phase_choice():
    # multiplying the perturbed branch by any phase leaves f unchanged,
    # which is why the tilted Hadamard may drop its -i prefactor
    lat = LatticeParams(n_q=4, K=0.4)
    prog, blocks = gate_noise(4, 1e-2)
    psi = random_state(lat, seed=11)
    noisy = CircuitEngine(prog).step_noisy(psi.amps.copy().reshape(1, -1),
                                           next(blocks))[0]
    ref = step_exact(psi, lat)
    f_raw = abs(np.vdot(ref.amps, noisy)) ** 2
    f_phased = abs(np.vdot(ref.amps, noisy * np.exp(-1j * 0.77))) ** 2
    assert abs(f_raw - f_phased) < 1e-12

"""Split-operator evolution: diagonal factors, steps, reversibility."""

import itertools
import math

import numpy as np
import pytest

from sawtoothsim import streams
from sawtoothsim.classical import ClassicalParams, PhasePoint, step_classical
from sawtoothsim.experiments import ExperimentConfig, noise_blocks, perturbed_branch
from sawtoothsim.propagator import BatchPropagator, step_exact
from sawtoothsim.states import (
    MOMENTUM,
    LatticeParams,
    QuantumState,
    WavePacketSpec,
    angle_moments,
    gaussian_packet,
    momentum_moments,
    momentum_values,
    random_state,
    to_angle,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# diagonal factors
# ---------------------------------------------------------------------------

def kick(prop, amps, strength):
    """The bare kick exp(i strength (theta - pi)^2 / 2) of a step.

    A step at detuning ``strength`` followed by the noiseless inverse
    step cancels the rotation and the base kick k, leaving the extra
    kick phase on the angle representation ifft(amps).
    """
    members = amps.shape[0]
    return prop.step_inverse(prop.step(amps, np.full(members, strength)))


def block(lat, seed, members=1):
    return np.stack([random_state(lat, seed=seed + m).amps
                     for m in range(members)])


def test_kick_zero_is_identity():
    # a detuning of -k switches the kick off: the step is the bare rotation
    lat = LatticeParams(n_q=6, K=0.4)
    psi = random_state(lat, seed=1)
    out = step_exact(psi, lat, delta_k=-lat.k)
    n = momentum_values(lat).astype(float)
    rotated = psi.amps * np.exp(-1j * lat.T * n * n / 2.0)
    assert np.max(np.abs(out.amps - rotated)) < 1e-13


def test_kick_preserves_moduli():
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=2)
    out = kick(prop, amps, 3.7)
    assert np.allclose(np.abs(np.fft.ifft(out)), np.abs(np.fft.ifft(amps)),
                       atol=1e-14)
    assert not np.allclose(out, amps)


def test_kick_inverse_round_trip():
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=3)
    out = kick(prop, kick(prop, amps, lat.k), -lat.k)
    assert np.max(np.abs(out - amps)) < 1e-12


def test_kick_composition():
    lat = LatticeParams(n_q=7, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=4)
    a, b = 1.3, -0.45
    two = kick(prop, kick(prop, amps, a), b)
    one = kick(prop, amps, a + b)
    assert np.max(np.abs(two - one)) < 1e-12


def test_rotation_leaves_n0_invariant():
    lat = LatticeParams(n_q=6, K=0.4)
    amps = np.zeros(lat.N, dtype=complex)
    amps[lat.N // 2] = 1.0  # n = 0 level
    psi = QuantumState(amps, MOMENTUM, lat)
    out = step_exact(psi, lat, delta_k=-lat.k)  # kick switched off
    assert np.max(np.abs(out.amps - psi.amps)) < 1e-14


def test_rotation_inverse_round_trip():
    # with the kick switched off, step and inverse step are the
    # rotation and its inverse
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=6)
    off = np.array([-lat.k])
    rotated = prop.step(amps, off)
    assert not np.allclose(rotated, amps)
    out = prop.step_inverse(rotated, off)
    assert np.max(np.abs(out - amps)) < 1e-12


def test_rotation_rejects_angle_basis():
    lat = LatticeParams(n_q=4, K=0.4)
    with pytest.raises(ValueError):
        step_exact(to_angle(random_state(lat, seed=0)), lat)


# ---------------------------------------------------------------------------
# full steps
# ---------------------------------------------------------------------------

def test_step_norm_and_basis():
    lat = LatticeParams(n_q=8, K=0.3)
    psi = random_state(lat, seed=7)
    out = step_exact(psi, lat)
    assert out.basis == "momentum"
    assert np.sum(np.abs(out.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_packet_center_follows_classical_map():
    # semiclassical check: three steps of the quantum centroid track the
    # classical orbit to within a few packet widths
    lat = LatticeParams(n_q=12, K=0.1)
    spec = WavePacketSpec(theta0=2.0, p0=0.5)
    psi = gaussian_packet(spec, lat)
    point = PhasePoint(2.0, 0.5)
    params = ClassicalParams(K=0.1)
    sigma_n = math.sqrt(lat.N / TWO_PI)
    sigma_theta = math.sqrt(lat.T)
    for _ in range(3):
        psi = step_exact(psi, lat)
        point = step_classical(point, params)
        mean_n, _ = momentum_moments(psi)
        p_wrapped = (point.p + math.pi) % TWO_PI - math.pi
        assert abs(mean_n * lat.T - p_wrapped) < 3 * sigma_n * lat.T
        mean_theta, _ = angle_moments(to_angle(psi))
        d_theta = (mean_theta - point.theta + math.pi) % TWO_PI - math.pi
        assert abs(d_theta) < 3 * sigma_theta


def test_island_packet_oscillates():
    lat = LatticeParams(n_q=10, K=-0.5)
    psi = gaussian_packet(WavePacketSpec(theta0=1.0, p0=0.0), lat)
    means = []
    for _ in range(30):
        psi = step_exact(psi, lat)
        means.append(momentum_moments(psi)[0] * lat.T)
    means = np.asarray(means)
    # the centroid swings through zero and back: several sign changes
    assert np.sum(np.abs(np.diff(np.sign(means)))) >= 4
    assert np.max(np.abs(means)) > 0.3


def kick_config(lat, delta_K, regime="memoryless", seed=5):
    return ExperimentConfig(lattice=lat, channel="classical", delta_K=delta_K,
                            regime=regime, master_seed=seed)


def test_evolve_contracts():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=8)

    # zero steps consume nothing and leave the block alone
    branch = perturbed_branch(kick_config(lat, 0.2), prop, amps.copy(), [0])
    assert list(itertools.islice(branch, 0)) == []

    # a zero amplitude reproduces the noiseless evolution exactly
    branch = perturbed_branch(kick_config(lat, 0.0), prop, amps.copy(), [0])
    plain = amps
    for pert in itertools.islice(branch, 25):
        plain = prop.step(plain)
        assert np.array_equal(pert, plain)


def test_evolve_keep_all_and_delta_log():
    # the branch yields every intermediate state, and the kick
    # detunings it consumed are the member's stream drawn step by step,
    # equal to one bulk draw of the same stream
    lat = LatticeParams(n_q=6, K=0.3)
    config = kick_config(lat, 0.2 * lat.T)
    states = [s.copy() for s in itertools.islice(
        perturbed_branch(config, BatchPropagator(lat), block(lat, seed=9), [3]),
        12)]
    assert len(states) == 12
    blocks = noise_blocks(config, [3], ())
    deltas = np.array([next(blocks)[0] for _ in range(12)])
    assert np.abs(deltas).max() <= 0.2
    bulk = streams.stream(5, streams.DOMAIN_CLASSICAL, 3).uniform(-0.2, 0.2, 12)
    assert np.array_equal(deltas, bulk)


def test_evolve_matches_manual_steps_bitwise():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=10, members=2)
    config = kick_config(lat, 0.1 * lat.T, seed=6)
    branch = perturbed_branch(config, prop, amps.copy(), [0, 1])
    final = list(itertools.islice(branch, 8))[-1]
    manual = amps
    rngs = [streams.stream(6, streams.DOMAIN_CLASSICAL, m) for m in (0, 1)]
    for _ in range(8):
        manual = prop.step(manual, [rng.uniform(-0.1, 0.1) for rng in rngs])
    assert np.array_equal(final, manual)


def test_time_reversal():
    lat = LatticeParams(n_q=8, K=0.3)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=11)
    forward = amps
    for _ in range(50):
        forward = prop.step(forward)
    back = forward
    for _ in range(50):
        back = prop.step_inverse(back)
    f = abs(np.vdot(amps[0], back[0])) ** 2
    assert f > 1 - 1e-10


def test_norm_drift_long_run():
    lat = LatticeParams(n_q=10, K=0.3)
    psi = random_state(lat, seed=12)
    amps = psi.amps.copy().reshape(1, -1)
    prop = BatchPropagator(lattice=lat)
    for _ in range(10000):
        amps = prop.step(amps)
    norm = float(np.sum(np.abs(amps) ** 2))
    assert abs(norm - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------

def test_batch_matches_single_step():
    lat = LatticeParams(n_q=7, K=0.3)
    prop = BatchPropagator(lattice=lat)
    block = np.stack([random_state(lat, seed=s).amps for s in range(4)])
    out = prop.step(block.copy())
    for m in range(4):
        single = step_exact(random_state(lat, seed=m), lat)
        assert np.max(np.abs(out[m] - single.amps)) < 1e-12


def test_batch_per_member_deltas():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lattice=lat)
    block = np.stack([random_state(lat, seed=s).amps for s in range(3)])
    deltas = np.array([0.0, 0.05, -0.08])
    out = prop.step(block.copy(), deltas)
    for m in range(3):
        single = step_exact(random_state(lat, seed=m), lat, deltas[m])
        assert np.max(np.abs(out[m] - single.amps)) < 1e-12


def test_batch_inverse_round_trip():
    lat = LatticeParams(n_q=8, K=0.3)
    prop = BatchPropagator(lattice=lat)
    block = np.stack([random_state(lat, seed=s).amps for s in range(2)])
    out = prop.step_inverse(prop.step(block.copy()))
    assert np.max(np.abs(out - block)) < 1e-12


def test_step_perturbation_bounds():
    lat = LatticeParams(n_q=6, K=0.3)
    dk_max = 0.3

    def draws(regime, seed):
        blocks = noise_blocks(kick_config(lat, dk_max * lat.T, regime, seed),
                              [0, 1], ())
        return np.array([next(blocks).copy() for _ in range(500)])

    vals = draws("memoryless", 2)
    assert vals.shape == (500, 2)
    assert np.abs(vals).max() <= dk_max
    assert np.array_equal(vals, draws("memoryless", 2))
    # the static regime freezes each member's first detuning
    frozen = draws("static", 2)
    assert np.array_equal(frozen, np.tile(vals[0], (500, 1)))

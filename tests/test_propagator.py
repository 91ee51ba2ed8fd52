"""Split-operator evolution: diagonal factors, steps, reversibility."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawtoothsim.experiments as ex
from sawtoothsim import streams
from sawtoothsim.classical import step_array
from sawtoothsim.experiments import ExperimentConfig, noise_blocks, perturbed_branch
from sawtoothsim.propagator import BatchPropagator, step_exact
from sawtoothsim.states import (
    LatticeParams,
    WavePacketSpec,
    angle_values,
    momentum_values,
    packet_amplitudes,
    random_amplitudes,
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
    return np.stack([random_amplitudes(lat.N, np.random.default_rng(seed + m))
                     for m in range(members)])


def test_kick_zero_is_identity():
    # a detuning of -k switches the kick off: the step is the bare rotation
    lat = LatticeParams(n_q=6, K=0.4)
    psi = block(lat, seed=1)[0]
    out = step_exact(psi, lat, delta_k=-lat.k)
    n = momentum_values(lat).astype(float)
    rotated = psi * np.exp(-1j * lat.T * n * n / 2.0)
    assert np.max(np.abs(out - rotated)) < 1e-13


def test_kick_preserves_moduli():
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=2)
    out = kick(prop, amps.copy(), 3.7)
    assert np.allclose(np.abs(np.fft.ifft(out)), np.abs(np.fft.ifft(amps)),
                       atol=1e-14)
    assert not np.allclose(out, amps)


def test_kick_inverse_round_trip():
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=3)
    out = kick(prop, kick(prop, amps.copy(), lat.k), -lat.k)
    assert np.max(np.abs(out - amps)) < 1e-12


def test_kick_composition():
    lat = LatticeParams(n_q=7, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=4)
    a, b = 1.3, -0.45
    two = kick(prop, kick(prop, amps.copy(), a), b)
    one = kick(prop, amps.copy(), a + b)
    assert np.max(np.abs(two - one)) < 1e-12


def test_rotation_leaves_n0_invariant():
    lat = LatticeParams(n_q=6, K=0.4)
    amps = np.zeros(lat.N, dtype=complex)
    amps[lat.N // 2] = 1.0  # n = 0 level
    out = step_exact(amps, lat, delta_k=-lat.k)  # kick switched off
    assert np.max(np.abs(out - amps)) < 1e-14


def test_rotation_inverse_round_trip():
    # with the kick switched off, a step is the bare rotation, the
    # phase table the inverse step undoes
    lat = LatticeParams(n_q=6, K=0.4)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=6)
    rotated = prop.step(amps.copy(), np.array([-lat.k]))
    assert not np.allclose(rotated, amps)
    assert np.max(np.abs(rotated - amps * prop.rot_phase)) < 1e-12


# ---------------------------------------------------------------------------
# full steps
# ---------------------------------------------------------------------------

def test_step_norm_and_basis():
    # the FFTs with (-1)^l twiddles against the dense basis change
    # <theta_l | n> = exp(i n theta_l) / sqrt(N): the step returns
    # momentum amplitudes of unit norm
    lat = LatticeParams(n_q=8, K=0.3)
    psi = block(lat, seed=7)[0]
    out = step_exact(psi, lat)
    theta, n = angle_values(lat), momentum_values(lat)
    change = np.exp(1j * np.outer(theta, n)) / math.sqrt(lat.N)
    kick = np.exp(1j * lat.k * (theta - math.pi) ** 2 / 2.0)
    rotation = np.exp(-1j * lat.T * n * n / 2.0)
    dense = rotation * (change.conj().T @ (kick * (change @ psi)))
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_packet_center_follows_classical_map():
    # semiclassical check: three steps of the quantum centroid track the
    # classical orbit to within a few packet widths
    lat = LatticeParams(n_q=12, K=0.1)
    psi = packet_amplitudes(WavePacketSpec(theta0=2.0, p0=0.5), lat)
    theta, p = 2.0, 0.5
    n, grid = momentum_values(lat), angle_values(lat)
    sigma_n = math.sqrt(lat.N / TWO_PI)
    sigma_theta = math.sqrt(lat.T)
    for _ in range(3):
        psi = step_exact(psi, lat)
        theta, p = step_array(theta, p, lat.K)
        mean_n = np.sum(np.abs(psi) ** 2 * n)
        assert abs(mean_n * lat.T - p) < 3 * sigma_n * lat.T
        # the angle density is N |ifft(psi)|^2, the twiddles being phases
        density = lat.N * np.abs(np.fft.ifft(psi)) ** 2
        mean_theta = np.angle(np.sum(density * np.exp(1j * grid)))
        d_theta = (mean_theta - theta + math.pi) % TWO_PI - math.pi
        assert abs(d_theta) < 3 * sigma_theta


def test_island_packet_oscillates():
    lat = LatticeParams(n_q=10, K=-0.5)
    psi = packet_amplitudes(WavePacketSpec(theta0=1.0, p0=0.0), lat)
    n = momentum_values(lat)
    means = []
    for _ in range(30):
        psi = step_exact(psi, lat)
        means.append(np.sum(np.abs(psi) ** 2 * n) * lat.T)
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
    branch = perturbed_branch(kick_config(lat, 0.2), prop, amps.copy(), [0], 0)
    assert list(branch) == []

    # a zero amplitude reproduces the noiseless evolution exactly
    branch = perturbed_branch(kick_config(lat, 0.0), prop, amps.copy(), [0],
                              25)
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
        perturbed_branch(config, BatchPropagator(lat), block(lat, seed=9), [3],
                         12),
        12)]
    assert len(states) == 12
    chunks = noise_blocks(config, [3], (), itertools.repeat(1))
    deltas = np.array([next(chunks)[0, 0] for _ in range(12)])
    assert np.abs(deltas).max() <= 0.2
    bulk = streams.stream(5, streams.DOMAIN_CLASSICAL, 3).uniform(-0.2, 0.2, 12)
    assert np.array_equal(deltas, bulk)


def test_evolve_matches_manual_steps_bitwise():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=10, members=2)
    config = kick_config(lat, 0.1 * lat.T, seed=6)
    branch = perturbed_branch(config, prop, amps.copy(), [0, 1], 8)
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
    forward = amps.copy()
    for _ in range(50):
        forward = prop.step(forward)
    back = forward
    for _ in range(50):
        back = prop.step_inverse(back)
    f = abs(np.vdot(amps[0], back[0])) ** 2
    assert f > 1 - 1e-10


def test_norm_drift_long_run():
    lat = LatticeParams(n_q=10, K=0.3)
    amps = block(lat, seed=12)
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
    amps = block(lat, seed=0, members=4)
    out = prop.step(amps.copy())
    for m in range(4):
        assert np.max(np.abs(out[m] - step_exact(amps[m], lat))) < 1e-12


def test_batch_per_member_deltas():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lattice=lat)
    amps = block(lat, seed=0, members=3)
    deltas = np.array([0.0, 0.05, -0.08])
    out = prop.step(amps.copy(), deltas)
    for m in range(3):
        single = step_exact(amps[m], lat, deltas[m])
        assert np.max(np.abs(out[m] - single)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n_q=st.integers(1, 12), K=st.floats(-10.0, 10.0),
       members=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_kick_table_matches_exact_step(n_q, K, members, seed, data):
    # the kick tables against one exponential per amplitude, at
    # detunings up to twice the kick strength
    lat = LatticeParams(n_q=n_q, K=K)
    prop = BatchPropagator(lat)
    amps = block(lat, seed, members)
    bound = 2.0 * abs(lat.k)
    dk = np.array(data.draw(st.lists(st.floats(-bound, bound),
                                     min_size=members, max_size=members)))
    out = prop.step(amps.copy(), dk)
    for m in range(members):
        single = step_exact(amps[m], lat, dk[m])
        assert np.max(np.abs(out[m] - single)) <= 1e-12


@pytest.mark.parametrize("n_q", [1, 2, 5, 8, 11, 12])
def test_member_rows_independent_of_block_size(n_q):
    # each row equals the step of its member alone, bit for bit; at
    # n_q = 11 and 12 the 40 members span several tiles
    lat = LatticeParams(n_q=n_q, K=0.7)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=20, members=40)
    dk = np.random.default_rng(n_q).uniform(-2.0, 2.0, 40) * lat.k
    forward = prop.step(amps.copy(), dk)
    for m in range(40):
        one = amps[m:m + 1].copy(), dk[m:m + 1]
        assert np.array_equal(forward[m], prop.step(*one)[0])


def test_one_detuning_per_member_required():
    # 40 members span three tiles at n_q = 12; a single detuning is
    # not broadcast to every member, any other length is refused
    lat = LatticeParams(n_q=12, K=0.7)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=21, members=40)
    for bad in ([0.3], np.array([0.3]), 0.3, np.zeros(17)):
        with pytest.raises(ValueError, match="detunings for 40 members"):
            prop.step(amps, bad)
    prop.step(amps, np.full(40, 0.3))


@pytest.mark.parametrize("n_q, members", [
    (12, 1), (12, 15), (12, 16), (12, 17), (12, 35),  # 16-row tiles
    (16, 1),  # a one-row tile
])
def test_tiled_step_equals_rows_stepped_alone(monkeypatch, n_q, members):
    # a step walks its block in tiles of 2^16 amplitudes; each row,
    # with and without detunings, is the step of that row alone, bit
    # for bit, and row slices on two threads equal one call
    lat = LatticeParams(n_q=n_q, K=0.7)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=30, members=members)
    dk = np.random.default_rng(members).uniform(-1.0, 1.0, members) * lat.k
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    for delta in (None, dk):
        out = prop.step(amps.copy(), delta)
        for m in range(members):
            alone = prop.step(amps[m:m + 1].copy(),
                              None if delta is None else delta[m:m + 1])
            assert np.array_equal(out[m], alone[0])
            exact = step_exact(amps[m], lat, 0.0 if delta is None else delta[m])
            assert np.max(np.abs(out[m] - exact)) <= 1e-12
        args = () if delta is None else (delta,)
        sliced = ex._step_in_slices(prop.step, amps.copy(), *args)
        assert np.array_equal(sliced, out)


@pytest.mark.parametrize("n_q, members, steps", [
    (1, 1, 5), (4, 3, 7), (7, 2, 4), (9, 1, 3),  # one tile
    (12, 1, 3), (12, 20, 2),  # one tile, and two of 16 and 4 rows
])
def test_step_factors_equal_step(n_q, members, steps):
    # tables built for several steps at once, each step applied with
    # step_with, equal step at that step's detunings bit for bit
    lat = LatticeParams(n_q=n_q, K=0.7)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=32, members=members)
    dk = np.random.default_rng(n_q).uniform(-1.0, 1.0, (steps, members))
    tables = prop.step_factors(dk * lat.k)
    assert tables.size == steps * members * lat.N
    stepped, chunked = amps.copy(), amps.copy()
    for t in range(steps):
        stepped = prop.step(stepped, dk[t] * lat.k)
        assert prop.step_with(chunked, tables, t) is chunked
        assert np.array_equal(chunked, stepped)
    with pytest.raises(ValueError, match="expected \\(steps, members\\)"):
        prop.step_factors(dk[0])
    with pytest.raises(ValueError, match=f"{members} detunings for "
                                         f"{members + 1} members"):
        prop.step_with(block(lat, seed=33, members=members + 1), tables, 0)


def test_step_works_in_place_and_refuses_other_blocks():
    lat = LatticeParams(n_q=6, K=0.3)
    prop = BatchPropagator(lat)
    amps = block(lat, seed=31, members=3)
    wide = np.concatenate([amps, amps], axis=1)
    for bad in (amps[0], amps[:, :-1], wide, wide[:, ::2], amps.real.copy(),
                np.asfortranarray(amps), amps.tolist()):
        for step in (prop.step, prop.step_inverse):
            with pytest.raises(ValueError, match="C-contiguous complex"):
                step(bad)
    # a refused detuning vector leaves the block as it was
    kept = amps.copy()
    with pytest.raises(ValueError, match="2 detunings for 3 members"):
        prop.step(amps, np.zeros(2))
    assert np.array_equal(amps, kept)
    # the block is stepped in place and returned
    assert prop.step(amps, np.zeros(3)) is amps
    assert not np.allclose(amps, kept)
    assert prop.step_inverse(amps) is amps
    assert np.max(np.abs(amps - kept)) < 1e-12


def test_batch_inverse_round_trip():
    lat = LatticeParams(n_q=8, K=0.3)
    prop = BatchPropagator(lattice=lat)
    amps = block(lat, seed=0, members=2)
    out = prop.step_inverse(prop.step(amps.copy()))
    assert np.max(np.abs(out - amps)) < 1e-12


def test_step_perturbation_bounds():
    lat = LatticeParams(n_q=6, K=0.3)
    dk_max = 0.3

    def draws(regime, seed):
        chunks = noise_blocks(kick_config(lat, dk_max * lat.T, regime, seed),
                              [0, 1], (), itertools.repeat(1))
        return np.array([next(chunks)[0] for _ in range(500)])

    vals = draws("memoryless", 2)
    assert vals.shape == (500, 2)
    assert np.abs(vals).max() <= dk_max
    assert np.array_equal(vals, draws("memoryless", 2))
    # the static regime freezes each member's first detuning
    frozen = draws("static", 2)
    assert np.array_equal(frozen, np.tile(vals[0], (500, 1)))

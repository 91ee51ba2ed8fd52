"""Hilbert-space layer: lattice scales, packets, random states, basis change."""

import math

import numpy as np
import pytest

from sawtoothsim.propagator import step_exact
from sawtoothsim.states import (
    LatticeParams,
    WavePacketSpec,
    angle_values,
    momentum_values,
    packet_amplitudes,
    random_amplitudes,
)

TWO_PI = 2.0 * math.pi


def basis_change(lat):
    """Dense <theta_l | n> = exp(i n theta_l) / sqrt(N) on the lattice grids."""
    return np.exp(1j * np.outer(angle_values(lat), momentum_values(lat))) / math.sqrt(lat.N)


def draw_state(lat, seed):
    return random_amplitudes(lat.N, np.random.default_rng(seed))


def test_lattice_scales():
    for n_q in (1, 4, 8, 12):
        lat = LatticeParams(n_q=n_q, K=0.3)
        assert lat.N == 2 ** n_q
        assert lat.T * lat.N == pytest.approx(TWO_PI, rel=1e-15)
        assert lat.k * lat.T == pytest.approx(0.3, rel=1e-14)


def test_lattice_rejects_bad_nq():
    with pytest.raises(ValueError):
        LatticeParams(n_q=0, K=0.1)


# ---------------------------------------------------------------------------
# Gaussian packets
# ---------------------------------------------------------------------------
# the angle density of momentum amplitudes psi is N |ifft(psi)|^2: the
# (-1)^l twiddles of the basis change are phases

def test_packet_normalized_and_centered():
    lat = LatticeParams(n_q=12, K=0.1)
    psi = packet_amplitudes(WavePacketSpec(theta0=1.0, p0=0.0), lat)
    prob_n = np.abs(psi) ** 2
    assert np.sum(prob_n) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.sum(prob_n * momentum_values(lat))) < 1e-6
    prob_theta = lat.N * np.abs(np.fft.ifft(psi)) ** 2
    mean_theta = np.angle(np.sum(prob_theta * np.exp(1j * angle_values(lat))))
    assert abs(mean_theta - 1.0) < 1e-3


def test_packet_widths_minimum_uncertainty():
    # e-folding half-widths (sqrt 2 standard deviations; circular for
    # the angle): their product equals the effective Planck constant
    # within 5%
    for n_q in (8, 10, 12):
        lat = LatticeParams(n_q=n_q, K=0.1)
        psi = packet_amplitudes(WavePacketSpec(theta0=1.0, p0=0.0), lat)
        prob_n = np.abs(psi) ** 2
        n = momentum_values(lat)
        std_n = math.sqrt(np.sum(prob_n * (n - np.sum(prob_n * n)) ** 2))
        prob_theta = lat.N * np.abs(np.fft.ifft(psi)) ** 2
        R = abs(np.sum(prob_theta * np.exp(1j * angle_values(lat))))
        d_theta = math.sqrt(-4.0 * math.log(R))
        d_p = math.sqrt(2.0) * std_n * lat.T
        assert d_theta * d_p == pytest.approx(lat.T, rel=0.05)


def test_packet_width_value_nq12():
    # both half-widths are sqrt(T) for the default width
    lat = LatticeParams(n_q=12, K=0.1)
    psi = packet_amplitudes(WavePacketSpec(theta0=1.0, p0=0.0), lat)
    prob_n = np.abs(psi) ** 2
    std_n = math.sqrt(np.sum(prob_n * momentum_values(lat) ** 2))
    prob_theta = lat.N * np.abs(np.fft.ifft(psi)) ** 2
    R = abs(np.sum(prob_theta * np.exp(1j * angle_values(lat))))
    expected = math.sqrt(TWO_PI / 4096)
    assert math.sqrt(-4.0 * math.log(R)) == pytest.approx(expected, rel=0.05)
    assert math.sqrt(2.0) * std_n * lat.T == pytest.approx(expected, rel=0.05)


def test_packet_momentum_offset():
    lat = LatticeParams(n_q=10, K=0.1)
    p0 = 0.7
    psi = packet_amplitudes(WavePacketSpec(theta0=2.0, p0=p0), lat)
    mean_n = np.sum(np.abs(psi) ** 2 * momentum_values(lat))
    assert mean_n * lat.T == pytest.approx(p0, abs=3 * lat.T)


def test_packet_rejects_wrapping_sigma():
    # the width sqrt(N / 2pi) exceeds the wrap limit N/6 below n_q = 3
    spec = WavePacketSpec(theta0=1.0, p0=0.0)
    for n_q in (1, 2):
        with pytest.raises(ValueError, match="wraps the torus"):
            packet_amplitudes(spec, LatticeParams(n_q=n_q, K=0.1))
    psi = packet_amplitudes(spec, LatticeParams(n_q=3, K=0.1))
    assert np.sum(np.abs(psi) ** 2) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def test_random_state_moduli_exact():
    lat = LatticeParams(n_q=7, K=0.1)
    psi = draw_state(lat, seed=3)
    assert np.allclose(np.abs(psi), 1 / math.sqrt(lat.N), atol=1e-15)


def test_random_state_nq1():
    psi = draw_state(LatticeParams(n_q=1, K=0.1), seed=0)
    assert psi.shape == (2,)
    assert np.allclose(np.abs(psi), 1 / math.sqrt(2), atol=1e-15)


def test_random_state_reproducible():
    lat = LatticeParams(n_q=6, K=0.1)
    assert np.array_equal(draw_state(lat, seed=9), draw_state(lat, seed=9))


def test_random_pair_overlap_scales_as_inverse_n():
    # mean squared overlap of independent random states is 1/N
    lat = LatticeParams(n_q=6, K=0.1)
    vals = []
    for s in range(120):
        a = draw_state(lat, seed=2 * s)
        b = draw_state(lat, seed=2 * s + 1)
        vals.append(abs(np.vdot(a, b)) ** 2)
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 1 / lat.N) < 3 * se


def test_fidelity_properties():
    lat = LatticeParams(n_q=5, K=0.1)

    def fidelity(a, b):
        return abs(np.vdot(a, b)) ** 2

    psi = draw_state(lat, seed=2)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    e = np.eye(lat.N, dtype=complex)
    assert fidelity(e[0], e[1]) == 0.0
    assert fidelity(psi, psi * np.exp(1j * 0.7)) == pytest.approx(1.0, abs=1e-12)
    other = draw_state(lat, seed=3)
    assert fidelity(psi, other) == fidelity(other, psi)


def test_state_validation():
    # a state is an (N,) array; the single-state step checks its length
    lat = LatticeParams(n_q=3, K=0.1)
    for bad in (np.zeros(5, dtype=complex), np.zeros((1, 8), dtype=complex)):
        with pytest.raises(ValueError):
            step_exact(bad, lat)


# ---------------------------------------------------------------------------
# the basis change on the lattice grids
# ---------------------------------------------------------------------------

def test_momentum_delta_gives_flat_angle_density():
    lat = LatticeParams(n_q=6, K=0.1)
    amps = np.zeros(lat.N, dtype=complex)
    amps[lat.N // 2] = 1.0  # n = 0
    flat = basis_change(lat) @ amps
    assert np.allclose(np.abs(flat) ** 2, 1 / lat.N, atol=1e-12)
    # and the FFT form of the density agrees with the dense kernel
    psi = draw_state(lat, seed=4)
    assert np.allclose(lat.N * np.abs(np.fft.ifft(psi)) ** 2,
                       np.abs(basis_change(lat) @ psi) ** 2, atol=1e-14)


def test_round_trip_identity():
    # the kernel is unitary on the grids: angle_values and
    # momentum_values are discrete Fourier partners
    lat = LatticeParams(n_q=8, K=0.1)
    U = basis_change(lat)
    psi = draw_state(lat, seed=4)
    assert np.max(np.abs(U.conj().T @ (U @ psi) - psi)) < 1e-12


def test_overlap_invariant_under_joint_basis_change():
    lat = LatticeParams(n_q=8, K=0.1)
    U = basis_change(lat)
    a = draw_state(lat, seed=10)
    b = draw_state(lat, seed=11)
    assert abs(np.vdot(a, b) - np.vdot(U @ a, U @ b)) < 1e-12

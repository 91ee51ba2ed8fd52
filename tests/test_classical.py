"""Classical map: stepping, stability diagnostics, perturbed orbits."""

import itertools
import math

import numpy as np
import pytest

from sawtoothsim.classical import (
    PhasePoint,
    lyapunov_exponent,
    lyapunov_numeric,
    poincare_section,
    step_array,
)
from sawtoothsim.cli import DEFAULT_POINCARE_SEEDS
from sawtoothsim.experiments import ExperimentConfig, noise_blocks
from sawtoothsim.states import LatticeParams

PI = math.pi


def perturbed_trajectory(point, K, deltaK_max, steps, seed=3):
    """Orbit with K replaced by K + delta_K(t), delta_K(t) uniform per step."""
    deltas = np.random.default_rng(seed).uniform(-deltaK_max, deltaK_max, steps)
    out = np.empty((steps + 1, 2))
    theta, p = point.theta, point.p
    out[0] = theta, p
    for t in range(1, steps + 1):
        theta, p = step_array(theta, p, K + deltas[t - 1])
        out[t] = theta, p
    return out


def torus_distance(a, b):
    """Shortest wrap-around separation between (..., 2) arrays of (theta, p)."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = np.mod(d + PI, 2 * PI) - PI
    return np.sqrt(np.sum(d * d, axis=-1))


def island_rotation(K, steps=200):
    """Per-step rotation angle of an orbit about the island center (pi, 0).

    Inside the island the map is linear in x = theta - pi, so the orbit
    obeys x(t+1) + x(t-1) = 2 cos(omega) x(t); cos(omega) is read off
    the trajectory by least squares.
    """
    x = poincare_section([PhasePoint(PI + 0.5, 0.0)], K, steps)[0][:, 0] - PI
    cos_w = np.dot(x[1:-1], x[2:] + x[:-2]) / (2.0 * np.dot(x[1:-1], x[1:-1]))
    return math.acos(cos_w)


# ---------------------------------------------------------------------------
# stepping and torus bookkeeping
# ---------------------------------------------------------------------------

def test_fixed_point():
    for K in (-3.0, -0.5, 0.1, 1.0, 5.0):
        theta, p = step_array(PI, 0.0, K)
        assert theta == pytest.approx(PI, abs=1e-15)
        assert p == pytest.approx(0.0, abs=1e-15)


def test_direct_evaluation():
    theta, p = step_array(PI + 0.1, 0.0, 1.0)
    assert p == pytest.approx(0.1, abs=1e-12)
    assert theta == pytest.approx(PI + 0.2, abs=1e-12)


def test_phase_point_wraps():
    pt = PhasePoint(2 * PI + 0.3, PI + 0.2)
    assert pt.theta == pytest.approx(0.3)
    assert pt.p == pytest.approx(0.2 - PI)
    pt2 = PhasePoint(-0.1, -PI - 0.1)
    assert 0.0 <= pt2.theta < 2 * PI
    assert -PI <= pt2.p < PI


def test_area_preservation():
    # parallelogram spanned by small offsets keeps its area to 1e-9,
    # provided it does not straddle the force discontinuity at theta=0
    rng = np.random.default_rng(5)
    h = 1e-5

    def wrap_diff(a, b):
        return (a - b + PI) % (2 * PI) - PI

    for K in (-2.0, -0.5, 0.1, 1.5):
        for _ in range(10):
            th = rng.uniform(0.5, 2 * PI - 0.5)
            p = rng.uniform(-2.0, 2.0)

            def image(dth, dp):
                return np.array(step_array(th + dth, p + dp, K))

            base = image(0, 0)
            va = wrap_diff(image(h, 0), base)
            vb = wrap_diff(image(0, h), base)
            area = abs(va[0] * vb[1] - va[1] * vb[0]) / h ** 2
            assert area == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# stretching exponents
# ---------------------------------------------------------------------------

def test_lyapunov_values():
    assert lyapunov_exponent(0.1) == pytest.approx(0.315, abs=1e-3)
    assert lyapunov_exponent(-2.0) == 0.0
    assert lyapunov_exponent(-5.0) == pytest.approx(
        math.log((3 + math.sqrt(5)) / 2), abs=1e-12)


def test_lyapunov_branch_continuity():
    assert lyapunov_exponent(1e-6) < 2e-3
    assert lyapunov_exponent(-4.0 - 1e-6) < 2e-3


def test_lyapunov_numeric_matches_closed_form():
    for K in (0.1, 1.0):
        lam = lyapunov_exponent(K)
        est = lyapunov_numeric(K, steps=3000)
        assert abs(est - lam) / lam < 0.05


def test_orbit_separation_grows_at_lyapunov_rate():
    # chaotic twin orbits at tiny kick noise separate like e^(lambda t)
    K = 0.1
    lam = lyapunov_exponent(K)
    seed = PhasePoint(2.0, 0.5)
    base = poincare_section([seed], K, 400)[0]
    pert = perturbed_trajectory(seed, K, 1e-6, 400)
    dist = torus_distance(base, pert)
    mask = (dist > 1e-5) & (dist < 1e-1)
    ts = np.nonzero(mask)[0]
    slope = np.polyfit(ts, np.log(dist[ts]), 1)[0]
    assert abs(slope - lam) / lam < 0.15


def test_island_separation_stays_small():
    K = -0.5
    seed = PhasePoint(PI + 1.0, 0.0)
    base = poincare_section([seed], K, 1000)[0]
    pert = perturbed_trajectory(seed, K, 1e-6, 1000)
    dist = torus_distance(base, pert)
    assert dist.max() < 1e-2


# ---------------------------------------------------------------------------
# island diagnostics
# ---------------------------------------------------------------------------

def test_island_frequency_values():
    # the harmonic island frequency sqrt(-K) / 2pi, which criterion 11
    # checks on the quantum packet, is the orbit's as K -> 0-; the two
    # differ by about -K/24 relatively
    for K, rel in ((-0.01, 1e-3), (-0.1, 1e-2), (-0.5, 3e-2)):
        assert island_rotation(K) / (2 * PI) == pytest.approx(
            math.sqrt(-K) / (2 * PI), rel=rel)


def test_island_rotation_number():
    # exact per-step rotation of the linearized island: cos w = 1 + K/2
    for K in (-0.5, -2.0, -3.5):
        assert island_rotation(K) == pytest.approx(math.acos(1 + K / 2), abs=1e-12)


def test_frequency_shift_values():
    # K -> K + deltaK shifts the island frequency by
    # deltaK / (4pi sqrt(-K) sqrt(1 + K/4)) to first order in deltaK; the
    # harmonic estimate deltaK / (4pi sqrt(-K)) is its limit as K -> 0-
    for K, deltaK in ((-0.05, 1e-4), (-0.5, 4e-3), (-1.0, 1e-2)):
        measured = (island_rotation(K) - island_rotation(K + deltaK)) / (2 * PI)
        harmonic = deltaK / (4 * PI * math.sqrt(-K))
        assert measured == pytest.approx(harmonic / math.sqrt(1 + K / 4), rel=1e-2)


# ---------------------------------------------------------------------------
# sections and perturbed trajectories
# ---------------------------------------------------------------------------

def test_poincare_fixed_seed_constant():
    out = poincare_section([PhasePoint(PI, 0.0)], -0.5, 50)
    assert len(out) == 1
    assert np.allclose(out[0][:, 0], PI, atol=1e-12)
    assert np.allclose(out[0][:, 1], 0.0, atol=1e-12)


def test_poincare_island_vs_diffusive():
    island, diffusive = poincare_section(
        [PhasePoint(PI + 1.0, 0.0), PhasePoint(0.05, 0.0)], -0.5, 5000)
    d_island = np.abs((island[:, 0] - PI + PI) % (2 * PI) - PI)
    assert d_island.max() < 1.5
    assert np.std(diffusive[:, 1]) > 1.0


def test_poincare_chaotic_seed_explores_torus():
    (traj,) = poincare_section([PhasePoint(1.0, 0.3)], 0.5, 40000)
    cells_theta = np.floor(traj[:, 0] / (2 * PI) * 12).astype(int)
    cells_p = np.floor((traj[:, 1] + PI) / (2 * PI) * 12).astype(int)
    occupied = len(set(zip(cells_theta.tolist(), cells_p.tolist())))
    assert occupied >= 0.95 * 144


def test_poincare_rejects_negative_steps():
    with pytest.raises(ValueError):
        poincare_section([PhasePoint(1.0, 0.0)], 0.5, -1)


@pytest.mark.parametrize("steps", [0, -3])
def test_lyapunov_numeric_rejects_steps_below_one(steps):
    # the estimate averages over the steps: zero steps would divide by
    # zero, and a negative count would return -0.0 without a word
    with pytest.raises(ValueError, match="steps must be >= 1"):
        lyapunov_numeric(0.1, steps=steps)


def test_poincare_matches_per_seed_steps():
    # the section steps all seeds as one array; each orbit equals its
    # seed stepped alone, bit for bit, and zero steps give the seeds
    seeds = [PhasePoint(th, p) for th, p in DEFAULT_POINCARE_SEEDS]
    for K in (-0.5, 0.1, 2.0, -5.0):
        for steps in (0, 1, 1000):
            section = poincare_section(seeds, K, steps)
            assert len(section) == len(seeds)
            for seed, orbit in zip(seeds, section):
                expected = [(seed.theta, seed.p)]
                theta, p = seed.theta, seed.p
                for _ in range(steps):
                    theta, p = step_array(theta, p, K)
                    expected.append((theta, p))
                assert np.array_equal(orbit, np.array(expected))


def test_kick_noise_schedule():
    # the kick-noise source of the experiments, in K units
    lattice = LatticeParams(n_q=6, K=0.7)

    def schedule(seed):
        config = ExperimentConfig(lattice=lattice, channel="classical",
                                  delta_K=2e-3, master_seed=seed)
        chunks = noise_blocks(config, [0], (), itertools.repeat(1))
        return np.array([next(chunks)[0, 0] for _ in range(500)]) * lattice.T

    vals = schedule(11)
    assert vals.shape == (500,)
    assert np.abs(vals).max() <= 2e-3 * (1 + 1e-12)
    assert np.array_equal(vals, schedule(11))
    assert not np.array_equal(vals, schedule(12))


def test_torus_distance_wraps():
    a = np.array([[0.1, -3.1]])
    b = np.array([[2 * PI - 0.1, 3.1]])
    d = torus_distance(a, b)
    # both coordinates differ by ~0.2 across the seam, not ~6
    assert d[0] == pytest.approx(math.hypot(0.2, 2 * PI - 6.2), abs=1e-9)

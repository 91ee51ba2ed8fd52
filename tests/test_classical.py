"""Classical map: stepping, stability diagnostics, perturbed orbits."""

import math

import numpy as np
import pytest

from sawtoothsim.classical import (
    ClassicalParams,
    PhasePoint,
    frequency_shift,
    island_frequency,
    island_rotation_number,
    lyapunov_exponent,
    lyapunov_numeric,
    poincare_section,
    step_array,
    step_classical,
    torus_distance,
    trajectory,
)
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


# ---------------------------------------------------------------------------
# stepping and torus bookkeeping
# ---------------------------------------------------------------------------

def test_fixed_point():
    for K in (-3.0, -0.5, 0.1, 1.0, 5.0):
        out = step_classical(PhasePoint(PI, 0.0), ClassicalParams(K=K))
        assert out.theta == pytest.approx(PI, abs=1e-15)
        assert out.p == pytest.approx(0.0, abs=1e-15)


def test_direct_evaluation():
    out = step_classical(PhasePoint(PI + 0.1, 0.0), ClassicalParams(K=1.0))
    assert out.p == pytest.approx(0.1, abs=1e-12)
    assert out.theta == pytest.approx(PI + 0.2, abs=1e-12)


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
        params = ClassicalParams(K=K)
        for _ in range(10):
            th = rng.uniform(0.5, 2 * PI - 0.5)
            p = rng.uniform(-2.0, 2.0)

            def image(dth, dp):
                pt = step_classical(PhasePoint(th + dth, p + dp), params)
                return np.array([pt.theta, pt.p])

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


def test_lyapunov_accepts_params_or_number():
    assert lyapunov_exponent(ClassicalParams(K=0.1)) == lyapunov_exponent(0.1)


def test_lyapunov_branch_continuity():
    assert lyapunov_exponent(1e-6) < 2e-3
    assert lyapunov_exponent(-4.0 - 1e-6) < 2e-3


def test_lyapunov_numeric_matches_closed_form():
    for K in (0.1, 1.0):
        lam = lyapunov_exponent(K)
        est = lyapunov_numeric(ClassicalParams(K=K), steps=3000)
        assert abs(est - lam) / lam < 0.05


def test_orbit_separation_grows_at_lyapunov_rate():
    # chaotic twin orbits at tiny kick noise separate like e^(lambda t)
    K = 0.1
    lam = lyapunov_exponent(K)
    seed = PhasePoint(2.0, 0.5)
    base = trajectory(seed, ClassicalParams(K=K), 400)
    pert = perturbed_trajectory(seed, K, 1e-6, 400)
    dist = torus_distance(base, pert)
    mask = (dist > 1e-5) & (dist < 1e-1)
    ts = np.nonzero(mask)[0]
    slope = np.polyfit(ts, np.log(dist[ts]), 1)[0]
    assert abs(slope - lam) / lam < 0.15


def test_island_separation_stays_small():
    K = -0.5
    seed = PhasePoint(PI + 1.0, 0.0)
    base = trajectory(seed, ClassicalParams(K=K), 1000)
    pert = perturbed_trajectory(seed, K, 1e-6, 1000)
    dist = torus_distance(base, pert)
    assert dist.max() < 1e-2


# ---------------------------------------------------------------------------
# island diagnostics
# ---------------------------------------------------------------------------

def test_island_frequency_values():
    assert island_frequency(ClassicalParams(K=-0.5)) == pytest.approx(
        math.sqrt(0.5) / (2 * PI), abs=1e-9)
    assert island_frequency(ClassicalParams(K=-4.0)) == pytest.approx(
        1.0 / PI, abs=1e-12)


def test_island_frequency_domain():
    for K in (-math.pi ** 2, 0.0, 0.5):
        with pytest.raises(ValueError):
            island_frequency(ClassicalParams(K=K))


def test_island_rotation_number():
    # exact per-step rotation of the linearized island: cos w = 1 + K/2
    w = island_rotation_number(ClassicalParams(K=-0.5))
    assert w == pytest.approx(math.acos(0.75), abs=1e-12)


def test_frequency_shift_values():
    assert frequency_shift(ClassicalParams(K=-0.5), 4e-3) == pytest.approx(
        4.50e-4, abs=5e-7)
    assert frequency_shift(ClassicalParams(K=-1.0), 1e-2) == pytest.approx(
        7.96e-4, abs=5e-7)
    assert frequency_shift(ClassicalParams(K=-0.5), 0.0) == 0.0


def test_frequency_shift_domain():
    for K in (0.0, 0.5, -4.0, -5.0):
        with pytest.raises(ValueError):
            frequency_shift(ClassicalParams(K=K), 1e-3)


# ---------------------------------------------------------------------------
# sections and perturbed trajectories
# ---------------------------------------------------------------------------

def test_poincare_fixed_seed_constant():
    out = poincare_section([PhasePoint(PI, 0.0)], ClassicalParams(K=-0.5), 50)
    assert len(out) == 1
    assert np.allclose(out[0][:, 0], PI, atol=1e-12)
    assert np.allclose(out[0][:, 1], 0.0, atol=1e-12)


def test_poincare_island_vs_diffusive():
    params = ClassicalParams(K=-0.5)
    island, diffusive = poincare_section(
        [PhasePoint(PI + 1.0, 0.0), PhasePoint(0.05, 0.0)], params, 5000)
    d_island = np.abs((island[:, 0] - PI + PI) % (2 * PI) - PI)
    assert d_island.max() < 1.5
    assert np.std(diffusive[:, 1]) > 1.0


def test_poincare_chaotic_seed_explores_torus():
    params = ClassicalParams(K=0.5)
    (traj,) = poincare_section([PhasePoint(1.0, 0.3)], params, 40000)
    cells_theta = np.floor(traj[:, 0] / (2 * PI) * 12).astype(int)
    cells_p = np.floor((traj[:, 1] + PI) / (2 * PI) * 12).astype(int)
    occupied = len(set(zip(cells_theta.tolist(), cells_p.tolist())))
    assert occupied >= 0.95 * 144


def test_poincare_rejects_zero_steps():
    with pytest.raises(ValueError):
        poincare_section([PhasePoint(1.0, 0.0)], ClassicalParams(K=0.5), 0)


def test_kick_noise_schedule():
    # the kick-noise source of the experiments, in K units
    lattice = LatticeParams(n_q=6, K=0.7)

    def schedule(seed):
        config = ExperimentConfig(lattice=lattice, channel="classical",
                                  delta_K=2e-3, master_seed=seed)
        blocks = noise_blocks(config, [0], ())
        return np.array([next(blocks)[0] for _ in range(500)]) * lattice.T

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


def test_stable_classifier():
    assert ClassicalParams(K=-2.0).stable
    assert ClassicalParams(K=0.0).stable
    assert ClassicalParams(K=-4.0).stable
    assert not ClassicalParams(K=0.1).stable
    assert not ClassicalParams(K=-4.5).stable

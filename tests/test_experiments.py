"""Fidelity experiments: curves, decay fits, time scales, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawtoothsim import streams
from sawtoothsim.experiments import (
    DEFAULT_FIT_WINDOW,
    ExperimentConfig,
    FidelityCurve,
    FitError,
    NoCrossingError,
    TfRecord,
    classical_error_regimes,
    collapse_constant,
    estimate_tf,
    fidelity_curve,
    fit_decay,
    saturation_window,
    scattering_fidelity,
    sweep_rate_vs_K,
    sweep_tf,
)
from sawtoothsim.propagator import BatchPropagator
from sawtoothsim.states import LatticeParams, WavePacketSpec, packet_amplitudes


def synthetic_curve(t, f):
    t = np.asarray(t, float)
    f = np.asarray(f, float)
    return FidelityCurve(t=t, f=f, f_err=np.zeros_like(f))


# ---------------------------------------------------------------------------
# decay fits on synthetic data
# ---------------------------------------------------------------------------

class TestFitDecay:
    def test_recovers_exponential_rate(self):
        t = np.arange(0, 400)
        fit = fit_decay((t, np.exp(-0.05 * t)), "exponential")
        assert fit.model == "exponential"
        assert abs(fit.rate - 0.05) < 1e-9
        assert fit.r_squared > 0.9999
        assert fit.rate_stderr < 1e-9

    def test_recovers_gaussian_rate(self):
        t = np.arange(0, 200)
        fit = fit_decay((t, np.exp(-((t / 30.0) ** 2))), "gaussian")
        assert fit.model == "gaussian"
        assert abs(fit.rate - 1.0 / 900.0) < 1e-12
        assert fit.r_squared > 0.9999

    def test_accepts_curve_object(self):
        t = np.arange(0, 300)
        curve = synthetic_curve(t, np.exp(-0.02 * t))
        fit = fit_decay(curve, "exponential")
        assert abs(fit.rate - 0.02) < 1e-9

    def test_window_restricts_points(self):
        t = np.arange(0, 400)
        f = np.exp(-0.05 * t)
        wide = fit_decay((t, f), "exponential", window=(0.1, 0.9))
        narrow = fit_decay((t, f), "exponential", window=(0.3, 0.7))
        assert narrow.n_points < wide.n_points
        assert abs(narrow.rate - 0.05) < 1e-9
        assert narrow.window == (0.3, 0.7)

    def test_flat_curve_raises(self):
        t = np.arange(0, 100)
        with pytest.raises(FitError):
            fit_decay((t, np.ones_like(t, dtype=float)), "exponential")

    def test_min_points_enforced(self):
        # f = exp(-0.5 t) has only four integer steps inside [0.1, 0.9]
        t = np.arange(0, 12)
        f = np.exp(-0.5 * t)
        with pytest.raises(FitError):
            fit_decay((t, f), "exponential", min_points=5)
        fit = fit_decay((t, f), "exponential", min_points=3)
        assert abs(fit.rate - 0.5) < 1e-9

    def test_unknown_model_rejected(self):
        t = np.arange(0, 100)
        with pytest.raises(ValueError):
            fit_decay((t, np.exp(-0.05 * t)), "cubic")

    def test_intercept_absorbs_transient(self):
        # a prefactor A < 1 shifts -log f by a constant; the slope is
        # untouched because the intercept is free
        t = np.arange(0, 400)
        fit = fit_decay((t, 0.8 * np.exp(-0.03 * t)), "exponential")
        assert abs(fit.rate - 0.03) < 1e-9
        assert abs(fit.intercept - (-math.log(0.8))) < 1e-9


# ---------------------------------------------------------------------------
# characteristic decay time
# ---------------------------------------------------------------------------

class TestEstimateTf:
    def test_exponential_crossing(self):
        t = np.arange(0, 2000)
        curve = synthetic_curve(t, np.exp(-0.01 * t))
        rec = estimate_tf(curve, A=0.9)
        assert abs(rec.t_f - (-math.log(0.9) / 0.01)) < 0.01
        assert rec.n_q is None and rec.epsilon is None
        assert rec.collapse is None

    def test_no_crossing_raises(self):
        t = np.arange(0, 50)
        curve = synthetic_curve(t, np.full(50, 0.95))
        with pytest.raises(NoCrossingError):
            estimate_tf(curve, A=0.9)

    def test_start_below_level_raises(self):
        t = np.arange(0, 50)
        curve = synthetic_curve(t, 0.5 * np.exp(-0.01 * t))
        with pytest.raises(NoCrossingError):
            estimate_tf(curve, A=0.9)

    def test_level_validation(self):
        t = np.arange(0, 50)
        curve = synthetic_curve(t, np.exp(-0.1 * t))
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                estimate_tf(curve, A=bad)

    def test_collapse_combination(self):
        rec = TfRecord(t_f=10.0, n_q=4, epsilon=0.1)
        assert abs(rec.collapse - 10.0 * 0.1 ** 2 * 4 ** 2) < 1e-15

    def test_collapse_constant_mean(self):
        recs = [TfRecord(t_f=10.0, n_q=4, epsilon=0.1),
                TfRecord(t_f=40.0, n_q=4, epsilon=0.05)]
        expected = 0.5 * (10.0 * 0.01 * 16 + 40.0 * 0.0025 * 16)
        assert abs(collapse_constant(recs) - expected) < 1e-12
        with pytest.raises(ValueError):
            collapse_constant([TfRecord(t_f=1.0)])


# ---------------------------------------------------------------------------
# fidelity curves
# ---------------------------------------------------------------------------

class TestFidelityCurve:
    def test_shape_and_range(self):
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=4, K=0.5), channel="quantum",
            epsilon=0.05, t_max=30, n_noise=4, master_seed=3)
        curve = fidelity_curve(config)
        assert curve.f[0] == 1.0
        assert curve.t.shape == (31,)
        assert curve.member_f.shape == (4, 31)
        assert np.all(curve.f >= 0.0) and np.all(curve.f <= 1.0)
        assert np.all(curve.f_err >= 0.0)

    def test_quantum_null_noise_is_flat(self):
        for regime in ("memoryless", "static"):
            config = ExperimentConfig(
                lattice=LatticeParams(n_q=4, K=1.0), channel="quantum",
                epsilon=0.0, regime=regime, t_max=200, master_seed=1)
            curve = fidelity_curve(config)
            assert np.max(np.abs(curve.f - 1.0)) < 1e-12

    def test_classical_null_noise_is_flat(self):
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=6, K=0.5), channel="classical",
            delta_K=0.0, t_max=300, master_seed=1)
        curve = fidelity_curve(config)
        assert np.max(np.abs(curve.f - 1.0)) < 1e-12

    def test_reproducible_and_seed_sensitive(self):
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=4, K=0.5), channel="quantum",
            epsilon=0.03, t_max=15, n_noise=3, master_seed=11)
        a = fidelity_curve(config)
        b = fidelity_curve(config)
        assert np.array_equal(a.member_f, b.member_f)
        c = fidelity_curve(
            ExperimentConfig(
                lattice=LatticeParams(n_q=4, K=0.5), channel="quantum",
                epsilon=0.03, t_max=15, n_noise=3, master_seed=12))
        assert not np.array_equal(a.member_f, c.member_f)

    @settings(max_examples=12, deadline=None)
    @given(channel=st.sampled_from(["quantum", "classical"]),
           regime=st.sampled_from(["memoryless", "static"]),
           initial=st.sampled_from(["random", "gaussian"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_members_stable_under_ensemble_growth(self, channel, regime,
                                                  initial, seed):
        # growing n_states appends members without touching earlier rows
        base = dict(channel=channel, regime=regime, initial=initial,
                    theta0=None, epsilon=0.03 if channel == "quantum" else 0.0,
                    delta_K=0.05 if channel == "classical" else 0.0,
                    t_max=8, n_noise=2, master_seed=seed)
        small = fidelity_curve(ExperimentConfig(
            lattice=LatticeParams(n_q=4, K=0.5), n_states=1, **base))
        large = fidelity_curve(ExperimentConfig(
            lattice=LatticeParams(n_q=4, K=0.5), n_states=3, **base))
        assert np.array_equal(large.member_f[:2], small.member_f)

    def test_static_differs_from_memoryless(self):
        kwargs = dict(lattice=LatticeParams(n_q=4, K=0.5), channel="quantum",
                      epsilon=0.05, t_max=10, master_seed=5)
        static = fidelity_curve(ExperimentConfig(regime="static", **kwargs))
        fresh = fidelity_curve(ExperimentConfig(regime="memoryless", **kwargs))
        assert not np.allclose(static.f, fresh.f)

    def test_error_bar_shrinks_with_ensemble(self):
        def mean_err(n_noise):
            config = ExperimentConfig(
                lattice=LatticeParams(n_q=5, K=0.5), channel="quantum",
                epsilon=0.03, t_max=40, n_noise=n_noise, master_seed=19)
            return float(np.mean(fidelity_curve(config).f_err[5:]))

        ratio = mean_err(32) / mean_err(8)
        # quadrupling the ensemble should halve the standard error
        assert 0.3 < ratio < 0.75

    def test_one_step_decrement_matches_gate_rate_law(self):
        # a single noisy step should shave off roughly C * eps^2 * n_g with
        # the same constant the long-time exponential fit produces, so the
        # nominal one-step value exp(-0.28 * eps^2 * n_g) = 0.9876 has to sit
        # inside the draw-to-draw spread of a 200-member ensemble
        n_q, eps = 12, 1e-2
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=n_q, K=0.1), channel="quantum",
            epsilon=eps, initial="gaussian", theta0=1.0, p0=0.0,
            t_max=1, n_noise=200, master_seed=324)
        f1 = fidelity_curve(config).member_f[:, 1]
        n_g = 3 * n_q**2 + n_q
        nominal = math.exp(-0.28 * eps**2 * n_g)
        assert f1.min() < nominal < f1.max()
        assert abs(f1.mean() - nominal) < 2.0 * f1.std(ddof=1)
        c_eff = -math.log(f1.mean()) / (eps**2 * n_g)
        assert 0.20 <= c_eff <= 0.36

    def test_config_validation(self):
        lat = LatticeParams(n_q=4, K=0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat, channel="thermal")
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat, initial="plane")
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat, t_max=0)
        with pytest.raises(ValueError):
            ExperimentConfig(lattice=lat, n_states=0)
        # regime applies to both channels and has exactly two values
        for channel in ("quantum", "classical"):
            with pytest.raises(ValueError):
                ExperimentConfig(lattice=lat, channel=channel, regime="bogus")
        for bad in (-1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                ExperimentConfig(lattice=lat, epsilon=bad)
            with pytest.raises(ValueError):
                ExperimentConfig(lattice=lat, channel="classical", delta_K=bad)


# ---------------------------------------------------------------------------
# regime classification for kick noise
# ---------------------------------------------------------------------------

class TestClassicalErrorRegimes:
    def test_zero_amplitude_gives_trivial_record(self):
        (rec,) = classical_error_regimes(
            0.5, [0.0], n_q=4, n_states=1, bootstrap=0)
        assert rec.regime == "none"
        assert rec.model == "none"
        assert rec.rate == 0.0
        assert math.isnan(rec.r_squared)
        assert rec.window == ()

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            classical_error_regimes(0.5, [-1e-3], n_q=4)

    def test_regime_boundaries(self):
        (fgr,) = classical_error_regimes(
            0.1, [3e-3], n_q=10, n_states=20, bootstrap=0, master_seed=2)
        assert fgr.regime == "fgr"
        assert fgr.delta_k < 1.0
        assert fgr.window == DEFAULT_FIT_WINDOW
        assert fgr.rate > 0

        (isl,) = classical_error_regimes(
            -0.5, [0.03], n_q=6, n_states=1, n_noise=32, bootstrap=0,
            master_seed=2)
        assert isl.regime == "island"
        assert isl.r2_exponential is not None
        assert isl.r2_gaussian is not None
        assert isl.rate > 0

    def test_saturated_fit_needs_dynamic_range(self):
        # between the fast noise shoulder (f ~ 0.08) and the finite-N
        # floor (~16/N) only a couple of steps survive at 2^10 levels;
        # the fit refuses rather than extrapolate from them
        with pytest.raises(FitError):
            classical_error_regimes(
                0.1, [0.2], n_q=10, n_states=20, bootstrap=0, master_seed=2)

    def test_strong_noise_rate_saturates(self):
        # at 2^12 levels these amplitudes all exceed one momentum
        # level per step, so the fitted rate stops following the
        # amplitude and sits at the stretching exponent of the map
        recs = classical_error_regimes(
            0.1, [3e-3, 5e-3, 7.5e-3], n_q=12, n_states=25, bootstrap=0,
            master_seed=4)
        assert all(r.regime == "lyapunov" for r in recs)
        assert all(r.window == saturation_window(LatticeParams(n_q=12, K=0.1))
                   for r in recs)
        lam = recs[0].lyapunov
        for r in recs:
            assert 0.5 * lam < r.rate < 1.6 * lam
        slope = np.polyfit(np.log([r.delta_K for r in recs]),
                           np.log([r.rate for r in recs]), 1)[0]
        assert slope < 1.0  # far below the perturbative exponent 2


# ---------------------------------------------------------------------------
# island decay shapes
# ---------------------------------------------------------------------------

def island_pair_fidelity(n_q, detunings, t_max):
    """f(t) between exact island evolution and fixed-detuning twins."""
    lattice = LatticeParams(n_q=n_q, K=-0.5)
    psi = packet_amplitudes(WavePacketSpec(theta0=1.0, p0=0.0), lattice)
    m = len(detunings)
    ideal = np.tile(psi, (m, 1))
    pert = ideal.copy()
    prop = BatchPropagator(lattice)
    dks = np.asarray(detunings, float)
    f = np.empty((m, t_max + 1))
    f[:, 0] = 1.0
    for t in range(1, t_max + 1):
        ideal = prop.step(ideal)
        pert = prop.step(pert, dks)
        f[:, t] = np.abs(np.sum(ideal.conj() * pert, axis=1)) ** 2
    return np.arange(t_max + 1), f


class TestIslandDecayShape:
    def test_single_frozen_detuning_decays_gaussian(self):
        # one fixed detuning shifts the island frequency, so the twin
        # packets separate ballistically and the overlap is Gaussian
        lattice = LatticeParams(n_q=10, K=-0.5)
        t, f = island_pair_fidelity(10, [3e-3 / lattice.T], 1400)
        exp_fit = fit_decay((t, f[0]), "exponential")
        gauss_fit = fit_decay((t, f[0]), "gaussian")
        assert gauss_fit.r_squared > exp_fit.r_squared
        assert gauss_fit.r_squared > 0.98

    def test_static_kick_regime_is_a_frozen_detuning(self):
        # regime="static" on the classical channel freezes one detuning
        # per member: the curve is the fixed-detuning pair fidelity at
        # that member's first kick-noise draw
        lattice = LatticeParams(n_q=8, K=-0.5)
        config = ExperimentConfig(
            lattice=lattice, channel="classical", delta_K=0.03,
            regime="static", theta0=1.0, p0=0.0, t_max=200, master_seed=4)
        dk_max = config.delta_K / lattice.T
        frozen = streams.stream(4, streams.DOMAIN_CLASSICAL, 0).uniform(
            -dk_max, dk_max)
        _, f = island_pair_fidelity(8, [frozen], 200)
        static = fidelity_curve(config)
        assert np.max(np.abs(static.member_f[0] - f[0])) < 1e-12
        fresh = fidelity_curve(replace(config, regime="memoryless"))
        assert np.max(np.abs(static.f - fresh.f)) > 1e-3

    def test_detuning_mixture_masks_gaussian(self):
        # averaging Gaussians of different widths fattens the tail;
        # on the standard window the exponential model then wins even
        # though every member is individually Gaussian
        lattice = LatticeParams(n_q=10, K=-0.5)
        rng = np.random.default_rng(5)
        dk_max = 8e-3 / lattice.T
        t, f = island_pair_fidelity(
            10, rng.uniform(-dk_max, dk_max, 20), 500)
        mean_f = f.mean(axis=0)
        exp_fit = fit_decay((t, mean_f), "exponential")
        gauss_fit = fit_decay((t, mean_f), "gaussian")
        assert exp_fit.r_squared > gauss_fit.r_squared


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

class TestSweeps:
    def test_tf_quarter_under_epsilon_doubling(self):
        recs = sweep_tf([5], [0.02, 0.04], K=5.0, n_noise=10, master_seed=3)
        by_eps = {r.epsilon: r.t_f for r in recs}
        ratio = by_eps[0.02] / by_eps[0.04]
        assert 3.0 < ratio < 5.3

    def test_tf_grid_coordinates(self):
        recs = sweep_tf([4, 5], [0.05], K=5.0, n_noise=4, master_seed=3)
        assert [(r.n_q, r.epsilon) for r in recs] == [(4, 0.05), (5, 0.05)]
        assert all(r.collapse is not None for r in recs)

    def test_parallel_matches_serial(self):
        # two points, so two workers run when two cores are available
        serial = sweep_tf([4], [0.05, 0.06], K=5.0, n_noise=4, master_seed=9,
                          jobs=1)
        parallel = sweep_tf([4], [0.05, 0.06], K=5.0, n_noise=4,
                            master_seed=9, jobs=2)
        assert [r.t_f for r in serial] == [r.t_f for r in parallel]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            sweep_tf([4], [0.05], K=5.0, n_noise=2, jobs=0)

    def test_rate_sweep_records(self):
        recs = sweep_rate_vs_K(
            [0.5], n_q=5, epsilon=0.1, kinds=("diffusive", "random"),
            n_noise=4, t_max=40, master_seed=3)
        assert [(r.K, r.kind) for r in recs] == [(0.5, "diffusive"),
                                                (0.5, "random")]
        for r in recs:
            assert r.rate > 0
            assert 0.0 < r.r_squared <= 1.0

    def test_saturation_window_scales_with_lattice(self):
        lo8, hi8 = saturation_window(LatticeParams(n_q=8, K=1.0))
        lo10, _ = saturation_window(LatticeParams(n_q=10, K=1.0))
        assert abs(lo8 - 16.0 / 256.0) < 1e-15
        assert abs(hi8 - 0.08) < 1e-15
        assert lo10 < lo8


# ---------------------------------------------------------------------------
# scattering-circuit fidelity
# ---------------------------------------------------------------------------

class TestScatteringFidelity:
    def quantum_config(self, **over):
        kwargs = dict(lattice=LatticeParams(n_q=5, K=0.5), channel="quantum",
                      epsilon=0.02, t_max=6, n_states=2, n_noise=2,
                      initial="random", master_seed=21)
        kwargs.update(over)
        return ExperimentConfig(**kwargs)

    def test_zero_steps_is_identity(self):
        # echo with no steps returns the input state; only norm
        # roundoff separates the result from one
        assert abs(scattering_fidelity(self.quantum_config(), 0) - 1.0) < 1e-12

    def test_null_noise_is_identity(self):
        config = self.quantum_config(epsilon=0.0)
        assert abs(scattering_fidelity(config, 5) - 1.0) < 1e-12

    def test_matches_overlap_curve_per_member(self):
        config = self.quantum_config()
        curve = fidelity_curve(config)
        for member in range(config.n_members):
            fs = scattering_fidelity(config, 4, member=member)
            assert abs(fs - curve.member_f[member, 4]) < 1e-10

    def test_matches_overlap_curve_classical(self):
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=6, K=0.5), channel="classical",
            delta_K=0.05, t_max=6, n_states=1, n_noise=3, master_seed=8)
        curve = fidelity_curve(config)
        for member in range(3):
            fs = scattering_fidelity(config, 5, member=member)
            assert abs(fs - curve.member_f[member, 5]) < 1e-10

    def test_sampled_near_analytic(self):
        config = self.quantum_config()
        exact = scattering_fidelity(config, 4)
        sampled = scattering_fidelity(config, 4, mode="sampled", shots=4000)
        assert abs(sampled - exact) < 0.1

    def test_sampled_reproducible(self):
        config = self.quantum_config()
        a = scattering_fidelity(config, 3, mode="sampled", shots=500)
        b = scattering_fidelity(config, 3, mode="sampled", shots=500)
        assert a == b

    def test_input_validation(self):
        config = self.quantum_config()
        with pytest.raises(ValueError):
            scattering_fidelity(config, -1)
        with pytest.raises(ValueError):
            scattering_fidelity(config, 2, mode="weak")
        with pytest.raises(ValueError):
            scattering_fidelity(config, 2, mode="sampled", shots=0)
        for member in (-1, config.n_members):
            with pytest.raises(ValueError):
                scattering_fidelity(config, 2, member=member)

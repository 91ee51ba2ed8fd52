"""Fidelity experiments: curves, decay fits, time scales, sweeps."""

import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawtoothsim.experiments as ex
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
from sawtoothsim.circuit import CircuitEngine
from sawtoothsim.propagator import BatchPropagator
from sawtoothsim.states import LatticeParams, WavePacketSpec, packet_amplitudes


def synthetic_curve(t, f):
    """One-member curve f(t), labelled as a gate-noise run at n_q = 4."""
    t = np.asarray(t, float)
    f = np.asarray(f, float)
    config = ExperimentConfig(lattice=LatticeParams(n_q=4, K=0.5),
                              epsilon=0.02, t_max=len(t) - 1)
    return FidelityCurve(t=t, f=f, f_err=np.zeros_like(f),
                         member_f=f[None, :], config=config)


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
        rec = estimate_tf(curve)
        assert abs(rec.t_f - (-math.log(0.9) / 0.01)) < 0.01
        assert rec.n_q == 4 and rec.epsilon == 0.02
        assert rec.collapse == rec.t_f * 0.02 ** 2 * 4 ** 2

    def test_no_crossing_raises(self):
        t = np.arange(0, 50)
        curve = synthetic_curve(t, np.full(50, 0.95))
        with pytest.raises(NoCrossingError):
            estimate_tf(curve)

    def test_start_below_level_raises(self):
        t = np.arange(0, 50)
        curve = synthetic_curve(t, 0.5 * np.exp(-0.01 * t))
        with pytest.raises(NoCrossingError):
            estimate_tf(curve)

    def test_collapse_combination(self):
        rec = TfRecord(t_f=10.0, n_q=4, epsilon=0.1)
        assert abs(rec.collapse - 10.0 * 0.1 ** 2 * 4 ** 2) < 1e-15

    def test_collapse_constant_mean(self):
        recs = [TfRecord(t_f=10.0, n_q=4, epsilon=0.1),
                TfRecord(t_f=40.0, n_q=4, epsilon=0.05)]
        expected = 0.5 * (10.0 * 0.01 * 16 + 40.0 * 0.0025 * 16)
        assert abs(collapse_constant(recs) - expected) < 1e-12
        with pytest.raises(ValueError):
            collapse_constant([])

    def test_collapse_constant_skips_failed_points(self):
        recs = [TfRecord(t_f=10.0, n_q=4, epsilon=0.1),
                TfRecord(t_f=math.nan, n_q=5, epsilon=0.1)]
        assert collapse_constant(recs) == collapse_constant(recs[:1])
        with pytest.raises(ValueError):
            collapse_constant(recs[1:])


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

    def test_oversized_register_refused_before_allocating(self):
        # 2^40 amplitudes per member need terabytes: both entry points
        # refuse up front, quoting the estimate and the physical memory
        config = ExperimentConfig(lattice=LatticeParams(n_q=40, K=0.5),
                                  epsilon=0.01, t_max=2, n_noise=3)
        tracemalloc.start()
        try:
            for call in (lambda: fidelity_curve(config),
                         lambda: scattering_fidelity(config, 1, member=2)):
                with pytest.raises(ValueError, match="n_q=40 needs about"):
                    call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

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
        # a non-finite packet center would give a NaN curve
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("theta0", "p0"):
                with pytest.raises(ValueError):
                    ExperimentConfig(lattice=lat, **{name: bad})

    def test_unselected_channel_amplitude_refused(self):
        # each channel would ignore the other's amplitude, giving the
        # noiseless curve of that amplitude without a word
        lat = LatticeParams(n_q=4, K=0.5)
        with pytest.raises(ValueError, match="quantum channel ignores delta_K"):
            ExperimentConfig(lattice=lat, channel="quantum", delta_K=0.5)
        with pytest.raises(ValueError, match="classical channel ignores epsilon"):
            ExperimentConfig(lattice=lat, channel="classical", epsilon=0.01,
                             delta_K=0.5)
        ExperimentConfig(lattice=lat, channel="quantum", epsilon=0.01,
                         delta_K=0.0)
        ExperimentConfig(lattice=lat, channel="classical", epsilon=0.0,
                         delta_K=0.5)

    def test_p0_needs_theta0(self):
        # without theta0 every Gaussian packet gets a random center, so
        # a p0 would be ignored; random states ignore both
        lat = LatticeParams(n_q=4, K=0.5)
        with pytest.raises(ValueError, match="p0 needs theta0"):
            ExperimentConfig(lattice=lat, theta0=None, p0=0.3)
        ExperimentConfig(lattice=lat, theta0=None)
        ExperimentConfig(lattice=lat, initial="random", theta0=None, p0=0.3)
        # with theta0 set, an unset p0 is the packet at p = 0
        common = dict(lattice=lat, epsilon=0.05, t_max=6, n_noise=2)
        unset = fidelity_curve(ExperimentConfig(theta0=2.0, **common))
        zero = fidelity_curve(ExperimentConfig(theta0=2.0, p0=0.0, **common))
        assert np.array_equal(unset.member_f, zero.member_f)


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
        (rec,) = classical_error_regimes(
            0.1, [0.2], n_q=10, n_states=20, bootstrap=0, master_seed=2)
        assert rec.regime == "lyapunov"
        assert rec.model == "none"
        assert all(math.isnan(v)
                   for v in (rec.rate, rec.rate_stderr, rec.r_squared))

    def test_unfittable_point_keeps_the_others(self):
        # 1e-5 leaves f above the fit window for all eight steps; the
        # point before it keeps its record
        recs = classical_error_regimes(
            0.1, [5e-2, 1e-5], n_q=6, n_states=4, n_noise=1, t_max=8,
            bootstrap=0)
        (alone,) = classical_error_regimes(
            0.1, [5e-2], n_q=6, n_states=4, n_noise=1, t_max=8, bootstrap=0)
        assert recs[0] == alone
        assert math.isfinite(alone.rate)
        assert math.isnan(recs[1].rate) and math.isnan(recs[1].r_squared)
        assert recs[1].delta_K == 1e-5

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

    def test_sweeps_refuse_nonpositive_epsilon(self, monkeypatch):
        # the step count of both sweeps scales as 1 / epsilon^2: a zero
        # or negative amplitude is refused before any point runs
        def no_point(config):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(ex, "fidelity_curve", no_point)
        for eps_list in ([0.0], [0.05, 0.0], [-0.01]):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                sweep_tf([4], eps_list, K=5.0, n_noise=2)
        for eps in (0.0, -0.01):
            for t_max in (None, 20):
                with pytest.raises(ValueError, match="epsilon must be > 0"):
                    sweep_rate_vs_K([0.5], n_q=4, epsilon=eps, n_noise=2,
                                    t_max=t_max)

    def test_rate_sweep_records(self):
        recs = sweep_rate_vs_K(
            [0.5], n_q=5, epsilon=0.1, kinds=("diffusive", "random"),
            n_noise=4, t_max=40, master_seed=3)
        assert [(r.K, r.kind) for r in recs] == [(0.5, "diffusive"),
                                                (0.5, "random")]
        for r in recs:
            assert r.rate > 0
            assert 0.0 < r.r_squared <= 1.0

    def test_unfittable_rate_point_keeps_the_others(self, monkeypatch, caplog):
        # the K = 1.0 point cannot be fitted: the sweep still returns all
        # three points, that one with NaN rate and r^2, the others as
        # they come out of a sweep where every point fits
        args = dict(n_q=5, epsilon=0.1, kinds=("random",), n_noise=4,
                    t_max=40, master_seed=3)
        clean = sweep_rate_vs_K([0.5, 1.0, 2.0], **args)
        real_fit = ex.fit_decay

        def fit(curve, *a, **kw):
            if curve.config.lattice.K == 1.0:
                raise FitError("no points in the window")
            return real_fit(curve, *a, **kw)

        monkeypatch.setattr(ex, "fit_decay", fit)
        recs = sweep_rate_vs_K([0.5, 1.0, 2.0], **args)
        assert [r.K for r in recs] == [0.5, 1.0, 2.0]
        assert math.isnan(recs[1].rate) and math.isnan(recs[1].r_squared)
        assert [recs[0], recs[2]] == [clean[0], clean[2]]
        assert "K=1.0" in caplog.text

    def test_short_rate_sweep_returns_failure_records(self):
        # three steps never reach five points inside the fit window
        recs = sweep_rate_vs_K([0.5], n_q=4, epsilon=0.01, kinds=("random",),
                               n_noise=2, t_max=3)
        assert len(recs) == 1 and math.isnan(recs[0].rate)

    def test_uncrossed_tf_point_keeps_the_others(self, monkeypatch, caplog):
        real_tf = ex.estimate_tf

        def tf(curve, *a, **kw):
            if curve.config.epsilon == 0.06:
                raise NoCrossingError("curve never drops below A=0.9")
            return real_tf(curve, *a, **kw)

        monkeypatch.setattr(ex, "estimate_tf", tf)
        recs = sweep_tf([4], [0.05, 0.06, 0.07], K=5.0, n_noise=4,
                        master_seed=9)
        assert [(r.n_q, r.epsilon) for r in recs] == [
            (4, 0.05), (4, 0.06), (4, 0.07)]
        assert math.isnan(recs[1].t_f)
        assert recs[0].t_f > 0 and recs[2].t_f > 0
        assert collapse_constant(recs) == collapse_constant([recs[0], recs[2]])
        assert "epsilon=0.06" in caplog.text

    def test_saturation_window_scales_with_lattice(self):
        lo8, hi8 = saturation_window(LatticeParams(n_q=8, K=1.0))
        lo10, _ = saturation_window(LatticeParams(n_q=10, K=1.0))
        assert abs(lo8 - 16.0 / 256.0) < 1e-15
        assert abs(hi8 - 0.08) < 1e-15
        assert lo10 < lo8


# ---------------------------------------------------------------------------
# row slices on threads
# ---------------------------------------------------------------------------

def _slice_workers_here(_):
    """Sweep point reporting its process and its slice count."""
    return os.getpid(), ex._slice_workers


# a curve that splits leaves the slice pool alive in this process; the
# sweep then forks its workers, and a child forked by hand splits too
FORKED_SWEEP = """
import os
import sawtoothsim.experiments as ex
from sawtoothsim.experiments import (
    ExperimentConfig, classical_error_regimes, fidelity_curve)
from sawtoothsim.states import LatticeParams

ex._slice_workers = 2
curve = ExperimentConfig(lattice=LatticeParams(n_q=12, K=0.1),
                         channel="classical", delta_K=0.05, theta0=None,
                         t_max=2, n_states=32)
fidelity_curve(curve)
assert ex._slice_pool is not None
kwargs = dict(n_q=12, n_states=32, t_max=20, bootstrap=20, master_seed=4)
serial = classical_error_regimes(0.1, [3e-2, 5e-2], jobs=1, **kwargs)
forked = classical_error_regimes(0.1, [3e-2, 5e-2], jobs=2, **kwargs)
assert repr(forked) == repr(serial), (serial, forked)
if hasattr(os, "fork"):
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fidelity_curve(curve)
            code = 0
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
print("done")
"""


class TestRowSlices:
    @pytest.mark.parametrize("shape, slices", [
        ((15, 4096), [15]),         # below two slices of 2^16 amplitudes
        ((50, 512), [50]),
        ((40, 4096), [20, 20]),
        ((33, 4096), [16, 17]),
        ((200, 4096), [50, 50, 50, 50]),  # at most one slice per worker
        ((3, 1 << 17), [1, 1, 1]),  # at most one slice per row
    ])
    def test_slices_follow_the_rule(self, monkeypatch, shape, slices):
        monkeypatch.setattr(ex, "_slice_workers", 4)
        seen = []

        def step(rows, params):
            seen.append(len(rows))
            return rows + params[:, None]

        block = np.zeros(shape)
        params = np.arange(float(shape[0]))
        out = ex._step_in_slices(step, block, params)
        assert sorted(seen) == slices
        assert np.array_equal(out, np.broadcast_to(params[:, None], shape))
        if len(slices) > 1:
            assert out is block  # written back in place

    def test_slice_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ex, "_slice_workers", 2)

        def step(rows, params):
            if rows[0, 0] != 0.0:
                raise RuntimeError("second slice")
            return rows

        block = np.zeros((32, 4096))
        block[16:] = 1.0
        with pytest.raises(RuntimeError, match="second slice"):
            ex._step_in_slices(step, block)

    @pytest.mark.parametrize("channel, regime, n_states, n_noise", [
        ("quantum", "memoryless", 32, 1),  # both branches split
        ("classical", "memoryless", 32, 1),
        ("classical", "memoryless", 33, 1),  # slices of 16 and 17 rows
        ("quantum", "memoryless", 1, 35),
        ("quantum", "static", 3, 11),
        ("classical", "static", 11, 3),
    ])
    def test_split_curve_equals_serial(self, monkeypatch, channel, regime,
                                       n_states, n_noise):
        # forcing two workers runs the threaded path on one CPU too
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=12, K=0.1), channel=channel,
            regime=regime, epsilon=1e-2 if channel == "quantum" else 0.0,
            delta_K=0.05 if channel == "classical" else 0.0, theta0=None,
            t_max=3, n_states=n_states, n_noise=n_noise, master_seed=17)
        stepped = []
        for cls, name in ((BatchPropagator, "step"),
                          (CircuitEngine, "step_noisy")):
            def counted(self, amps, *args, _step=getattr(cls, name)):
                stepped.append(len(amps))
                return _step(self, amps, *args)

            monkeypatch.setattr(cls, name, counted)
        member_f = {}
        for workers in (1, 2):
            stepped.clear()
            monkeypatch.setattr(ex, "_slice_workers", workers)
            member_f[workers] = fidelity_curve(config).member_f
            whole = config.n_members in stepped
            assert whole == (workers == 1)
        assert np.array_equal(member_f[2], member_f[1])

    def test_sweep_workers_step_in_one_slice(self):
        parent = os.getpid()
        seen = ex._run_points(_slice_workers_here, [0, 1], 2)
        assert all(workers == 1 for pid, workers in seen if pid != parent)

    def test_forked_sweep_finishes_and_matches_serial(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ex.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        # its own session, so a hang is killed with every process it forked
        proc = subprocess.Popen([sys.executable, "-c", FORKED_SWEEP], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the forked sweep did not finish in 120 s")
        assert proc.returncode == 0, err
        assert out.split() == ["done"]


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

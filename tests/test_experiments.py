"""Fidelity experiments: curves, decay fits, time scales, sweeps."""

import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, replace
from itertools import product, repeat

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
from sawtoothsim.circuit import (
    PARAMS_PER_GATE,
    CircuitEngine,
    build_sawtooth_circuit,
)
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

    # member_f[:, 1:] of two members over six steps at n_q = 5, K = 0.7,
    # master seed 3, frozen when the gate program still held two
    # bit-reversal markers: they pin which draw lands on which gate,
    # which neither the noiseless check nor the per-gate reference sees
    FROZEN_MEMBERS = {
        ("quantum", "memoryless"): (
            (0.954493318805277, 0.9049820435285431, 0.8827815474159751,
             0.8691997994645241, 0.8011766444141781, 0.7341247754255447),
            (0.9785147620619197, 0.9422369831081786, 0.8942824952999983,
             0.8750710056880584, 0.8452857347715459, 0.7887839555673329)),
        ("quantum", "static"): (
            (0.954493318805277, 0.9147279214482654, 0.8746917050502464,
             0.8453212557930595, 0.7969058021492912, 0.7262063554718524),
            (0.9785147620619197, 0.9374157248795533, 0.9086898014933305,
             0.8460771319349435, 0.7939212132326585, 0.7684203584620082)),
        ("classical", "memoryless"): (
            (0.9993922707647055, 0.9996587292832926, 0.9890411030526779,
             0.9854471811480657, 0.9699592835549142, 0.963472988060936),
            (0.99985357720145, 0.9986740643996558, 0.9986687202421556,
             0.996655459199667, 0.9937835926754391, 0.9887887284050151)),
        ("classical", "static"): (
            (0.9993922707647055, 0.9991228169836084, 0.9945255515057884,
             0.9917245888893891, 0.9885682411635242, 0.9830855270987877),
            (0.99985357720145, 0.9997883245102804, 0.9986800204926642,
             0.9979965434684752, 0.9972250968207751, 0.9958832821140136)),
    }

    @pytest.mark.parametrize("channel, regime", list(FROZEN_MEMBERS))
    def test_member_curves_frozen(self, channel, regime):
        amplitude = (dict(epsilon=0.05) if channel == "quantum"
                     else dict(delta_K=0.02))
        curve = fidelity_curve(ExperimentConfig(
            lattice=LatticeParams(n_q=5, K=0.7), channel=channel,
            regime=regime, t_max=6, n_noise=2, master_seed=3, **amplitude))
        frozen = np.array(self.FROZEN_MEMBERS[channel, regime])
        assert np.max(np.abs(curve.member_f[:, 1:] - frozen)) <= 1e-12

    @pytest.mark.parametrize("n_q", [10, 12, 14, 16])
    def test_first_step_infidelity_ignores_the_dynamics(self, n_q):
        # quantum errors ignore the dynamics from the first step: one
        # noisy step's infidelity per eps^2 and noisy gate, C1, lies in
        # criterion 04's band for the constant that whole curves fit at
        # n_q 6-12; 0.24-0.28 over seeds 0-2, standard errors <= 0.01
        epsilon = 1e-2
        lattice = LatticeParams(n_q=n_q, K=0.1)
        curve = fidelity_curve(ExperimentConfig(
            lattice=lattice, epsilon=epsilon, initial="random", t_max=1,
            n_noise=32))
        n_g = build_sawtooth_circuit(lattice).noisy_gate_count
        c1 = np.mean(1.0 - curve.member_f[:, 1]) / (epsilon ** 2 * n_g)
        assert 0.20 <= c1 <= 0.36, c1

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

    @pytest.mark.parametrize("channel", ["quantum", "classical"])
    def test_memory_estimate_bounds_the_peak(self, monkeypatch, channel):
        # at n_q = 16 the amplitude rows outweigh every fixed cost; the
        # rows the guard asks for bound what a curve holds at its peak,
        # the lattice's first compile included, with 1 and 4 members (one
        # ideal row per member or one for two): one kick member builds
        # its kick tables a chunk of steps at a time, every other branch
        # steps one step at a time on noise drawn a chunk at a time
        lattice = LatticeParams(n_q=16, K=0.1)
        amplitude = {"epsilon": 1e-3} if channel == "quantum" else {
            "delta_K": 1e-3}
        estimates = []
        monkeypatch.setattr(ex, "_require_memory",
                            lambda lattice, rows: estimates.append(rows))
        for n_states, n_noise in ((1, 1), (4, 1), (2, 2)):
            config = ExperimentConfig(
                lattice=lattice, channel=channel, theta0=None, t_max=3,
                n_states=n_states, n_noise=n_noise, **amplitude)
            ex._engine.cache_clear()
            estimates.clear()
            tracemalloc.start()
            try:
                fidelity_curve(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            (rows,) = estimates
            assert peak < rows * lattice.N * 16

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
        assert math.isnan(fgr.rate_stderr)  # no bootstrap, no spread

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

    # static kick noise on the island packet at n_q = 10: 25 members,
    # delta_k = delta_K / T = 0.25, each member frozen at its first
    # draw. Over master seeds 0-19, a member with |delta_k| < 0.003
    # stayed above f = 0.9 for all 1000 steps (4 of 500, on 4 seeds;
    # seed 0 has none). On the 16 other seeds every member fitted a
    # Gaussian (r^2 >= 0.9988, above its exponential r^2), beta =
    # rate / delta_k^2 deviated from the seed's median by at most 0.62%
    # (median member 0.2%), and the ensemble mean stayed within 0.0068
    # of the mean of the members' fitted Gaussians. Both bounds are 0.01
    @pytest.fixture(scope="class")
    def static_island(self):
        lattice = LatticeParams(n_q=10, K=-0.5)
        config = ExperimentConfig(
            lattice=lattice, channel="classical", delta_K=0.25 * lattice.T,
            regime="static", theta0=1.0, p0=0.0, t_max=1000, n_noise=25)
        curve = fidelity_curve(config)
        dk_max = config.delta_K / lattice.T
        delta_k = np.array([
            streams.stream(0, streams.DOMAIN_CLASSICAL, m).uniform(-dk_max,
                                                                   dk_max)
            for m in range(config.n_members)])
        fits = [fit_decay((curve.t, f), "gaussian") for f in curve.member_f]
        return curve, delta_k, fits

    def test_static_members_share_one_gaussian_rate(self, static_island):
        curve, delta_k, fits = static_island
        for f, fit in zip(curve.member_f, fits):
            assert fit.r_squared > 0.995
            assert fit.r_squared > fit_decay((curve.t, f),
                                             "exponential").r_squared
        beta = np.array([fit.rate for fit in fits]) / delta_k ** 2
        assert np.max(np.abs(beta / np.median(beta) - 1.0)) < 0.01

    def test_static_mean_is_the_mean_of_member_gaussians(self, static_island):
        curve, _, fits = static_island
        t = curve.t.astype(float)
        own = np.mean([np.exp(-(fit.rate * t ** 2 + fit.intercept))
                       for fit in fits], axis=0)
        assert np.max(np.abs(curve.f - own)) < 0.01

    def test_one_magnitude_random_sign_mean_stays_gaussian(self):
        # members frozen at +delta_k or -delta_k share one Gaussian
        # width, so their mean is no mixture. Over sign draws 0-19 of
        # 20 members at delta_k = 0.25 the mean curve fitted a Gaussian
        # at r^2 0.9988 and an exponential at 0.9716-0.9717
        rng = np.random.default_rng(0)
        signs = rng.choice([-1.0, 1.0], 20)
        t, f = island_pair_fidelity(10, 0.25 * signs, 200)
        mean_f = f.mean(axis=0)
        gauss_fit = fit_decay((t, mean_f), "gaussian")
        exp_fit = fit_decay((t, mean_f), "exponential")
        assert gauss_fit.r_squared > 0.995
        assert gauss_fit.r_squared - exp_fit.r_squared > 0.02


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

    def test_parallel_matches_serial(self, monkeypatch):
        # two usable CPUs, so every sweep forks two workers and each of
        # its measures, a function or a partial of one, has to pickle;
        # the regime sweep has an unfittable point
        monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
        sweeps = [
            lambda jobs: sweep_tf([4], [0.05, 0.06], K=5.0, n_noise=4,
                                  master_seed=9, jobs=jobs),
            lambda jobs: sweep_rate_vs_K(
                [0.5, -0.5], n_q=4, epsilon=0.1, n_noise=3, t_max=30,
                master_seed=3, jobs=jobs),
            lambda jobs: classical_error_regimes(
                0.1, [5e-2, 1e-5], n_q=6, n_states=4, t_max=8,
                bootstrap=10, jobs=jobs),
        ]
        for sweep in sweeps:
            serial = sweep(1)
            assert repr(sweep(2)) == repr(serial)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            sweep_tf([4], [0.05], K=5.0, n_noise=2, jobs=0)

    def test_sweeps_refuse_nonpositive_epsilon(self, monkeypatch):
        # the step count of all three sweeps scales as 1 / amplitude^2:
        # a zero or negative amplitude is refused before any point runs
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
        for dK_list in ([0.0], [3e-2, 0.0], [-1e-3]):
            for K in (0.1, -0.5):  # chaotic and island regimes
                with pytest.raises(ValueError, match="delta_K must be > 0"):
                    classical_error_regimes(K, dK_list, n_q=4, n_states=2)
        # an amplitude whose rate underflows to 0 sets no step count
        with pytest.raises(ValueError, match="epsilon = 1e-170 is too small"):
            sweep_tf([4], [1e-170], K=5.0, n_noise=2)
        with pytest.raises(ValueError, match="epsilon = 1e-170 is too small"):
            sweep_rate_vs_K([0.5], n_q=4, epsilon=1e-170, n_noise=2,
                            t_max=None)
        with pytest.raises(ValueError, match="delta_K = 1e-170 is too small"):
            classical_error_regimes(0.1, [1e-170], n_q=4)

    @pytest.mark.parametrize("delta_K", [1e-7, 1e-160])
    def test_tiny_fgr_rate_reaches_the_step_cap(self, monkeypatch, delta_K):
        # a rate 0 < 0.2 delta_k^2 < 1e-12 still sizes its point: the
        # span reaches the 30000-step cap
        configs = []

        def capture(config):
            configs.append(config)
            raise FitError("captured")

        monkeypatch.setattr(ex, "fidelity_curve", capture)
        delta_k = delta_K / LatticeParams(n_q=4, K=0.1).T
        assert 0.0 < 0.2 * delta_k ** 2 < 1e-12
        (rec,) = classical_error_regimes(0.1, [delta_K], n_q=4, n_states=2)
        assert rec.regime == "fgr" and math.isnan(rec.rate)
        assert [c.t_max for c in configs] == [30000]

    # the records of four tiny sweeps, frozen before the trivial
    # delta_K = 0 record left the regime sweep; they pin the point-seed
    # offsets, the t_max rules, the fit windows and the bootstrap. The
    # regime sweep covers an unfittable point and the island branch
    FROZEN_SWEEPS = {
        "tf": (
            (3.3499962344224303, 4, 0.05),
            (0.9304203492384614, 4, 0.1),
            (2.169280494435121, 5, 0.05),
            (0.6788523096762265, 5, 0.1)),
        "rate": (
            (0.5, "island", 0.0896721981927648, 0.9706617667211681),
            (0.5, "diffusive", 0.14104883010840977, 0.9483891690162927),
            (0.5, "random", 0.08896390459604644, 0.7813538202575399),
            (-0.5, "island", 0.10391582428553493, 0.9749538122735015),
            (-0.5, "diffusive", 0.12058166877736773, 0.9240887123527126),
            (-0.5, "random", 0.09562275553376597, 0.9585814465044621)),
        "regimes": (
            (0.05, 0.5092958178940651, "fgr", "exponential",
             0.16144787714666126, 0.044691342901241785, 0.7633894996914563,
             0.7633894996914563, 0.7568673223836367, (0.1, 0.9),
             0.314924756603848),
            (1e-05, 0.00010185916357881303, "fgr", "none", math.nan,
             math.nan, math.nan, None, None, (0.1, 0.9), 0.314924756603848)),
        "island": (
            (0.03, 0.30557749073643903, "island", "gaussian",
             1.600823148391379e-05, math.nan, 0.9170199660546794,
             0.8712390809710712, 0.9170199660546794, (0.1, 0.9), 0.0),),
    }

    @pytest.mark.parametrize("sweep", list(FROZEN_SWEEPS))
    def test_sweep_records_frozen(self, sweep):
        run = {
            "tf": lambda: sweep_tf([4, 5], [0.05, 0.1], K=5.0, n_noise=4,
                                   master_seed=9),
            "rate": lambda: sweep_rate_vs_K(
                [0.5, -0.5], n_q=4, epsilon=0.1, n_noise=3, t_max=30,
                master_seed=3),
            "regimes": lambda: classical_error_regimes(
                0.1, [5e-2, 1e-5], n_q=6, n_states=4, t_max=8, bootstrap=10),
            "island": lambda: classical_error_regimes(
                -0.5, [3e-2], n_q=6, n_states=1, n_noise=8, t_max=200,
                bootstrap=0),
        }[sweep]
        records = [astuple(r) for r in run()]
        frozen = self.FROZEN_SWEEPS[sweep]
        assert len(records) == len(frozen)
        for record, want in zip(records, frozen):
            assert len(record) == len(want)
            for got, value in zip(record, want):
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got), (record, want)
                elif isinstance(value, float):
                    assert got == pytest.approx(value, rel=1e-9, abs=0.0), \
                        (record, want)
                else:
                    assert got == value, (record, want)

    def test_bad_grid_refused_before_any_point_runs(self, monkeypatch):
        # every config is built before the first point runs, so a NaN
        # K or amplitude late in the grid stops the sweep before the
        # valid points ahead of it
        def no_point(config):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(ex, "fidelity_curve", no_point)
        with pytest.raises(ValueError, match="K must be finite"):
            sweep_rate_vs_K([0.5, math.nan], n_q=4, epsilon=0.1, n_noise=2)
        for K in (0.1, -0.5):  # chaotic and island regimes
            with pytest.raises(ValueError, match="delta_K must be finite"):
                classical_error_regimes(K, [1e-3, math.nan], n_q=4,
                                        n_states=2)

    def test_rate_sweep_records(self):
        recs = sweep_rate_vs_K([0.5], n_q=5, epsilon=0.1, n_noise=4,
                               t_max=40, master_seed=3)
        assert [(r.K, r.kind) for r in recs] == [(0.5, "island"),
                                                (0.5, "diffusive"),
                                                (0.5, "random")]
        for r in recs:
            assert r.rate > 0
            assert 0.0 < r.r_squared <= 1.0

    def test_unfittable_rate_point_keeps_the_others(self, monkeypatch, caplog):
        # the K = 1.0 points cannot be fitted: the sweep still returns
        # all nine points, those three with NaN rate and r^2, the others
        # as they come out of a sweep where every point fits
        args = dict(n_q=5, epsilon=0.1, n_noise=4, t_max=40, master_seed=3)
        clean = sweep_rate_vs_K([0.5, 1.0, 2.0], **args)
        real_fit = ex.fit_decay

        def fit(curve, *a, **kw):
            if curve.config.lattice.K == 1.0:
                raise FitError("no points in the window")
            return real_fit(curve, *a, **kw)

        monkeypatch.setattr(ex, "fit_decay", fit)
        recs = sweep_rate_vs_K([0.5, 1.0, 2.0], **args)
        assert [r.K for r in recs] == [0.5] * 3 + [1.0] * 3 + [2.0] * 3
        assert all(math.isnan(r.rate) and math.isnan(r.r_squared)
                   for r in recs[3:6])
        assert recs[:3] + recs[6:] == clean[:3] + clean[6:]
        assert "K=1.0" in caplog.text

    def test_short_rate_sweep_returns_failure_records(self):
        # three steps never reach five points inside the fit window
        recs = sweep_rate_vs_K([0.5], n_q=4, epsilon=0.01, n_noise=2,
                               t_max=3)
        assert len(recs) == 3 and all(math.isnan(r.rate) for r in recs)

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

def _slice_workers_here(curve):
    """Sweep measure reporting its process and its slice count."""
    return os.getpid(), ex._slice_workers


def _pid_points(count):
    """``count`` one-step sweep points whose measure is the above."""
    config = ExperimentConfig(lattice=LatticeParams(n_q=3, K=0.5),
                              epsilon=0.01, t_max=1)
    return [(config, _slice_workers_here, None)] * count


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
        # a step with no arrays, with one, and with two, the second an
        # output buffer it writes per row (the form of fidelity_curve's
        # ideal step); each call gets its slice's rows of every array
        monkeypatch.setattr(ex, "_slice_workers", 4)
        seen = []
        params = np.arange(float(shape[0]))

        def bare(rows):
            seen.append(len(rows))
            return rows + 1.0

        def one(rows, params):
            seen.append(len(rows))
            return rows + params[:, None]

        def two(rows, params, out):
            seen.append((len(rows), len(params), len(out)))
            out[:] = rows[:, 0] - params  # read before the step
            rows += params[:, None]
            return rows  # in place

        for step, arrays, expected in (
                (bare, (), np.ones(shape)),
                (one, (params,), np.broadcast_to(params[:, None], shape))):
            seen.clear()
            block = np.zeros(shape)
            out = ex._step_in_slices(step, block, *arrays)
            assert sorted(seen) == slices
            assert np.array_equal(out, expected)
            if len(slices) > 1:
                assert out is block  # written back in place

        seen.clear()
        block, buffer = np.ones(shape), np.full(shape[0], np.nan)
        out = ex._step_in_slices(two, block, params, buffer)
        assert sorted(seen) == [(n, n, n) for n in slices]
        assert out is block
        assert np.array_equal(block, 1.0 + np.broadcast_to(params[:, None],
                                                           shape))
        assert np.array_equal(buffer, 1.0 - params)

    def test_slice_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ex, "_slice_workers", 2)

        def step(rows):
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

    def test_sweep_workers_step_in_one_slice(self, monkeypatch):
        # two usable CPUs, so both points run in forked workers
        monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
        seen = ex._run_points(_pid_points(2), 2)
        assert all(pid != os.getpid() and workers == 1
                   for pid, workers in seen)

    def test_sweep_workers_fit_the_affinity_mask(self, monkeypatch):
        # a process pinned to one of two CPUs runs every point itself
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        seen = ex._run_points(_pid_points(2), 2)
        assert [pid for pid, _ in seen] == [os.getpid()] * 2

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


def chunk_config(n_q, regime="memoryless", members=1, steps=11, seed=4):
    """Gate noise on ``members`` draws of one random state."""
    return ExperimentConfig(lattice=LatticeParams(n_q=n_q, K=0.3),
                            epsilon=0.03, regime=regime, initial="random",
                            t_max=steps, n_noise=members, master_seed=seed)


def chunk_sizes(monkeypatch):
    """Steps of every chunk whose factors the engine builds, in order."""
    sizes = []
    build = CircuitEngine.step_factors

    def recorded(self, params):
        sizes.append(len(params))
        return build(self, params)

    monkeypatch.setattr(CircuitEngine, "step_factors", recorded)
    return sizes


def one_step_chunks(config, members, shape):
    """The noise of ``members``, one (members,) + shape block per step."""
    return (chunk[0] for chunk in ex.noise_blocks(config, members, shape,
                                                  repeat(1)))


def gate_entries(engine):
    """A member's phase-table entries and noise parameters per step."""
    return engine.table_entries, math.prod(engine.param_shape)


def recorded_draws(monkeypatch, domain):
    """Uniforms drawn from each member's stream in ``domain``, by member."""
    drawn = {}
    stream = streams.stream

    class Recorded:
        def __init__(self, rng, member):
            self.rng, self.member = rng, member

        def uniform(self, low, high, size):
            out = self.rng.uniform(low, high, size)
            drawn.setdefault(self.member, []).append(np.ravel(out))
            return out

    def recorded(master_seed, *path):
        rng = stream(master_seed, *path)
        return Recorded(rng, path[1]) if path[0] == domain else rng

    monkeypatch.setattr(streams, "stream", recorded)
    return drawn


class TestStepChunks:
    """Gate-noise steps built a chunk at a time, against step by step."""

    @pytest.mark.parametrize("n_q", range(1, 11))
    def test_chunks_equal_per_step_path(self, monkeypatch, n_q):
        # 11 steps run as chunks of 3 + 3 + 3 + 2 (a static branch builds
        # its one draw once); every yielded block equals step_noisy on
        # the per-step draws of the same streams
        sizes = chunk_sizes(monkeypatch)
        for members, regime in product((1, 3, 7), ("memoryless", "static")):
            config = chunk_config(n_q, regime, members)
            engine = CircuitEngine(build_sawtooth_circuit(config.lattice))
            start = np.repeat(ex._initial_block(config, [0]), members, axis=0)
            monkeypatch.setattr(ex, "_KICK_TILE_AMPS",
                                3 * members * max(gate_entries(engine)))
            sizes.clear()
            chunked = [b.copy() for b in ex.perturbed_branch(
                config, BatchPropagator(config.lattice), start.copy(),
                range(members), 11)]
            assert sizes == ([3, 3, 3, 2] if regime == "memoryless" else [1])

            draws = one_step_chunks(config, range(members), (
                engine.program.noisy_gate_count, PARAMS_PER_GATE))
            block = start.copy()
            assert len(chunked) == 11
            for got in chunked:
                block = engine.step_noisy(block, next(draws))
                assert np.array_equal(got, block)

    @pytest.mark.parametrize("regime", ["memoryless", "static"])
    def test_curve_equals_per_step_curve(self, monkeypatch, regime):
        # 12 members at n_q = 6 step in chunks of 11, 11, 11 and 7 steps,
        # or (with the budget one entry short of one step) step by step
        config = replace(chunk_config(6, regime, 4, steps=40), n_states=3,
                         initial="gaussian", theta0=None)
        sizes = chunk_sizes(monkeypatch)
        chunked = fidelity_curve(config).member_f
        assert sizes == ([11, 11, 11, 7] if regime == "memoryless" else [1])
        sizes.clear()
        per_step = max(gate_entries(ex._engine(config.lattice)))
        monkeypatch.setattr(ex, "_KICK_TILE_AMPS", 12 * per_step - 1)
        assert np.array_equal(fidelity_curve(config).member_f, chunked)
        assert sizes == []

    def test_chunked_blocks_never_slice(self):
        # a step's tables hold at least N entries per member, so a block
        # whose one step fits the budget is below two slices; step_factors
        # builds table_entries per member and step, in either channel
        for n_q in range(1, 15):
            lattice = LatticeParams(n_q=n_q, K=0.1)
            engine = CircuitEngine(build_sawtooth_circuit(lattice))
            prop = BatchPropagator(lattice)
            N = 1 << n_q
            assert engine.table_entries >= N and prop.table_entries == N
            for members in (1, 2, 3, 7, 25, 50, 200):
                for entries in (gate_entries(engine), (N, 1)):
                    if ex._chunk_steps(members, *entries):
                        assert members * N // ex._KICK_TILE_AMPS < 2
            params = np.zeros((2, 3, engine.program.noisy_gate_count,
                               PARAMS_PER_GATE))
            _, _, runs = engine.step_factors(params)
            assert sum(f[0].size for run in runs for f in run) == (
                3 * engine.table_entries)
            assert prop.step_factors(np.zeros((2, 3))).size == (
                2 * 3 * prop.table_entries)

    @pytest.mark.parametrize("forced", [False, True])
    def test_each_step_draws_its_own_uniforms(self, monkeypatch, forced):
        # 0, 1, S - 1, S and S + 1 steps (S = 20 for 7 members at n_q = 6)
        # draw steps x n_g x 4 uniforms per member, chunked or (forced)
        # step by step; a static branch draws one step's
        memoryless = chunk_config(6, members=7)
        engine = CircuitEngine(build_sawtooth_circuit(memoryless.lattice))
        per_step = engine.program.noisy_gate_count * PARAMS_PER_GATE
        S = ex._chunk_steps(7, *gate_entries(engine))
        assert S == 20
        if forced:
            monkeypatch.setattr(ex, "_KICK_TILE_AMPS", 7 * per_step - 1)
        drawn = recorded_draws(monkeypatch, streams.DOMAIN_GATE)
        start = np.repeat(ex._initial_block(memoryless, [0]), 7, axis=0)
        for regime, steps in product(("memoryless", "static"),
                                     (0, 1, S - 1, S, S + 1)):
            drawn.clear()
            config = replace(memoryless, regime=regime)
            yielded = sum(1 for _ in ex.perturbed_branch(
                config, BatchPropagator(config.lattice), start.copy(),
                range(7), steps))
            assert yielded == steps
            once = steps if regime == "memoryless" else min(steps, 1)
            assert {m: sum(map(len, d)) for m, d in drawn.items()} == {
                m: once * per_step for m in range(7) if once}

    def test_per_step_path_draws_in_chunks(self, monkeypatch):
        # with S = 0 forced, 3 members at n_q = 11 draw the parameters of
        # D = 4 steps per call: at 0, 1, D - 1, D, D + 1 and 9 steps a
        # member makes ceil(steps / D) calls (one in the static regime)
        # for steps x n_g x 4 uniforms (one step's), and every yielded
        # block equals step_noisy on per-step draws of the raw streams
        members, D = 3, 4
        memoryless = chunk_config(11, members=members)
        engine = ex._engine(memoryless.lattice)
        entries, per_step = gate_entries(engine)
        monkeypatch.setattr(ex, "_KICK_TILE_AMPS", D * members * per_step)
        assert ex._chunk_steps(members, entries, per_step) == 0
        sizes = chunk_sizes(monkeypatch)
        drawn = recorded_draws(monkeypatch, streams.DOMAIN_GATE)
        start = np.repeat(ex._initial_block(memoryless, [0]), members, axis=0)
        shape = (engine.program.noisy_gate_count, PARAMS_PER_GATE)
        for regime, steps in product(("memoryless", "static"),
                                     (0, 1, D - 1, D, D + 1, 9)):
            config = replace(memoryless, regime=regime)
            drawn.clear()
            got = [b.copy() for b in ex.perturbed_branch(
                config, BatchPropagator(config.lattice), start.copy(),
                range(members), steps)]
            assert len(got) == steps and sizes == []
            once = steps if regime == "memoryless" else min(steps, 1)
            calls = -(-steps // D) if regime == "memoryless" else once
            assert sorted(drawn) == (list(range(members)) if once else [])
            for m in drawn:
                assert len(drawn[m]) == calls
                assert sum(map(len, drawn[m])) == once * per_step

            rngs = [streams.stream(4, streams.DOMAIN_GATE, m)
                    for m in range(members)]
            block = start.copy()
            for t, pert in enumerate(got):
                if t == 0 or regime == "memoryless":
                    params = np.stack([rng.uniform(-0.03, 0.03, shape)
                                       for rng in rngs])
                block = engine.step_noisy(block, params)
                assert np.array_equal(pert, block)

    @pytest.mark.parametrize("channel", ["quantum", "classical"])
    def test_param_shape_is_the_drawn_and_built_shape(self, monkeypatch,
                                                      channel):
        # each engine's param_shape is the per-step shape of the noise
        # perturbed_branch draws for it and the per-step shape its
        # step_factors takes: (n_g, 4) gate parameters, or one detuning
        config = chunk_config(5, members=3)
        prop = BatchPropagator(config.lattice)
        if channel == "classical":
            config = replace(config, channel="classical", epsilon=0.0,
                             delta_K=0.05)
            engine, expected = prop, ()
        else:
            engine = ex._engine(config.lattice)
            expected = (build_sawtooth_circuit(config.lattice)
                        .noisy_gate_count, PARAMS_PER_GATE)
        assert engine.param_shape == expected
        shapes = []
        blocks = ex.noise_blocks

        def recorded(config, members, shape, chunks):
            for chunk in blocks(config, members, shape, chunks):
                shapes.append(chunk.shape)
                yield chunk

        monkeypatch.setattr(ex, "noise_blocks", recorded)
        start = np.repeat(ex._initial_block(config, [0]), 3, axis=0)
        assert sum(1 for _ in ex.perturbed_branch(config, prop, start,
                                                  range(3), 5)) == 5
        assert shapes and all(s[1:] == (3, *expected) for s in shapes)
        engine.step_factors(np.zeros((2, 3, *expected)))
        with pytest.raises(ValueError, match="has shape"):
            engine.step_factors(np.zeros((2, 3, *expected, 1)))

    def test_chunked_draw_equals_per_step_draws(self):
        # in either channel, chunks of 4 and 3 steps hold the numbers of
        # 7 per-step numpy draws from each member's stream: (n_g, 4) gate
        # parameters with a = epsilon, or one kick detuning with a =
        # delta_K / T; a static source yields its first draw as a
        # one-step chunk
        gate = chunk_config(5, members=3, seed=13)
        kick = replace(gate, channel="classical", epsilon=0.0, delta_K=0.05)
        members = [0, 4, 2]
        for config, domain, a, shape in (
                (gate, streams.DOMAIN_GATE, 0.03, (
                    build_sawtooth_circuit(gate.lattice).noisy_gate_count,
                    PARAMS_PER_GATE)),
                (kick, streams.DOMAIN_CLASSICAL, 0.05 / kick.lattice.T, ())):
            rngs = [streams.stream(13, domain, m) for m in members]
            per_step = np.stack([np.stack([rng.uniform(-a, a, shape)
                                           for rng in rngs])
                                 for _ in range(7)])
            chunks = list(ex.noise_blocks(config, members, shape, [4, 3]))
            assert [c.shape for c in chunks] == [(4, 3, *shape),
                                                 (3, 3, *shape)]
            assert np.array_equal(np.concatenate(chunks), per_step)
            static = list(ex.noise_blocks(replace(config, regime="static"),
                                          members, shape, [4, 3]))
            assert static[0] is static[1]
            assert static[0].shape == (1, 3, *shape)
            assert np.array_equal(static[0][0], per_step[0])


def engine_arrays(value):
    """Every numpy array an engine holds, through its lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in engine_arrays(item)]
    if isinstance(value, CircuitEngine):
        return engine_arrays(list(vars(value).values()))
    return []


class TestEngineCache:
    """One compiled gate engine per lattice, shared by its callers."""

    def test_one_compile_per_lattice(self, monkeypatch):
        built = []
        build = ex.build_sawtooth_circuit

        def recorded(lattice):
            built.append(lattice)
            return build(lattice)

        monkeypatch.setattr(ex, "build_sawtooth_circuit", recorded)
        ex._engine.cache_clear()
        config = chunk_config(5, members=3)
        fidelity_curve(config)
        fidelity_curve(replace(config, epsilon=0.05, master_seed=5))
        scattering_fidelity(config, 4, member=2)
        assert built == [config.lattice]
        other = LatticeParams(n_q=5, K=0.4)
        assert ex._engine(other) is not ex._engine(config.lattice)
        assert ex._engine(LatticeParams(n_q=5, K=0.3)) is ex._engine(
            config.lattice)
        assert built == [config.lattice, other]

    def test_cached_engine_is_read_only(self):
        engine = ex._engine(LatticeParams(n_q=9, K=0.3))
        arrays = engine_arrays(engine)
        assert len(arrays) > 4
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    def test_cached_engine_equals_a_fresh_one(self):
        # a curve through an engine that other curves have used equals
        # the step of an engine built for it alone
        config = chunk_config(7, members=3, steps=5)
        engine = ex._engine(config.lattice)
        fidelity_curve(replace(config, regime="static"))
        cached = fidelity_curve(config).member_f
        fresh = CircuitEngine(build_sawtooth_circuit(config.lattice))
        params = np.random.default_rng(3).uniform(-0.03, 0.03, (
            2, engine.program.noisy_gate_count, PARAMS_PER_GATE))
        start = np.repeat(ex._initial_block(config, [0]), 2, axis=0)
        assert np.array_equal(engine.step_noisy(start.copy(), params),
                              fresh.step_noisy(start.copy(), params))
        ex._engine.cache_clear()
        assert np.array_equal(fidelity_curve(config).member_f, cached)
        assert ex._engine(config.lattice) is not engine


def kick_chunk_config(regime="memoryless", members=7, steps=11):
    """Kick noise on ``members`` draws of one random state."""
    return ExperimentConfig(lattice=LatticeParams(n_q=6, K=0.3),
                            channel="classical", delta_K=0.05, regime=regime,
                            initial="random", t_max=steps, n_noise=members,
                            master_seed=8)


class TestKickChunks:
    """Kick detunings drawn a chunk of steps at a time, against step by step."""

    def test_chunked_detunings_equal_per_step_draws(self, monkeypatch):
        # S = 2^16 // members steps per chunk, here forced to 5; at 0, 1,
        # S - 1, S and S + 1 steps each member draws, chunked, the
        # uniforms it draws step by step (one draw in the static regime),
        # and every yielded block equals the per-step evolution
        members, S = 7, 5
        monkeypatch.setattr(ex, "_KICK_TILE_AMPS", S * members)
        drawn = recorded_draws(monkeypatch, streams.DOMAIN_CLASSICAL)
        for regime, steps in product(("memoryless", "static"),
                                     (0, 1, S - 1, S, S + 1)):
            config = kick_chunk_config(regime, members, max(steps, 1))
            prop = BatchPropagator(config.lattice)
            start = np.repeat(ex._initial_block(config, [0]), members, axis=0)
            drawn.clear()
            chunked = [b.copy() for b in ex.perturbed_branch(
                config, prop, start.copy(), range(members), steps)]
            got = {m: np.concatenate(v) for m, v in drawn.items()}

            drawn.clear()
            per_step = one_step_chunks(config, range(members), ())
            block = start.copy()
            assert len(chunked) == steps
            for pert in chunked:
                block = prop.step(block, next(per_step))
                assert np.array_equal(pert, block)
            want = {m: np.concatenate(v) for m, v in drawn.items()}
            once = steps if regime == "memoryless" else min(steps, 1)
            assert sorted(got) == sorted(want) == (
                list(range(members)) if once else [])
            for m in want:
                assert len(got[m]) == once
                assert np.array_equal(got[m], want[m])

    @pytest.mark.parametrize("regime", ["memoryless", "static"])
    def test_curve_equals_one_step_chunks(self, monkeypatch, regime):
        # 12 members draw all 40 steps in one chunk, or (forced) one
        # step per chunk
        config = replace(kick_chunk_config(regime, 4, 40), n_states=3,
                         initial="gaussian", theta0=None)
        chunked = fidelity_curve(config).member_f
        monkeypatch.setattr(ex, "_KICK_TILE_AMPS", config.n_members)
        assert np.array_equal(fidelity_curve(config).member_f, chunked)

    @pytest.mark.parametrize("n_q", range(1, 11))
    def test_table_chunks_equal_per_step_path(self, monkeypatch, n_q):
        # a block of at most 2^16 amplitudes builds the kick tables of a
        # chunk of steps at once; with the budget forced to three steps,
        # 11 steps run as 3 + 3 + 3 + 2 (a static branch builds its one
        # table once), and every yielded block equals step on the
        # per-step draws; member_f is the same on the per-tile path
        sizes = []
        build = BatchPropagator.step_factors

        def recorded(self, delta_k):
            sizes.append(len(delta_k))
            return build(self, delta_k)

        monkeypatch.setattr(BatchPropagator, "step_factors", recorded)
        N = 1 << n_q
        for members, regime in product((1, 3, 7), ("memoryless", "static")):
            config = replace(kick_chunk_config(regime, members),
                             lattice=LatticeParams(n_q=n_q, K=0.3))
            prop = BatchPropagator(config.lattice)
            start = np.repeat(ex._initial_block(config, [0]), members, axis=0)
            monkeypatch.setattr(ex, "_KICK_TILE_AMPS", 3 * members * N)
            sizes.clear()
            chunked = [b.copy() for b in ex.perturbed_branch(
                config, prop, start.copy(), range(members), 11)]
            assert sizes == ([3, 3, 3, 2] if regime == "memoryless" else [1])

            per_step = one_step_chunks(config, range(members), ())
            block = start.copy()
            assert len(chunked) == 11
            for got in chunked:
                block = prop.step(block, next(per_step))
                assert np.array_equal(got, block)

            tables = fidelity_curve(config).member_f
            monkeypatch.setattr(ex, "_KICK_TILE_AMPS", members * N - 1)
            sizes.clear()
            assert np.array_equal(fidelity_curve(config).member_f, tables)
            assert sizes == []


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

    @pytest.mark.parametrize("mode", ["analytic", "sampled"])
    def test_zero_shots_refused_before_any_work(self, monkeypatch, mode):
        # refused before the memory guard and before any forward step
        def called(*args):
            raise AssertionError("ran before shots was checked")

        monkeypatch.setattr(ex, "perturbed_branch", called)
        monkeypatch.setattr(ex, "_require_memory", called)
        for shots in (0, -3):
            with pytest.raises(ValueError, match="shots must be >= 1"):
                scattering_fidelity(self.quantum_config(), 4, mode=mode,
                                    shots=shots)

    # (channel, regime, n_q, analytic, sampled) at t = 9 for member 3
    ECHO_VALUES = [
        ("quantum", "memoryless", 5, 0.8055295416365974, 0.7891999999999998),
        ("quantum", "memoryless", 7, 0.6314853842479897, 0.6122000000000001),
        ("quantum", "static", 5, 0.7806076305480922, 0.7634120000000002),
        ("quantum", "static", 7, 0.5494698050448553, 0.5364000000000001),
        ("classical", "memoryless", 5, 0.6522869079796004, 0.6511699999999999),
        ("classical", "memoryless", 7, 0.0022006565554552105,
         0.0024050000000000044),
        ("classical", "static", 5, 0.35406151641875344, 0.336373),
        ("classical", "static", 7, 0.001185128933639487, 0.001664000000000003),
    ]

    @pytest.mark.parametrize("channel, regime, n_q, analytic, sampled",
                             ECHO_VALUES)
    def test_echo_values_frozen(self, channel, regime, n_q, analytic, sampled):
        # values recorded before the engine was shared between calls and
        # the one-member kick tables were built a chunk at a time
        amplitude = {"epsilon": 0.03} if channel == "quantum" else {
            "delta_K": 0.05}
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=n_q, K=0.7), channel=channel,
            regime=regime, t_max=9, n_states=2, n_noise=2, initial="random",
            master_seed=31, **amplitude)
        assert abs(scattering_fidelity(config, 9, member=3) - analytic) < 1e-12
        got = scattering_fidelity(config, 9, mode="sampled", shots=2000,
                                  member=3)
        assert abs(got - sampled) < 1e-12

    @pytest.mark.parametrize("channel", ["quantum", "classical"])
    def test_memory_estimate_bounds_the_peak(self, monkeypatch, channel):
        # at n_q = 16 the amplitude rows outweigh every fixed cost; the
        # rows the guard asks for bound what an echo holds at its peak,
        # for a member of the first state and one of a later state
        lattice = LatticeParams(n_q=16, K=0.1)
        amplitude = {"epsilon": 1e-3} if channel == "quantum" else {
            "delta_K": 1e-3}
        config = ExperimentConfig(lattice=lattice, channel=channel,
                                  theta0=None, t_max=2, n_states=2,
                                  n_noise=2, **amplitude)
        estimates = []
        monkeypatch.setattr(ex, "_require_memory",
                            lambda lattice, rows: estimates.append(rows))
        for member in (0, 3):
            tracemalloc.start()
            try:
                scattering_fidelity(config, 2, member=member)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < estimates[-1] * lattice.N * 16

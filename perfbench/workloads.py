"""The four benchmark workloads.

Each workload turns the benchmark seed into library inputs (configs or
command lines), runs one repetition of its operations through the
package's public entry points, and checks the outputs.  Sizes, step
counts and ensemble shapes are fixed; the seed only moves random
values (master seeds, packet centres, K, noise amplitudes), so the cost
of a repetition does not depend on the seed.

Every call into the package goes through a module attribute
(``ex.fidelity_curve``, ``cli.main``, ...) at call time, so the traced
run can replace those attributes with timed wrappers.

Why each workload exists, and which layers it loads, is written up in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

import sawtoothsim.cli as cli
import sawtoothsim.experiments as ex
from sawtoothsim.circuit import PARAMS_PER_GATE, build_sawtooth_circuit
from sawtoothsim.states import LatticeParams

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

CHAOS_K = 0.1
LYAPUNOV_0_1 = 0.315  # closed-form stretching exponent at K = 0.1


def _noisy_gates(n_q: int) -> int:
    return build_sawtooth_circuit(LatticeParams(n_q=n_q, K=CHAOS_K)).noisy_gate_count


def _block_bytes(members: int, n_q: int) -> int:
    return members * (1 << n_q) * np.dtype(complex).itemsize


class Workload:
    """One benchmark workload.

    Attributes set by subclasses:
      ops_per_rep     operations (curves, sweep points, scattering
                      evaluations) in one repetition;
      member_steps    member-steps per repetition, counted from inputs;
      expected_draws  noise uniforms per repetition, counted from inputs;
      block_bytes     size of the largest (members, N) amplitude block.
    """

    name = ""

    def warm(self):
        """Small instance of the repetition, run before timing."""
        raise NotImplementedError

    def run(self):
        """One repetition; returns its raw outputs."""
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        """Exact text of the outputs, for bit-for-bit comparison."""
        raise NotImplementedError

    def check(self, out) -> list:
        """One failure message per failed operation of ``out``."""
        raise NotImplementedError

    def reference_values(self, out) -> list:
        """Numbers frozen in reference.json at the default seed."""
        raise NotImplementedError

    def reference_deviation(self, out) -> float:
        """Largest deviation of ``out`` from reference.json."""
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            frozen = np.array(json.load(fh)[self.name]["values"])
        values = np.array(self.reference_values(out))
        if values.shape != frozen.shape:
            return math.inf
        return float(np.max(np.abs(values - frozen)))


class GateCurve(Workload):
    """Headline gate-noise curve at n_q = 12 (circuit-bound, L3-resident)."""

    name = "gate_curve"
    N_Q, EPSILON, T_MAX, N_STATES, N_NOISE = 12, 1e-2, 2, 10, 5
    # implied constant -ln f(t) / (eps^2 n_g t) over t <= T_MAX; the
    # fitted-rate band of the exponential law is [0.20, 0.36], and the
    # short-time transient sits a little below it
    C_BAND = (0.17, 0.30)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = ex.ExperimentConfig(
            lattice=LatticeParams(n_q=self.N_Q, K=CHAOS_K), channel="quantum",
            epsilon=self.EPSILON, initial="gaussian", theta0=None,
            t_max=self.T_MAX, n_states=self.N_STATES, n_noise=self.N_NOISE,
            master_seed=seed)
        members = self.config.n_members
        self.n_g = _noisy_gates(self.N_Q)
        self.ops_per_rep = 1
        self.member_steps = members * self.T_MAX
        self.expected_draws = members * self.T_MAX * self.n_g * PARAMS_PER_GATE
        self.block_bytes = _block_bytes(members, self.N_Q)

    def warm(self):
        ex.fidelity_curve(replace(self.config, t_max=1))

    def run(self):
        return ex.fidelity_curve(self.config)

    def fingerprint(self, curve) -> str:
        return repr((curve.f.tolist(), curve.member_f.tolist()))

    def check(self, curve) -> list:
        f = curve.f
        if f.shape != (self.T_MAX + 1,) or not np.all((f >= 0.0) & (f <= 1.0)):
            return [f"gate_curve: f outside [0, 1] or wrong shape {f.shape}"]
        if self.seed == DEFAULT_SEED:
            dev = self.reference_deviation(curve)
            if not dev <= 1e-10:
                return [f"gate_curve: deviates from reference by {dev:.3e}"]
        t = curve.t[1:]
        c = -np.log(f[1:]) / (self.EPSILON ** 2 * self.n_g * t)
        lo, hi = self.C_BAND
        if not np.all((c >= lo) & (c <= hi)):
            return [f"gate_curve: implied constant {c.round(4).tolist()} "
                    f"outside [{lo}, {hi}]"]
        return []

    def reference_values(self, curve) -> list:
        return curve.f.tolist()


class GateSweepCli(Workload):
    """rate-vs-k through the CLI at n_q = 6 (dispatch-bound circuit)."""

    name = "gate_sweep_cli"
    N_Q, EPSILON, ENSEMBLE, T_MAX = 6, 3e-2, 25, 24
    POINTS = 15  # the command's default 5 values of K x 3 kinds
    MIN_R2 = 0.95

    def __init__(self, seed: int, workdir: str):
        self.out_path = os.path.join(workdir, "rate_vs_k.csv")
        self.argv = ["rate-vs-k", "--nq", str(self.N_Q),
                     "--epsilon", repr(self.EPSILON),
                     "--ensemble", str(self.ENSEMBLE),
                     "--tmax", str(self.T_MAX), "--seed", str(seed),
                     "--no-timestamp", "--out", self.out_path]
        self.ops_per_rep = self.POINTS
        self.member_steps = self.POINTS * self.ENSEMBLE * self.T_MAX
        self.expected_draws = (self.member_steps * _noisy_gates(self.N_Q)
                               * PARAMS_PER_GATE)
        self.block_bytes = _block_bytes(self.ENSEMBLE, self.N_Q)

    def _main(self, argv) -> int:
        # the command's progress line goes to a buffer, so the
        # benchmark's own stdout keeps its format
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm(self):
        # one K instead of five: three points, same code path
        if self._main(self.argv + ["--K", "0.5"]) != 0:
            raise RuntimeError("gate_sweep_cli warm-up: non-zero exit")

    def run(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        code = self._main(self.argv)
        text = None
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return code, text

    def fingerprint(self, out) -> str:
        return repr(out)

    def check(self, out) -> list:
        code, text = out
        if code != 0 or text is None:
            return [f"gate_sweep_cli: exit code {code}"] * self.POINTS
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        failures = []
        if len(rows) != self.POINTS:
            failures += [f"gate_sweep_cli: {len(rows)} CSV rows"] * (
                self.POINTS - min(len(rows), self.POINTS))
        for row in rows[:self.POINTS]:
            rate, r2 = float(row[2]), float(row[3])
            if not (rate > 0.0 and r2 > self.MIN_R2):
                failures.append(f"gate_sweep_cli: row {row} fails r2 > {self.MIN_R2}")
        return failures


class KickRegimes(Workload):
    """Criterion-06 path: kick noise at n_q = 12, 200 members, bootstrap."""

    name = "kick_regimes"
    N_Q, N_STATES, N_NOISE, BOOTSTRAP = 12, 50, 4, 200
    DELTA_KS = (3e-2, 5e-2)
    # every curve leaves the saturation window [16/N, 0.08] by t ~ 16,
    # so 20 steps give the same fit as the library default of 60
    T_MAX = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        members = self.N_STATES * self.N_NOISE
        self.ops_per_rep = len(self.DELTA_KS)
        self.member_steps = self.ops_per_rep * members * self.T_MAX
        self.expected_draws = self.member_steps
        self.block_bytes = _block_bytes(members, self.N_Q)

    def warm(self):
        # a fit needs more than one step, so warm the curve directly
        ex.fidelity_curve(ex.ExperimentConfig(
            lattice=LatticeParams(n_q=self.N_Q, K=CHAOS_K),
            channel="classical", delta_K=self.DELTA_KS[0], theta0=None,
            p0=None, t_max=1, n_states=self.N_STATES, n_noise=self.N_NOISE,
            master_seed=self.seed))

    def run(self):
        return ex.classical_error_regimes(
            CHAOS_K, list(self.DELTA_KS), n_q=self.N_Q, n_states=self.N_STATES,
            n_noise=self.N_NOISE, t_max=self.T_MAX, bootstrap=self.BOOTSTRAP,
            master_seed=self.seed)

    def fingerprint(self, records) -> str:
        return repr(records)

    def check(self, records) -> list:
        if len(records) != self.ops_per_rep:
            return [f"kick_regimes: {len(records)} records"] * self.ops_per_rep
        if self.seed == DEFAULT_SEED:
            dev = self.reference_deviation(records)
            if not dev <= 1e-10:
                return [f"kick_regimes: deviates from reference by {dev:.3e}"
                        ] * self.ops_per_rep
        failures = []
        for r in records:
            # criterion 06's band, widened by three bootstrap standard
            # errors: the bare 25% band fails on a few seeds in 40 at
            # dK = 5e-2, at the library's default t_max as well
            slack = 0.25 * LYAPUNOV_0_1 + 3.0 * r.rate_stderr
            if (r.regime != "lyapunov" or not math.isfinite(slack)
                    or not abs(r.rate - LYAPUNOV_0_1) <= slack):
                failures.append(f"kick_regimes: dK={r.delta_K} regime "
                                f"{r.regime} rate {r.rate:.4f} "
                                f"+- {r.rate_stderr:.4f}")
        return failures

    def reference_values(self, records) -> list:
        return [r.rate for r in records] + [r.rate_stderr for r in records]


class ScatterEcho(Workload):
    """Ancilla echo, analytic and sampled, on one member (criterion-10 mix)."""

    name = "scatter_echo"
    CASES, T, SHOTS = 12, 30, 10 ** 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.cases = []
        for case in range(self.CASES):
            n_q = 6 + (case // 2) % 4
            quantum = case % 2 == 0
            config = ex.ExperimentConfig(
                lattice=LatticeParams(n_q=n_q, K=float(rng.uniform(0.2, 2.0))),
                channel="quantum" if quantum else "classical",
                epsilon=float(rng.uniform(0.005, 0.05)) if quantum else 0.0,
                delta_K=0.0 if quantum else float(rng.uniform(0.01, 0.1)),
                regime="static" if case % 4 == 2 else "memoryless",
                initial="random" if case % 3 == 0 else "gaussian",
                t_max=self.T, n_states=2, n_noise=2,
                master_seed=int(rng.integers(2 ** 31)))
            self.cases.append((config, int(rng.integers(0, config.n_members))))
        self.ops_per_rep = 2 * self.CASES
        self.member_steps = self.ops_per_rep * self.T
        self.expected_draws = 0
        for config, _ in self.cases:
            if config.channel == "classical":
                self.expected_draws += 2 * self.T
            else:
                n_draws = _noisy_gates(config.lattice.n_q) * PARAMS_PER_GATE
                steps = 1 if config.regime == "static" else self.T
                self.expected_draws += 2 * steps * n_draws
        self.block_bytes = _block_bytes(1, max(c.lattice.n_q for c, _ in self.cases))
        self._direct = None

    def warm(self):
        for config, member in self.cases:
            ex.scattering_fidelity(config, 1, member=member)

    def run(self):
        out = []
        for config, member in self.cases:
            out.append(ex.scattering_fidelity(config, self.T, member=member))
            out.append(ex.scattering_fidelity(config, self.T, mode="sampled",
                                              shots=self.SHOTS, member=member))
        return out

    def fingerprint(self, values) -> str:
        return repr(values)

    def direct_overlaps(self) -> list:
        """member_f at the same draws, from the curve engine (computed once)."""
        if self._direct is None:
            self._direct = [float(ex.fidelity_curve(config).member_f[member, self.T])
                            for config, member in self.cases]
        return self._direct

    def check(self, values) -> list:
        failures = []
        margin = 3.0 / math.sqrt(self.SHOTS) + 2.0 / self.SHOTS
        for i, direct in enumerate(self.direct_overlaps()):
            analytic, sampled = values[2 * i], values[2 * i + 1]
            if not abs(analytic - direct) < 1e-12:
                failures.append(f"scatter_echo case {i}: analytic {analytic!r} "
                                f"vs overlap {direct!r}")
            # 3-sigma shot bound of the acceptance criterion
            bound = (2.0 * math.sqrt(2.0 * max(analytic, sampled))
                     + 2.0 * margin) * margin
            if not abs(sampled - analytic) <= bound:
                failures.append(f"scatter_echo case {i}: sampled {sampled:.5f} "
                                f"vs {analytic:.5f} (bound {bound:.5f})")
        return failures


WORKLOADS = {w.name: w for w in (GateCurve, GateSweepCli, KickRegimes, ScatterEcho)}

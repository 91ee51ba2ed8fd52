"""Command-line front end for the sawtooth-map fidelity experiments.

Subcommands map one-to-one onto the experiment families:

    poincare       classical phase-space sections
    lyapunov       closed-form and numeric stretching exponents
    fidelity       one ensemble fidelity curve + decay-fit summary
    tf-scan        t_f = first f(t) = 0.9 crossing over an (n_q, eps) grid
    rate-vs-k      decay rate vs K for three initial-state kinds
    circuit-check  gate-count and propagator-equivalence contracts
    scattering     ancilla-circuit fidelity at one time, analytic + sampled

Option values are resolved with precedence: command-line flag, then
config file (flat ``key = value`` lines via --config), then built-in
default.  Exit codes: 0 success, 1 configuration error, 2 runtime or
numerical contract failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import io as sio
from .circuit import build_sawtooth_circuit, circuit_deviation
from .classical import (
    ClassicalParams,
    PhasePoint,
    lyapunov_exponent,
    lyapunov_numeric,
    poincare_section,
)
from .experiments import (
    EXPONENTIAL,
    GAUSSIAN,
    ExperimentConfig,
    FitError,
    NoCrossingError,
    collapse_constant,
    fidelity_curve,
    fit_decay,
    scattering_fidelity,
    sweep_rate_vs_K,
    sweep_tf,
)
from .states import LatticeParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid option value or combination."""


# Eight sections seeds for the quasi-integrable showcase at K = -0.5:
# six ellipses of growing radius inside the main island, one orbit on
# the secondary structure near its border, one seed in the diffusive
# region (it crosses the force discontinuity and wanders).
DEFAULT_POINCARE_SEEDS = (
    (math.pi + 0.4, 0.0),
    (math.pi + 0.8, 0.0),
    (math.pi + 1.2, 0.0),
    (math.pi + 1.6, 0.0),
    (math.pi + 2.0, 0.0),
    (math.pi + 2.5, 0.0),
    (math.pi, 2.4),
    (0.05, 0.0),
)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{name}: not a number: {text!r}")
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"{name}: must be finite, got {text}")
    return value


def _int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name}: not an integer: {text!r}")


def _float_list(text: str, name: str) -> list:
    return [_float(part, name) for part in str(text).split(",") if part.strip()]


def _int_list(text: str, name: str) -> list:
    return [_int(part, name) for part in str(text).split(",") if part.strip()]


def _choice(text: str, name: str, allowed) -> str:
    if text not in allowed:
        raise ConfigError(f"{name}: expected one of {sorted(allowed)}, got {text!r}")
    return text


class Options:
    """Typed option access with CLI > config file > default precedence.

    An empty value counts as unset, so a result header's ``theta0 = ``
    (a center drawn per state) reads back as the default.
    """

    def __init__(self, args: argparse.Namespace):
        self.cli = {k: v for k, v in vars(args).items() if v not in (None, "")}
        self.file = {}
        config_path = self.cli.get("config")
        if config_path:
            try:
                self.file = {k: v for k, v in sio.read_config(config_path).items()
                             if v != ""}
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            except ValueError as exc:
                raise ConfigError(str(exc))

    def _raw(self, key, default):
        if key in self.cli:
            return self.cli[key]
        if key in self.file:
            return self.file[key]
        return default

    def str(self, key, default=None):
        value = self._raw(key, default)
        return None if value is None else str(value)

    def int(self, key, default=None):
        value = self._raw(key, default)
        if value is None or isinstance(value, int):
            return value
        return _int(value, key)

    def float(self, key, default=None):
        value = self._raw(key, default)
        if value is None or isinstance(value, float):
            return value
        return _float(str(value), key)

    def int_list(self, key, default=None):
        value = self._raw(key, default)
        if value is None or isinstance(value, list):
            return value
        return _int_list(value, key)

    def float_list(self, key, default=None):
        value = self._raw(key, default)
        if value is None or isinstance(value, list):
            return value
        return _float_list(value, key)

    def choice(self, key, allowed, default=None):
        value = self._raw(key, default)
        return None if value is None else _choice(str(value), key, allowed)

    def flag(self, key) -> bool:
        return bool(self._raw(key, False))

    @property
    def timestamp(self) -> bool:
        return not self.flag("no_timestamp")


def _lattice(opts: Options, default_nq: int, default_K: float) -> LatticeParams:
    n_q = opts.int("nq", default_nq)
    K = opts.float("K", default_K)
    if n_q < 1:
        raise ConfigError(f"nq must be >= 1, got {n_q}")
    return LatticeParams(n_q=n_q, K=K)


def _experiment_config(opts: Options, default_nq: int, default_K: float,
                       default_tmax: int, default_ensemble: int) -> ExperimentConfig:
    """Shared assembly for fidelity-style commands.

    Channel selection: a positive --deltaK selects the classical kick
    channel; otherwise the gate channel with amplitude --epsilon
    (possibly zero).  Supplying both is ambiguous and rejected.
    The ensemble count becomes initial packets when Gaussian centers
    are left unset, noise realizations otherwise.
    """
    lattice = _lattice(opts, default_nq, default_K)
    epsilon = opts.float("epsilon", 0.0)
    delta_K = opts.float("deltaK", 0.0)
    if epsilon > 0 and delta_K > 0:
        raise ConfigError("give either epsilon (gate noise) or deltaK "
                          "(kick noise), not both")
    channel = "classical" if delta_K > 0 else "quantum"
    initial = opts.choice("initial", ("gaussian", "random"), "gaussian")
    theta0 = opts.float("theta0")
    p0 = opts.float("p0")
    ensemble = opts.int("ensemble", default_ensemble)
    if ensemble < 1:
        raise ConfigError("ensemble must be >= 1")
    if initial == "gaussian" and theta0 is None:
        n_states, n_noise = ensemble, 1
    else:
        n_states, n_noise = 1, ensemble
    t_max = opts.int("tmax", default_tmax)
    regime = opts.choice("regime", ("memoryless", "static"), "memoryless")
    try:
        return ExperimentConfig(
            lattice=lattice, channel=channel, epsilon=epsilon, regime=regime,
            delta_K=delta_K, initial=initial, theta0=theta0, p0=p0,
            t_max=t_max, n_states=n_states, n_noise=n_noise,
            master_seed=opts.int("seed", 0))
    except ValueError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_poincare(opts: Options) -> int:
    K = opts.float("K", -0.5)
    steps = opts.int("tmax", 1000)
    if steps < 0:
        raise ConfigError("tmax must be >= 0")
    params = ClassicalParams(K=K)
    seeds = [PhasePoint(th, p) for th, p in DEFAULT_POINCARE_SEEDS]
    if steps == 0:
        trajectories = [np.array([[s.theta, s.p]]) for s in seeds]
    else:
        trajectories = poincare_section(seeds, params, steps)
    out = opts.str("out", "poincare.csv")
    meta = {"K": K, "steps": steps, "trajectories": len(seeds)}
    sio.write_poincare(out, trajectories, meta, opts.timestamp)
    print(f"wrote {len(seeds)} trajectories x {steps + 1} points to {out}")
    return EXIT_OK


def cmd_lyapunov(opts: Options) -> int:
    K = opts.float("K", 0.1)
    lam = lyapunov_exponent(K)
    numeric = lyapunov_numeric(ClassicalParams(K=K))
    line = f"K = {K}: lyapunov = {lam:.6f} (numeric tangent estimate {numeric:.6f})"
    print(line)
    out = opts.str("out")
    if out:
        payload = {"K": K, "lyapunov": lam, "numeric": numeric}
        sio.write_json(out, payload, opts.timestamp)
    return EXIT_OK


def cmd_fidelity(opts: Options) -> int:
    config = _experiment_config(opts, default_nq=12, default_K=0.5,
                                default_tmax=200, default_ensemble=25)
    curve = fidelity_curve(config)
    program = build_sawtooth_circuit(config.lattice)
    summary = {
        "n_g": program.gate_count,
        "lyapunov": lyapunov_exponent(config.lattice.K),
        "f_final": float(curve.f[-1]),
    }
    fits = []
    for model in (EXPONENTIAL, GAUSSIAN):
        try:
            fits.append(fit_decay(curve, model))
        except FitError:
            continue
    if fits:
        best = max(fits, key=lambda ft: ft.r_squared)
        summary.update(model=best.model, rate=best.rate,
                       r_squared=best.r_squared, fit_window=list(best.window))
    else:
        summary.update(model=None, rate=None, r_squared=None,
                       note="no decay: curve never entered the fit window")

    out = opts.str("out", "fidelity.csv")
    fmt = opts.choice("format", ("csv", "json"), "csv")
    meta = sio.config_metadata(config)
    if fmt == "json":
        payload = dict(meta)
        payload.update(t=curve.t, f_mean=curve.f, f_stderr=curve.f_err,
                       summary=summary)
        sio.write_json(out, payload, opts.timestamp)
        print(f"wrote curve + summary to {out}")
    else:
        sio.write_curve(out, curve, meta, opts.timestamp)
        stem = out[:-4] if out.endswith(".csv") else out
        summary_path = stem + "_summary.json"
        sio.write_json(summary_path, {**meta, "summary": summary}, opts.timestamp)
        print(f"wrote curve to {out}, summary to {summary_path}")
    if summary.get("model"):
        print(f"fit: {summary['model']} rate = {summary['rate']:.6g} "
              f"(r2 = {summary['r_squared']:.4f})")
    else:
        print("fit: no decay within the fit window")
    return EXIT_OK


def cmd_tf_scan(opts: Options) -> int:
    n_q_list = opts.int_list("nq", [4, 5, 6, 7, 8])
    eps_list = opts.float_list(
        "epsilon", [3.16e-3, 6.81e-3, 1.47e-2, 3.16e-2])
    K = opts.float("K", 5.0)
    ensemble = opts.int("ensemble", 50)
    records = sweep_tf(n_q_list, eps_list, K, n_noise=ensemble,
                       master_seed=opts.int("seed", 0),
                       jobs=opts.int("jobs", 1))
    out = opts.str("out", "tf_scan.csv")
    meta = {"K": K, "nq": ",".join(map(str, n_q_list)),
            "epsilon": ",".join(map(repr, eps_list)),
            "ensemble": ensemble, "seed": opts.int("seed", 0)}
    columns = {
        "n_q": [r.n_q for r in records],
        "epsilon": [r.epsilon for r in records],
        "t_f": [r.t_f for r in records],
        "collapse": [r.collapse for r in records],
    }
    sio.write_csv(out, columns, meta, opts.timestamp)
    mean_collapse = collapse_constant(records)
    print(f"wrote {len(records)} grid points to {out}")
    print(f"mean collapse t_f * eps^2 * nq^2 = {mean_collapse:.4f}")
    return EXIT_OK


def cmd_rate_vs_k(opts: Options) -> int:
    K_list = opts.float_list("K", [0.5, 1.0, 2.0, 5.0, -0.5])
    n_q = opts.int("nq", 9)
    epsilon = opts.float("epsilon", 1e-2)
    ensemble = opts.int("ensemble", 25)
    records = sweep_rate_vs_K(K_list, n_q=n_q, epsilon=epsilon,
                              n_noise=ensemble, t_max=opts.int("tmax"),
                              master_seed=opts.int("seed", 0),
                              jobs=opts.int("jobs", 1))
    out = opts.str("out", "rate_vs_k.csv")
    meta = {"nq": n_q, "epsilon": epsilon, "ensemble": ensemble,
            "K": ",".join(map(repr, K_list)), "seed": opts.int("seed", 0)}
    columns = {
        "K": [r.K for r in records],
        "kind": [r.kind for r in records],
        "rate": [r.rate for r in records],
        "r2": [r.r_squared for r in records],
        "model": ["exponential"] * len(records),
    }
    sio.write_csv(out, columns, meta, opts.timestamp)
    print(f"wrote {len(records)} (K, kind) rates to {out}")
    return EXIT_OK


def cmd_circuit_check(opts: Options) -> int:
    n_q = opts.int("nq", 8)
    if n_q < 1:
        raise ConfigError(f"nq must be >= 1, got {n_q}")
    lattice = LatticeParams(n_q=n_q, K=opts.float("K", 0.1))
    program = build_sawtooth_circuit(lattice)
    expect_h = 2 * n_q
    expect_cp = 3 * n_q * n_q - n_q
    counts_ok = (program.hadamard_count == expect_h
                 and program.cphase_count == expect_cp)
    deviation = circuit_deviation(lattice)
    dev_ok = deviation < 1e-10
    status = "PASS" if (counts_ok and dev_ok) else "FAIL"
    print(f"n_q = {n_q}: {program.hadamard_count} Hadamards "
          f"(expected {expect_h}), {program.cphase_count} controlled-phases "
          f"(expected {expect_cp})")
    print(f"noiseless circuit vs split-operator max deviation = {deviation:.3e}")
    print(status)
    out = opts.str("out")
    if out:
        sio.write_circuit(out, program, {"nq": n_q, "K": lattice.K},
                          opts.timestamp)
        print(f"wrote gate listing to {out}")
    return EXIT_OK if status == "PASS" else EXIT_RUNTIME


def cmd_scattering(opts: Options) -> int:
    config = _experiment_config(opts, default_nq=6, default_K=0.1,
                                default_tmax=10, default_ensemble=1)
    t = config.t_max
    shots = opts.int("shots", 10 ** 4)
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    f_analytic = scattering_fidelity(config, t, mode="analytic")
    f_sampled = scattering_fidelity(config, t, mode="sampled", shots=shots)
    print(f"t = {t}: f_analytic = {f_analytic:.12f}, "
          f"f_sampled = {f_sampled:.6f} ({shots} shots per setting)")
    out = opts.str("out")
    if out:
        payload = dict(sio.config_metadata(config))
        payload.update(t=t, f_analytic=f_analytic, f_sampled=f_sampled,
                       shots=shots)
        sio.write_json(out, payload, opts.timestamp)
        print(f"wrote scattering summary to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _UsageExit(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sawtoothsim",
                     description="Sawtooth-map fidelity-decay simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--nq", help="qubit count (comma list for tf-scan)")
    common.add_argument("--K", help="kick strength (comma list for rate-vs-k)")
    common.add_argument("--epsilon",
                        help="gate-noise amplitude (comma list for tf-scan)")
    common.add_argument("--deltaK", help="kick-noise amplitude, K units")
    common.add_argument("--tmax", help="steps to evolve (or section length)")
    common.add_argument("--ensemble", help="ensemble member count")
    common.add_argument("--seed", help="master seed")
    common.add_argument("--regime", help="noise regime: memoryless or static")
    common.add_argument("--initial", help="initial state: gaussian or random")
    common.add_argument("--theta0", help="packet center angle")
    common.add_argument("--p0", help="packet center momentum")
    common.add_argument("--out", help="output path")
    common.add_argument("--format", help="output format: csv or json")
    common.add_argument("--jobs", help="parallel worker count for sweeps")
    common.add_argument("--shots", help="measurement shots per setting")
    common.add_argument("--no-timestamp", dest="no_timestamp",
                        action="store_true", default=None,
                        help="omit the timestamp header line")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, descr in (
            ("poincare", cmd_poincare, "classical phase-space section CSV"),
            ("lyapunov", cmd_lyapunov, "stretching exponent for K"),
            ("fidelity", cmd_fidelity, "fidelity curve + decay-fit summary"),
            ("tf-scan", cmd_tf_scan, "f = 0.9 crossing times over a grid"),
            ("rate-vs-k", cmd_rate_vs_k,
             "decay rate vs K for three initial-state kinds"),
            ("circuit-check", cmd_circuit_check,
             "gate-count and equivalence contracts"),
            ("scattering", cmd_scattering,
             "ancilla-circuit fidelity, analytic and sampled")):
        p = sub.add_parser(name, parents=[common], description=descr,
                           help=descr)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return EXIT_CONFIG
    try:
        opts = Options(args)
        return args.func(opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, NoCrossingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())

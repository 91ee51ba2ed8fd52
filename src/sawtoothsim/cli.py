"""Command-line front end for the sawtooth-map fidelity experiments.

Subcommands map one-to-one onto the experiment families:

    poincare       classical phase-space sections
    lyapunov       closed-form and numeric stretching exponents
    fidelity       one ensemble fidelity curve + decay-fit summary
    tf-scan        t_f = first f(t) = 0.9 crossing over an (n_q, eps) grid
    rate-vs-k      decay rate vs K for three initial-state kinds
    circuit-check  gate-count and propagator-equivalence contracts
    scattering     ancilla-circuit fidelity at one time, analytic + sampled

Each subcommand declares the options it reads, with their types and
defaults, and refuses any other.  Values are resolved with precedence:
command-line flag, then config file (flat ``key = value`` lines via
--config), then built-in default; a file value is converted by the same
type as the flag.  An artifact's header holds every option of its
command except --config, --out and --no-timestamp, and a config file may
set exactly those, so a header with its comment markers stripped reruns
the command.  Exit codes: 0 success, 1 configuration error, 2 runtime or
numerical contract failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io as sio
from .circuit import build_sawtooth_circuit, circuit_deviation
from .classical import (
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
# option types
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _list_of(item):
    """Type of a non-empty comma-separated list of ``item`` entries."""
    def parse(text: str) -> list:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"
    return parse


# Namespace entries that say where and how to write, not what to run:
# every other option of a command goes into its artifact header, and a
# config file may set exactly those.
_NOT_IN_HEADER = ("command", "func", "config", "out", "no_timestamp")


def _header(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_IN_HEADER}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Config of the fidelity-style commands.

    Channel selection: a positive --deltaK selects the classical kick
    channel; otherwise the gate channel with amplitude --epsilon
    (possibly zero).  The config refuses both together.
    The ensemble count becomes initial packets when Gaussian centers
    are left unset, noise realizations otherwise; a command without
    --ensemble runs one member.  A random state has no center, so
    --theta0 or --p0 with it is refused.
    """
    if args.initial == "random" and (args.theta0 is not None
                                     or args.p0 is not None):
        raise ConfigError("a random initial state has no center: "
                          "--theta0 and --p0 must be unset")
    ensemble = getattr(args, "ensemble", 1)
    if args.initial == "gaussian" and args.theta0 is None:
        n_states, n_noise = ensemble, 1
    else:
        n_states, n_noise = 1, ensemble
    return ExperimentConfig(
        lattice=LatticeParams(n_q=args.nq, K=args.K),
        channel="classical" if args.deltaK > 0 else "quantum",
        epsilon=args.epsilon, regime=args.regime, delta_K=args.deltaK,
        initial=args.initial, theta0=args.theta0, p0=args.p0,
        t_max=args.tmax, n_states=n_states, n_noise=n_noise,
        master_seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_poincare(args) -> int:
    steps = args.tmax
    seeds = [PhasePoint(th, p) for th, p in DEFAULT_POINCARE_SEEDS]
    trajectories = poincare_section(seeds, args.K, steps)
    sio.write_poincare(args.out, trajectories, _header(args),
                       not args.no_timestamp)
    print(f"wrote {len(seeds)} trajectories x {steps + 1} points to {args.out}")
    return EXIT_OK


def cmd_lyapunov(args) -> int:
    lam = lyapunov_exponent(args.K)
    numeric = lyapunov_numeric(args.K)
    print(f"K = {args.K}: lyapunov = {lam:.6f} "
          f"(numeric tangent estimate {numeric:.6f})")
    if args.out:
        payload = {**_header(args), "lyapunov": lam, "numeric": numeric}
        sio.write_json(args.out, payload, not args.no_timestamp)
    return EXIT_OK


def cmd_fidelity(args) -> int:
    config = _experiment_config(args)
    curve = fidelity_curve(config)
    program = build_sawtooth_circuit(config.lattice)
    summary = {
        "channel": config.channel,
        "n_states": config.n_states,
        "n_noise": config.n_noise,
        "n_g": program.noisy_gate_count,
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

    out, timestamp = args.out, not args.no_timestamp
    header = _header(args)
    sio.write_curve(out, curve, header, timestamp)
    stem = out[:-4] if out.endswith(".csv") else out
    summary_path = stem + "_summary.json"
    sio.write_json(summary_path, {**header, "summary": summary}, timestamp)
    print(f"wrote curve to {out}, summary to {summary_path}")
    if summary.get("model"):
        print(f"fit: {summary['model']} rate = {summary['rate']:.6g} "
              f"(r2 = {summary['r_squared']:.4f})")
    else:
        print("fit: no decay within the fit window")
    return EXIT_OK


def cmd_tf_scan(args) -> int:
    records = sweep_tf(args.nq, args.epsilon, args.K, n_noise=args.ensemble,
                       master_seed=args.seed, jobs=args.jobs)
    columns = {
        "n_q": [r.n_q for r in records],
        "epsilon": [r.epsilon for r in records],
        "t_f": [r.t_f for r in records],
        "collapse": [r.collapse for r in records],
    }
    sio.write_csv(args.out, columns, _header(args), not args.no_timestamp)
    print(f"wrote {len(records)} grid points to {args.out}")
    if all(math.isnan(r.t_f) for r in records):
        raise NoCrossingError("no grid point crossed f = 0.9")
    mean_collapse = collapse_constant(records)
    print(f"mean collapse t_f * eps^2 * nq^2 = {mean_collapse:.4f}")
    return EXIT_OK


def cmd_rate_vs_k(args) -> int:
    records = sweep_rate_vs_K(args.K, n_q=args.nq, epsilon=args.epsilon,
                              n_noise=args.ensemble, t_max=args.tmax,
                              master_seed=args.seed, jobs=args.jobs)
    columns = {
        "K": [r.K for r in records],
        "kind": [r.kind for r in records],
        "rate": [r.rate for r in records],
        "r2": [r.r_squared for r in records],
        "model": ["exponential"] * len(records),
    }
    sio.write_csv(args.out, columns, _header(args), not args.no_timestamp)
    print(f"wrote {len(records)} (K, kind) rates to {args.out}")
    if all(math.isnan(r.rate) for r in records):
        raise FitError("no grid point could be fitted")
    return EXIT_OK


def cmd_circuit_check(args) -> int:
    n_q = args.nq
    lattice = LatticeParams(n_q=n_q, K=args.K)
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
    if args.out:
        sio.write_circuit(args.out, program, _header(args),
                          not args.no_timestamp)
        print(f"wrote gate listing to {args.out}")
    return EXIT_OK if status == "PASS" else EXIT_RUNTIME


def cmd_scattering(args) -> int:
    config = _experiment_config(args)
    t, shots = config.t_max, args.shots
    # the sampled estimate checks shots, so it runs first
    f_sampled = scattering_fidelity(config, t, mode="sampled", shots=shots)
    f_analytic = scattering_fidelity(config, t, mode="analytic")
    print(f"t = {t}: f_analytic = {f_analytic:.12f}, "
          f"f_sampled = {f_sampled:.6f} ({shots} shots per setting)")
    if args.out:
        payload = {**_header(args), "t": t, "f_analytic": f_analytic,
                   "f_sampled": f_sampled}
        sio.write_json(args.out, payload, not args.no_timestamp)
        print(f"wrote scattering summary to {args.out}")
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


# option name -> (type, help); a command whose default for an option is
# a list reads a comma-separated list of that type
_OPTIONS = {
    "nq": (int, "qubit count"),
    "K": (_finite, "kick strength"),
    "epsilon": (_finite, "gate-noise amplitude"),
    "deltaK": (_finite, "kick-noise amplitude, K units"),
    "regime": (str, "memoryless or static"),
    "initial": (str, "gaussian or random"),
    "theta0": (_finite, "packet center angle (unset: random per packet)"),
    "p0": (_finite, "packet center momentum (needs theta0)"),
    "tmax": (int, "steps to evolve, or section length"),
    "ensemble": (int, "ensemble member count"),
    "seed": (int, "master seed"),
    "jobs": (int, "parallel worker count for sweeps"),
    "shots": (int, "measurement shots per setting"),
}


def build_parser():
    """The argument parser and its subcommand parsers, by name.

    Each subcommand declares the options it reads, with their defaults.
    """
    parser = _Parser(prog="sawtoothsim",
                     description="Sawtooth-map fidelity-decay simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    experiment = dict(epsilon=0.0, deltaK=0.0, regime="memoryless",
                      initial="gaussian", theta0=None, p0=None)
    for name, fn, descr, out, defaults in (
            ("poincare", cmd_poincare, "classical phase-space section CSV",
             "poincare.csv", dict(K=-0.5, tmax=1000)),
            ("lyapunov", cmd_lyapunov, "stretching exponent for K",
             None, dict(K=0.1)),
            ("fidelity", cmd_fidelity, "fidelity curve + decay-fit summary",
             "fidelity.csv", dict(nq=12, K=0.5, **experiment, tmax=200,
                                  ensemble=25, seed=0)),
            ("tf-scan", cmd_tf_scan, "f = 0.9 crossing times over a grid",
             "tf_scan.csv", dict(nq=[4, 5, 6, 7, 8],
                                 epsilon=[3.16e-3, 6.81e-3, 1.47e-2, 3.16e-2],
                                 K=5.0, ensemble=50, seed=0, jobs=1)),
            ("rate-vs-k", cmd_rate_vs_k,
             "decay rate vs K for three initial-state kinds",
             "rate_vs_k.csv", dict(K=[0.5, 1.0, 2.0, 5.0, -0.5], nq=9,
                                   epsilon=1e-2, ensemble=25, tmax=None,
                                   seed=0, jobs=1)),
            ("circuit-check", cmd_circuit_check,
             "gate-count and equivalence contracts", None, dict(nq=8, K=0.1)),
            ("scattering", cmd_scattering,
             "ancilla-circuit fidelity, analytic and sampled",
             None, dict(nq=6, K=0.1, **experiment, tmax=10, seed=0,
                        shots=10 ** 4))):
        p = sub.add_parser(name, description=descr, help=descr)
        p.set_defaults(func=fn)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", default=out, help="output path")
        p.add_argument("--no-timestamp", dest="no_timestamp",
                       action="store_true",
                       help="omit the timestamp header line")
        for key, default in defaults.items():
            kind, text = _OPTIONS[key]
            if isinstance(default, list):
                kind, text = _list_of(kind), text + " (comma list)"
            p.add_argument("--" + key, type=kind, default=default, help=text)
    return parser, sub.choices


def _file_values(args: argparse.Namespace) -> dict:
    """Non-empty values of the --config file, as option defaults.

    A key the command does not read is refused; ``written`` (an
    artifact's timestamp line) is skipped, and an empty value such as
    ``theta0 = `` leaves the option unset.
    """
    try:
        values = sio.read_config(args.config)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    values.pop("written", None)
    unknown = sorted(set(values) - set(_header(args)))
    if unknown:
        raise ConfigError(f"{args.config}: {args.command} reads no option "
                          f"{', '.join(unknown)}")
    return {k: v for k, v in values.items() if v != ""}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values become the command's defaults, so flags still
            # win and argparse converts them with each option's type
            commands[args.command].set_defaults(**_file_values(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except _UsageExit:
        return EXIT_CONFIG
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

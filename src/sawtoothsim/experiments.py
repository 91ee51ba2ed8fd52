"""Fidelity-decay experiments: curves, fits, time scales, sweeps.

The central observable is the overlap decay

    f(t) = |<psi(t) | psi_pert(t)>|^2

between an ideal evolution and a perturbed twin started from the same
state.  Two perturbation channels are supported:

- "classical": the kick strength is detuned, k -> k + delta_k(t); both
  branches run under the split-operator propagator.
- "quantum": every gate of the circuit realization is noisy; the
  perturbed branch runs the noisy circuit while the ideal branch uses the
  split-operator propagator (identical to the noiseless circuit to
  near machine precision, and much faster).

Either channel runs in one of two regimes: "memoryless" redraws the
perturbation every map step, "static" draws it once per member and
freezes it (for the classical channel a fixed detuning, the setting
in which regular dynamics shows Gaussian fidelity decay).  Both
regimes share one noise source (:func:`noise_blocks`) and one
forward core for the perturbed branch (:func:`perturbed_branch`).

Ensembles average over initial states and/or noise realizations, with
per-member derived RNG streams so curves are reproducible bit for bit
from (config, master_seed) regardless of ensemble size, execution
order or the number of cores: a large block is stepped in row slices
on a few threads (:func:`_step_in_slices`), and a member's row does not
depend on which rows share its slice.  The perturbed branch pays
numpy's fixed costs per chunk of steps: it draws a chunk of steps per
member in one call and, on small blocks, builds the chunk's factors in
one pass, bit for bit the per-step result (:func:`_chunk_steps` sizes
the chunks of both channels).  The gate program of a lattice is
compiled once (:func:`_engine`) and serves every curve and echo on it.

Decay models are fitted on -log f: linear in t (exponential decay,
rate Gamma) or linear in t^2 (Gaussian decay, rate 1/tau^2), by least
squares inside an f-window that excludes the short-time transient and
the finite-N saturation floor.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import product

import numpy as np

from . import streams
from .circuit import PARAMS_PER_GATE, CircuitEngine, build_sawtooth_circuit
from .classical import lyapunov_exponent
from .propagator import _KICK_TILE_AMPS, BatchPropagator
from .states import (
    LatticeParams,
    WavePacketSpec,
    packet_amplitudes,
    random_amplitudes,
)

TWO_PI = 2.0 * math.pi

log = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "FidelityCurve",
    "DecayFit",
    "TfRecord",
    "RateRecord",
    "RegimeRecord",
    "FitError",
    "NoCrossingError",
    "fidelity_curve",
    "fit_decay",
    "estimate_tf",
    "sweep_tf",
    "collapse_constant",
    "sweep_rate_vs_K",
    "classical_error_regimes",
    "scattering_fidelity",
    "DEFAULT_FIT_WINDOW",
]

DEFAULT_FIT_WINDOW = (0.1, 0.9)

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"


class FitError(ValueError):
    """Raised when a decay fit cannot be performed as requested."""


class NoCrossingError(ValueError):
    """Raised when a curve never crosses the requested fidelity level."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one fidelity experiment.

    ``initial`` is "gaussian" or "random"; Gaussian centers default to
    the canonical point (1, 0) (``p0=None`` means 0 when ``theta0`` is
    set), while ``theta0=None`` draws a fresh uniform center on the
    torus for every initial state in the ensemble (the standard choice
    when averaging over packets in the chaotic regime); a ``p0`` would
    then be ignored, so it is refused, as it is for a random state.
    (A random state also ignores ``theta0``, whose default 1.0 cannot
    be told apart from an explicit 1.0, so only the CLI refuses it.)

    ``n_states`` counts initial states, ``n_noise`` noise realizations
    per initial state; the ensemble has ``n_states * n_noise`` members.

    ``epsilon`` is the amplitude of the quantum channel and ``delta_K``
    that of the classical one; the channel not selected would ignore
    its amplitude, so a positive value there is refused.
    """

    lattice: LatticeParams
    channel: str = "quantum"
    epsilon: float = 0.0
    regime: str = "memoryless"
    delta_K: float = 0.0
    initial: str = "gaussian"
    theta0: float | None = 1.0
    p0: float | None = None
    t_max: int = 100
    n_states: int = 1
    n_noise: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.channel not in ("quantum", "classical"):
            raise ValueError("channel must be 'quantum' or 'classical'")
        if self.regime not in ("memoryless", "static"):
            raise ValueError("regime must be 'memoryless' or 'static'")
        for name in ("epsilon", "delta_K"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        unused = "delta_K" if self.channel == "quantum" else "epsilon"
        if getattr(self, unused) > 0:
            raise ValueError(f"the {self.channel} channel ignores {unused}; "
                             f"it must be 0")
        if self.initial not in ("gaussian", "random"):
            raise ValueError("initial must be 'gaussian' or 'random'")
        for name in ("theta0", "p0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.initial == "random" and self.p0 is not None:
            raise ValueError("a random initial state has no center: "
                             "p0 must be None")
        if self.initial == "gaussian" and self.theta0 is None \
                and self.p0 is not None:
            raise ValueError("p0 needs theta0: without theta0 every packet "
                             "gets a random center")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.n_states < 1 or self.n_noise < 1:
            raise ValueError("ensemble sizes must be >= 1")

    @property
    def n_members(self) -> int:
        return self.n_states * self.n_noise


@dataclass(frozen=True)
class FidelityCurve:
    """Ensemble-averaged fidelity versus step count."""

    t: np.ndarray
    f: np.ndarray
    f_err: np.ndarray
    member_f: np.ndarray
    config: ExperimentConfig


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit of -log f inside an f-window."""

    model: str
    rate: float
    window: tuple
    r_squared: float
    n_points: int
    intercept: float


@dataclass(frozen=True)
class TfRecord:
    """Characteristic decay time t_f with its grid coordinates."""

    t_f: float
    n_q: int
    epsilon: float

    @property
    def collapse(self) -> float:
        """The scaling combination t_f * epsilon^2 * n_q^2."""
        return self.t_f * self.epsilon ** 2 * self.n_q ** 2


@dataclass(frozen=True)
class RateRecord:
    """Fitted decay rate for one (K, initial-state kind) grid point."""

    K: float
    kind: str
    rate: float
    r_squared: float


@dataclass(frozen=True)
class RegimeRecord:
    """Classification of one kick-noise amplitude.

    ``delta_k`` is the amplitude in k units (delta_K / T); the regime
    is "fgr" (perturbative, rate growing as delta_K^2) when the noise
    couples less than one momentum level, "lyapunov" (rate saturated
    at the classical stretching exponent) when delta_k exceeds one,
    and "island" for quasi-integrable dynamics where the competition
    is between decay shapes instead of rates.
    """

    delta_K: float
    delta_k: float
    regime: str
    model: str
    rate: float
    rate_stderr: float
    r_squared: float
    r2_exponential: float | None
    r2_gaussian: float | None
    window: tuple
    lyapunov: float


# ---------------------------------------------------------------------------
# initial ensembles
# ---------------------------------------------------------------------------

def _initial_block(config: ExperimentConfig, states) -> np.ndarray:
    """(len(states), N) initial amplitudes of the listed initial states.

    State s draws from its own derived stream, so its row does not
    depend on which other states are built alongside it.
    """
    lattice = config.lattice
    block = np.empty((len(states), lattice.N), dtype=complex)
    for i, s in enumerate(states):
        rng = streams.stream(config.master_seed, streams.DOMAIN_INITIAL, s)
        if config.initial == "random":
            block[i] = random_amplitudes(lattice.N, rng)
        else:
            theta0, p0 = config.theta0, config.p0
            if theta0 is None:
                theta0 = rng.uniform(0.0, TWO_PI)
                p0 = rng.uniform(-math.pi, math.pi)
            elif p0 is None:
                p0 = 0.0
            spec = WavePacketSpec(theta0=theta0, p0=p0)
            block[i] = packet_amplitudes(spec, lattice)
    return block


def noise_blocks(config: ExperimentConfig, members, shape: tuple, chunks):
    """Noise parameters of the listed ensemble members, a chunk at a time.

    For each step count S in ``chunks``, yields one (S, len(members)) +
    shape block.  Member m draws ``uniform(-a, a, (S,) + shape)`` from
    its own stream of the channel's domain in one call, the numbers of
    S per-step calls of shape ``shape``, the engine's ``param_shape``:
    the gate channel draws a (noisy_gate_count, 4) parameter table per
    step with a = epsilon, the classical channel a scalar kick detuning
    delta_k with a = delta_K / T.  The memoryless regime draws each
    chunk afresh; the static regime draws one step once and yields it
    as a (1, len(members)) + shape block for every count.  Nothing is
    drawn until a chunk is requested.
    """
    if config.channel == "classical":
        domain, a = streams.DOMAIN_CLASSICAL, config.delta_K / config.lattice.T
    else:
        domain, a = streams.DOMAIN_GATE, config.epsilon
    rngs = [streams.stream(config.master_seed, domain, m) for m in members]

    def draw(steps):
        block = np.empty((steps, len(rngs), *shape))
        for i, rng in enumerate(rngs):
            block[:, i] = rng.uniform(-a, a, (steps, *shape))
        return block

    frozen = None
    for size in chunks:
        if config.regime == "memoryless":
            yield draw(size)
            continue
        if frozen is None:
            frozen = draw(1)
        yield frozen


def _usable_cpus() -> int:
    """Workers this process may keep busy: the one worker rule.

    1 in a process that multiprocessing started, such as a sweep worker,
    whose sibling workers already fill the cores; otherwise the CPUs of
    the process's affinity mask, where the platform has one.  Such a
    process has imported multiprocessing, so the rule does not import it
    into any other (about 0.5 MB and 5 ms).
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _slice_count(rows: int, N: int) -> int:
    """Row slices of a (rows, N) step: at most one per worker, of 2^16 amps."""
    return max(1, min(_usable_cpus(), rows, rows * N // _KICK_TILE_AMPS))


def _step_in_slices(step, block: np.ndarray, *params) -> np.ndarray:
    """``step(block, *params)``, run as contiguous row slices on threads.

    ``step`` advances each row of the (members, N) ``block`` under the
    same row of each array in ``params`` and may overwrite its input; a
    slice's call gets each array cut to the slice's rows, so a step can
    also write a per-row result into one of them.  Rows do not depend
    on each other, and numpy's FFTs and matrix products release the
    GIL, so slices step at the same time.  The block is cut into
    :func:`_slice_count` slices of at least ``_KICK_TILE_AMPS``
    amplitudes; the calling thread steps the first slice and a thread
    pool the others.  The pool is opened for this call and joined
    before it returns, so no thread outlives the step.  A result that
    is not the slice itself (the circuit may return its spare block;
    the propagator steps in place) is copied back into ``block``,
    which is returned.  A block too small for two such slices is
    stepped by one plain call.
    """
    rows = block.shape[0]
    n = _slice_count(rows, block.shape[1])
    if n < 2:
        return step(block, *params)

    def run(lo, hi):
        view = block[lo:hi]
        out = step(view, *(p[lo:hi] for p in params))
        if out is not view:
            view[...] = out

    from concurrent.futures import ThreadPoolExecutor
    bounds = [rows * i // n for i in range(n + 1)]
    with ThreadPoolExecutor(n - 1) as pool:
        futures = [pool.submit(run, bounds[i], bounds[i + 1])
                   for i in range(1, n)]
        run(0, bounds[1])
    for future in futures:
        future.result()  # raises a slice's exception
    return block


@lru_cache(maxsize=8)
def _engine(lattice: LatticeParams) -> CircuitEngine:
    """The compiled gate program of ``lattice``, built once per lattice.

    Curves, echoes and sweep points on one lattice share the engine,
    whose arrays are read-only.  The sweeps revisit at most five
    lattices (criteria 05 and 09, the ``rate-vs-k`` defaults, the
    ``tf-scan`` examples), and an engine and its program hold about
    23 KB at n_q = 4, 122 KB at 12 and 323 KB at 20, so eight lattices
    are kept.
    """
    return CircuitEngine(build_sawtooth_circuit(lattice))


def _chunk_steps(members: int, *entries: int) -> int:
    """Most steps of noise a chunk holds: 2^16 // (members * max(entries)).

    ``entries`` are a member's entries per step of each kind a chunk
    holds at once (2^16 entries are 1 MB of phases or 512 KB of
    parameters).  A step's factor tables hold at least N entries per
    member, but up to n_q = 6 a gate step's parameters outnumber them.
    0 where one step is over the budget; a chunk then still holds one
    step's parameters for every member, so with P noise parameters per
    member and step, each kind stays within max(2^16, members * P)
    entries, the bound :func:`_budget_bytes` counts.  The budget is read
    from this module at each call.
    """
    return _KICK_TILE_AMPS // (members * max(entries))


def perturbed_branch(config: ExperimentConfig, prop: BatchPropagator,
                     block: np.ndarray, members, steps: int):
    """Yield the perturbed (members, N) block after each of ``steps`` steps.

    Row i of ``block`` evolves under the noise of ensemble member
    ``members[i]`` (see :func:`noise_blocks`): the classical channel
    steps ``prop`` with a per-member kick detuning, the quantum channel
    runs the lattice's compiled gate circuit (:func:`_engine`).
    ``block`` may be overwritten.

    Both channels run one loop, which draws a chunk of steps per member
    at once and applies it one step at a time.  Where the factor tables
    and the noise parameters of S >= 2 steps fit the budget
    (:func:`_chunk_steps`), or of one step in a static branch, the
    engine builds a chunk's factors in one pass (``step_factors``) and
    applies them with ``step_with``, bit for bit its per-step call.
    Otherwise a chunk holds the steps whose parameters fit the budget,
    at least one, and each step runs the engine's per-step call
    (``step`` or ``step_noisy``) in row slices, which builds each table
    just before it applies it: a memoryless chunk of one step would
    gain nothing from building them all first.  A chunked block holds
    at most 2^16 / N members, too few to slice.  A static branch is one
    chunk of its one draw, which serves every step.
    """
    if config.channel == "classical":
        engine, step = prop, prop.step
    else:
        engine = _engine(config.lattice)
        step = engine.step_noisy
    shape = engine.param_shape
    per_step = math.prod(shape)
    static = config.regime == "static"
    chunk = _chunk_steps(len(members), engine.table_entries, per_step)
    build, step_with = engine.step_factors, engine.step_with
    if chunk < (1 if static else 2):
        chunk = max(1, _chunk_steps(len(members), per_step))
        build = np.asarray  # a per-step call takes its step's parameters

        def step_with(block, params, t):
            return _step_in_slices(step, block, params[t])
    if static:
        chunk = max(steps, 1)
    sizes = [min(chunk, steps - t) for t in range(0, steps, chunk)]
    for size, params in zip(sizes, noise_blocks(config, members, shape, sizes)):
        factors = build(params)
        for t in range(size):  # a static chunk has one step
            block = step_with(block, factors, t % len(params))
            yield block
        del factors, params  # not held while the next is built


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _noisy_gates(n_q: int) -> int:
    """Noisy gates per step: 2 n_q Hadamards and 3 n_q^2 - n_q phase gates."""
    return 3 * n_q ** 2 + n_q


def _budget_bytes(config: ExperimentConfig, members: int) -> int:
    """Bytes of one chunk and its slices' tiles, for ``members`` rows.

    With P noise parameters per member and step, each kind of a chunk
    (:func:`_chunk_steps`) holds at most max(2^16, members * P) entries,
    so a chunk holds at most 4 complex arrays of that size.  Gate
    noise: the noise, its sector differences and their gathered terms
    (float, half an array each), the phases and group unitaries (half),
    the chunk's phase tables (one) and the doubling that builds the
    last of them (one).  Kick noise: the chunk's kick tables (one) and
    the two exponent arrays that build them (at most one each from
    n_q = 4 on).  Each slice thread (:func:`_slice_count`) holds its
    own propagator tile of max(2^16, N) amplitudes, or of all the rows
    where they are fewer: a tile's kick tables and their two exponent
    arrays, or the conjugated ideal rows of its overlaps (3 tiles).
    """
    N = config.lattice.N
    params = (PARAMS_PER_GATE * _noisy_gates(config.lattice.n_q)
              if config.channel == "quantum" else 1)
    chunk = 4 * max(_KICK_TILE_AMPS, members * params)
    tile = min(members * N, max(_KICK_TILE_AMPS, N))
    return 16 * (chunk + 3 * tile * _slice_count(members, N))


def _peak_bytes(config: ExperimentConfig, echo: bool = False) -> int:
    """Bytes a curve of ``config`` holds at its peak, or with ``echo`` an echo.

    Counted from what the code allocates: complex (N,) amplitude rows,
    one chunk's budget (:func:`_budget_bytes`), and a curve's
    ``member_f``, members x (t_max + 1) floats, with as many again for
    the deviations its standard error takes.  The rows are the larger
    of those held while the initial states are built and those held
    while the branches step:

    - a curve holds its ideal block (n_states rows) and the
      propagator's two phase tables throughout; then either the
      temporaries of building one state (4 rows), or the perturbed
      block and the rows its engine's step holds per member besides the
      block (1 + ``step_rows`` per member);
    - an echo holds its state and the echo throughout; then either the
      temporaries of building the state, the propagator's tables and
      their conjugates, or the echo's two halves and a temporary (4
      rows), or the two tables and the step's rows (2 + ``step_rows``).

    The first compile of a lattice's engine comes before the first
    chunk and the step's rows, and fits in what they count.  Pure
    arithmetic: nothing is compiled or allocated.
    """
    members = 1 if echo else config.n_members
    step_rows = (CircuitEngine if config.channel == "quantum"
                 else BatchPropagator).step_rows
    if echo:
        rows = 2 + max(4, 2 + step_rows)
    else:
        rows = config.n_states + 2 + max(4, (1 + step_rows) * members)
    curve = 0 if echo else 2 * members * (config.t_max + 1)
    return (16 * rows * config.lattice.N + _budget_bytes(config, members)
            + 8 * curve)


def _require_memory(config: ExperimentConfig, echo: bool = False) -> None:
    """Refuse a run whose peak (:func:`_peak_bytes`) exceeds physical memory.

    Raises ValueError before anything is allocated.  Where the platform
    does not report its memory, nothing is checked.
    """
    need = _peak_bytes(config, echo)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return
    if need > have:
        raise ValueError(
            f"n_q={config.lattice.n_q} needs about {need} bytes, more than "
            f"the {have} bytes of physical memory")


def fidelity_curve(config: ExperimentConfig) -> FidelityCurve:
    """Ensemble-averaged f(t) for the configured channel.

    Raises ValueError up front, before anything is allocated, if the
    curve's estimated peak exceeds physical memory: its amplitude rows,
    one chunk's budget and ``member_f`` (see :func:`_peak_bytes`).
    """
    _require_memory(config)
    n_members = config.n_members
    prop = BatchPropagator(config.lattice)
    ideal = _initial_block(config, range(config.n_states))
    branch = perturbed_branch(config, prop,
                              np.repeat(ideal, config.n_noise, axis=0),
                              range(n_members), config.t_max)

    # member s * n_noise + j starts from state s; the overlap reads each
    # ideal row once for its n_noise members, with no gathered copy.  A
    # slice of ideal rows steps and takes its members' overlaps in one
    # job, so the overlaps run on the slice threads too, and conjugates
    # one propagator tile of ideal rows (at most 2^16 amplitudes) at a
    # time, not the whole block
    overlap = np.empty((config.n_states, config.n_noise), dtype=complex)

    def step_ideal(rows, pert, out):
        rows = prop.step(rows)
        for part in prop._tiles(rows):
            np.einsum("sn,skn->sk", rows[part].conj(), pert[part],
                      out=out[part])
        return rows

    member_f = np.empty((n_members, config.t_max + 1))
    member_f[:, 0] = 1.0
    for t, pert in enumerate(branch, 1):
        ideal = _step_in_slices(
            step_ideal, ideal,
            pert.reshape(config.n_states, config.n_noise, -1), overlap)
        member_f[:, t] = np.abs(overlap.ravel()) ** 2

    np.clip(member_f, 0.0, 1.0, out=member_f)
    f = member_f.mean(axis=0)
    if n_members > 1:
        f_err = member_f.std(axis=0, ddof=1) / math.sqrt(n_members)
    else:
        f_err = np.zeros(config.t_max + 1)
    return FidelityCurve(t=np.arange(config.t_max + 1), f=f, f_err=f_err,
                         member_f=member_f, config=config)


# ---------------------------------------------------------------------------
# fits and time scales
# ---------------------------------------------------------------------------

def _window_mask(t, f, window):
    lo, hi = window
    return (f >= lo) & (f <= hi) & (t > 0) & (f > 0)


def fit_decay(curve_or_tf, model: str = EXPONENTIAL,
              window: tuple = DEFAULT_FIT_WINDOW,
              min_points: int = 5) -> DecayFit:
    """Least-squares decay fit of -log f against t or t^2.

    Accepts a FidelityCurve or a (t, f) pair.  The fit uses only
    points with f inside ``window``, needs at least ``min_points`` of
    them, and keeps a free intercept so an early transient offsets the
    fit instead of biasing the rate.
    """
    if isinstance(curve_or_tf, FidelityCurve):
        t, f = curve_or_tf.t, curve_or_tf.f
    else:
        t, f = curve_or_tf
        t, f = np.asarray(t, float), np.asarray(f, float)
    if model not in (EXPONENTIAL, GAUSSIAN):
        raise ValueError(f"unknown model {model!r}")
    mask = _window_mask(t, f, window)
    n = int(mask.sum())
    if n < min_points:
        raise FitError(
            f"only {n} points inside f-window {window}, need {min_points}")
    x = t[mask].astype(float)
    if model == GAUSSIAN:
        x = x * x
    y = -np.log(f[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(model=model, rate=float(slope), window=tuple(window),
                    r_squared=r2, n_points=n, intercept=float(intercept))


_TF_LEVEL = 0.9


def estimate_tf(curve: FidelityCurve) -> TfRecord:
    """First crossing f(t_f) = 0.9, linearly interpolated between steps."""
    f = curve.f
    below = np.nonzero(f < _TF_LEVEL)[0]
    if below.size == 0:
        raise NoCrossingError(f"curve never drops below A={_TF_LEVEL}")
    i = int(below[0])
    if i == 0:
        raise NoCrossingError("curve starts below A; no crossing")
    t_f = (i - 1) + (f[i - 1] - _TF_LEVEL) / (f[i - 1] - f[i])
    return TfRecord(t_f=float(t_f), n_q=curve.config.lattice.n_q,
                    epsilon=curve.config.epsilon)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _point_seed(master_seed: int, index: int) -> int:
    """Independent derived master seed for sweep grid point ``index``."""
    return int(streams.stream(master_seed, streams.DOMAIN_SWEEP, index)
               .integers(2 ** 63))


def _require_positive(name: str, amplitudes):
    """Refuse a noiseless sweep: its step count scales as 1/amplitude^2.

    A NaN or infinite amplitude passes here; ExperimentConfig refuses it.
    """
    bad = [a for a in amplitudes if a <= 0]
    if bad:
        raise ValueError(f"{name} must be > 0 for a sweep, got {bad[0]!r}")


def _span(e_folds, rate, lo, hi, name, amplitude):
    """Steps for ``e_folds`` e-folds at ``rate`` per step, within [lo, hi].

    The rate grows as amplitude^2, so an amplitude whose rate underflows
    to 0 is refused, naming ``name`` and ``amplitude``.  A NaN rate gives
    ``lo``, and ExperimentConfig then refuses the amplitude itself.
    """
    if rate == 0:
        raise ValueError(f"{name} = {amplitude!r} is too small for a sweep: "
                         f"its decay rate per step underflows to 0")
    return int(min(max(lo, e_folds / rate), hi))


def _run_point(point):
    """Record of one sweep point ``(config, measure, failed)``.

    The record is ``measure(fidelity_curve(config))``, or
    ``measure(None)`` for a point decided without a curve (config
    None).  If the measure raises FitError or NoCrossingError, the
    point logs one warning that names ``failed`` and keeps ``failed``,
    its NaN record.
    """
    config, measure, failed = point
    try:
        return measure(None if config is None else fidelity_curve(config))
    except (FitError, NoCrossingError) as exc:
        log.warning("sweep point %r: %s", failed, exc)
        return failed


def _run_points(points, jobs):
    """Records of the sweep ``points`` in order (see :func:`_run_point`).

    The points run on at most min(jobs, points, :func:`_usable_cpus`)
    worker processes, each of which steps its blocks in one slice, as
    the same rule says inside a worker.  Every measure is a module-level
    function or a ``partial`` of one, so a point pickles under any start
    method.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(points), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_point, points))
    return [_run_point(point) for point in points]


# most steps of a t_f point, and how far beyond them a crossing estimate
# decides the point before it runs: the decay is exponential, so at
# half its crossing time the mean f is still near 0.9^(1/2) = 0.95
_TF_CAP = 20000
_TF_OUT_OF_REACH = 2


def _beyond_cap(t_guess: float, curve) -> TfRecord:
    """Measure of a t_f point too slow to cross within the cap."""
    raise NoCrossingError(
        f"crossing estimate of {t_guess:.0f} steps is more than "
        f"{_TF_OUT_OF_REACH} x the {_TF_CAP}-step cap")


def sweep_tf(n_q_list, epsilon_list, K: float, n_noise: int = 50,
             master_seed: int = 0, jobs: int = 1):
    """t_f on the (n_q, epsilon) grid, fresh ensembles per point.

    Every point starts from the packet at (1, 0).
    A point whose curve never crosses keeps its place with t_f = NaN;
    so does, with its warning but without running, a point whose
    crossing estimate 0.126/(eps^2 n_q^2) lies more than
    ``_TF_OUT_OF_REACH`` times beyond the ``_TF_CAP``-step cap.
    An epsilon <= 0, or one whose rate eps^2 n_q^2 underflows to 0, is
    refused with ValueError before any point runs.
    """
    _require_positive("epsilon", epsilon_list)
    points = []
    for i, (n_q, epsilon) in enumerate(product(n_q_list, epsilon_list)):
        # the crossing sits near 0.126/(eps^2 nq^2); leave generous headroom
        rate = epsilon ** 2 * n_q ** 2
        t_max = _span(0.32, rate, 12, _TF_CAP, "epsilon", epsilon)
        failed = TfRecord(t_f=math.nan, n_q=n_q, epsilon=epsilon)
        if 0.126 / rate > _TF_OUT_OF_REACH * _TF_CAP:
            points.append((None, partial(_beyond_cap, 0.126 / rate), failed))
            continue
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=n_q, K=K), channel="quantum",
            epsilon=epsilon, theta0=1.0, p0=0.0, t_max=t_max,
            n_noise=n_noise, master_seed=_point_seed(master_seed, i))
        points.append((config, estimate_tf, failed))
    return _run_points(points, jobs)


def collapse_constant(records) -> float:
    """Mean collapse combination t_f * epsilon^2 * n_q^2 over records.

    Records with a NaN t_f are skipped.
    """
    values = [r.collapse for r in records if not math.isnan(r.collapse)]
    if not values:
        raise ValueError("no records with a finite t_f")
    return float(np.mean(values))


# the initial state of each kind, as ExperimentConfig fields
_KIND_STATES = {"island": dict(theta0=1.0, p0=0.0),
                "diffusive": dict(theta0=0.0, p0=0.0),
                "random": dict(initial="random")}


def _rate_record(kind: str, curve: FidelityCurve) -> RateRecord:
    """Exponential decay rate of one rate-sweep curve."""
    fit = fit_decay(curve, EXPONENTIAL)
    return RateRecord(K=curve.config.lattice.K, kind=kind, rate=fit.rate,
                      r_squared=fit.r_squared)


def sweep_rate_vs_K(K_list, n_q: int = 9, epsilon: float = 1e-2,
                    n_noise: int = 25, t_max: int | None = None,
                    master_seed: int = 0, jobs: int = 1):
    """Fitted quantum-channel decay rate per (K, initial-state kind).

    Kinds: "island" is a packet at (1, 0), inside the main island when
    -4 < K < 0; "diffusive" is a packet at (0, 0) in the chaotic
    layer; "random" is a uniform-modulus random-phase state.  A point
    that cannot be fitted keeps its place with NaN rate and r^2.
    An epsilon <= 0, or one whose rate sets no step count (it underflows
    to 0), is refused with ValueError before any point runs.
    """
    _require_positive("epsilon", [epsilon])
    if t_max is None:
        t_max = _span(3.5, 0.25 * epsilon ** 2 * _noisy_gates(n_q), 40,
                      20000, "epsilon", epsilon)
    points = []
    for i, (K, kind) in enumerate(product(K_list, _KIND_STATES)):
        config = ExperimentConfig(
            lattice=LatticeParams(n_q=n_q, K=K), channel="quantum",
            epsilon=epsilon, t_max=t_max, n_noise=n_noise,
            master_seed=_point_seed(master_seed, 101 + i),
            **_KIND_STATES[kind])
        failed = RateRecord(K=K, kind=kind, rate=math.nan, r_squared=math.nan)
        points.append((config, partial(_rate_record, kind), failed))
    return _run_points(points, jobs)


def saturation_window(lattice: LatticeParams) -> tuple:
    """f-window isolating the saturated decay of strong kick noise.

    Strong per-step noise decoheres most ensemble members within a few
    steps, producing a fast perturbation-dependent shoulder above
    f ~ 0.1; the perturbation-independent decay at the classical
    stretching rate shows up below it, until the curve bends onto the
    finite-N floor (a few times 1/N for a mean over members).  The
    window [16/N, 0.08] keeps the fit inside that band.
    """
    return (16.0 / lattice.N, 0.08)


def _regime_record(bootstrap: int, failed: RegimeRecord,
                   curve: FidelityCurve) -> RegimeRecord:
    """Decay fits of one regime-sweep curve, filled into ``failed``.

    ``failed`` holds the point's amplitudes, regime, window and
    Lyapunov exponent.  An island curve keeps whichever decay model
    fits better; the others keep the exponential fit.
    """
    window = failed.window
    fit_exp = fit_decay(curve, EXPONENTIAL, window)
    try:
        fit_gauss = fit_decay(curve, GAUSSIAN, window)
    except FitError:
        fit_gauss = None

    if failed.regime == "island" and fit_gauss is not None:
        best = fit_gauss if fit_gauss.r_squared > fit_exp.r_squared else fit_exp
    else:
        best = fit_exp

    stderr = math.nan
    if bootstrap and curve.member_f.shape[0] > 3:
        stderr = _bootstrap_rate_stderr(curve, best.model, window, bootstrap)

    return replace(
        failed, model=best.model, rate=best.rate, rate_stderr=stderr,
        r_squared=best.r_squared, r2_exponential=fit_exp.r_squared,
        r2_gaussian=None if fit_gauss is None else fit_gauss.r_squared)


def _bootstrap_rate_stderr(curve: FidelityCurve, model: str, window,
                           n_boot: int) -> float:
    """Rate spread over member-resampled mean curves."""
    member_f = curve.member_f
    m = member_f.shape[0]
    rng = np.random.default_rng(0xB007)
    rates = []
    for _ in range(n_boot):
        pick = rng.integers(0, m, m)
        f = member_f[pick].mean(axis=0)
        try:
            rates.append(fit_decay((curve.t, f), model, window,
                                   min_points=3).rate)
        except FitError:
            continue
    if len(rates) < max(10, n_boot // 4):
        return math.inf
    return float(np.std(rates, ddof=1))


def classical_error_regimes(K: float, deltaK_list, n_q: int = 12,
                            n_states: int = 50, n_noise: int = 1,
                            t_max: int | None = None, master_seed: int = 0,
                            bootstrap: int = 200, jobs: int = 1):
    """Classify kick-noise amplitudes into decay regimes.

    For chaotic K each delta_K is tagged "fgr" (couples less than one
    momentum level, delta_k < 1) or "lyapunov" (delta_k > 1), and its
    exponential rate is fitted in the matching window: the default
    window for perturbative decay, the post-shoulder band of
    :func:`saturation_window` for saturated decay.  For stable K the
    initial state is the canonical island packet and both decay models
    compete on r^2.  ``rate_stderr`` is the rate's spread over
    ``bootstrap`` member-resampled curves, NaN without a bootstrap or
    with fewer than four members.  A point that cannot be fitted keeps
    its place with model "none" and NaN rate, rate_stderr and r^2.
    Every amplitude runs a curve; the perturbative step count scales as
    1/delta_k^2, so, as the gate sweeps refuse epsilon <= 0, a delta_K
    that is zero or negative, or not finite, or so small that
    0.2 delta_k^2 underflows to 0, is refused with ValueError before any
    point runs.
    """
    _require_positive("delta_K", deltaK_list)
    lattice = LatticeParams(n_q=n_q, K=K)
    island = -4.0 <= K <= 0.0
    # the canonical island packet, or uniform centers over the chaotic torus
    theta0, p0 = (1.0, 0.0) if island else (None, None)
    points = []
    for i, delta_K in enumerate(deltaK_list):
        delta_k = delta_K / lattice.T
        regime = ("island" if island
                  else "lyapunov" if delta_k > 1.0 else "fgr")
        window = (saturation_window(lattice) if regime == "lyapunov"
                  else DEFAULT_FIT_WINDOW)
        failed = RegimeRecord(
            delta_K=delta_K, delta_k=delta_k, regime=regime, model="none",
            rate=math.nan, rate_stderr=math.nan, r_squared=math.nan,
            r2_exponential=None, r2_gaussian=None, window=window,
            lyapunov=lyapunov_exponent(K))
        steps = t_max
        if steps is None and regime == "fgr":
            # perturbative rate estimate Gamma ~ 0.24 delta_k^2 sets the span
            steps = _span(4.0, 0.2 * delta_k ** 2, 40, 30000,
                          "delta_K", delta_K)
        elif steps is None:
            steps = 60 if regime == "lyapunov" else 1500

        # refuses a non-finite delta_K
        config = ExperimentConfig(
            lattice=lattice, channel="classical", delta_K=delta_K,
            theta0=theta0, p0=p0, t_max=steps, n_states=n_states,
            n_noise=n_noise, master_seed=_point_seed(master_seed, 211 + i))
        points.append((config, partial(_regime_record, bootstrap, failed),
                       failed))
    return _run_points(points, jobs)


# ---------------------------------------------------------------------------
# scattering circuit
# ---------------------------------------------------------------------------

def scattering_fidelity(config: ExperimentConfig, t: int,
                        mode: str = "analytic", shots: int = 10 ** 4,
                        member: int = 0) -> float:
    """Fidelity at step t from the ancilla-interference circuit.

    Simulates the (n_q + 1)-qubit circuit: Hadamard on a fresh
    ancilla, then, controlled on the ancilla, the echo operator (t
    noisy forward steps followed by t exact inverse steps), then a
    closing ancilla Hadamard.  The ancilla polarizations recover the
    complex overlap w = <psi | echo | psi>:

        <sigma_z> = Re w,    <sigma_y> = -Im w,

    and the fidelity is <sigma_z>^2 + <sigma_y>^2 = |w|^2.  Only the
    initial state of member ``member`` is built, and its noise stream
    matches :func:`fidelity_curve` member ``member``, so the analytic
    mode equals the direct overlap at identical draws.  The memory
    guard estimates the echo's own peak, whatever the member: one
    state's rows and a one-member chunk (see :func:`_peak_bytes`).

    mode "analytic" evaluates the polarizations from the joint state;
    mode "sampled" estimates each from ``shots`` simulated projective
    measurements (two settings, 2 * shots measurements total).  A
    ``shots`` below 1 is refused in either mode, before any step runs.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if mode not in ("analytic", "sampled"):
        raise ValueError("mode must be 'analytic' or 'sampled'")
    if not 0 <= member < config.n_members:
        raise ValueError(f"member must be in [0, {config.n_members})")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    _require_memory(config, echo=True)
    (psi,) = _initial_block(config, [member // config.n_noise])

    # |1>-branch: forward noisy evolution, then exact inverse
    prop = BatchPropagator(config.lattice)
    branch = psi.copy().reshape(1, -1)
    for branch in perturbed_branch(config, prop, branch, [member], t):
        pass
    for _ in range(t):
        branch = prop.step_inverse(branch)
    del prop  # its phase tables are not held while the fidelity is read

    # joint (ancilla, system) state after the closing Hadamard:
    # a0 = (psi + echo psi)/2, a1 = (psi - echo psi)/2
    echo = branch[0]
    a0 = 0.5 * (psi + echo)
    a1 = 0.5 * (psi - echo)
    sz = float(np.sum(np.abs(a0) ** 2) - np.sum(np.abs(a1) ** 2))
    sy = float(2.0 * np.sum(np.imag(np.conj(a0) * a1)))

    if mode == "sampled":
        rng = streams.stream(config.master_seed, streams.DOMAIN_SHOTS, member, t)
        hits_z = rng.binomial(shots, np.clip((1.0 + sz) / 2.0, 0.0, 1.0))
        hits_y = rng.binomial(shots, np.clip((1.0 + sy) / 2.0, 0.0, 1.0))
        sz = 2.0 * hits_z / shots - 1.0
        sy = 2.0 * hits_y / shots - 1.0

    return sz * sz + sy * sy

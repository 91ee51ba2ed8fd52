"""Span tracing of the package, installed from outside.

``Tracer.install`` replaces public callables by attribute assignment,
inside this process only, with wrappers that record a span per call:
name, layer, start, end and parent span.  ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory; ``layer_metrics`` reduces them
to busy and self times per layer, and ``dump`` writes them out.

Layers and the callables that mark them:

  propagator  BatchPropagator.step, BatchPropagator.step_inverse
  circuit     CircuitEngine.step_noisy
  streams     streams.stream for the gate and kick noise domains, and
              ``uniform`` on the generators it returns
  states      packet_amplitudes, random_amplitudes (as experiments
              sees them)
  curve       fidelity_curve
  fit         fit_decay, estimate_tf (bootstrap fits included)
  sweep       sweep_rate_vs_K, sweep_tf, classical_error_regimes
  scattering  scattering_fidelity
  cli         cli.main
  io          io.write_csv, io.write_json (the writers the others use)

Functions that another module imports by name are replaced in that
module's globals too (``cli`` imports the experiment functions).
"""

from __future__ import annotations

import functools
import json
import math
import os
import time

import numpy as np

import sawtoothsim.cli as cli
import sawtoothsim.experiments as ex
import sawtoothsim.io as sio
from sawtoothsim import streams
from sawtoothsim.circuit import CircuitEngine
from sawtoothsim.propagator import BatchPropagator

NOISE_DOMAINS = (streams.DOMAIN_GATE, streams.DOMAIN_CLASSICAL)


class _TimedGenerator:
    """Generator proxy whose ``uniform`` calls are spans of the streams layer."""

    def __init__(self, tracer, rng):
        self._rng = rng
        self.uniform = tracer.wrap("uniform", "streams", rng.uniform,
                                   on_call=tracer._count_draws)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        # span rows: [layer, name, start, end, parent index]
        self.spans = []
        self._stack = []
        self.draws = 0
        self.fit_ok = 0
        self.sweep_ok = 0
        self.sweep_points = 0
        self.sweep_bad_points = 0
        self.io_bytes = 0
        self.circuit_kernels = []
        self.circuit_bytes = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def wrap(self, name, layer, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            row = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(row)
            stack.append(index)
            if on_call is not None:
                on_call(args, kwargs)
            row[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _count_draws(self, args, kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.draws += 1 if size is None else int(np.prod(size))

    def _count_fit(self, args, result):
        self.fit_ok += 1

    def _count_sweep(self, args, records):
        self.sweep_ok += 1
        self.sweep_points += len(records)
        self.sweep_bad_points += sum(
            1 for r in records
            if not math.isfinite(getattr(r, "rate", getattr(r, "t_f", math.nan))))

    def _count_circuit(self, args, kwargs):
        engine, amps = args[0], args[1]
        # one kernel per program element plus the offset-phase pass,
        # each reading and writing the block once
        kernels = len(engine.program.gates) + 1
        self.circuit_kernels.append(kernels)
        self.circuit_bytes.append(kernels * 2 * amps.nbytes)

    def _count_io(self, args, result):
        self.io_bytes += os.path.getsize(args[0])

    def _stream(self, fn):
        wrapped = self.wrap("stream", "streams", fn)

        @functools.wraps(fn)
        def stream(master_seed, *path):
            if path and path[0] in NOISE_DOMAINS:
                return _TimedGenerator(self, wrapped(master_seed, *path))
            return fn(master_seed, *path)

        return stream

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        plain = {
            "fidelity_curve": ("curve", None),
            "fit_decay": ("fit", self._count_fit),
            "estimate_tf": ("fit", self._count_fit),
            "sweep_rate_vs_K": ("sweep", self._count_sweep),
            "sweep_tf": ("sweep", self._count_sweep),
            "classical_error_regimes": ("sweep", self._count_sweep),
            "scattering_fidelity": ("scattering", None),
            "packet_amplitudes": ("states", None),
            "random_amplitudes": ("states", None),
        }
        for name, (layer, on_return) in plain.items():
            traced = self.wrap(name, layer, getattr(ex, name), on_return=on_return)
            for module in (ex, cli):
                if name in module.__dict__:
                    self._replace(module, name, traced)
        for name in ("step", "step_inverse"):
            self._replace(BatchPropagator, name, self.wrap(
                name, "propagator", getattr(BatchPropagator, name)))
        self._replace(CircuitEngine, "step_noisy", self.wrap(
            "step_noisy", "circuit", CircuitEngine.step_noisy,
            on_call=self._count_circuit))
        self._replace(streams, "stream", self._stream(streams.stream))
        for name in ("write_csv", "write_json"):
            self._replace(sio, name, self.wrap(name, "io", getattr(sio, name),
                                               on_return=self._count_io))
        self._replace(cli, "main", self.wrap("main", "cli", cli.main))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def _times(self):
        """Layer, duration and self time of every span."""
        layer = np.array([s[0] for s in self.spans], dtype=str)
        dur = np.array([s[3] - s[2] for s in self.spans], dtype=float)
        parent = np.array([s[4] for s in self.spans], dtype=int)
        child = np.zeros(len(self.spans))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return layer, dur, dur - child

    def layer_metrics(self, reps: int) -> dict:
        """Per-repetition layer metrics over ``reps`` traced repetitions."""
        layer, dur, self_time = self._times()

        def of(name):
            return layer == name

        def pct_ms(name, q, min_samples=1):
            d = dur[of(name)]
            if d.size < min_samples:
                return 0.0
            return float(np.percentile(d, q) * 1e3)

        fit_calls = int(of("fit").sum())
        # a sweep that raises loses all its points; count it as one failure
        sweep_failed = int(of("sweep").sum()) - self.sweep_ok + self.sweep_bad_points
        return {
            "circuit.calls": int(of("circuit").sum()) / reps,
            "circuit.busy_s": float(dur[of("circuit")].sum()) / reps,
            "circuit.step_ms_p50": pct_ms("circuit", 50),
            "circuit.step_ms_p90": pct_ms("circuit", 90, min_samples=100),
            "circuit.kernels_per_step": float(np.mean(self.circuit_kernels))
            if self.circuit_kernels else 0.0,
            "circuit.bytes_per_step": float(np.mean(self.circuit_bytes))
            if self.circuit_bytes else 0.0,
            "propagator.calls": int(of("propagator").sum()) / reps,
            "propagator.busy_s": float(dur[of("propagator")].sum()) / reps,
            "propagator.step_ms_p50": pct_ms("propagator", 50),
            "streams.draws": self.draws / reps,
            "streams.busy_s": float(dur[of("streams")].sum()) / reps,
            "curve.self_s": float(self_time[of("curve")].sum()) / reps,
            "states.busy_s": float(dur[of("states")].sum()) / reps,
            "fit.calls": fit_calls / reps,
            "fit.busy_s": float(dur[of("fit")].sum()) / reps,
            "fit.yield": self.fit_ok / fit_calls if fit_calls else 0.0,
            "sweep.points": self.sweep_points / reps,
            "sweep.failed": sweep_failed / reps,
            "sweep.self_s": float(self_time[of("sweep")].sum()) / reps,
            "cli.self_s": float(self_time[of("cli")].sum()) / reps,
            "io.write_s": float(dur[of("io")].sum()) / reps,
            "io.bytes": self.io_bytes / reps,
            "scattering.calls": int(of("scattering").sum()) / reps,
            "scattering.self_s": float(self_time[of("scattering")].sum()) / reps,
        }

    def dump(self, path, extra: dict):
        rows = [{"layer": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": rows}, fh)


def shares(metrics: dict, wall_s: float) -> dict:
    """Share per layer of the mean traced repetition, from busy or self time."""
    busy = {
        "circuit": "circuit.busy_s", "propagator": "propagator.busy_s",
        "streams": "streams.busy_s", "states": "states.busy_s",
        "curve": "curve.self_s", "fit": "fit.busy_s", "sweep": "sweep.self_s",
        "scattering": "scattering.self_s", "cli": "cli.self_s",
        "io": "io.write_s",
    }
    return {layer: metrics[key] / wall_s for layer, key in busy.items()}

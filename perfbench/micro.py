"""Per-layer micro grid at n_q in {6, 9, 12} x members in {1, 50}.

Rows (suffix ``.nq<n>.m<m>``), each the median wall time of one call:

  propagator.step_ms       BatchPropagator.step, noiseless
  propagator.kick_step_ms  BatchPropagator.step with a per-member kick
  circuit.step_ms          CircuitEngine.step_noisy, full program
  circuit.<kind>_ms        CircuitEngine.step_noisy on a program made of
                           the gates of one kind of the full program
                           (hadamard, cphase, phase, bitrev)
  streams.draw_ms          one step's noise draws for every member

The per-kind rows go through the public ``CircuitProgram`` /
``CircuitEngine`` interface only, so an engine that keeps that
interface is measured the same way.  Each of them includes the one
offset-phase pass over the block that every program execution makes.
"""

from __future__ import annotations

import time

import numpy as np

from sawtoothsim import streams
from sawtoothsim.circuit import (
    PARAMS_PER_GATE,
    CircuitEngine,
    CircuitProgram,
    build_sawtooth_circuit,
)
from sawtoothsim.propagator import BatchPropagator
from sawtoothsim.states import LatticeParams

GRID_NQ = (6, 9, 12)
GRID_MEMBERS = (1, 50)
GATE_KINDS = ("hadamard", "cphase", "phase", "bitrev")
EPSILON = 1e-2
K = 0.1

# per row: at least MIN_SAMPLES calls, then stop once MIN_SECONDS of
# calls are collected or MAX_SAMPLES is reached
MIN_SAMPLES, MAX_SAMPLES, MIN_SECONDS = 3, 200, 0.15


def _median_ms(call, state):
    """Median wall time of ``state = call(state)`` in milliseconds."""
    samples = []
    while len(samples) < MIN_SAMPLES or (
            sum(samples) < MIN_SECONDS and len(samples) < MAX_SAMPLES):
        t0 = time.perf_counter()
        state = call(state)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples)) * 1e3


def _params(rng, members, n_noisy):
    return rng.uniform(-EPSILON, EPSILON, (members, n_noisy, PARAMS_PER_GATE))


def grid(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = {}
    for n_q in GRID_NQ:
        lattice = LatticeParams(n_q=n_q, K=K)
        prop = BatchPropagator(lattice)
        program = build_sawtooth_circuit(lattice)
        for m in GRID_MEMBERS:
            suffix = f".nq{n_q}.m{m}"
            block = rng.normal(size=(m, lattice.N)) + 1j * rng.normal(size=(m, lattice.N))
            block /= np.linalg.norm(block, axis=1, keepdims=True)
            dk = rng.uniform(-1.0, 1.0, m)

            rows["propagator.step_ms" + suffix] = _median_ms(prop.step, block)
            rows["propagator.kick_step_ms" + suffix] = _median_ms(
                lambda a: prop.step(a, dk), block)

            engine = CircuitEngine(program)
            params = _params(rng, m, program.noisy_gate_count)
            rows["circuit.step_ms" + suffix] = _median_ms(
                lambda a: engine.step_noisy(a, params), block.copy())
            for kind in GATE_KINDS:
                sub = CircuitProgram(
                    n_q=n_q, phase_offset=0.0,
                    gates=tuple(g for g in program.gates if g.kind == kind))
                sub_engine = CircuitEngine(sub)
                sub_params = _params(rng, m, sub.noisy_gate_count)
                rows[f"circuit.{kind}_ms{suffix}"] = _median_ms(
                    lambda a: sub_engine.step_noisy(a, sub_params), block.copy())

            gens = [streams.stream(seed, streams.DOMAIN_GATE, i) for i in range(m)]
            shape = (program.noisy_gate_count, PARAMS_PER_GATE)

            def draw(_):
                for g in gens:
                    g.uniform(-EPSILON, EPSILON, shape)

            rows["streams.draw_ms" + suffix] = _median_ms(draw, None)
    return rows


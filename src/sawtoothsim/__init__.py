"""Sawtooth-map fidelity-decay simulator.

Simulates the quantized sawtooth map with a split-operator propagator,
with a gate-level circuit under unitary noise, and as a classical
phase-space system, and measures how perturbations degrade the overlap
between ideal and perturbed evolutions.
"""

from .classical import (
    ClassicalParams,
    PhasePoint,
    island_frequency,
    island_rotation_number,
    frequency_shift,
    lyapunov_exponent,
    lyapunov_numeric,
    poincare_section,
    step_classical,
    trajectory,
)
from .states import (
    LatticeParams,
    QuantumState,
    WavePacketSpec,
    fidelity,
    gaussian_packet,
    random_state,
    to_angle,
    to_momentum,
)
from .propagator import (
    BatchPropagator,
    step_exact,
)
from .circuit import (
    CircuitEngine,
    CircuitProgram,
    Gate,
    build_sawtooth_circuit,
    circuit_deviation,
)
from .experiments import (
    DecayFit,
    ExperimentConfig,
    FidelityCurve,
    FitError,
    NoCrossingError,
    RateRecord,
    RegimeRecord,
    TfRecord,
    classical_error_regimes,
    collapse_constant,
    estimate_tf,
    fidelity_curve,
    fit_decay,
    scattering_fidelity,
    sweep_rate_vs_K,
    sweep_tf,
)
from .io import (
    config_metadata,
    read_config,
    read_state,
    write_circuit,
    write_csv,
    write_curve,
    write_json,
    write_poincare,
    write_records,
    write_state,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalParams", "PhasePoint",
    "island_frequency", "island_rotation_number", "frequency_shift",
    "lyapunov_exponent", "lyapunov_numeric", "poincare_section",
    "step_classical", "trajectory",
    "LatticeParams", "QuantumState", "WavePacketSpec", "fidelity",
    "gaussian_packet", "random_state", "to_angle", "to_momentum",
    "BatchPropagator", "step_exact",
    "CircuitEngine", "CircuitProgram", "Gate", "build_sawtooth_circuit",
    "circuit_deviation",
    "DecayFit", "ExperimentConfig", "FidelityCurve", "FitError",
    "NoCrossingError", "RateRecord", "RegimeRecord", "TfRecord",
    "classical_error_regimes", "collapse_constant", "estimate_tf",
    "fidelity_curve", "fit_decay", "scattering_fidelity", "sweep_rate_vs_K",
    "sweep_tf",
    "config_metadata", "read_config", "read_state", "write_circuit",
    "write_csv", "write_curve", "write_json", "write_poincare",
    "write_records", "write_state",
    "__version__",
]

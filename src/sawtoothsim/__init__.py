"""Sawtooth-map fidelity-decay simulator.

Simulates the quantized sawtooth map with a split-operator propagator,
with a gate-level circuit under unitary noise, and as a classical
phase-space system, and measures how perturbations degrade the overlap
between ideal and perturbed evolutions.
"""

from .classical import (
    PhasePoint,
    lyapunov_exponent,
    lyapunov_numeric,
    poincare_section,
)
from .states import (
    LatticeParams,
    WavePacketSpec,
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
    read_config,
    write_circuit,
    write_csv,
    write_curve,
    write_json,
    write_poincare,
)

__version__ = "0.1.0"

__all__ = [
    "PhasePoint",
    "lyapunov_exponent", "lyapunov_numeric", "poincare_section",
    "LatticeParams", "WavePacketSpec",
    "BatchPropagator", "step_exact",
    "CircuitEngine", "CircuitProgram", "Gate", "build_sawtooth_circuit",
    "circuit_deviation",
    "DecayFit", "ExperimentConfig", "FidelityCurve", "FitError",
    "NoCrossingError", "RateRecord", "RegimeRecord", "TfRecord",
    "classical_error_regimes", "collapse_constant", "estimate_tf",
    "fidelity_curve", "fit_decay", "scattering_fidelity", "sweep_rate_vs_K",
    "sweep_tf",
    "read_config", "write_circuit",
    "write_csv", "write_curve", "write_json", "write_poincare",
    "__version__",
]

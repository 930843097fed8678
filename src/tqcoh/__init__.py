"""Coherence dynamics of Bell states in a coupled two-qubit superconducting circuit.

The package models a pair of qubits with a zz mutual coupling (energy
``e_m``) and transverse Josephson tunnelling (energy ``e_j``), propagates
the four Bell states under the exact unitary, and tracks the l1 norm of
coherence of the resulting density matrices. Every closed-form expression
is cross-validated against an independent numeric spectral pipeline.
"""

__version__ = "0.1.0"

from .coherence import (
    CoherenceExtrema,
    DensityMatrixError,
    closed_form_coherence,
    coherence_extrema,
    l1_coherence,
    validate_density,
)
from .evolution import (
    BellLabel,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from .linalg import (
    EigenConvergenceError,
    EigenSystem,
    hermitian_eigensystem,
)
from .model import (
    CircuitParams,
    InputError,
    build_hamiltonian_tensor,
    scaled_energies,
)
from .scan import (
    CoherenceSeries,
    OperatingPoint,
    ScanGrid,
    TimeGrid,
    ValidationReport,
    cross_validate,
    find_operating_point,
    grid_scan,
    time_series,
)

__all__ = [
    "BellLabel",
    "CircuitParams",
    "CoherenceExtrema",
    "CoherenceSeries",
    "DensityMatrix",
    "DensityMatrixError",
    "EigenConvergenceError",
    "EigenSystem",
    "InputError",
    "OperatingPoint",
    "ScanGrid",
    "StateVector",
    "TimeGrid",
    "UnitaryMatrix",
    "ValidationReport",
    "__version__",
    "analytic_propagator",
    "bell_state",
    "build_hamiltonian_tensor",
    "closed_form_coherence",
    "closed_form_density",
    "coherence_extrema",
    "cross_validate",
    "density_matrix",
    "evolve",
    "find_operating_point",
    "grid_scan",
    "hermitian_eigensystem",
    "l1_coherence",
    "numeric_propagator",
    "scaled_energies",
    "time_series",
    "validate_density",
]

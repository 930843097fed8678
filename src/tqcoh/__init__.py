"""Coherence dynamics of Bell states in a coupled two-qubit superconducting circuit.

The package models a pair of qubits with a zz mutual coupling (energy
``e_m``) and transverse Josephson tunnelling (energy ``e_j``), propagates
the four Bell states under the exact unitary, and tracks the l1 norm of
coherence of the resulting density matrices. Every closed-form expression
is cross-validated against an independent numeric spectral pipeline.

The public API is what each module lists in its ``__all__``; the package
re-exports exactly those names.
"""

__version__ = "0.1.0"

from . import coherence, evolution, linalg, model, scan
from .coherence import *
from .evolution import *
from .linalg import *
from .model import *
from .scan import *

__all__ = [
    "__version__",
    *coherence.__all__,
    *evolution.__all__,
    *linalg.__all__,
    *model.__all__,
    *scan.__all__,
]

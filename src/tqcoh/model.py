"""Two-qubit superconducting circuit model.

The circuit couples two qubits through a zz interaction of strength
``e_m`` (mutual coupling energy) while each qubit tunnels transversally
with Josephson energy ``e_j``. All matrices are written in the fixed
computational basis ``{|00>, |01>, |10>, |11>}``, mapped to indices
0..3 in that order.

The Hamiltonian is assembled in two deliberately independent ways, once
from Pauli tensor products and once entry by entry, and the two results
must agree exactly. Its spectrum carries two frequency scales: a fast one,
``omega_fast = sqrt(16 e_j^2 + (hbar e_m)^2) / 4``, and a slow one,
``omega_slow = hbar e_m / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircuitParams",
    "FrequencyScales",
    "HamiltonianMatrix",
    "PAULI_X",
    "PAULI_Z",
    "build_hamiltonian_explicit",
    "build_hamiltonian_tensor",
    "frequency_scales",
    "scaled_energies",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID2 = np.eye(2)

_ZERO_PATTERN = ((0, 3), (3, 0), (1, 2), (2, 1))


@dataclass(frozen=True)
class CircuitParams:
    """Raw circuit energies, treated as plain model-unit numbers.

    e_j: Josephson (transverse tunnelling) energy, may be negative.
    e_m: mutual zz coupling energy, may be negative.
    hbar: reduced Planck constant in model units, strictly positive.
    """

    e_j: float
    e_m: float
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "e_j", float(self.e_j))
        object.__setattr__(self, "e_m", float(self.e_m))
        object.__setattr__(self, "hbar", float(self.hbar))
        for name in ("e_j", "e_m", "hbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class HamiltonianMatrix:
    """4x4 circuit Hamiltonian in the computational basis."""

    params: CircuitParams
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("Hamiltonian is not Hermitian within 1e-12")
        if np.any(m.imag != 0.0):
            raise ValueError("Hamiltonian entries must be purely real")
        for i, j in _ZERO_PATTERN:
            if m[i, j] != 0.0:
                raise ValueError(f"entry ({i},{j}) must be exactly zero")
        if np.trace(m) != 0.0:
            raise ValueError("Hamiltonian must be traceless")
        m.setflags(write=False)


@dataclass(frozen=True)
class FrequencyScales:
    """The two oscillation scales of the model.

    ``period_fast`` is pi / omega_fast, the period of the coherence
    oscillation of the non-stationary Bell states; it is None when
    omega_fast vanishes (constant dynamics).
    """

    omega_fast: float
    omega_slow: float
    period_fast: float | None


def build_hamiltonian_tensor(params: CircuitParams) -> HamiltonianMatrix:
    """Assemble the Hamiltonian from Pauli tensor products.

    H = (hbar^2 e_m / 4) sz(x)sz - (hbar e_j / 2) sx(x)I - (hbar e_j / 2) I(x)sx
    """
    coupling = 0.25 * params.hbar * params.hbar * params.e_m
    tunnel = -0.5 * params.hbar * params.e_j
    h = (
        coupling * np.kron(PAULI_Z, PAULI_Z)
        + tunnel * np.kron(PAULI_X, _ID2)
        + tunnel * np.kron(_ID2, PAULI_X)
    )
    return HamiltonianMatrix(params=params, matrix=h.astype(complex))


def build_hamiltonian_explicit(params: CircuitParams) -> HamiltonianMatrix:
    """Write the Hamiltonian matrix entry by entry.

    This must match :func:`build_hamiltonian_tensor` exactly; the two
    constructions cross-check each other.
    """
    coupling = 0.25 * params.hbar * params.hbar * params.e_m
    tunnel = -0.5 * params.hbar * params.e_j
    h = np.array(
        [
            [coupling, tunnel, tunnel, 0.0],
            [tunnel, -coupling, 0.0, tunnel],
            [tunnel, 0.0, -coupling, tunnel],
            [0.0, tunnel, tunnel, coupling],
        ]
    )
    return HamiltonianMatrix(params=params, matrix=h.astype(complex))


def scaled_energies(params: CircuitParams) -> tuple[float, float, float]:
    """(root, e_j / root, hbar e_m / root) with root = sqrt(16 e_j^2 + (hbar e_m)^2).

    Every closed form is written in these ratios, which are bounded by 1,
    so no intermediate under- or overflows where squaring the energies
    would. hypot keeps root = 0 exactly equivalent to e_j = e_m = 0, and
    there all three values are 0.
    """
    root = math.hypot(4.0 * params.e_j, params.hbar * params.e_m)
    if root == 0.0:
        return 0.0, 0.0, 0.0
    return root, params.e_j / root, params.hbar * params.e_m / root


def frequency_scales(params: CircuitParams) -> FrequencyScales:
    """Fast and slow frequency scales for a parameter point."""
    omega_fast = 0.25 * scaled_energies(params)[0]
    omega_slow = 0.5 * params.hbar * params.e_m
    period = math.pi / omega_fast if omega_fast > 0.0 else None
    return FrequencyScales(
        omega_fast=omega_fast, omega_slow=omega_slow, period_fast=period
    )

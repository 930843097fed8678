"""Two-qubit superconducting circuit model.

The circuit couples two qubits through a zz interaction of strength
``e_m`` (mutual coupling energy) while each qubit tunnels transversally
with Josephson energy ``e_j``. All matrices are written in the fixed
computational basis ``{|00>, |01>, |10>, |11>}``, mapped to indices
0..3 in that order.

The Hamiltonian is assembled from Pauli tensor products. Its spectrum
carries two frequency scales: a fast one,
``omega_fast = sqrt(16 e_j^2 + (hbar e_m)^2) / 4``, and a slow one,
``omega_slow = hbar e_m / 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircuitParams",
    "InputError",
    "build_hamiltonian_tensor",
    "scaled_energies",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# The three Kronecker products of build_hamiltonian_tensor, formed once.
_ZZ = np.kron(PAULI_Z, PAULI_Z)
_XI = np.kron(PAULI_X, np.eye(2))
_IX = np.kron(np.eye(2), PAULI_X)


class InputError(ValueError):
    """A caller-supplied input outside what the library accepts.

    Raised by the checks on parameters, grids, windows and draw counts,
    before any route runs; the message names the offending value. Every
    other ``ValueError`` here is a route or certificate failure.
    """


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
                raise InputError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.hbar <= 0.0:
            raise InputError(f"hbar must be positive, got {self.hbar!r}")
        # Every route scales the energies by these; Python floats overflow
        # to inf without a warning, so this runs before any numpy does.
        # hbar e_m, a factor of the coupling, comes first. ||H||_F (the
        # eigensolve's) bounds 2 |coupling| and 2 |tunnel|: H + H^T is finite.
        coupling = 0.25 * self.hbar * (self.hbar * self.e_m)
        tunnel = 0.5 * self.hbar * self.e_j
        scales = {
            "hbar e_m": self.hbar * self.e_m,
            "||H||_F": math.hypot(*4 * [coupling], *8 * [tunnel]),
            "1 / hbar": 1.0 / self.hbar,
            "hypot(4 e_j, hbar e_m)": math.hypot(4.0 * self.e_j, self.hbar * self.e_m),
        }
        for name, value in scales.items():
            if not math.isfinite(value):
                raise InputError(
                    f"parameters out of range: {name} overflows"
                    f" (e_j={self.e_j!r}, e_m={self.e_m!r}, hbar={self.hbar!r})"
                )


def build_hamiltonian_tensor(params: CircuitParams) -> np.ndarray:
    """The 4x4 Hamiltonian as a read-only float64 array, from Pauli tensor products.

    H = (hbar^2 e_m / 4) sz(x)sz - (hbar e_j / 2) sx(x)I - (hbar e_j / 2) I(x)sx

    Each entry sums at most one nonzero term, +-coupling or tunnel, both
    finite by :class:`CircuitParams`; so H is exactly real, symmetric and
    traceless, with exact zeros at (0,3), (3,0), (1,2) and (2,1).
    """
    coupling = 0.25 * params.hbar * (params.hbar * params.e_m)
    tunnel = -0.5 * params.hbar * params.e_j
    h = coupling * _ZZ + tunnel * _XI + tunnel * _IX
    h.setflags(write=False)
    return h


def scaled_energies(params: CircuitParams) -> tuple[float, float, float]:
    """(root, e_j / root, hbar e_m / root) with root = sqrt(16 e_j^2 + (hbar e_m)^2).

    Every closed form is written in these ratios, which are bounded by 1,
    so no intermediate under- or overflows where squaring the energies
    would. hypot keeps root = 0 exactly equivalent to e_j = hbar e_m = 0
    (the Hamiltonian is then zero), and there all three values are 0.
    """
    root = math.hypot(4.0 * params.e_j, params.hbar * params.e_m)
    if root == 0.0:
        return 0.0, 0.0, 0.0
    return root, params.e_j / root, params.hbar * params.e_m / root


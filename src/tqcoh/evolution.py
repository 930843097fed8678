"""Unitary time evolution of Bell states.

The propagator U(t) = exp(-i H t / hbar) is produced through two fully
independent routes:

* :func:`analytic_propagator` evaluates the closed-form matrix elements
  term by term as derived, so a transcription error in the formulas
  would surface as a cross-validation failure instead of being silently
  patched. Like every closed form here, it divides through by root with
  :func:`tqcoh.model.scaled_energies`, so it stays finite at huge
  energies and gives the identity at e_j = e_m = 0 without a special case;
* :func:`numeric_propagator` synthesises U(t) from the spectral
  decomposition, U = sum_j exp(-i lambda_j t / hbar) |v_j><v_j|.

On top of these sit the four Bell states, their propagated density
matrices, and the closed-form density trajectories for each Bell input.
The singlet-like states |phi-> and |psi-> are eigenstates of the
Hamiltonian, so their density matrices never move; |phi+> and |psi+>
oscillate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .linalg import EigenSystem, as_complex_matrix, hermitian_eigensystem
from .model import CircuitParams, HamiltonianMatrix, build_hamiltonian_tensor, scaled_energies

__all__ = [
    "BellLabel",
    "ConsistencyError",
    "DensityMatrix",
    "StateVector",
    "UnitaryMatrix",
    "analytic_propagator",
    "bell_state",
    "closed_form_density",
    "density_matrix",
    "eigenstate_check",
    "evolve",
    "numeric_propagator",
]

_SQRT_HALF = math.sqrt(0.5)


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. norm drift under evolution)."""


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states."""

    PHI_PLUS = "phi+"
    PSI_PLUS = "psi+"
    PHI_MINUS = "phi-"
    PSI_MINUS = "psi-"

    @property
    def stationary(self) -> bool:
        """Whether this Bell state is an eigenstate of the Hamiltonian."""
        return self in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS)


@dataclass(frozen=True)
class StateVector:
    """Four complex amplitudes over {|00>, |01>, |10>, |11>}, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {amp.shape}")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.sqrt(np.sum(np.abs(amp) ** 2)))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state is not normalised: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amp)
        amp.setflags(write=False)


@dataclass(frozen=True)
class UnitaryMatrix:
    """A certified 4x4 propagator for the given parameters and time."""

    matrix: np.ndarray
    time: float
    params: CircuitParams

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        defect = np.max(np.abs(m.conj().T @ m - np.eye(4)))
        # This bound also pins ||det U| - 1| below 8e-10 on a 4x4.
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary: max |U+U - I| = {defect:.3e}")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace d x d density matrix.

    Construction checks hermiticity and trace; positivity holds by
    construction in :func:`density_matrix` (a rank-one projector) and is
    certified by :func:`tqcoh.coherence.validate_density` (explicit
    eigenvalue check) for any other matrix.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(np.trace(m) - 1.0) > 1e-10:
            raise ValueError("density matrix trace deviates from 1 beyond 1e-10")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_BELL_AMPLITUDES = {
    BellLabel.PHI_PLUS: (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),
    BellLabel.PSI_PLUS: (0.0, _SQRT_HALF, _SQRT_HALF, 0.0),
    BellLabel.PHI_MINUS: (_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF),
    BellLabel.PSI_MINUS: (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),
}


def bell_state(label: BellLabel) -> StateVector:
    """The normalised Bell state for a label."""
    return StateVector(np.array(_BELL_AMPLITUDES[label], dtype=complex))


def _propagator_elements(params: CircuitParams, t):
    """The five distinct closed-form propagator elements.

    Returns (u11, u12, u14, u22, u23) where u11 also fills position (4,4),
    u12 fills the eight equal off-block positions, u14 fills (4,1), u22
    fills (3,3) and u23 fills (3,2). ``t`` may be a scalar or an array;
    the elements broadcast accordingly.
    """
    root, jr, mr = scaled_energies(params)
    t = np.asarray(t, dtype=float)
    sf = np.sin(0.25 * t * root)
    cf = np.cos(0.25 * t * root)
    ss = np.sin(0.25 * t * params.hbar * params.e_m)
    cs = np.cos(0.25 * t * params.hbar * params.e_m)

    u11 = -0.5j * mr * sf + 0.5 * cf - 0.5j * ss + 0.5 * cs
    u12 = 2.0j * jr * sf
    u14 = -0.5j * mr * sf + 0.5 * cf + 0.5j * ss - 0.5 * cs
    u22 = +0.5j * mr * sf + 0.5 * cf + 0.5j * ss + 0.5 * cs
    u23 = +0.5j * mr * sf + 0.5 * cf - 0.5j * ss - 0.5 * cs
    return u11, u12, u14, u22, u23


def _assemble_propagator(u11, u12, u14, u22, u23) -> np.ndarray:
    """Place the five distinct elements; works for scalar or batched input."""
    rows = [
        [u11, u12, u12, u14],
        [u12, u22, u23, u12],
        [u12, u23, u22, u12],
        [u14, u12, u12, u11],
    ]
    out = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    return out


def analytic_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """Closed-form U(t), element by element."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    matrix = _assemble_propagator(*_propagator_elements(params, float(t)))
    return UnitaryMatrix(matrix=matrix, time=float(t), params=params)


def _spectral_matrix(eig: EigenSystem, hbar: float, t) -> np.ndarray:
    """U(t) = V diag(exp(-i lambda t / hbar)) V+ for scalar or array t."""
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * t[..., np.newaxis] * eig.eigenvalues / hbar)
    return np.einsum(
        "ik,...k,jk->...ij", eig.eigenvectors, phases, eig.eigenvectors.conj()
    )


def numeric_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """U(t) synthesised from the numeric spectral decomposition.

    This route shares no code with :func:`analytic_propagator` beyond the
    Hamiltonian parameters, so agreement between the two is a genuine
    cross-validation of the closed forms.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    h = build_hamiltonian_tensor(params)
    eig = hermitian_eigensystem(h.matrix)
    matrix = _spectral_matrix(eig, params.hbar, float(t))
    return UnitaryMatrix(matrix=matrix, time=float(t), params=params)


def evolve(state: StateVector, u: UnitaryMatrix) -> StateVector:
    """Apply the propagator to a state.

    Unitarity should preserve the norm; the result is re-checked, never
    re-normalised.
    """
    out = u.matrix @ state.amplitudes
    norm = float(np.sqrt(np.sum(np.abs(out) ** 2)))
    if abs(norm - 1.0) > 1e-8:
        raise ConsistencyError(f"norm drifted to {norm!r} under evolution")
    return StateVector(out)


def density_matrix(state: StateVector) -> DensityMatrix:
    """rho = |psi><psi|.

    Its purity needs no check: tr(rho^2) = (tr rho)^2, and the
    DensityMatrix certificate already bounds tr rho.
    """
    amp = state.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))


# Constant density matrices of the two stationary Bell states.
_PHI_MINUS_RHO = np.array(
    [
        [0.5, 0.0, 0.0, -0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.0, 0.5],
    ],
    dtype=complex,
)
_PSI_MINUS_RHO = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def closed_form_density(
    label: BellLabel, params: CircuitParams, t: float
) -> DensityMatrix:
    """The closed-form density matrix rho(t) for a Bell input.

    |phi-> and |psi-> only pick up a global phase, so their matrices are
    constant. For |phi+> and |psi+> the sixteen entries are built from the
    derived trigonometric expressions; at e_j = e_m = 0 they give
    rho(t) = rho(0).
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    if label is BellLabel.PHI_MINUS:
        return DensityMatrix(_PHI_MINUS_RHO.copy())
    if label is BellLabel.PSI_MINUS:
        return DensityMatrix(_PSI_MINUS_RHO.copy())

    root, jr, mr = scaled_energies(params)
    sf = math.sin(0.25 * t * root)
    cf = math.cos(0.25 * t * root)
    corner = mr**2 * sf**2 / 2.0 + 0.5 * cf**2
    inner = 8.0 * jr**2 * sf**2
    cross = 2.0 * jr * mr * sf**2
    wave = 2.0 * jr * sf * cf

    if label is BellLabel.PHI_PLUS:
        edge = -cross - 1j * wave  # rho_12 = rho_13 = rho_42 = rho_43
        conj_edge = np.conj(edge)  # rho_21 = rho_24 = rho_31 = rho_34
        rho = np.array(
            [
                [corner, edge, edge, corner],
                [conj_edge, inner, inner, conj_edge],
                [conj_edge, inner, inner, conj_edge],
                [corner, edge, edge, corner],
            ]
        )
    else:  # PSI_PLUS
        edge = +cross + 1j * wave  # rho_12 = rho_13 = rho_42 = rho_43
        conj_edge = np.conj(edge)  # rho_21 = rho_24 = rho_31 = rho_34
        rho = np.array(
            [
                [inner, edge, edge, inner],
                [conj_edge, corner, corner, conj_edge],
                [conj_edge, corner, corner, conj_edge],
                [inner, edge, edge, inner],
            ]
        )
    return DensityMatrix(rho)


def eigenstate_check(h: HamiltonianMatrix, state: StateVector) -> float | None:
    """Return the eigenvalue if ``state`` is an eigenstate of ``h``.

    Tests H|psi> against <psi|H|psi> |psi>; returns the (real) expectation
    value when the residual is below 1e-10 in max norm, None otherwise.
    """
    amp = state.amplitudes
    h_amp = h.matrix @ amp
    lam = float(np.vdot(amp, h_amp).real)
    residual = float(np.max(np.abs(h_amp - lam * amp)))
    if residual <= 1e-10:
        return lam
    return None

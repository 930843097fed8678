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
  decomposition, U = sum_j exp(-i lambda_j t / hbar) |v_j><v_j|, with the
  spectral kernel :func:`spectral_rows`. Each route checks its phase
  with :func:`tqcoh.model.check_phase` before numpy forms it.

On top of these sit the four Bell states, their propagated density
matrices, and the closed-form density trajectories for each Bell input.
The singlet-like states |phi-> and |psi-> are eigenstates of the
Hamiltonian, so their density matrices never move; |phi+> and |psi+>
oscillate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import EigenSystem, as_complex_matrix, hermitian_eigensystem
from .model import (
    CircuitParams,
    build_hamiltonian_tensor,
    check_phase,
    scaled_energies,
)

__all__ = [
    "BellLabel",
    "DensityMatrix",
    "DensityMatrixError",
    "StateVector",
    "UnitaryMatrix",
    "analytic_propagator",
    "bell_state",
    "closed_form_density",
    "density_matrix",
    "evolve",
    "numeric_propagator",
]

_EYE4 = np.eye(4)


class DensityMatrixError(ValueError):
    """A candidate density matrix violates one of its defining properties.

    ``violation`` names the first failed property: "hermiticity", "trace"
    or "positivity".
    """

    def __init__(self, violation: str, detail: str):
        super().__init__(f"invalid density matrix ({violation}): {detail}")
        self.violation = violation


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
        norm = math.sqrt(np.vdot(amp, amp).real)  # vdot sets no numpy error flags
        if not abs(norm - 1.0) <= 1e-10:
            if not np.isfinite(amp).all():
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"state is not normalised: |psi| = {norm!r}")
        object.__setattr__(self, "amplitudes", amp)
        amp.setflags(write=False)


@dataclass(frozen=True)
class UnitaryMatrix:
    """A certified 4x4 propagator; ``defect`` is its max |U+U - I|."""

    matrix: np.ndarray
    defect: float = field(init=False)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite defect fails
    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        defect = float(np.abs(m.conj().T @ m - _EYE4).max()) if m.shape == (4, 4) else math.inf
        # This bound also pins ||det U| - 1| below 8e-10 on a 4x4. NaN fails it.
        if not defect <= 1e-10:
            as_complex_matrix(m)  # a non-square or non-finite m fails here
            if m.shape != (4, 4):
                raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
            raise ValueError(f"matrix is not unitary: max |U+U - I| = {defect:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "defect", defect)
        m.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace d x d density matrix.

    Construction checks hermiticity (max entry deviation <= 1e-10), then
    unit trace (<= 1e-10), and raises :class:`DensityMatrixError` naming
    the first violated property. Positivity holds by construction in
    :func:`density_matrix` (a rank-one projector) and is certified by
    :func:`tqcoh.coherence.validate_density` (explicit eigenvalue check)
    for any other matrix.
    """

    matrix: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite defect fails
    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        square = m.ndim == 2 and 0 < m.shape[0] == m.shape[1]
        herm_defect = np.abs(m - m.conj().T).max() if square else math.inf
        if not herm_defect <= 1e-10:
            as_complex_matrix(m)  # an empty, non-square or non-finite m fails here
            raise DensityMatrixError(
                "hermiticity", f"not Hermitian: max |rho - rho+| = {herm_defect:.3e}"
            )
        trace_defect = abs(sum(m.diagonal().tolist()) - 1.0)  # a Python sum never warns
        if trace_defect > 1e-10:
            raise DensityMatrixError("trace", f"|tr(rho) - 1| = {trace_defect:.3e}")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Each Bell state is sqrt(1/2) s for its sign vector s. Integer signs keep
# every zero of s s^T positive; with float signs, -1.0 * 0.0 is -0.0.
_BELL_SIGNS = {
    BellLabel.PHI_PLUS: np.array([1, 0, 0, 1]),
    BellLabel.PSI_PLUS: np.array([0, 1, 1, 0]),
    BellLabel.PHI_MINUS: np.array([1, 0, 0, -1]),
    BellLabel.PSI_MINUS: np.array([0, 1, -1, 0]),
}
# Built once; each certificate copies them into a complex array of its own.
_BELL_AMPLITUDES = {label: math.sqrt(0.5) * s for label, s in _BELL_SIGNS.items()}
_STATIONARY_RHO = {label: 0.5 * (s[:, np.newaxis] * s)
                   for label, s in _BELL_SIGNS.items() if label.stationary}


def bell_state(label: BellLabel) -> StateVector:
    """The normalised Bell state for a label."""
    return StateVector(_BELL_AMPLITUDES[label])


def _propagator_elements(params: CircuitParams, t):
    """The five distinct closed-form propagator elements.

    Returns (u11, u12, u14, u22, u23) where u11 also fills position (4,4),
    u12 fills the eight equal off-block positions, u14 fills (4,1), u22
    fills (3,3) and u23 fills (3,2). ``t`` may be a scalar or an array;
    the elements broadcast accordingly. The slow phase t hbar e_m / 4 is
    at most the fast one t root / 4, so one check covers both.
    """
    root, jr, mr = scaled_energies(params)
    check_phase(params, t, root)
    sf = np.sin(0.25 * t * root)
    cf = np.cos(0.25 * t * root)
    ss = np.sin(0.25 * t * (params.hbar * params.e_m))
    cs = np.cos(0.25 * t * (params.hbar * params.e_m))

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
    return np.array(rows) if np.ndim(u11) == 0 else np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def analytic_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """Closed-form U(t), element by element."""
    matrix = _assemble_propagator(*_propagator_elements(params, float(t)))
    return UnitaryMatrix(matrix)


def spectral_rows(eig: EigenSystem, params: CircuitParams, t, coeffs) -> np.ndarray:
    """(exp(-i lambda t / hbar) * coeffs) @ V^T for scalar or array t.

    With ``coeffs`` = V^T psi0 the rows are psi(t); with ``coeffs`` = V
    (real) and scalar t the result is U(t)^T. The eigenvalues ascend, so
    the largest |lambda| of the phase check is at one of the ends.
    """
    values = eig.eigenvalues
    check_phase(params, t, max(-float(values[0]), float(values[-1])), params.hbar)
    t = t[..., np.newaxis] if isinstance(t, np.ndarray) else t
    phases = np.exp(-1j * t * values / params.hbar)
    return (phases * coeffs) @ eig.eigenvectors.T


def numeric_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """U(t) synthesised from the numeric spectral decomposition.

    U = V diag(exp(-i lambda t / hbar)) V^T for the real symmetric H. This
    route shares no code with :func:`analytic_propagator` beyond the
    Hamiltonian parameters, so agreement between the two is a genuine
    cross-validation of the closed forms.
    """
    eig = hermitian_eigensystem(build_hamiltonian_tensor(params))
    matrix = spectral_rows(eig, params, float(t), eig.eigenvectors).T
    return UnitaryMatrix(matrix)


def evolve(state: StateVector, u: UnitaryMatrix) -> StateVector:
    """Apply the propagator to a state.

    Unitarity should preserve the norm; the result is certified as a
    :class:`StateVector`, never re-normalised.
    """
    return StateVector(u.matrix @ state.amplitudes)


def density_matrix(state: StateVector) -> DensityMatrix:
    """rho = |psi><psi|.

    Its purity needs no check: tr(rho^2) = (tr rho)^2, and the
    DensityMatrix certificate already bounds tr rho.
    """
    amp = state.amplitudes
    return DensityMatrix(amp[:, np.newaxis] * amp.conj())


def closed_form_density(
    label: BellLabel, params: CircuitParams, t: float
) -> DensityMatrix:
    """The closed-form density matrix rho(t) for a Bell input.

    |phi-> and |psi-> only pick up a global phase, so their matrices are
    the constant s s^T / 2 of their sign vector s. For |phi+> and |psi+>
    the sixteen entries are built from the derived trigonometric
    expressions; at e_j = e_m = 0 they give rho(t) = rho(0). The phase t root / 4 is checked for every label.
    """
    root, jr, mr = scaled_energies(params)
    check_phase(params, t, root)
    if label.stationary:
        return DensityMatrix(_STATIONARY_RHO[label])

    sf = math.sin(0.25 * t * root)
    cf = math.cos(0.25 * t * root)
    corner = mr**2 * sf**2 / 2.0 + 0.5 * cf**2
    inner = 8.0 * jr**2 * sf**2
    cross = 2.0 * jr * mr * sf**2
    wave = 2.0 * jr * sf * cf

    # |psi+> swaps the outer and middle blocks of |phi+> and negates the edge.
    if label is BellLabel.PHI_PLUS:
        outer, middle, edge = corner, inner, -cross - 1j * wave
    else:  # PSI_PLUS
        outer, middle, edge = inner, corner, +cross + 1j * wave
    conj_edge = edge.conjugate()  # edge is rho_12 = rho_13 = rho_42 = rho_43
    rho = np.array(
        [
            [outer, edge, edge, outer],
            [conj_edge, middle, middle, conj_edge],
            [conj_edge, middle, middle, conj_edge],
            [outer, edge, edge, outer],
        ]
    )
    return DensityMatrix(rho)

"""Unitary time evolution of Bell states.

The propagator U(t) = exp(-i H t / hbar) is produced through two fully
independent routes:

* :func:`analytic_propagator` evaluates the closed-form matrix elements
  term by term as derived, so a transcription error in the formulas
  would surface as a cross-validation failure instead of being silently
  patched. Like every closed form here, it divides through by root in
  :func:`_closed_form_terms`, so it stays finite at huge energies and
  gives the identity at e_j = e_m = 0 without a special case;
* :func:`numeric_propagator` synthesises U(t) from the spectral
  decomposition, U = sum_j exp(-i lambda_j t / hbar) |v_j><v_j|, with
  :func:`_spectral_synthesis`. Each route checks its phase before numpy
  forms it, in :func:`_closed_form_terms` or :func:`_check_spectral_phase`.

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


_LABELS = tuple(BellLabel)  # iterating the enum class takes about 2 us a loop
# Sign rows in BellLabel order: each Bell state is sqrt(1/2) s. Integer signs
# keep every zero of s s^T positive; with float signs, -1.0 * 0.0 is -0.0.
_BELL_SIGNS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]])
# s s^T / 2 per label: rho(t) of |phi-> and |psi->, rho(0) of the others.
_BELL_RHO = (0.5 * (_BELL_SIGNS[:, :, np.newaxis] * _BELL_SIGNS[:, np.newaxis, :])).astype(complex)
# Certified once, at import; every caller shares these read-only states.
_BELL_STATES = {label: StateVector(math.sqrt(0.5) * s) for label, s in zip(_LABELS, _BELL_SIGNS)}


def bell_state(label: BellLabel) -> StateVector:
    """The normalised Bell state for a label: one shared, frozen, read-only certificate."""
    return _BELL_STATES[label]


def _closed_form_terms(params: CircuitParams, t) -> tuple[float, ...]:
    """(root, e_j / root, hbar e_m / root, hbar e_m, (e_j / root)^2, (hbar e_m / root)^2).

    The terms of every closed form, once the phase t root is checked
    (ValueError where it overflows). The squares are Python ``**``, which
    is libm ``pow`` where numpy would multiply, so a scalar t and a
    ``scan.cross_validate`` block see the same bits.
    """
    root, jr, mr = scaled_energies(params)
    check_phase(params, t, root)
    return root, jr, mr, params.hbar * params.e_m, jr**2, mr**2


def _closed_form_u(terms, t) -> np.ndarray:
    """Closed-form U(t) in the last two axes, from :func:`_closed_form_terms`.

    The one copy of the formula, for one parameter set or a block of
    ``scan.cross_validate`` draws; the terms and ``t`` broadcast. Five
    entries are distinct, and ``rows`` places them. Phases are not
    checked here.
    """
    root, jr, mr, slow, _, _ = terms
    sf = np.sin(0.25 * t * root)
    cf = np.cos(0.25 * t * root)
    ss = np.sin(0.25 * t * slow)
    cs = np.cos(0.25 * t * slow)

    u11 = -0.5j * mr * sf + 0.5 * cf - 0.5j * ss + 0.5 * cs
    u12 = 2.0j * jr * sf
    u14 = -0.5j * mr * sf + 0.5 * cf + 0.5j * ss - 0.5 * cs
    u22 = +0.5j * mr * sf + 0.5 * cf + 0.5j * ss + 0.5 * cs
    u23 = +0.5j * mr * sf + 0.5 * cf - 0.5j * ss - 0.5 * cs
    rows = [
        [u11, u12, u12, u14],
        [u12, u22, u23, u12],
        [u12, u23, u22, u12],
        [u14, u12, u12, u11],
    ]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def analytic_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """Closed-form U(t). Its slow phase t hbar e_m / 4 is at most the fast t root / 4."""
    t = float(t)
    return UnitaryMatrix(_closed_form_u(_closed_form_terms(params, t), t))


def _check_spectral_phase(eig: EigenSystem, params: CircuitParams, t) -> None:
    """Raise ValueError unless every phase lambda t / hbar of ``eig`` is finite.

    The eigenvalues ascend, so the largest |lambda| is at one of the ends.
    """
    values = eig.eigenvalues
    check_phase(params, t, max(-float(values[0]), float(values[-1])), params.hbar)


def _spectral_synthesis(values, vectors, t, hbar, coeffs) -> np.ndarray:
    """(exp(-i values t / hbar) * coeffs) @ vectors^T, broadcast over leading axes.

    The one copy of the spectral formula, for one eigensystem or a stack
    of them (N x 1 x 4 values, N x 4 x 4 vectors, t and hbar as N x 1 x 1
    for a block of ``scan.cross_validate`` draws). With ``coeffs`` = V^T
    psi0 the rows are psi(t); with ``coeffs`` = V the result is U(t)^T.
    Phases are not checked here: :func:`_check_spectral_phase` runs first.
    """
    return (np.exp(-1j * t * values / hbar) * coeffs) @ vectors.swapaxes(-1, -2)


def numeric_propagator(params: CircuitParams, t: float) -> UnitaryMatrix:
    """U(t) synthesised from the numeric spectral decomposition.

    U = V diag(exp(-i lambda t / hbar)) V^T for the real symmetric H. This
    route shares no code with :func:`analytic_propagator` beyond the
    Hamiltonian parameters, so agreement between the two is a genuine
    cross-validation of the closed forms.
    """
    t = float(t)
    eig = hermitian_eigensystem(build_hamiltonian_tensor(params))
    _check_spectral_phase(eig, params, t)
    vectors = eig.eigenvectors
    return UnitaryMatrix(_spectral_synthesis(eig.eigenvalues, vectors, t, params.hbar, vectors).T)


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
    return DensityMatrix(_projector(state.amplitudes))


def _projector(psi) -> np.ndarray:
    """|psi><psi| over the last axis, for one state or a stack of them."""
    return psi[..., :, np.newaxis] * psi.conj()[..., np.newaxis, :]


def closed_form_density(label: BellLabel, params: CircuitParams, t: float) -> DensityMatrix:
    """The closed-form density matrix rho(t) for a Bell input; the phase is checked first."""
    return DensityMatrix(_closed_form_rho(_closed_form_terms(params, t), t)[_LABELS.index(label)])


def _closed_form_rho(terms, t) -> np.ndarray:
    """rho(t) of the four Bell inputs in BellLabel order, as a ... x 4 x 4 x 4 stack.

    The one copy of the formula, for one parameter set or a block of
    ``scan.cross_validate`` draws; the terms of :func:`_closed_form_terms`
    and ``t`` broadcast. |phi-> and |psi-> only pick up a global phase, so
    theirs is the constant s s^T / 2 of their sign vector s. The entries of
    |phi+> and |psi+> are the derived trigonometric expressions, squared by
    products; at e_j = e_m = 0 they give rho(0). Phases are not checked here.
    """
    root, jr, mr, _, _, _ = terms
    phase = 0.25 * t * root
    sf, cf = np.sin(phase), np.cos(phase)
    s2 = sf * sf
    corner = mr * mr * s2 / 2.0 + 0.5 * (cf * cf)
    inner = 8.0 * (jr * jr) * s2
    cross = 2.0 * jr * mr * s2
    wave = 2.0 * jr * sf * cf
    edge = cross + 1j * wave  # rho_12 = rho_13 = rho_42 = rho_43 of |psi+>

    rho = np.array(np.broadcast_to(_BELL_RHO, np.shape(edge) + _BELL_RHO.shape))
    # Rows and columns ::3 (0 and 3) hold the outer block, 1:3 the middle one.
    # |psi+> swaps the outer and middle blocks of |phi+> and negates the edge.
    for k, (outer, middle, e) in enumerate([(corner, inner, -edge), (inner, corner, edge)]):
        rho[..., k, ::3, ::3] = np.expand_dims(outer, (-2, -1))
        rho[..., k, 1:3, 1:3] = np.expand_dims(middle, (-2, -1))
        rho[..., k, ::3, 1:3] = np.expand_dims(e, (-2, -1))
        rho[..., k, 1:3, ::3] = np.expand_dims(e.conjugate(), (-2, -1))
    return rho

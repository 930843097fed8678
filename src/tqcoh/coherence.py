"""The l1 norm of coherence and its closed-form trajectories.

For a density matrix written in the fixed computational basis, the l1
coherence is the sum of the moduli of all off-diagonal entries. It is
zero exactly for diagonal (incoherent) states, bounded by d - 1 in
dimension d, convex under mixing, and non-increasing under incoherent
operations (Baumgratz, Cramer & Plenio, PRL 113, 140401, 2014); the test
suite checks each of these. The reference basis is always the matrix's
own index basis; no basis rotation is offered.

For Bell inputs the trajectory has a closed form: the stationary states
|phi-> and |psi-> sit at 1 forever, while |phi+> and |psi+> share the
oscillating value

    C(t) = 1 + 16 sqrt( e_j^2 sin^2(root t / 4)
                        * (8 e_j^2 (cos(root t / 2) + 1) + hbar^2 e_m^2)
                        / (16 e_j^2 + hbar^2 e_m^2)^2 ),

with root = sqrt(16 e_j^2 + hbar^2 e_m^2). Over one period pi/omega_fast
the maximum is exactly 3 whenever hbar^2 e_m^2 <= 16 e_j^2 and
1 + 16 hbar |e_j e_m| / root^2 otherwise; the minimum is always 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import BellLabel, DensityMatrix
from .linalg import as_complex_matrix, hermitian_eigensystem
from .model import CircuitParams, scaled_energies

__all__ = [
    "CoherenceExtrema",
    "DensityMatrixError",
    "closed_form_coherence",
    "coherence_extrema",
    "l1_coherence",
    "validate_density",
]


class DensityMatrixError(ValueError):
    """A candidate density matrix violates one of its defining properties.

    ``violation`` names the first failed property: "hermiticity", "trace"
    or "positivity".
    """

    def __init__(self, violation: str, detail: str):
        super().__init__(f"invalid density matrix ({violation}): {detail}")
        self.violation = violation


def validate_density(matrix) -> DensityMatrix:
    """Certify an arbitrary square complex matrix as a density matrix.

    Checks, in order: hermiticity (max entry deviation <= 1e-10), unit
    trace (<= 1e-10) and positive semidefiniteness (smallest eigenvalue
    >= -1e-9). The first violated property is reported via
    :class:`DensityMatrixError`.
    """
    m = as_complex_matrix(matrix)
    herm_defect = float(np.max(np.abs(m - m.conj().T)))
    if herm_defect > 1e-10:
        raise DensityMatrixError("hermiticity", f"max |rho - rho+| = {herm_defect:.3e}")
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > 1e-10:
        raise DensityMatrixError("trace", f"|tr(rho) - 1| = {trace_defect:.3e}")
    # Eigensolve on the exactly Hermitian average (the defect is within
    # the eigensolver's input tolerance either way).
    eig = hermitian_eigensystem((m + m.conj().T) / 2.0)
    min_eig = float(eig.eigenvalues[0])
    if min_eig < -1e-9:
        raise DensityMatrixError("positivity", f"smallest eigenvalue = {min_eig:.3e}")
    return DensityMatrix(m)


def l1_coherence(rho) -> float:
    """Sum of |rho_ij| over all off-diagonal entries.

    Accepts a certified :class:`DensityMatrix` or any raw matrix, which is
    first run through :func:`validate_density`.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    off = np.abs(rho.matrix).copy()
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


def closed_form_coherence(label: BellLabel, params: CircuitParams, t):
    """Closed-form C(t) for a Bell input.

    ``t`` may be a scalar (returns float) or an array (returns an array).
    The stationary states give exactly 1, and so does e_j = e_m = 0,
    where the state is frozen and both ratios are 0.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if label.stationary:
        out = np.ones_like(t_arr)
        return float(out) if scalar else out

    # The expression divided through by root^2 = 16 e_j^2 + hbar^2 e_m^2.
    root, jr, mr = scaled_energies(params)
    radicand = (
        jr**2
        * np.sin(0.25 * t_arr * root) ** 2
        * (8.0 * jr**2 * (np.cos(0.5 * t_arr * root) + 1.0) + mr**2)
    )
    out = 1.0 + 16.0 * np.sqrt(radicand)
    return float(out) if scalar else out


@dataclass(frozen=True)
class CoherenceExtrema:
    """Analytic extrema of C(t) over one oscillation period.

    ``period`` is pi/omega_fast; for constant trajectories (stationary
    states, e_j = 0, or a vanishing fast frequency) it is math.inf and
    both extrema sit at t = 0 with value 1.
    """

    max_value: float
    t_of_first_max: float
    min_value: float
    t_of_first_min: float
    period: float


_CONSTANT_EXTREMA = CoherenceExtrema(
    max_value=1.0,
    t_of_first_max=0.0,
    min_value=1.0,
    t_of_first_min=0.0,
    period=math.inf,
)


def coherence_extrema(label: BellLabel, params: CircuitParams) -> CoherenceExtrema:
    """Where the closed-form coherence of a Bell input peaks and dips.

    Writing s = sin^2(omega_fast t), the radicand is proportional to
    s (d - 16 e_j^2 s) with d = 16 e_j^2 + hbar^2 e_m^2, maximised at
    s* = d / (32 e_j^2). If s* <= 1 the maximum is exactly 3 at
    t = arcsin(sqrt(s*)) / omega_fast; otherwise s is pinned to 1 and the
    maximum is 1 + 16 hbar |e_j e_m| / d at half the period. The minimum
    is 1 at t = pi / omega_fast (and at 0).
    """
    root, jr, mr = scaled_energies(params)
    omega = 0.25 * root
    if label.stationary or omega == 0.0:
        return _CONSTANT_EXTREMA

    period = math.pi / omega
    if abs(mr) <= abs(4.0 * jr):  # s* = d / (32 e_j^2) <= 1
        s_star = 0.5 * (1.0 + (mr / (4.0 * jr)) ** 2)
        max_value = 3.0
        t_max = math.asin(math.sqrt(s_star)) / omega
    else:
        max_value = 1.0 + 16.0 * abs(jr * mr)
        t_max = (0.5 * math.pi) / omega
    return CoherenceExtrema(
        max_value=max_value,
        t_of_first_max=t_max,
        min_value=1.0,
        t_of_first_min=period,
        period=period,
    )

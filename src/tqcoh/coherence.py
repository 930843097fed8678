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

from .evolution import BellLabel, DensityMatrix, DensityMatrixError
from .linalg import hermitian_eigensystem
from .model import CircuitParams, check_phase, scaled_energies

__all__ = [
    "CoherenceExtrema",
    "closed_form_coherence",
    "coherence_extrema",
    "l1_coherence",
    "validate_density",
]


def validate_density(matrix) -> DensityMatrix:
    """Certify an arbitrary square complex matrix as a density matrix.

    Checks, in order: hermiticity and unit trace (by constructing the
    :class:`DensityMatrix`), then positive semidefiniteness (smallest
    eigenvalue >= -1e-9). The first violated property is reported via
    :class:`DensityMatrixError`. The real symmetric embedding
    [[Re rho, -Im rho], [Im rho, Re rho]] has rho's eigenvalues, each twice.
    """
    rho = DensityMatrix(matrix)
    m = rho.matrix
    # Scale by 2^-exponent so that no real or imaginary part exceeds 1: the
    # average and the embedding's norm cannot overflow, and eigenvalues scale exactly.
    peak = max(np.abs(m.real).max(), np.abs(m.imag).max())
    exponent = math.frexp(peak)[1] if peak > 1.0 else 0
    if exponent:
        m = m * 2.0**-exponent
    # Embed the exactly Hermitian average (shift below tolerance).
    avg = (m + m.conj().T) / 2.0
    eig = hermitian_eigensystem(np.block([[avg.real, -avg.imag], [avg.imag, avg.real]]))
    min_eig = float(eig.eigenvalues[0])
    if min_eig < -1e-9 * 2.0**-exponent:
        scale = f" * 2^{exponent}" if exponent else ""
        raise DensityMatrixError("positivity", f"smallest eigenvalue = {min_eig:.3e}{scale}")
    return rho


def l1_coherence(rho) -> float:
    """Sum of |rho_ij| over all off-diagonal entries.

    Accepts a certified :class:`DensityMatrix` or any raw matrix, which is
    first run through :func:`validate_density`.
    """
    if not isinstance(rho, DensityMatrix):
        rho = validate_density(rho)
    return float(off_diagonal_l1(rho.matrix))


def off_diagonal_l1(m) -> np.ndarray:
    """Sum of |m_ij| over i != j in the last two axes, for one matrix or a stack."""
    off = np.abs(m)
    diag = np.arange(off.shape[-1])
    off[..., diag, diag] = 0.0
    return off.sum(axis=(-2, -1))


def closed_form_coherence(label: BellLabel, params: CircuitParams, t):
    """Closed-form C(t) for a Bell input.

    ``t`` may be a scalar (returns float) or an array (returns an array).
    The stationary states give exactly 1, and so does e_j = e_m = 0,
    where the state is frozen and both ratios are 0. For the oscillating
    states the phase t root is checked first, so a t at which it
    overflows raises ``ValueError`` instead of giving NaN.
    """
    scalar = not (isinstance(t, np.ndarray) and t.ndim > 0)
    t = float(t) if scalar else np.asarray(t, dtype=float)
    if label.stationary:
        return 1.0 if scalar else np.ones_like(t)

    root, jr, mr = scaled_energies(params)
    check_phase(params, t, root)
    out = _oscillating_coherence(root, jr**2, mr**2, t)
    return float(out) if scalar else out


def _oscillating_coherence(root, jr2, mr2, t):
    """C(t) of |phi+> and |psi+>, divided through by root^2 = 16 e_j^2 + hbar^2 e_m^2.

    The one copy of the formula: :func:`closed_form_coherence` passes one
    parameter set, and ``scan.cross_validate`` arrays of them for a block
    of draws. ``jr2`` and ``mr2`` are (e_j / root)^2 and (hbar e_m / root)^2,
    squared by the caller in Python. numpy squares an array by
    multiplication but a float64 scalar through libm ``pow``; the two
    differ in the last bit for some inputs, so the sine is squared by
    multiplication here, the same for a scalar t and an array. Phases are
    not checked here.
    """
    sf = np.sin(0.25 * t * root)
    radicand = jr2 * (sf * sf) * (8.0 * jr2 * (np.cos(0.5 * t * root) + 1.0) + mr2)
    return 1.0 + 16.0 * np.sqrt(radicand)


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

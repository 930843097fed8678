"""Dense complex linear algebra kernel for small matrices.

Everything operates on plain ``complex128`` numpy arrays. The only
non-trivial routine is :func:`hermitian_eigensystem`, a cyclic Jacobi
diagonalisation written out by hand so the spectral pipeline does not
depend on a black-box eigensolver. All functions are pure and never
mutate their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "EigenSystem",
    "as_complex_matrix",
    "hermitian_eigensystem",
]

HERMITICITY_TOL = 1e-12

# Jacobi stops once off(A) <= _OFF_FACTOR * ||A||_F; quadratic convergence
# means the last sweep usually lands far below this.
_OFF_FACTOR = 1e-14
_MAX_SWEEPS = 100
# Off-diagonal entries below the smallest normal float are set to zero:
# apq / |apq| would divide by a subnormal and return NaN.
_TINY = np.finfo(float).tiny


class EigenConvergenceError(RuntimeError):
    """Raised when the Jacobi iteration cannot certify its result."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array, rejecting NaN/Inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Real eigenvalues in ascending order with matching eigenvectors.

    ``eigenvectors[:, j]`` is the unit-norm eigenvector belonging to
    ``eigenvalues[j]``. For degenerate eigenvalues any orthonormal basis of
    the eigenspace may be returned; downstream code must only rely on
    projectors / reconstructions, never on individual degenerate vectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def hermitian_eigensystem(h) -> EigenSystem:
    """Diagonalise a Hermitian matrix by cyclic complex Jacobi rotations.

    The input must be Hermitian to within ``HERMITICITY_TOL`` (max entry
    deviation from its adjoint). Ties in the ascending eigenvalue sort are
    broken by original position, so the output is deterministic.

    Raises:
        ValueError: if the input is not Hermitian within tolerance.
        EigenConvergenceError: if the rotation sweeps fail to reach the
            off-diagonal target, or the result fails its residual /
            orthonormality certificate. The function never silently
            returns an unconverged answer.
    """
    h = as_complex_matrix(h)
    dim = h.shape[0]
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within 1e-12")

    # Work on the exactly-Hermitian average; the shift is below tolerance.
    a = (h + h.conj().T) / 2.0
    v = np.eye(dim, dtype=complex)

    frob = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    target = _OFF_FACTOR * frob

    sweeps = 0
    while _off_norm(a) > target:
        if sweeps >= _MAX_SWEEPS:
            raise EigenConvergenceError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps"
            )
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                mag = abs(apq)
                if mag < _TINY:
                    a[p, q] = a[q, p] = 0.0
                    continue
                phase = apq / mag
                app = a[p, p].real
                aqq = a[q, q].real
                theta = 0.5 * math.atan2(2.0 * mag, app - aqq)
                c = math.cos(theta)
                s = math.sin(theta)

                # A <- U+ A U with the rotation acting in the (p, q) plane:
                # U[p,p]=c, U[p,q]=-s*phase, U[q,p]=s*conj(phase), U[q,q]=c.
                col_p = c * a[:, p] + s * np.conj(phase) * a[:, q]
                col_q = -s * phase * a[:, p] + c * a[:, q]
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = c * a[p, :] + s * phase * a[q, :]
                row_q = -s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                # Exact values for the rotated 2x2 block.
                a[p, p] = c * c * app + 2.0 * s * c * mag + s * s * aqq
                a[q, q] = s * s * app - 2.0 * s * c * mag + c * c * aqq
                a[p, q] = 0.0
                a[q, p] = 0.0

                new_p = c * v[:, p] + s * np.conj(phase) * v[:, q]
                new_q = -s * phase * v[:, p] + c * v[:, q]
                v[:, p] = new_p
                v[:, q] = new_q
        sweeps += 1

    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order].copy()

    # Certify before returning: eigen residual and pairwise orthonormality.
    residual = np.max(np.abs(h @ vectors - vectors * values[np.newaxis, :]))
    gram_defect = np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim)))
    # Written so that a NaN residual or defect fails the certificate.
    if not (residual <= 1e-10 and gram_defect <= 1e-10):
        raise EigenConvergenceError(
            f"eigensystem certificate failed: residual={residual:.3e}, "
            f"orthonormality defect={gram_defect:.3e}"
        )
    return EigenSystem(eigenvalues=values, eigenvectors=vectors)

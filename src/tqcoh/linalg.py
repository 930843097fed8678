"""Dense linear algebra kernel for small matrices.

The only non-trivial routine is :func:`hermitian_eigensystem`, a cyclic
Jacobi diagonalisation of a real symmetric matrix written out by hand so
the spectral pipeline does not depend on a black-box eigensolver. All
functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "EigenSystem",
    "hermitian_eigensystem",
]

HERMITICITY_TOL = 1e-12

# Jacobi stops once off(A) <= _OFF_FACTOR * ||A||_F; quadratic convergence
# means the last sweep usually lands far below this.
_OFF_FACTOR = 1e-14
_MAX_SWEEPS = 100
# Off-diagonal entries below the smallest normal float are set to zero:
# where a_pp = a_qq, even a subnormal one would rotate by 45 degrees. The
# rotations run on a copy scaled to ||A||_F in [0.5, 1), so only entries
# negligible against ||H|| fall below it.
_TINY = np.finfo(float).tiny
# The eigen residual bound is max(1e-10, _RESIDUAL_FACTOR * ||H||_F).
_RESIDUAL_FACTOR = 64.0 * np.finfo(float).eps
_SQRT2 = math.sqrt(2.0)


class EigenConvergenceError(RuntimeError):
    """Raised when the Jacobi iteration cannot certify its result."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a non-empty square complex128 array, rejecting NaN/Inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Real eigenvalues in ascending order with matching real eigenvectors.

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


@functools.lru_cache(maxsize=8)
def _sweep_pairs(dim: int) -> tuple:
    """The upper-triangle pairs (p, q) in sweep order, with the other indices k."""
    return tuple((p, q, tuple(k for k in range(dim) if k != p and k != q))
                 for p in range(dim - 1) for q in range(p + 1, dim))


def hermitian_eigensystem(h) -> EigenSystem:
    """Diagonalise a real symmetric matrix by cyclic Jacobi rotations.

    Every imaginary part of the input must be zero, and it must be
    symmetric to within ``HERMITICITY_TOL`` (max entry deviation from its
    transpose). Ties in the ascending eigenvalue sort are broken by
    original position, so the output is deterministic.

    The rotations run on Python floats in nested lists: for the 4x4
    matrices of this package that is several times faster than numpy
    slices, whose per-call overhead dwarfs the arithmetic.

    The result is certified before it is returned: the eigen residual
    max |H V - V diag(lambda)| must be at most max(1e-10, 64 eps ||H||_F)
    (Jacobi is accurate relative to ||H||, so the bound scales with it) and
    the orthonormality defect max |V^T V - I| at most 1e-10.

    Raises:
        ValueError: if the input is not real, or not symmetric within tolerance.
        EigenConvergenceError: if the rotation sweeps fail to reach the
            off-diagonal target, or the result fails its residual /
            orthonormality certificate. The message carries the sweep
            count, final off-norm, ||H||_F, residual and defect. The
            function never silently returns an unconverged answer.
    """
    h = np.asarray(h)
    if h.ndim != 2 or not 0 < len(h) == h.shape[1] or not np.isfinite(h).all():
        as_complex_matrix(h)  # raises, naming an empty, non-square or non-finite h
    if np.iscomplexobj(h) and h.imag.any():
        raise ValueError("expected a real symmetric matrix")
    h = np.asarray(h.real, dtype=float)
    dim = len(h)
    pairs = _sweep_pairs(dim)
    # Work on the exactly symmetric average (H on the diagonal); its shift is below
    # tolerance. Python floats overflow silently; above 1, x / 2 + y / 2 is (x + y) / 2, finite.
    avg = h.tolist()
    for p, q, _ in pairs:
        x, y = avg[p][q], avg[q][p]
        if abs(x - y) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        avg[p][q] = avg[q][p] = (x + y) / 2.0 if abs(x) <= 1.0 else x / 2.0 + y / 2.0
    frob = math.hypot(*[x for row in avg for x in row])
    # Rotate A = 2^-e avg, whose norm is the mantissa in [0.5, 1). Scaling
    # by a power of two is exact, and ldexp does not overflow where the
    # factor 2^-e itself would (||H||_F near 1e-310).
    mantissa, exponent = math.frexp(frob)
    a = [[math.ldexp(x, -exponent) for x in row] for row in avg]
    v = np.eye(dim).tolist()
    target = _OFF_FACTOR * mantissa

    sweeps = 0
    while True:
        # Frobenius norm of the off-diagonal part, from the upper triangle
        # since A stays exactly symmetric; hypot does not overflow.
        off = _SQRT2 * math.hypot(*[a[p][q] for p, q, _ in pairs])
        if not off > target or sweeps == _MAX_SWEEPS:
            break
        for p, q, others in pairs:
            row_p = a[p]
            row_q = a[q]
            apq = row_p[q]
            if abs(apq) < _TINY:
                row_p[q] = row_q[p] = 0.0
                continue
            app = row_p[p]
            aqq = row_q[q]
            theta = 0.5 * math.atan2(2.0 * abs(apq), app - aqq)
            c = math.cos(theta)
            s = math.copysign(math.sin(theta), apq)

            # A <- U^T A U and V <- V U with the rotation acting in the
            # (p, q) plane: U[p,p]=c, U[p,q]=-s, U[q,p]=s, U[q,q]=c.
            # Outside the (p, q) block, rows p and q of A mirror its
            # columns p and q, so A stays exactly symmetric.
            for k in others:
                row = a[k]
                x, y = row[p], row[q]
                row[p] = row_p[k] = c * x + s * y
                row[q] = row_q[k] = c * y - s * x
            for row in v:
                x, y = row[p], row[q]
                row[p] = c * x + s * y
                row[q] = c * y - s * x
            # Exact values for the rotated 2x2 block.
            row_p[p] = c * c * app + 2.0 * s * c * apq + s * s * aqq
            row_q[q] = s * s * app - 2.0 * s * c * apq + c * c * aqq
            row_p[q] = row_q[p] = 0.0
        sweeps += 1

    diagonal = [a[i][i] for i in range(dim)]
    order = sorted(range(dim), key=diagonal.__getitem__)  # stable
    values = np.ldexp([diagonal[i] for i in order], exponent)
    vectors = np.array([[row[i] for row in v] for i in order]).T

    # Certify before returning: eigen residual and pairwise orthonormality.
    residual = float(np.abs(h @ vectors - vectors * values).max())
    defect = float(np.abs(vectors.T @ vectors - np.eye(dim)).max())
    bound = max(1e-10, _RESIDUAL_FACTOR * frob)
    # Written so that a NaN residual or defect, or an overflowing norm,
    # fails the certificate.
    if not (
        off <= target and residual <= bound and defect <= 1e-10 and math.isfinite(frob)
    ):
        problem = (
            "Jacobi iteration did not converge"
            if off > target
            else "eigensystem certificate failed"
        )
        raise EigenConvergenceError(
            f"{problem}: sweeps={sweeps}, off-norm={math.ldexp(off, exponent):.3e}, "
            f"||H||_F={frob:.3e}, residual={residual:.3e} (bound {bound:.3e}), "
            f"orthonormality defect={defect:.3e}"
        )
    return EigenSystem(eigenvalues=values, eigenvectors=vectors)

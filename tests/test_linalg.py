import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import bell_block_spectrum, circuit_params, hermitian_matrix_4
from tqcoh.linalg import EigenConvergenceError, hermitian_eigensystem
from tqcoh.model import build_hamiltonian_tensor


def _subnormal_coupling() -> np.ndarray:
    """A Hermitian matrix whose only (0, 1) coupling is subnormal."""
    h = np.diag([0.5, -0.25, 0.125, 0.0]).astype(complex)
    h[0, 1], h[1, 0] = 2.2e-311j, -2.2e-311j
    h[2, 3] = h[3, 2] = 0.3
    return h


def test_eigensystem_diagonal_input():
    eig = hermitian_eigensystem(np.diag([0.375, -0.375, -0.375, 0.375]).astype(complex))
    assert np.allclose(eig.eigenvalues, [-0.375, -0.375, 0.375, 0.375], atol=0)


def test_eigensystem_circuit_hamiltonian():
    # Independent oracle: reduce to 2x2 blocks in the Bell basis and solve
    # the quadratic; see conftest.bell_block_spectrum.
    from tqcoh.model import CircuitParams

    p = CircuitParams(e_j=0.5, e_m=1.5, hbar=1.0)
    eig = hermitian_eigensystem(build_hamiltonian_tensor(p).matrix)
    assert np.allclose(eig.eigenvalues, [-0.625, -0.375, 0.375, 0.625], atol=1e-10)
    assert np.allclose(eig.eigenvalues, bell_block_spectrum(p), atol=1e-10)


def test_eigensystem_zero_matrix():
    eig = hermitian_eigensystem(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(eig.eigenvalues, np.zeros(4))
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_eigensystem_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0  # mirror entry missing
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(m)
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        hermitian_eigensystem(m)


def test_eigensystem_subnormal_coupling_is_finite():
    # apq / |apq| with a subnormal apq is NaN, and a NaN residual must not
    # pass the certificate.
    h = _subnormal_coupling()
    eig = hermitian_eigensystem(h)
    assert np.all(np.isfinite(eig.eigenvalues))
    assert np.max(np.abs(eig.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-12


@given(hermitian_matrix_4())
@example(_subnormal_coupling())
@settings(max_examples=150)
def test_eigensystem_invariants(h):
    eig = hermitian_eigensystem(h)
    values, vectors = eig.eigenvalues, eig.eigenvectors
    assert np.all(np.diff(values) >= 0)
    # Residual per pair and pairwise orthonormality.
    residual = np.max(np.abs(h @ vectors - vectors * values[np.newaxis, :]))
    assert residual <= 1e-10
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
    # Reconstruction from projectors.
    recon = (vectors * values[np.newaxis, :]) @ vectors.conj().T
    assert np.linalg.norm(recon - h) <= 1e-10
    # Eigenvalue sum equals the trace.
    assert abs(values.sum() - np.trace(h).real) <= 1e-10


@given(hermitian_matrix_4())
@settings(max_examples=60)
def test_eigensystem_matches_lapack(h):
    # numpy's eigvalsh is a second, independent implementation.
    ours = hermitian_eigensystem(h).eigenvalues
    theirs = np.linalg.eigvalsh(h)
    assert np.max(np.abs(ours - theirs)) <= 1e-10


@given(circuit_params())
@settings(max_examples=150)
def test_eigenvalue_product_matches_block_determinant(p):
    # For circuit Hamiltonians the 2x2 block reduction gives the
    # determinant independently: det = (m^2 + (hbar e_j)^2) * m^2.
    m = p.hbar**2 * p.e_m / 4.0
    det_oracle = (m**2 + (p.hbar * p.e_j) ** 2) * m**2
    eig = hermitian_eigensystem(build_hamiltonian_tensor(p).matrix)
    assert abs(np.prod(eig.eigenvalues) - det_oracle) <= 1e-8


def test_degenerate_eigenvalue_sort_is_deterministic():
    h = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    first = hermitian_eigensystem(h)
    second = hermitian_eigensystem(h)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_convergence_error_is_distinct():
    assert issubclass(EigenConvergenceError, RuntimeError)

import numpy as np
import pytest
from hypothesis import example, given, settings

import tqcoh.linalg as linalg_module
from conftest import bell_block_spectrum, circuit_params, symmetric_matrix_4
from tqcoh.linalg import EigenConvergenceError, hermitian_eigensystem
from tqcoh.model import CircuitParams, build_hamiltonian_tensor


def _subnormal_coupling() -> np.ndarray:
    """A symmetric matrix whose only (0, 1) coupling is subnormal."""
    h = np.diag([0.5, -0.25, 0.125, 0.0])
    h[0, 1] = h[1, 0] = 2.2e-311
    h[2, 3] = h[3, 2] = 0.3
    return h


def test_eigensystem_diagonal_input():
    eig = hermitian_eigensystem(np.diag([0.375, -0.375, -0.375, 0.375]).astype(complex))
    assert np.allclose(eig.eigenvalues, [-0.375, -0.375, 0.375, 0.375], atol=0)


def test_eigensystem_circuit_hamiltonian():
    # Independent oracle: reduce to 2x2 blocks in the Bell basis and solve
    # the quadratic; see conftest.bell_block_spectrum.
    p = CircuitParams(e_j=0.5, e_m=1.5, hbar=1.0)
    eig = hermitian_eigensystem(build_hamiltonian_tensor(p))
    assert np.allclose(eig.eigenvalues, [-0.625, -0.375, 0.375, 0.625], atol=1e-10)
    assert np.allclose(eig.eigenvalues, bell_block_spectrum(p), atol=1e-10)


@pytest.mark.parametrize("energy", [1e6, -1e6, 1e150, -1e150])
def test_eigensystem_large_energies(energy):
    # The residual grows like eps ||H||_F (8e-10 at 1e6), so the certificate
    # must scale with ||H||_F rather than stop at an absolute 1e-10.
    p = CircuitParams(e_j=energy, e_m=energy, hbar=1.0)
    h = build_hamiltonian_tensor(p)
    eig = hermitian_eigensystem(h)
    values, vectors = eig.eigenvalues, eig.eigenvectors
    scale = np.finfo(float).eps * np.linalg.norm(h)
    assert np.max(np.abs(values - bell_block_spectrum(p))) <= 64 * scale
    assert np.max(np.abs(h @ vectors - vectors * values)) <= 64 * scale
    assert np.max(np.abs(vectors.T @ vectors - np.eye(4))) <= 1e-10


def test_eigensystem_tiny_energies():
    # Squaring entries of 1e-300 underflows to 0; the norms must not.
    p = CircuitParams(e_j=3e-300, e_m=-2e-300, hbar=1.0)
    eig = hermitian_eigensystem(build_hamiltonian_tensor(p))
    expected = np.array(bell_block_spectrum(p))
    assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "params",
    [CircuitParams(e_j=1.0, e_m=0.0, hbar=1e-308), CircuitParams(e_j=3e-309, e_m=1e-308)],
    ids=["subnormal-tunnel", "subnormal-both"],
)
def test_eigensystem_subnormal_hamiltonian(params):
    # Every entry of H is below the cutoff at which the rotations zero an
    # off-diagonal entry; only a rescaled solve finds the nonzero spectrum.
    eig = hermitian_eigensystem(build_hamiltonian_tensor(params))
    expected = np.array(bell_block_spectrum(params))
    assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_eigensystem_zero_matrix():
    eig = hermitian_eigensystem(np.zeros((4, 4), dtype=complex))
    assert np.array_equal(eig.eigenvalues, np.zeros(4))
    gram = eig.eigenvectors.T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_eigensystem_returns_real_arrays():
    eig = hermitian_eigensystem(build_hamiltonian_tensor(CircuitParams(e_j=0.5, e_m=1.5)))
    assert eig.eigenvalues.dtype == np.float64
    assert eig.eigenvectors.dtype == np.float64


def test_eigensystem_rejects_complex_input():
    # Hermitian, but not real: the solver takes real symmetric matrices only.
    m = np.diag([0.5, 0.5, -0.5, -0.5]).astype(complex)
    m[0, 1], m[1, 0] = 0.25j, -0.25j
    with pytest.raises(ValueError, match="expected a real symmetric matrix"):
        hermitian_eigensystem(m)


def test_eigensystem_rejects_non_hermitian():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0  # mirror entry missing
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigensystem(m)
    m = np.eye(4, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        hermitian_eigensystem(m)


@pytest.mark.parametrize(
    "h, message",
    [
        (np.zeros((0, 0)), "expected a non-empty matrix, got shape (0, 0)"),
        (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
        (np.ones(4), "expected a square matrix, got shape (4,)"),
    ],
)
def test_eigensystem_rejects_each_bad_shape(h, message):
    with pytest.raises(ValueError) as err:
        hermitian_eigensystem(h)
    assert str(err.value) == message


def test_eigensystem_subnormal_coupling_is_finite():
    # The subnormal coupling is zeroed, not rotated; the spectrum must stay
    # finite and agree with LAPACK's.
    h = _subnormal_coupling()
    eig = hermitian_eigensystem(h)
    assert np.all(np.isfinite(eig.eigenvalues))
    assert np.max(np.abs(eig.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-12


@given(symmetric_matrix_4())
@example(_subnormal_coupling())
@settings(max_examples=150)
def test_eigensystem_invariants(h):
    eig = hermitian_eigensystem(h)
    values, vectors = eig.eigenvalues, eig.eigenvectors
    assert np.all(np.diff(values) >= 0)
    # Residual per pair and pairwise orthonormality.
    residual = np.max(np.abs(h @ vectors - vectors * values[np.newaxis, :]))
    assert residual <= 1e-10
    gram = vectors.T @ vectors
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10
    # Reconstruction from projectors.
    recon = (vectors * values[np.newaxis, :]) @ vectors.T
    assert np.linalg.norm(recon - h) <= 1e-10
    # Eigenvalue sum equals the trace.
    assert abs(values.sum() - np.trace(h)) <= 1e-10


@given(symmetric_matrix_4())
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
    eig = hermitian_eigensystem(build_hamiltonian_tensor(p))
    assert abs(np.prod(eig.eigenvalues) - det_oracle) <= 1e-8


def test_degenerate_eigenvalue_sort_is_deterministic():
    h = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    first = hermitian_eigensystem(h)
    second = hermitian_eigensystem(h)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_convergence_error_is_distinct():
    assert issubclass(EigenConvergenceError, RuntimeError)


_DIAGNOSTICS = (
    r"sweeps=\d+, off-norm=\S+, \|\|H\|\|_F=\S+, residual=\S+ \(bound \S+\), "
    r"orthonormality defect=\S+$"
)


def test_convergence_error_reports_diagnostics(monkeypatch):
    h = build_hamiltonian_tensor(CircuitParams(e_j=0.5, e_m=1.5))
    monkeypatch.setattr(linalg_module, "_MAX_SWEEPS", 1)
    with pytest.raises(
        EigenConvergenceError,
        match=r"^Jacobi iteration did not converge: sweeps=1, off-norm=[1-9]\S+e-\d+, "
        r"\|\|H\|\|_F=1\.\d+e\+00, ",
    ) as info:
        hermitian_eigensystem(h)
    assert info.match(_DIAGNOSTICS)


def test_certificate_error_reports_diagnostics(monkeypatch):
    # Stopping the sweeps early leaves a residual far above 1e-10.
    h = build_hamiltonian_tensor(CircuitParams(e_j=0.5, e_m=1.5))
    monkeypatch.setattr(linalg_module, "_OFF_FACTOR", 0.5)
    with pytest.raises(
        EigenConvergenceError, match=r"^eigensystem certificate failed: sweeps=1, "
    ) as info:
        hermitian_eigensystem(h)
    assert info.match(_DIAGNOSTICS)
    assert "bound 1.000e-10" in str(info.value)

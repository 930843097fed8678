import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings

from conftest import (
    CANONICAL_PARAMS,
    bell_block_spectrum,
    circuit_params,
    frequency_scales,
    magnitudes,
    signed,
)
from tqcoh.linalg import hermitian_eigensystem
from tqcoh.model import (
    CircuitParams,
    InputError,
    build_hamiltonian_tensor,
    scaled_energies,
)

_SQRT_HALF = math.sqrt(0.5)


def build_hamiltonian_explicit(params: CircuitParams) -> np.ndarray:
    """Write the Hamiltonian matrix entry by entry.

    This must match :func:`build_hamiltonian_tensor` exactly; the two
    constructions cross-check each other.
    """
    coupling = 0.25 * params.hbar * (params.hbar * params.e_m)
    tunnel = -0.5 * params.hbar * params.e_j
    h = np.array(
        [
            [coupling, tunnel, tunnel, 0.0],
            [tunnel, -coupling, 0.0, tunnel],
            [tunnel, 0.0, -coupling, tunnel],
            [0.0, tunnel, tunnel, coupling],
        ]
    )
    return h.astype(complex)


def test_params_validation():
    with pytest.raises(ValueError, match="hbar"):
        CircuitParams(e_j=0.5, e_m=1.5, hbar=0.0)
    with pytest.raises(ValueError, match="finite"):
        CircuitParams(e_j=float("nan"), e_m=0.0)
    p = CircuitParams(e_j=1, e_m=2)  # ints coerce
    assert isinstance(p.e_j, float) and p.hbar == 1.0


@pytest.mark.parametrize(
    "e_j, e_m, hbar, scale",
    [
        (0.5, 1.5, 1e200, "||H||_F"),
        (1e250, 0.0, 1e100, "||H||_F"),
        # Every entry of H is finite (+-1.125e308), but 2 x coupling is not.
        (0.0, 5e307, 3.0, "||H||_F"),
        (0.5, 1e308, 2.0, "hbar e_m"),
        (1e308, 0.0, 1.0, "hypot"),
        (0.5, 1.5, 1e-309, "1 / hbar"),
    ],
)
def test_params_reject_overflowing_scales(e_j, e_m, hbar, scale):
    with pytest.raises(ValueError, match=r"out of range: " + re.escape(scale)):
        CircuitParams(e_j=e_j, e_m=e_m, hbar=hbar)


def test_params_accept_large_finite_scales():
    CircuitParams(e_j=1e307, e_m=-1e307, hbar=1.0)
    CircuitParams(e_j=1e100, e_m=1e100, hbar=1e100)


def test_zero_parameters_give_zero_hamiltonian():
    h = build_hamiltonian_tensor(CircuitParams(e_j=0.0, e_m=0.0))
    assert np.array_equal(h, np.zeros((4, 4)))


def test_tensor_construction_canonical_point():
    # Hand substitution: hbar^2 e_m / 4 = 0.375, hbar e_j / 2 = 0.25.
    h = build_hamiltonian_tensor(CANONICAL_PARAMS)
    assert np.array_equal(np.diag(h).real, [0.375, -0.375, -0.375, 0.375])
    off_positions = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
    for i, j in off_positions:
        assert h[i, j] == -0.25
    for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
        assert h[i, j] == 0.0


def test_tensor_construction_coupling_only():
    h = build_hamiltonian_tensor(CircuitParams(e_j=0.0, e_m=1.0, hbar=2.0))
    assert np.array_equal(h, np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_explicit_construction_tunnelling_only():
    h = build_hamiltonian_explicit(CircuitParams(e_j=1.0, e_m=0.0))
    assert np.array_equal(np.diag(h), np.zeros(4))
    assert h[0, 1] == -0.5 and h[2, 3] == -0.5


@given(circuit_params())
@settings(max_examples=100)
def test_dual_construction_equality(p):
    tensor = build_hamiltonian_tensor(p)
    explicit = build_hamiltonian_explicit(p)
    assert np.array_equal(tensor, explicit)


@given(signed(), signed(), magnitudes(zero=False))
def test_hamiltonian_is_exact_over_the_accepted_domain(e_j, e_m, hbar):
    # Each entry has at most one nonzero term, so these hold exactly, with
    # no tolerance, for every parameter set that CircuitParams accepts.
    try:
        p = CircuitParams(e_j=e_j, e_m=e_m, hbar=hbar)
    except InputError:
        reject()
    h = build_hamiltonian_tensor(p)
    assert h.shape == (4, 4) and h.dtype == np.float64 and not h.flags.writeable
    assert np.array_equal(h, h.T)
    assert h.trace() == 0.0
    for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
        assert h[i, j] == 0.0
    assert np.array_equal(h, build_hamiltonian_explicit(p))


def test_dual_construction_equality_bulk():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = CircuitParams(
            e_j=rng.uniform(-5, 5),
            e_m=rng.uniform(-5, 5),
            hbar=float(rng.choice([0.5, 1.0, 2.0])),
        )
        assert np.array_equal(
            build_hamiltonian_tensor(p), build_hamiltonian_explicit(p)
        )


def _spectrum(p: CircuitParams) -> np.ndarray:
    return hermitian_eigensystem(build_hamiltonian_tensor(p)).eigenvalues


def test_spectral_decompose_examples():
    expected = [-0.625, -0.375, 0.375, 0.625]
    assert np.allclose(_spectrum(CANONICAL_PARAMS), expected, atol=1e-10)
    expected = [-0.5, -0.5, 0.5, 0.5]
    assert np.allclose(_spectrum(CircuitParams(e_j=0.0, e_m=2.0)), expected, atol=1e-10)
    assert np.array_equal(_spectrum(CircuitParams(0.0, 0.0, 2.0)), np.zeros(4))


@given(circuit_params())
@settings(max_examples=150)
def test_spectrum_matches_block_reduction(p):
    assert np.max(np.abs(_spectrum(p) - bell_block_spectrum(p))) <= 1e-10


@given(circuit_params())
@settings(max_examples=100)
def test_singlet_like_states_are_eigenvectors(p):
    h = build_hamiltonian_tensor(p)
    m = p.hbar**2 * p.e_m / 4.0
    phi_minus = np.array([_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF], dtype=complex)
    psi_minus = np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex)
    assert np.max(np.abs(h @ phi_minus - m * phi_minus)) <= 1e-12
    assert np.max(np.abs(h @ psi_minus - (-m) * psi_minus)) <= 1e-12


@given(circuit_params())
@settings(max_examples=100)
def test_spectrum_sign_symmetries(p):
    base = _spectrum(p)
    flipped_j = _spectrum(CircuitParams(-p.e_j, p.e_m, p.hbar))
    assert np.max(np.abs(base - flipped_j)) <= 1e-10
    flipped_m = _spectrum(CircuitParams(p.e_j, -p.e_m, p.hbar))
    # e_m -> -e_m maps the spectrum onto its negation (itself, sorted).
    assert np.max(np.abs(np.sort(-base) - flipped_m)) <= 1e-10


def test_scaled_energies():
    assert scaled_energies(CircuitParams(0.0, 0.0, 2.0)) == (0.0, 0.0, 0.0)
    assert scaled_energies(CANONICAL_PARAMS) == (2.5, 0.2, 0.6)
    # Squaring 1e160 overflows; the normalised ratios stay on the unit ellipse.
    root, jr, mr = scaled_energies(CircuitParams(1e160, -1e160))
    assert math.isfinite(root) and root > 0.0
    assert 16.0 * jr**2 + mr**2 == pytest.approx(1.0, abs=1e-15)


def test_frequency_scales_canonical_point():
    fs = frequency_scales(CANONICAL_PARAMS)
    assert fs.omega_fast == pytest.approx(0.625, abs=1e-15)
    assert fs.omega_slow == pytest.approx(0.75, abs=1e-15)
    assert fs.period_fast == pytest.approx(5.0265, abs=1e-3)


def test_frequency_scales_degenerate_and_tunnelling_only():
    fs = frequency_scales(CircuitParams(0.0, 0.0))
    assert fs.omega_fast == 0.0 and fs.omega_slow == 0.0 and fs.period_fast is None

    fs = frequency_scales(CircuitParams(1.0, 0.0))
    assert fs.omega_fast == pytest.approx(1.0, abs=0) and fs.omega_slow == 0.0


@given(circuit_params())
@example(CircuitParams(e_j=0.0, e_m=5e-324, hbar=0.5))  # hbar e_m underflows to 0
def test_frequency_quadratic_identity(p):
    fs = frequency_scales(p)
    lhs = (4.0 * fs.omega_fast) ** 2
    rhs = 16.0 * p.e_j**2 + (p.hbar * p.e_m) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)
    assert fs.omega_fast >= 0.0
    assert (fs.omega_fast == 0.0) == (p.e_j == 0.0 and p.hbar * p.e_m == 0.0)


def test_hamiltonian_matrix_is_read_only():
    h = build_hamiltonian_tensor(CANONICAL_PARAMS)
    with pytest.raises(ValueError):
        h[0, 0] = 9.0

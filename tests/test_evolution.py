import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import CANONICAL_PARAMS, circuit_params, eigenstate_check, times
from tqcoh.evolution import (
    BellLabel,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from tqcoh.model import CircuitParams, build_hamiltonian_tensor

_SQRT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------- states


def test_bell_states():
    expected = {
        BellLabel.PHI_PLUS: [_SQRT_HALF, 0, 0, _SQRT_HALF],
        BellLabel.PSI_PLUS: [0, _SQRT_HALF, _SQRT_HALF, 0],
        BellLabel.PHI_MINUS: [_SQRT_HALF, 0, 0, -_SQRT_HALF],
        BellLabel.PSI_MINUS: [0, _SQRT_HALF, -_SQRT_HALF, 0],
    }
    for label, amplitudes in expected.items():
        amp = bell_state(label).amplitudes
        # Bit for bit, signed zeros included.
        assert amp.tobytes() == np.array(amplitudes, dtype=complex).tobytes()
        assert np.sqrt(np.sum(np.abs(amp) ** 2)) == pytest.approx(1.0, abs=1e-15)


def test_state_vector_rejects_unnormalised():
    with pytest.raises(ValueError, match="normalised"):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


def test_bell_label_tokens():
    assert BellLabel("phi+") is BellLabel.PHI_PLUS
    assert BellLabel("psi-") is BellLabel.PSI_MINUS
    assert BellLabel.PHI_MINUS.stationary and not BellLabel.PSI_PLUS.stationary


# ------------------------------------------------------------ propagators


def test_analytic_propagator_at_zero_is_identity():
    u = analytic_propagator(CANONICAL_PARAMS, 0.0)
    assert np.array_equal(u.matrix, np.eye(4, dtype=complex))


def test_analytic_propagator_diagonal_regime():
    # e_j = 0 leaves a diagonal Hamiltonian; at t = pi the phases are
    # exp(-+ i pi / 2) = -+ i.
    u = analytic_propagator(CircuitParams(e_j=0.0, e_m=2.0), math.pi)
    expected = np.diag([-1j, 1j, 1j, -1j])
    assert np.max(np.abs(u.matrix - expected)) <= 1e-12


def test_numeric_propagator_identity_and_entry():
    u0 = numeric_propagator(CANONICAL_PARAMS, 0.0)
    assert np.max(np.abs(u0.matrix - np.eye(4))) <= 1e-12
    # Hand evaluation of the transverse element at t = 1:
    # 2 e_j sin(omega_fast t) / root = 2 * 0.5 * sin(0.625) / 2.5, imaginary.
    u1 = numeric_propagator(CANONICAL_PARAMS, 1.0)
    expected = 2j * 0.5 * math.sin(0.625) / 2.5
    assert abs(u1.matrix[0, 1] - expected) <= 1e-10


@given(circuit_params(), times())
@settings(max_examples=150, deadline=None)
def test_propagator_routes_agree(p, t):
    ua = analytic_propagator(p, t)
    un = numeric_propagator(p, t)
    assert np.max(np.abs(ua.matrix - un.matrix)) <= 1e-10


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_propagator_unitarity(p, t):
    for u in (analytic_propagator(p, t), numeric_propagator(p, t)):
        defect = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)))
        assert defect <= 1e-10
        assert u.defect == defect


@given(circuit_params(), times(), times())
@settings(max_examples=100, deadline=None)
def test_propagator_group_law(p, t1, t2):
    u_sum = analytic_propagator(p, t1 + t2)
    u_prod = analytic_propagator(p, t1).matrix @ analytic_propagator(p, t2).matrix
    assert np.max(np.abs(u_sum.matrix - u_prod)) <= 1e-9


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_propagator_time_reversal(p, t):
    forward = analytic_propagator(p, t)
    backward = analytic_propagator(p, -t)
    assert np.max(np.abs(backward.matrix - forward.matrix.conj().T)) <= 1e-12


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_numeric_propagator_element_symmetries(p, t):
    u = numeric_propagator(p, t).matrix
    tol = 1e-10
    assert abs(u[0, 0] - u[3, 3]) <= tol
    assert abs(u[1, 1] - u[2, 2]) <= tol
    assert abs(u[0, 3] - u[3, 0]) <= tol
    assert abs(u[1, 2] - u[2, 1]) <= tol
    off = [u[0, 1], u[0, 2], u[1, 0], u[1, 3], u[2, 0], u[2, 3], u[3, 1], u[3, 2]]
    assert max(abs(x - off[0]) for x in off) <= tol


def test_unitary_matrix_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryMatrix(np.eye(4) * 1.5)


def test_propagator_rejects_non_finite_time():
    with pytest.raises(ValueError, match="finite"):
        analytic_propagator(CANONICAL_PARAMS, float("inf"))


# -------------------------------------------------------------- evolution


def test_evolve_with_identity_keeps_state():
    u = analytic_propagator(CANONICAL_PARAMS, 0.0)
    for label in BellLabel:
        state = bell_state(label)
        assert np.array_equal(evolve(state, u).amplitudes, state.amplitudes)


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_stationary_states_only_gain_a_phase(p, t):
    u = analytic_propagator(p, t)
    for label in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS):
        state = bell_state(label)
        out = evolve(state, u)
        # Moduli unchanged; density matrix (phase-free) unchanged.
        assert np.max(np.abs(np.abs(out.amplitudes) - np.abs(state.amplitudes))) <= 1e-12
        rho0 = density_matrix(state).matrix
        rho1 = density_matrix(out).matrix
        assert np.max(np.abs(rho1 - rho0)) <= 1e-12


def test_phi_minus_phase_value():
    t = 7.3
    out = evolve(bell_state(BellLabel.PHI_MINUS), analytic_propagator(CANONICAL_PARAMS, t))
    phase = np.exp(-1j * CANONICAL_PARAMS.hbar * CANONICAL_PARAMS.e_m * t / 4.0)
    expected = phase * bell_state(BellLabel.PHI_MINUS).amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def test_evolve_detects_norm_drift():
    u = analytic_propagator(CANONICAL_PARAMS, 1.0)
    broken = u.matrix.copy()
    broken *= 1.001
    object.__setattr__(u, "matrix", broken)  # bypass the frozen guard
    with pytest.raises(ValueError, match="not normalised"):
        evolve(bell_state(BellLabel.PHI_PLUS), u)


# --------------------------------------------------------- density matrices


def test_density_matrix_examples():
    rho = density_matrix(bell_state(BellLabel.PHI_PLUS)).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.max(np.abs(rho - expected)) <= 1e-15

    basis = StateVector(np.array([1, 0, 0, 0], dtype=complex))
    assert np.array_equal(density_matrix(basis).matrix, np.diag([1.0, 0, 0, 0]).astype(complex))

    rho = density_matrix(bell_state(BellLabel.PSI_MINUS)).matrix
    assert rho[1, 1] == pytest.approx(0.5) and rho[2, 2] == pytest.approx(0.5)
    assert rho[1, 2] == pytest.approx(-0.5) and rho[2, 1] == pytest.approx(-0.5)


def test_density_matrix_type_checks():
    with pytest.raises(ValueError, match="Hermitian") as err:
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    assert err.value.violation == "hermiticity"
    with pytest.raises(ValueError, match="trace") as err:
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
    assert err.value.violation == "trace"


# Reference density matrices of the two stationary Bell states, written
# out entry by entry; every zero is +0.0.
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


def test_closed_form_density_stationary_labels():
    # Bit for bit, signed zeros included.
    for t in (0.0, 1.3, 42.0):
        rho = closed_form_density(BellLabel.PHI_MINUS, CANONICAL_PARAMS, t).matrix
        assert rho.tobytes() == _PHI_MINUS_RHO.tobytes()
        rho = closed_form_density(BellLabel.PSI_MINUS, CANONICAL_PARAMS, t).matrix
        assert rho.tobytes() == _PSI_MINUS_RHO.tobytes()


def test_closed_form_density_phi_plus_quarter_period():
    # omega_fast * t = pi / 2 makes sin^2 = 1, cos^2 = 0:
    # corners 2.25/12.5 = 0.18, inner block 8*0.25/6.25 = 0.32.
    t = (math.pi / 2.0) / 0.625
    rho = closed_form_density(BellLabel.PHI_PLUS, CANONICAL_PARAMS, t).matrix
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        assert rho[i, j].real == pytest.approx(0.18, abs=1e-12)
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert rho[i, j].real == pytest.approx(0.32, abs=1e-12)


def test_closed_form_density_psi_plus_at_zero():
    rho = closed_form_density(BellLabel.PSI_PLUS, CANONICAL_PARAMS, 0.0).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[1, 2] = expected[2, 1] = expected[2, 2] = 0.5
    assert np.max(np.abs(rho - expected)) <= 1e-15


def test_closed_form_density_zero_hamiltonian():
    # |1/sqrt(2)|^2 lands one ulp off 0.5, hence the tolerance.
    p = CircuitParams(0.0, 0.0)
    for label in BellLabel:
        rho = closed_form_density(label, p, 5.0).matrix
        rho0 = density_matrix(bell_state(label)).matrix
        assert np.max(np.abs(rho - rho0)) <= 1e-15


@given(circuit_params(), times())
@settings(max_examples=150, deadline=None)
def test_closed_form_density_matches_pipeline(p, t):
    u = analytic_propagator(p, t)
    for label in BellLabel:
        closed = closed_form_density(label, p, t).matrix
        piped = density_matrix(evolve(bell_state(label), u)).matrix
        assert np.max(np.abs(closed - piped)) <= 1e-10


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_closed_form_density_trace_and_stationarity(p, t):
    for label in BellLabel:
        rho = closed_form_density(label, p, t).matrix
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
    for label in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS):
        rho_t = closed_form_density(label, p, t).matrix
        rho_0 = closed_form_density(label, p, 0.0).matrix
        assert np.max(np.abs(rho_t - rho_0)) <= 1e-12


# --------------------------------------------------------- eigenstate check


def test_eigenstate_check_values():
    h = build_hamiltonian_tensor(CANONICAL_PARAMS)
    assert eigenstate_check(h, bell_state(BellLabel.PHI_MINUS)) == pytest.approx(
        0.375, abs=1e-12
    )
    assert eigenstate_check(h, bell_state(BellLabel.PSI_MINUS)) == pytest.approx(
        -0.375, abs=1e-12
    )
    assert eigenstate_check(h, bell_state(BellLabel.PHI_PLUS)) is None
    assert eigenstate_check(h, bell_state(BellLabel.PSI_PLUS)) is None

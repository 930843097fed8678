import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import CANONICAL_PARAMS, circuit_params, eigenstate_check, times
from tqcoh.coherence import _oscillating_coherence, closed_form_coherence, validate_density
from tqcoh.evolution import (
    BellLabel,
    DensityMatrix,
    DensityMatrixError,
    StateVector,
    UnitaryMatrix,
    _check_phase,
    _closed_form_rho,
    _closed_form_terms,
    _closed_form_u,
    _spectral_entry,
    _spectral_synthesis,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from tqcoh.linalg import hermitian_eigensystem
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


def test_bell_state_is_one_shared_read_only_certificate(monkeypatch):
    certified = []
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: certified.append(self))
    for label in BellLabel:
        state = bell_state(label)
        assert bell_state(label) is state
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 1.0
        with pytest.raises(AttributeError):
            state.amplitudes = np.zeros(4, dtype=complex)
    assert certified == []
    with pytest.raises(KeyError):
        bell_state("phi+")


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


def test_check_phase():
    p = CircuitParams(e_j=5.0, e_m=1.5, hbar=2.0)
    # A Python float, a numpy scalar and a 0-d array take the same path.
    for t in (1e307, np.float64(1e307), np.array(1e307)):
        _check_phase(p, t, 10.0)
    _check_phase(p, np.array([0.0, -1e307]), 10.0)
    _check_phase(p, 1e300, 1e8, 2.0)  # 5e307 after dividing by hbar
    message = r"not finite at t = {} \(e_j=5\.0, e_m=1\.5, hbar=2\.0\)"
    for t in (-1e308, np.array(-1e308)):
        with pytest.raises(ValueError, match=message.format(r"-1e\+308")):
            _check_phase(p, t, 10.0)
    # Arrays name their first bad t; no RuntimeWarning (an error here).
    with pytest.raises(ValueError, match=message.format(r"5e\+307")):
        _check_phase(p, np.array([0.0, 5e307, 1e308]), 10.0)
    # The product t * rate overflows first, as in numpy's phase.
    with pytest.raises(ValueError, match=message.format(r"1e\+300")):
        _check_phase(p, 1e300, 1e10, 1e10)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=message.format(str(bad))):
            _check_phase(p, bad, 0.0)
        with pytest.raises(ValueError, match=message.format(str(bad))):
            _check_phase(p, np.array([1.0, bad]), 0.0)


def _in_box_and_extreme_points():
    """(params, t): seeded draws from the validated box, then extreme energies."""
    rng = np.random.default_rng(17)
    points = [
        (CircuitParams(*rng.uniform(-5.0, 5.0, 2), (0.5, 1.0, 2.0)[rng.integers(3)]),
         rng.uniform(0.0, 50.0))
        for _ in range(200)
    ]
    for e_j, e_m, hbar in [
        (1e150, -1e150, 1.0), (-3e-309, 1e-308, 2.0), (1e-300, 0.0, 0.5),
        (0.0, 1e300, 0.5), (0.0, 0.0, 1.0), (2.5e305, 1.0, 1.0),
    ]:
        params = CircuitParams(e_j, e_m, hbar)
        points += [(params, t) for t in (0.0, 1e-200, 3.7, 1e-150)]
    return points


def test_closed_forms_give_the_same_bytes_for_a_scalar_and_an_array():
    # A scalar t runs the same kernel as an array of one time.
    points = _in_box_and_extreme_points()
    for params, t in points:
        t_array = np.array([t])
        terms = _closed_form_terms(params, t)
        assert _closed_form_terms(params, t_array) == terms
        u = _closed_form_u(terms, t)
        assert u.shape == (4, 4)
        assert u.tobytes() == _closed_form_u(terms, t_array)[0].tobytes(), (params, t)
        rho = _closed_form_rho(terms, t)
        assert rho.shape == (4, 4, 4)
        assert rho.tobytes() == _closed_form_rho(terms, t_array)[0].tobytes()

        eig = _spectral_entry(params, t_array)
        values, vectors = eig.eigenvalues, eig.eigenvectors
        coeffs = vectors.T @ bell_state(BellLabel.PHI_PLUS).amplitudes
        rows = _spectral_synthesis(values, vectors, t_array[:, np.newaxis], params.hbar, coeffs)
        assert _spectral_synthesis(values, vectors, t, params.hbar, coeffs).tobytes() == (
            rows[0].tobytes()
        )
        u_t = _spectral_synthesis(values, vectors, t, params.hbar, vectors)
        assert u_t.tobytes() == _spectral_synthesis(
            values, vectors, t_array[:, np.newaxis], params.hbar, vectors
        ).tobytes()

        for label in BellLabel:
            value = closed_form_coherence(label, params, t)
            assert type(value) is float
            batched = closed_form_coherence(label, params, t_array)
            assert np.array([value]).tobytes() == batched.tobytes(), (params, t, label)

    # Term stacks with one entry per point, as cross_validate passes them
    # for a block of draws, give each point's scalar bytes.
    t, *terms = np.array([(t, *_closed_form_terms(params, t)) for params, t in points]).T
    u = _closed_form_u(terms, t)
    rho = _closed_form_rho(terms, t)
    c = _oscillating_coherence(terms, t)
    assert u.shape == (len(points), 4, 4) and rho.shape == (len(points), 4, 4, 4)
    for i, (params, t_i) in enumerate(points):
        assert analytic_propagator(params, t_i).matrix.tobytes() == u[i].tobytes(), i
        for label, r in zip(BellLabel, rho[i]):
            assert closed_form_density(label, params, t_i).matrix.tobytes() == r.tobytes(), i
        value = closed_form_coherence(BellLabel.PHI_PLUS, params, t_i)
        assert np.array(value).tobytes() == c[i].tobytes(), i


# ----------------------------------------------------------- certificates

_NAN, _INF = float("nan"), float("inf")
_NOT_FINITE = "matrix entries must be finite"
_EMPTY = "expected a non-empty matrix, got shape (0, 0)"


@pytest.mark.parametrize(
    "build, value, error, violation, message",
    [
        (StateVector, [1, 0, 0], ValueError, None, "expected 4 amplitudes"),
        (StateVector, np.eye(4), ValueError, None, "expected 4 amplitudes"),
        (StateVector, [_NAN, 0, 0, 0], ValueError, None, "amplitudes must be finite"),
        (StateVector, [_INF, 0, 0, 0], ValueError, None, "amplitudes must be finite"),
        (StateVector, [0, -_INF, 0, 0], ValueError, None, "amplitudes must be finite"),
        (StateVector, [complex(0, _INF), 0, 0, 0], ValueError, None, "amplitudes must be finite"),
        (StateVector, [1, 1, 0, 0], ValueError, None, "state is not normalised"),
        (UnitaryMatrix, np.eye(3), ValueError, None, "expected a 4x4 matrix"),
        (UnitaryMatrix, np.ones((4, 3)), ValueError, None, "expected a square matrix"),
        (UnitaryMatrix, np.diag([_NAN, 1, 1, 1]), ValueError, None, _NOT_FINITE),
        (UnitaryMatrix, np.diag([_INF, 1, 1, 1]), ValueError, None, _NOT_FINITE),
        (UnitaryMatrix, np.diag([1, 1, 1, -_INF]), ValueError, None, _NOT_FINITE),
        (UnitaryMatrix, 1.5 * np.eye(4), ValueError, None, "matrix is not unitary"),
        (DensityMatrix, np.ones((2, 3)), ValueError, None, "expected a square matrix"),
        (DensityMatrix, np.ones(4), ValueError, None, "expected a square matrix"),
        (DensityMatrix, np.diag([_NAN, 0.5]), ValueError, None, _NOT_FINITE),
        (DensityMatrix, np.diag([0.5, _INF]), ValueError, None, _NOT_FINITE),
        (DensityMatrix, [[0.5, -_INF], [-_INF, 0.5]], ValueError, None, _NOT_FINITE),
        (DensityMatrix, [[0.5, 1.0], [0.0, 0.5]], DensityMatrixError, "hermiticity",
         "invalid density matrix (hermiticity): not Hermitian"),
        (DensityMatrix, np.diag([0.6, 0.6]), DensityMatrixError, "trace",
         "invalid density matrix (trace): |tr(rho) - 1|"),
        (DensityMatrix, np.zeros((0, 0)), ValueError, None, _EMPTY),
        (validate_density, np.zeros((0, 0)), ValueError, None, _EMPTY),
        (hermitian_eigensystem, np.zeros((0, 0)), ValueError, None, _EMPTY),
    ],
)
def test_certificates_reject_each_bad_input(build, value, error, violation, message):
    # The suite turns a numpy RuntimeWarning into an error, so a check that
    # warns on NaN or inf fails here as well.
    with pytest.raises(ValueError) as err:
        build(np.asarray(value))
    assert type(err.value) is error
    assert getattr(err.value, "violation", None) == violation
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "run, value, error, violation",
    [
        (hermitian_eigensystem, [[0.0, 1e308], [-1e308, 0.0]], ValueError, None),
        (hermitian_eigensystem, [[0.0, 1e308], [1e308, 0.0]], None, None),
        # Hermitian with unit trace, but its eigenvalue 0.5 - 1e308 is negative.
        (validate_density, [[0.5, 1e308], [1e308, 0.5]], DensityMatrixError, "positivity"),
        (DensityMatrix, [[0.5, 1e308], [-1e308, 0.5]], DensityMatrixError, "hermiticity"),
        (DensityMatrix, [[1e308, 0.0], [0.0, 1e308]], DensityMatrixError, "trace"),
        (UnitaryMatrix, np.full((4, 4), 1e200), ValueError, None),
        (StateVector, [1e200, 0, 0, 0], ValueError, None),
    ],
    ids=["eig-antisymmetric", "eig-symmetric", "validate", "density-hermiticity",
         "density-trace", "unitary", "state"],
)
def test_huge_finite_input_is_judged_without_a_warning(run, value, error, violation):
    # Near the float maximum a difference, sum or product overflows; numpy
    # would warn, which this suite turns into an error.
    value = np.array(value, dtype=float)
    if error is None:
        eig = run(value)
        assert eig.eigenvalues.tolist() == pytest.approx([-1e308, 1e308], rel=1e-15)
        return
    with pytest.raises(ValueError) as err:
        run(value)
    assert type(err.value) is error
    assert getattr(err.value, "violation", None) == violation


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


def test_every_closed_form_takes_a_float32_time_as_float64():
    # The float32 t = 1.0 is exactly 1.0, so each closed form gives the
    # bytes of a float t; float32 arithmetic broke rho's unit trace.
    for label in BellLabel:
        rho = closed_form_density(label, CANONICAL_PARAMS, np.float32(1.0)).matrix
        assert rho.tobytes() == closed_form_density(label, CANONICAL_PARAMS, 1.0).matrix.tobytes()
        c = closed_form_coherence(label, CANONICAL_PARAMS, np.float32(1.0))
        assert type(c) is float and c == closed_form_coherence(label, CANONICAL_PARAMS, 1.0)
    u = analytic_propagator(CANONICAL_PARAMS, np.float32(1.0)).matrix
    assert u.tobytes() == analytic_propagator(CANONICAL_PARAMS, 1.0).matrix.tobytes()


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

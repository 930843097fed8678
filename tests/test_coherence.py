import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CANONICAL_PARAMS,
    circuit_params,
    frequency_scales,
    hermitian_matrix_4,
    random_density,
    times,
)
from tqcoh.coherence import (
    DensityMatrixError,
    closed_form_coherence,
    coherence_extrema,
    l1_coherence,
    off_diagonal_l1,
    validate_density,
)
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
)
from tqcoh.model import CircuitParams


# ------------------------------------------------------------- validation


def test_validate_density_accepts_diagonal():
    dm = validate_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert dm.dim == 4


def test_validate_density_names_first_violation():
    with pytest.raises(DensityMatrixError, match="positivity") as err:
        validate_density(np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex))
    assert err.value.violation == "positivity"

    with pytest.raises(DensityMatrixError, match="trace") as err:
        validate_density(np.diag([0.5, 0.4, 0.0, 0.0]).astype(complex))
    assert err.value.violation == "trace"

    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 1] = 0.3
    with pytest.raises(DensityMatrixError, match="hermiticity") as err:
        validate_density(m)
    assert err.value.violation == "hermiticity"


def test_validate_density_other_dimensions():
    assert validate_density(np.eye(2, dtype=complex) / 2.0).dim == 2
    assert validate_density(np.eye(3, dtype=complex) / 3.0).dim == 3


def test_validate_density_sees_imaginary_parts():
    # Eigenvalues -0.1 and 1.1; the real part alone is 0.5 I, which is
    # positive, so a check that dropped Im rho would accept this matrix.
    with pytest.raises(DensityMatrixError, match="positivity"):
        validate_density(np.array([[0.5, 0.6j], [-0.6j, 0.5]]))


@pytest.mark.parametrize(
    "rho, smallest",
    [
        # The eigenvalue 0.5 - 1e308, in units of 2^1024.
        ([[0.5, 1e308], [1e308, 0.5]], "-5.563e-01 * 2^1024"),
        # -1.5e-9 in units of 2: the -1e-9 bound is scaled with the matrix.
        (np.diag([1.0 + 1.5e-9, -1.5e-9]), "-7.500e-10 * 2^1"),
    ],
)
def test_validate_density_names_a_scaled_smallest_eigenvalue(rho, smallest):
    with pytest.raises(DensityMatrixError) as err:
        validate_density(np.asarray(rho))
    assert err.value.violation == "positivity"
    assert str(err.value).endswith(f"smallest eigenvalue = {smallest}")


@given(hermitian_matrix_4(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150)
def test_validate_density_matches_lapack_positivity(h, scale):
    # I/4 plus a scaled traceless Hermitian part: unit trace, and positive
    # for small scales but not for large ones. numpy's eigvalsh on the
    # complex matrix itself is an independent verdict.
    rho = np.eye(4) / 4.0 + scale * (h - np.trace(h).real / 4.0 * np.eye(4))
    smallest = np.linalg.eigvalsh(rho)[0]
    # The two solvers round differently, so skip a hair's breadth of -1e-9.
    assume(abs(smallest + 1e-9) > 1e-12)
    try:
        validate_density(rho)
        accepted = True
    except DensityMatrixError as err:
        assert err.violation == "positivity"
        accepted = False
    assert accepted == (smallest >= -1e-9)


# ---------------------------------------------------------------- l1 norm


def test_l1_examples():
    assert l1_coherence(np.eye(4, dtype=complex) / 4.0) == 0.0
    assert l1_coherence(density_matrix(bell_state(BellLabel.PHI_MINUS))) == pytest.approx(
        1.0, abs=1e-12
    )
    flat = np.full((4, 4), 0.25, dtype=complex)
    assert l1_coherence(flat) == pytest.approx(3.0, abs=1e-12)


def test_off_diagonal_l1_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(3)
    stack = np.array([random_density(rng) for _ in range(5)])
    before = stack.copy()
    sums = off_diagonal_l1(stack)
    assert sums.shape == (5,)
    for rho, value in zip(stack, sums):
        assert value == l1_coherence(rho)
        reference = sum(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j)
        assert value == pytest.approx(reference, rel=1e-15)
    assert np.array_equal(stack, before)  # the input is not modified


def test_l1_rejects_invalid_input():
    with pytest.raises(DensityMatrixError):
        l1_coherence(np.diag([0.9, 0.1, 0.1, -0.1]).astype(complex))


def test_l1_zero_iff_diagonal():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(4))
    assert l1_coherence(np.diag(probs).astype(complex)) == 0.0
    # Any off-diagonal above 1e-12 must show up in the sum.
    m = np.diag(probs).astype(complex)
    m[0, 1] = m[1, 0] = 1e-11
    assert l1_coherence(m) > 1e-12


def test_l1_upper_bound_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = random_density(rng)
        value = l1_coherence(rho)
        assert 0.0 <= value <= 3.0 + 1e-9
    for dim in (2, 3, 6):
        rho = random_density(rng, dim=dim)
        assert 0.0 <= l1_coherence(rho) <= dim - 1 + 1e-9


def test_l1_convexity_spot_check():
    rng = np.random.default_rng(13)
    for _ in range(25):
        rho1 = random_density(rng)
        rho2 = random_density(rng)
        c1, c2 = l1_coherence(rho1), l1_coherence(rho2)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = lam * rho1 + (1.0 - lam) * rho2
            assert l1_coherence(mix) <= lam * c1 + (1.0 - lam) * c2 + 1e-12


def test_l1_additive_over_incoherent_blocks():
    rng = np.random.default_rng(17)
    top = random_density(rng, dim=2)
    bottom = random_density(rng, dim=2)
    weight = 0.3
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = weight * top
    block[2:, 2:] = (1.0 - weight) * bottom
    total = l1_coherence(block)
    parts = weight * l1_coherence(top) + (1.0 - weight) * l1_coherence(bottom)
    assert total == pytest.approx(parts, abs=1e-12)


def _incoherent_kraus(rng: np.random.Generator, count: int, dim: int = 4) -> list:
    """Kraus operators K_n = P_n diag(d_n) with sum_n K_n+ K_n = I.

    P_n are random permutations and sum_n |d_n|^2 = 1 entrywise, so each
    K_n maps basis states to basis states: an incoherent operation.
    """
    weights = rng.dirichlet(np.ones(count), size=dim).T
    phases = np.exp(2j * np.pi * rng.random((count, dim)))
    return [
        np.eye(dim)[rng.permutation(dim)] * (np.sqrt(w) * ph)
        for w, ph in zip(weights, phases)
    ]


def test_l1_monotone_under_incoherent_operations():
    # Baumgratz, Cramer & Plenio, PRL 113, 140401 (2014).
    rng = np.random.default_rng(19)
    states = [random_density(rng) for _ in range(20)] + [
        closed_form_density(BellLabel.PHI_PLUS, CANONICAL_PARAMS, t).matrix
        for t in np.linspace(0.0, 5.0, 20)
    ]
    for rho in states:
        kraus = _incoherent_kraus(rng, count=int(rng.integers(1, 5)))
        assert np.allclose(sum(k.conj().T @ k for k in kraus), np.eye(4), atol=1e-12)
        diagonal = np.diag(np.diag(rho))
        assert l1_coherence(sum(k @ diagonal @ k.conj().T for k in kraus)) == 0.0
        out = sum(k @ rho @ k.conj().T for k in kraus)
        assert l1_coherence(out) <= l1_coherence(rho) + 1e-12


# --------------------------------------------------------- closed-form C(t)


def test_closed_form_examples():
    assert closed_form_coherence(BellLabel.PHI_MINUS, CANONICAL_PARAMS, 17.0) == 1.0
    assert closed_form_coherence(BellLabel.PSI_MINUS, CANONICAL_PARAMS, 0.3) == 1.0
    assert closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, 0.0) == 1.0
    # omega_fast t = pi/2: 1 + 16*sqrt(0.25*2.25)/6.25 = 2.92.
    t = (math.pi / 2.0) / 0.625
    assert closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, t) == pytest.approx(
        2.92, abs=1e-9
    )
    # Interior maximum: sin^2(omega_fast t) = 25/32 gives exactly 3.
    t_star = math.asin(math.sqrt(25.0 / 32.0)) / 0.625
    assert closed_form_coherence(
        BellLabel.PHI_PLUS, CANONICAL_PARAMS, t_star
    ) == pytest.approx(3.0, abs=1e-9)


def test_closed_form_degenerate_parameters():
    assert closed_form_coherence(BellLabel.PHI_PLUS, CircuitParams(0.0, 0.0), 3.0) == 1.0


@pytest.mark.parametrize("e_j, e_m", [(1e160, -1e160), (-1e160, 1e160)])
def test_closed_forms_finite_at_huge_energies(e_j, e_m):
    # 16 e_j^2 overflows here; the closed forms only use root-normalised
    # ratios. t * root is of order 1, so the dynamics are not trivial.
    p = CircuitParams(e_j, e_m)
    t = 1e-160
    u = analytic_propagator(p, t)
    assert np.all(np.isfinite(u.matrix))
    for label in BellLabel:
        closed = closed_form_coherence(label, p, t)
        rho = closed_form_density(label, p, t)
        assert np.all(np.isfinite(rho.matrix))
        assert l1_coherence(rho) == pytest.approx(closed, abs=1e-12)
        piped = l1_coherence(density_matrix(evolve(bell_state(label), u)))
        assert piped == pytest.approx(closed, abs=1e-12)
        ext = coherence_extrema(label, p)
        assert math.isfinite(ext.max_value) and math.isfinite(ext.t_of_first_max)
    assert closed_form_coherence(BellLabel.PHI_PLUS, p, t) > 2.0


def test_closed_form_vectorised():
    ts = np.linspace(0.0, 10.0, 11)
    vals = closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, ts)
    assert vals.shape == ts.shape
    assert vals[0] == 1.0
    ones = closed_form_coherence(BellLabel.PHI_MINUS, CANONICAL_PARAMS, ts)
    assert np.array_equal(ones, np.ones(11))


@given(circuit_params(), times())
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_pipeline(p, t):
    u = analytic_propagator(p, t)
    for label in BellLabel:
        piped = l1_coherence(density_matrix(evolve(bell_state(label), u)))
        closed = closed_form_coherence(label, p, t)
        assert abs(closed - piped) <= 1e-9


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_plus_trajectories_identical_and_bounded(p, t):
    via_phi = l1_coherence(closed_form_density(BellLabel.PHI_PLUS, p, t))
    via_psi = l1_coherence(closed_form_density(BellLabel.PSI_PLUS, p, t))
    assert abs(via_phi - via_psi) <= 1e-12
    value = closed_form_coherence(BellLabel.PHI_PLUS, p, t)
    assert 1.0 - 1e-12 <= value <= 3.0 + 1e-12


@given(circuit_params(), times())
@settings(max_examples=100, deadline=None)
def test_closed_form_periodicity_and_sign_invariance(p, t):
    omega = frequency_scales(p).omega_fast
    if omega > 1e-6:  # skip near-degenerate periods
        period = math.pi / omega
        a = closed_form_coherence(BellLabel.PHI_PLUS, p, t)
        b = closed_form_coherence(BellLabel.PHI_PLUS, p, t + period)
        assert abs(a - b) <= 1e-10

    base = closed_form_coherence(BellLabel.PHI_PLUS, p, t)
    flip_j = closed_form_coherence(
        BellLabel.PHI_PLUS, CircuitParams(-p.e_j, p.e_m, p.hbar), t
    )
    flip_m = closed_form_coherence(
        BellLabel.PHI_PLUS, CircuitParams(p.e_j, -p.e_m, p.hbar), t
    )
    assert abs(base - flip_j) <= 1e-12
    assert abs(base - flip_m) <= 1e-12


# ----------------------------------------------------------------- extrema


def test_extrema_canonical_point():
    ext = coherence_extrema(BellLabel.PHI_PLUS, CANONICAL_PARAMS)
    assert ext.max_value == 3.0
    assert ext.t_of_first_max == pytest.approx(1.7347, abs=1e-3)
    assert ext.min_value == 1.0
    assert ext.t_of_first_min == pytest.approx(math.pi / 0.625, abs=1e-12)
    assert ext.period == pytest.approx(math.pi / 0.625, abs=1e-12)


def test_extrema_no_tunnelling_is_constant():
    ext = coherence_extrema(BellLabel.PHI_PLUS, CircuitParams(0.0, 1.0))
    assert ext.max_value == 1.0 and ext.min_value == 1.0


def test_extrema_boundary_regime():
    p = CircuitParams(0.1, 3.0)
    ext = coherence_extrema(BellLabel.PHI_PLUS, p)
    expected = 1.0 + 16.0 * 0.1 * 3.0 / (16.0 * 0.01 + 9.0)
    assert ext.max_value == pytest.approx(expected, abs=1e-12)
    omega = 0.25 * math.sqrt(16.0 * 0.01 + 9.0)
    assert ext.t_of_first_max == pytest.approx((math.pi / 2.0) / omega, abs=1e-12)


def test_extrema_stationary_labels():
    ext = coherence_extrema(BellLabel.PSI_MINUS, CANONICAL_PARAMS)
    assert ext.max_value == ext.min_value == 1.0
    assert math.isinf(ext.period)


@pytest.mark.parametrize(
    "params",
    [CANONICAL_PARAMS, CircuitParams(0.1, 3.0), CircuitParams(2.0, 0.3, 2.0)],
    ids=["interior-regime", "boundary-regime", "fast-tunnelling"],
)
def test_extrema_against_dense_scan(params):
    # Trust the analytic formulas only after a dense numeric scan over one
    # period confirms them.
    ext = coherence_extrema(BellLabel.PHI_PLUS, params)
    ts = np.arange(0.0, ext.period, 1e-4)
    values = closed_form_coherence(BellLabel.PHI_PLUS, params, ts)
    assert values.max() <= ext.max_value + 1e-9
    assert values.max() >= ext.max_value - 1e-5
    assert values.min() >= ext.min_value - 1e-9
    # The curve really attains the claimed maximum at the claimed time.
    at_argmax = closed_form_coherence(BellLabel.PHI_PLUS, params, ext.t_of_first_max)
    assert at_argmax == pytest.approx(ext.max_value, abs=1e-9)


@given(circuit_params())
@settings(max_examples=100, deadline=None)
def test_extrema_regime_formula(p):
    ext = coherence_extrema(BellLabel.PHI_PLUS, p)
    if ext.period == math.inf:
        return
    # |hbar e_m| <= 4 |e_j| is the underflow-safe spelling of the regime
    # condition hbar^2 e_m^2 <= 16 e_j^2.
    if abs(p.hbar * p.e_m) <= 4.0 * abs(p.e_j):
        assert ext.max_value == 3.0
    else:
        root = math.hypot(4.0 * p.e_j, p.hbar * p.e_m)
        expected = 1.0 + 16.0 * abs((p.e_j / root) * (p.hbar * p.e_m / root))
        assert ext.max_value == pytest.approx(expected, rel=1e-12)

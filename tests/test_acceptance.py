"""Acceptance suite.

One test per release criterion, each pinned to its stated tolerance.
Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints a ``CRITERION n PASS`` summary.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import CANONICAL_PARAMS, bell_block_spectrum, eigenstate_check, random_density
from tqcoh.coherence import (
    closed_form_coherence,
    coherence_extrema,
    l1_coherence,
    validate_density,
)
from tqcoh.evolution import (
    BellLabel,
    _closed_form_terms,
    _closed_form_u,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
)
from tqcoh.linalg import hermitian_eigensystem
from tqcoh.model import CircuitParams, build_hamiltonian_tensor
from tqcoh.scan import (
    TimeGrid,
    _draw_parameters,
    cross_validate,
    find_operating_point,
    grid_scan,
    time_series,
)

SEED = 42
DRAWS = 1000


@pytest.fixture(scope="module")
def report():
    return cross_validate(DRAWS, SEED)


@pytest.fixture(scope="module")
def draw_set():
    rng = np.random.default_rng(SEED)
    return [_draw_parameters(rng) for _ in range(DRAWS)]


def test_reference_verify_report(report):
    # `tqcoh verify --samples 1000 --seed 42`: a faster solver or batched
    # harness must keep the verdict and the worst draw of every check.
    assert report.passed
    worst = {c.name: c.worst_draw for c in report.checks}
    assert worst == {"propagator": 599, "density": 599, "coherence": 790, "unitarity": 749}
    assert all(c.max_deviation <= 1e-12 for c in report.checks)


def test_criterion_01_propagator_equivalence(report):
    by_name = {c.name: c for c in report.checks}
    assert by_name["propagator"].max_deviation <= 1e-10
    assert by_name["unitarity"].max_deviation <= 1e-10
    print(
        f"CRITERION 1 PASS: max |U_closed - U_spectral| = "
        f"{by_name['propagator'].max_deviation:.3e}, "
        f"max unitarity defect = {by_name['unitarity'].max_deviation:.3e} "
        f"over {DRAWS} draws"
    )


def test_criterion_02_density_equivalence(report, draw_set):
    by_name = {c.name: c for c in report.checks}
    assert by_name["density"].max_deviation <= 1e-10

    max_dev = 0.0
    for params, t in draw_set:
        u = analytic_propagator(params, t)
        for label in BellLabel:
            closed = closed_form_density(label, params, t)
            piped = density_matrix(evolve(bell_state(label), u))
            max_dev = max(max_dev, float(np.max(np.abs(closed.matrix - piped.matrix))))
            for rho in (closed, piped):
                validate_density(rho.matrix)  # hermiticity, trace, positivity
                purity = float(np.trace(rho.matrix @ rho.matrix).real)
                assert abs(purity - 1.0) <= 1e-9
    assert max_dev <= 1e-10
    print(
        f"CRITERION 2 PASS: max |rho_closed - rho_piped| = {max_dev:.3e} "
        f"(spectral route {by_name['density'].max_deviation:.3e}); "
        f"all {DRAWS * 8} matrices pass Hermitian/trace/PSD/purity"
    )


def test_criterion_03_coherence_equivalence(report, draw_set):
    by_name = {c.name: c for c in report.checks}
    assert by_name["coherence"].max_deviation <= 1e-9

    max_label_gap = 0.0
    for params, t in draw_set:
        u = analytic_propagator(params, t)
        via_phi = l1_coherence(density_matrix(evolve(bell_state(BellLabel.PHI_PLUS), u)))
        via_psi = l1_coherence(density_matrix(evolve(bell_state(BellLabel.PSI_PLUS), u)))
        max_label_gap = max(max_label_gap, abs(via_phi - via_psi))
        assert closed_form_coherence(BellLabel.PHI_PLUS, params, t) == closed_form_coherence(
            BellLabel.PSI_PLUS, params, t
        )
    assert max_label_gap <= 1e-12
    print(
        f"CRITERION 3 PASS: max |C_closed - C_piped| = "
        f"{by_name['coherence'].max_deviation:.3e}; "
        f"max |C(phi+) - C(psi+)| = {max_label_gap:.3e}"
    )


def test_criterion_04_stationary_states():
    rng = np.random.default_rng(SEED)
    points = [CANONICAL_PARAMS] + [_draw_parameters(rng)[0] for _ in range(100)]
    times = np.linspace(0.0, 10.0, 1001)
    worst = 0.0
    for params in points:
        u = _closed_form_u(_closed_form_terms(params, times), times)  # (1001, 4, 4)
        for label in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS):
            closed = closed_form_coherence(label, params, times)
            assert np.array_equal(closed, np.ones(1001))
            psi = u @ bell_state(label).amplitudes
            rho_abs = np.abs(psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :])
            piped = rho_abs.sum(axis=(1, 2)) - np.trace(rho_abs, axis1=1, axis2=2)
            worst = max(worst, float(np.max(np.abs(piped - 1.0))))

        h = build_hamiltonian_tensor(params)
        quarter = params.hbar**2 * params.e_m / 4.0
        lam_phi = eigenstate_check(h, bell_state(BellLabel.PHI_MINUS))
        lam_psi = eigenstate_check(h, bell_state(BellLabel.PSI_MINUS))
        assert lam_phi == pytest.approx(quarter, abs=1e-12)
        assert lam_psi == pytest.approx(-quarter, abs=1e-12)
    assert worst <= 1e-12
    # Spot-check the op-level pipeline at a few grid times.
    for t in (0.0, 2.5, 10.0):
        u = analytic_propagator(CANONICAL_PARAMS, t)
        rho = density_matrix(evolve(bell_state(BellLabel.PSI_MINUS), u))
        assert abs(l1_coherence(rho) - 1.0) <= 1e-12
    print(
        f"CRITERION 4 PASS: stationary C pinned to 1 within {worst:.3e} "
        f"across 101 parameter points x 1001 times; eigenvalues +-hbar^2 e_m/4"
    )


def test_criterion_05_headline_trajectory():
    series = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, TimeGrid(0.0, 10.0, 1001))
    assert series.closed_form[0] == 1.0  # exact at t = 0

    ext = coherence_extrema(BellLabel.PHI_PLUS, CANONICAL_PARAMS)
    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (0.0, 10.0), "maximize")
    assert abs(ext.max_value - 3.0) <= 1e-6
    assert abs(point.coherence - 3.0) <= 1e-6
    assert abs(point.t - 1.7347) <= 1e-3
    assert abs(ext.t_of_first_max - 1.7347) <= 1e-3

    t_min = ext.t_of_first_min
    assert abs(t_min - 5.0265) <= 1e-3
    min_value = closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, t_min)
    assert abs(min_value - 1.0) <= 1e-6

    period = ext.period
    shifted = closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, series.times + period)
    assert np.max(np.abs(shifted - series.closed_form)) <= 1e-9
    print(
        f"CRITERION 5 PASS: C(0) = 1 exactly; max {point.coherence:.9f} at "
        f"t = {point.t:.6f}; min {min_value:.9f} at t = {t_min:.6f}; "
        f"period deviation <= 1e-9"
    )


def test_criterion_06_grid_envelopes():
    time_grid = TimeGrid(0.0, 10.0, 101)
    ej_grid = grid_scan(BellLabel.PHI_PLUS, CANONICAL_PARAMS, "e_j", (0.0, 0.5, 101), time_grid)
    em_grid = grid_scan(BellLabel.PHI_PLUS, CANONICAL_PARAMS, "e_m", (0.0, 1.5, 101), time_grid)
    for grid in (ej_grid, em_grid):
        assert grid.values.min() >= 1.0 - 1e-9
        assert grid.values.max() <= 3.0 + 1e-9
    zero_row = ej_grid.values[0]
    assert np.max(np.abs(zero_row - 1.0)) <= 1e-12
    print(
        f"CRITERION 6 PASS: grids within [{ej_grid.values.min():.6f}, "
        f"{max(ej_grid.values.max(), em_grid.values.max()):.6f}]; e_j = 0 row constant 1"
    )


def test_criterion_07_regime_law(draw_set):
    # Confirm each regime branch by dense scan (1e-4 step over one period)
    # before trusting the formula on the full draw set.
    for params in (CANONICAL_PARAMS, CircuitParams(0.1, 3.0)):
        ext = coherence_extrema(BellLabel.PHI_PLUS, params)
        ts = np.arange(0.0, ext.period, 1e-4)
        dense = closed_form_coherence(BellLabel.PHI_PLUS, params, ts)
        assert dense.max() <= ext.max_value + 1e-9
        assert dense.max() >= ext.max_value - 1e-5

    for params, _ in draw_set:
        ext = coherence_extrema(BellLabel.PHI_PLUS, params)
        if math.isinf(ext.period):
            continue
        if params.hbar**2 * params.e_m**2 <= 16.0 * params.e_j**2:
            expected = 3.0
        else:
            d = 16.0 * params.e_j**2 + params.hbar**2 * params.e_m**2
            expected = 1.0 + 16.0 * params.hbar * abs(params.e_j * params.e_m) / d
        assert abs(ext.max_value - expected) <= 1e-9
        attained = closed_form_coherence(BellLabel.PHI_PLUS, params, ext.t_of_first_max)
        assert abs(attained - ext.max_value) <= 1e-9
    print(
        "CRITERION 7 PASS: both regime branches dense-scan confirmed; "
        f"analytic max formula attained on all {DRAWS} draws"
    )


def test_criterion_08_spectrum_law(draw_set):
    worst = 0.0
    for params, _ in draw_set:
        eig = hermitian_eigensystem(build_hamiltonian_tensor(params))
        oracle = bell_block_spectrum(params)
        worst = max(worst, float(np.max(np.abs(eig.eigenvalues - oracle))))
    assert worst <= 1e-10
    print(
        f"CRITERION 8 PASS: eigenvalue multiset matches "
        f"{{+-hbar omega_fast, +-hbar^2 e_m/4}} within {worst:.3e} on {DRAWS} draws"
    )


def test_criterion_09_measure_axioms():
    rng = np.random.default_rng(SEED)
    states = [random_density(rng) for _ in range(500)]
    for rho in states:
        value = l1_coherence(validate_density(rho))
        assert 0.0 <= value <= 3.0 + 1e-9
        # Zero iff diagonal (within 1e-12 off-diagonal modulus).
        diag_only = np.diag(np.diag(rho))
        assert l1_coherence(validate_density(diag_only)) == 0.0
        if np.max(np.abs(rho - np.diag(np.diag(rho)))) > 1e-12:
            assert value > 1e-12

    from tqcoh.evolution import DensityMatrix

    for k in range(500):
        rho1, rho2 = states[k], states[(k + 1) % 500]
        c1, c2 = l1_coherence(DensityMatrix(rho1)), l1_coherence(DensityMatrix(rho2))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mix = DensityMatrix(lam * rho1 + (1.0 - lam) * rho2)
            assert l1_coherence(mix) <= lam * c1 + (1.0 - lam) * c2 + 1e-12
    print(
        "CRITERION 9 PASS: non-negativity, range, zero-iff-diagonal and "
        "convexity hold on 500 random states / pairs"
    )


def test_criterion_10_cli_contract(tmp_path):
    verify = subprocess.run(
        [sys.executable, "-m", "tqcoh", "verify", "--samples", "1000", "--seed", "42"],
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr

    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        run = subprocess.run(
            [
                sys.executable,
                "-m",
                "tqcoh",
                "series",
                "--state",
                "phi+",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    first_row = outputs[0].decode().splitlines()[1]
    assert first_row == "0,1.000000000000,1.000000000000,0.000000000000"
    print(
        "CRITERION 10 PASS: verify --samples 1000 --seed 42 exits 0; "
        "series golden row stable across runs"
    )

"""``cross_validate`` on blocks of draws against the draw-by-draw loop.

``reference_cross_validate`` is the draw-by-draw loop that the blocked
harness replaced, kept verbatim as the reference: one draw at a time
through ``numeric_propagator``, ``evolve``, ``density_matrix``,
``l1_coherence`` and ``closed_form_coherence``. The blocked harness must
give the same report, to the last bit, at every block boundary.
"""

import tracemalloc

import numpy as np
import pytest

import tqcoh.evolution as evolution_module
import tqcoh.scan as scan_module
from conftest import SPECTRUM_K, spectrum_deviation
from tqcoh.cli import EXIT_INVARIANT, main
from tqcoh.coherence import closed_form_coherence, l1_coherence
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from tqcoh.linalg import EigenSystem
from tqcoh.model import CircuitParams, build_hamiltonian_tensor
from tqcoh.scan import (
    THRESHOLD,
    CheckResult,
    TimeGrid,
    ValidationReport,
    _draw_parameters,
    cross_validate,
    time_series,
)

BLOCK = 8


def reference_cross_validate(draws: int, seed: int) -> ValidationReport:
    rng = np.random.default_rng(seed)
    names = ("propagator", "density", "coherence", "unitarity")
    # Per check: (max deviation, draw, params, t) of the latest worst draw.
    worst: dict[str, tuple[float, int, CircuitParams, float]] = {}

    for index in range(draws):
        params, t = _draw_parameters(rng)
        u_closed = analytic_propagator(params, t)
        u_spectral = numeric_propagator(params, t)

        devs = {
            "propagator": float(np.abs(u_closed.matrix - u_spectral.matrix).max()),
            "unitarity": max(u_closed.defect, u_spectral.defect),
            "density": 0.0,
            "coherence": 0.0,
        }
        for label in BellLabel:
            rho_closed = closed_form_density(label, params, t)
            rho_piped = density_matrix(evolve(bell_state(label), u_spectral))
            devs["density"] = max(
                devs["density"],
                float(np.abs(rho_closed.matrix - rho_piped.matrix).max()),
            )
            devs["coherence"] = max(
                devs["coherence"],
                abs(
                    closed_form_coherence(label, params, t) - l1_coherence(rho_piped)
                ),
            )
        for name in names:
            if devs[name] >= worst.get(name, (0.0,))[0]:
                worst[name] = (devs[name], index, params, t)

    checks = tuple(CheckResult(name, *worst[name]) for name in names)
    passed = all(c.max_deviation <= THRESHOLD for c in checks)
    worst_check = max(checks, key=lambda c: c.max_deviation).name
    return ValidationReport(
        draws=draws,
        seed=seed,
        threshold=THRESHOLD,
        checks=checks,
        passed=passed,
        worst_check=worst_check,
    )


def spectrum_deviations(draws: int, seed: int) -> list[float]:
    """Each draw's :func:`spectrum_deviation`, from the eigensolve ``cross_validate`` calls."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        params, _ = _draw_parameters(rng)
        eig = evolution_module.hermitian_eigensystem(build_hamiltonian_tensor(params))
        out.append(spectrum_deviation(eig.eigenvalues, params))
    return out


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(scan_module, "_BLOCK_DRAWS", BLOCK)


@pytest.mark.parametrize("seed", [0, 7, 42, 2**31 - 1])
@pytest.mark.parametrize("draws", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
def test_blocked_report_equals_the_draw_by_draw_loop(small_blocks, seed, draws):
    assert cross_validate(draws, seed) == reference_cross_validate(draws, seed)


@pytest.mark.parametrize("seed", [0, 7, 42, 2**31 - 1])
def test_each_draws_spectrum_is_within_its_bound(seed):
    assert max(spectrum_deviations(3 * BLOCK + 2, seed)) <= SPECTRUM_K


def test_each_draw_makes_18_certificates_and_one_eigensolve(small_blocks, monkeypatch):
    calls = {"UnitaryMatrix": 0, "StateVector": 0, "DensityMatrix": 0, "eigensolve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("UnitaryMatrix", "StateVector", "DensityMatrix"):
        cls = getattr(evolution_module, name)
        monkeypatch.setattr(cls, "__init__", counted(name, cls.__init__))
    eigensolve = counted("eigensolve", evolution_module.hermitian_eigensystem)
    monkeypatch.setattr(evolution_module, "hermitian_eigensystem", eigensolve)
    draws = 2 * BLOCK + 3  # two full blocks and a partial one
    cross_validate(draws, 5)
    assert calls == {
        "UnitaryMatrix": 2 * draws,
        "StateVector": 8 * draws,
        "DensityMatrix": 8 * draws,
        "eigensolve": draws,
    }


def _scale_eigenvalues(monkeypatch):
    """Make the spectral route's eigenvalues wrong by a factor 1 + 1e-6.

    One patch reaches every spectral caller: each enters through
    ``evolution._spectral_entry``.
    """
    true_eigensystem = evolution_module.hermitian_eigensystem

    def corrupted(h):
        eig = true_eigensystem(h)
        return EigenSystem(eig.eigenvalues * (1.0 + 1e-6), eig.eigenvectors)

    monkeypatch.setattr(evolution_module, "hermitian_eigensystem", corrupted)


def test_cross_validate_flags_corrupted_spectrum(small_blocks, monkeypatch, capsys):
    params, t, grid = CircuitParams(0.5, 1.5), 7.0, TimeGrid(0.0, 7.0, 5)
    u = numeric_propagator(params, t).matrix
    c_numeric = time_series(BellLabel.PHI_PLUS, params, grid).numeric
    _scale_eigenvalues(monkeypatch)
    # The propagator and the series move with the eigensolve that cross_validate uses.
    assert np.abs(numeric_propagator(params, t).matrix - u).max() > 1e-9
    assert np.abs(time_series(BellLabel.PHI_PLUS, params, grid).numeric - c_numeric).max() > 1e-9
    report = cross_validate(20, 42)
    assert report == reference_cross_validate(20, 42)
    assert not report.passed
    by_name = {c.name: c.max_deviation for c in report.checks}
    # The phases are wrong, so every comparison with the spectral route fails;
    # the eigenvectors are intact, so the synthesised U stays unitary. The l1
    # sum adds twelve wrong entries, so the coherence check deviates most.
    assert min(by_name["propagator"], by_name["density"], by_name["coherence"]) > THRESHOLD
    assert by_name["unitarity"] <= THRESHOLD
    assert report.worst_check == "coherence"
    # The spectrum itself names the eigensolve: every draw's is about 4.5e9
    # eps ||H||_2 off, where a correct one is within SPECTRUM_K.
    assert min(spectrum_deviations(20, 42)) > 1e6 * SPECTRUM_K

    assert main(["verify", "--samples", "10", "--seed", "3"]) == EXIT_INVARIANT
    assert "FAIL" in capsys.readouterr().out


def test_memory_stays_bounded_by_the_block(small_blocks):
    # Per-draw results live only until their block is reduced, so ten
    # blocks of draws peak about as high as one. Without the blocking the
    # peak grows about tenfold.
    peaks = []
    for draws in (BLOCK, 10 * BLOCK):
        tracemalloc.start()
        try:
            cross_validate(draws, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]

import math

import numpy as np
import pytest

import tqcoh.scan as scan_module
from conftest import CANONICAL_PARAMS
from tqcoh.coherence import closed_form_coherence, l1_coherence
from tqcoh.evolution import (
    BellLabel,
    bell_state,
    density_matrix,
    evolve,
    numeric_propagator,
)
from tqcoh.model import CircuitParams
from tqcoh.scan import (
    MECHANISM_EIGENSTATE,
    MECHANISM_NONE,
    MECHANISM_TUNNELLING_OFF,
    TimeGrid,
    cross_validate,
    find_operating_point,
    grid_scan,
    time_series,
)

CANONICAL_GRID = TimeGrid(0.0, 10.0, 1001)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(5.0, 5.0, 10)
    grid = TimeGrid(0.0, 10.0, 11)
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == 10.0 and len(times) == 11


# ----------------------------------------------------------------- series


def test_series_canonical_point():
    series = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, CANONICAL_GRID)
    assert series.closed_form[0] == 1.0
    assert series.max_abs_gap <= 1e-9
    # The sampled global maximum reaches 3.0 to within the grid resolution,
    # at a time equivalent (mod the period) to a true maximiser.
    peak = float(series.closed_form.max())
    assert abs(peak - 3.0) <= 1e-6
    t_peak = float(series.times[int(series.closed_form.argmax())])
    period = math.pi / 0.625
    maximisers = (1.7345621947521976, period - 1.7345621947521976)
    offset = t_peak % period
    assert min(abs(offset - m) for m in maximisers) <= 0.01
    # The sampled minimum sits near 1 (exact at t = 0).
    assert series.closed_form.min() == 1.0


def test_series_stationary_and_frozen():
    series = time_series(BellLabel.PHI_MINUS, CircuitParams(1.7, -2.2, 2.0), CANONICAL_GRID)
    assert np.array_equal(series.closed_form, np.ones(1001))
    assert np.max(np.abs(series.numeric - 1.0)) <= 1e-9

    series = time_series(BellLabel.PHI_PLUS, CircuitParams(0.0, 1.5), CANONICAL_GRID)
    assert np.array_equal(series.closed_form, np.ones(1001))
    assert np.max(np.abs(series.numeric - 1.0)) <= 1e-9


def test_series_numeric_column_matches_pointwise_ops():
    grid = TimeGrid(0.0, 10.0, 21)
    series = time_series(BellLabel.PSI_PLUS, CANONICAL_PARAMS, grid)
    for k in (0, 7, 20):
        t = float(series.times[k])
        u = numeric_propagator(CANONICAL_PARAMS, t)
        rho = density_matrix(evolve(bell_state(BellLabel.PSI_PLUS), u))
        assert series.numeric[k] == pytest.approx(l1_coherence(rho), abs=1e-12)


# ------------------------------------------------------------------- grids


def test_grid_vary_tunnelling():
    grid = grid_scan(
        BellLabel.PHI_PLUS,
        CANONICAL_PARAMS,
        "e_j",
        (0.0, 0.5, 26),
        TimeGrid(0.0, 10.0, 101),
    )
    assert grid.axis1_name == "e_j" and grid.axis2_name == "t"
    assert grid.values.shape == (26, 101)
    assert grid.values.min() >= 1.0 - 1e-9 and grid.values.max() <= 3.0 + 1e-9
    assert np.array_equal(grid.values[0], np.ones(101))  # e_j = 0 row


def test_grid_vary_coupling():
    grid = grid_scan(
        BellLabel.PHI_PLUS,
        CANONICAL_PARAMS,
        "e_m",
        (0.0, 1.5, 26),
        TimeGrid(0.0, 10.0, 101),
    )
    assert grid.values.min() >= 1.0 - 1e-9 and grid.values.max() <= 3.0 + 1e-9


def test_grid_two_by_two():
    grid = grid_scan(
        BellLabel.PHI_PLUS, CANONICAL_PARAMS, "e_j", (0.1, 0.5, 2), TimeGrid(0.0, 10.0, 2)
    )
    assert np.array_equal(grid.values[:, 0], np.ones(2))  # t = 0 column


def test_grid_rejects_degenerate_range():
    with pytest.raises(ValueError, match="range"):
        grid_scan(
            BellLabel.PHI_PLUS, CANONICAL_PARAMS, "e_j", (0.5, 0.5, 5), TimeGrid(0.0, 1.0, 5)
        )
    with pytest.raises(ValueError, match="vary"):
        grid_scan(
            BellLabel.PHI_PLUS, CANONICAL_PARAMS, "hbar", (0.5, 1.0, 5), TimeGrid(0.0, 1.0, 5)
        )


def test_grid_series_consistency():
    grid = grid_scan(
        BellLabel.PHI_PLUS, CANONICAL_PARAMS, "e_j", (0.25, 0.5, 2), TimeGrid(0.0, 10.0, 11)
    )
    series = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, TimeGrid(0.0, 10.0, 11))
    # Row for e_j = 0.5 must agree with the series closed-form column.
    assert np.max(np.abs(grid.values[1] - series.closed_form)) <= 1e-12


def test_grid_is_deterministic():
    make = lambda: grid_scan(
        BellLabel.PSI_PLUS, CANONICAL_PARAMS, "e_m", (0.0, 1.5, 7), TimeGrid(0.0, 10.0, 9)
    )
    a, b = make(), make()
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.axis1, b.axis1) and np.array_equal(a.axis2, b.axis2)


# -------------------------------------------------------- operating points


def test_optimize_canonical_window():
    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (0.0, 10.0), "maximize")
    assert point.coherence == pytest.approx(3.0, abs=1e-9)
    assert point.t == pytest.approx(1.7345621947521976, abs=1e-6)
    assert point.mechanism is None
    # The reported coherence is the closed-form value at the reported time.
    assert point.coherence == closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, point.t)


def test_optimize_stationary_label():
    point = find_operating_point(BellLabel.PHI_MINUS, CANONICAL_PARAMS, (2.0, 9.0), "maximize")
    assert point.coherence == 1.0
    assert point.mechanism == MECHANISM_EIGENSTATE


def test_optimize_boundary_window():
    # C dips to its minimum at ~5.0265 inside this window, so the best
    # point is a window edge; the left edge wins by symmetry.
    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (4.5, 5.5), "maximize")
    assert point.t == pytest.approx(4.5, abs=1e-6)


@pytest.mark.parametrize("label", [BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
@pytest.mark.parametrize(
    "e_j, e_m, window",
    [
        (0.5, 1.5, (0.0, 10.0)),
        (0.5, 1.5, (4.5, 5.5)),
        (0.5, 1.5, (2.5, 4.0)),
        (0.5, 4.0, (0.0, 10.0)),  # boundary regime: maximum below 3
        (0.5, 4.0, (1.0, 2.0)),
        (-2.3, 0.7, (0.0, 200.0)),  # many periods
        (1.2, -4.9, (31.0, 33.5)),
    ],
)
def test_optimize_matches_dense_scan(label, e_j, e_m, window):
    params = CircuitParams(e_j, e_m)
    point = find_operating_point(label, params, window, "maximize")
    assert window[0] <= point.t <= window[1]
    dense = closed_form_coherence(label, params, np.linspace(*window, 200_001))
    assert point.coherence >= dense.max() - 1e-9


def test_optimize_window_with_second_maximiser():
    # Only the mirrored maximiser (period - t*) lies in this window.
    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (2.5, 4.0), "maximize")
    assert point.coherence == pytest.approx(3.0, abs=1e-9)
    assert point.t == pytest.approx(math.pi / 0.625 - 1.7345621947521976, abs=1e-6)


def test_optimize_rejects_empty_window():
    for window in [(3.0, 3.0), (0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="window"):
            find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, window, "maximize")


def test_optimize_subnormal_frequencies():
    # The period overflows to inf. At e_j = 3e-309 the maximiser does too,
    # so C rises over the whole window and the right edge wins.
    window = (0.0, 1e308)
    point = find_operating_point(BellLabel.PHI_PLUS, CircuitParams(3e-309, 0.0), window, "maximize")
    assert point.t == 1e308
    assert format(point.coherence, ".12f") == "2.129284946790"
    point = find_operating_point(
        BellLabel.PHI_PLUS, CircuitParams(1e-308, 1e-308), window, "maximize"
    )
    assert point.coherence == pytest.approx(3.0, abs=1e-12)


def test_stabilize_mechanisms():
    point = find_operating_point(BellLabel.PSI_MINUS, CANONICAL_PARAMS, (0.0, 10.0), "stabilize")
    assert point.mechanism == MECHANISM_EIGENSTATE and point.coherence == 1.0

    point = find_operating_point(
        BellLabel.PHI_PLUS, CircuitParams(0.0, 1.5), (0.0, 10.0), "stabilize"
    )
    assert point.mechanism == MECHANISM_TUNNELLING_OFF and point.coherence == 1.0

    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (0.0, 10.0), "stabilize")
    assert point.mechanism == MECHANISM_NONE
    assert point.coherence == closed_form_coherence(BellLabel.PHI_PLUS, CANONICAL_PARAMS, 0.0)


# --------------------------------------------------------- cross validation


def test_cross_validate_shape_and_determinism():
    first = cross_validate(5, 123)
    second = cross_validate(5, 123)
    assert first == second
    assert first.draws == 5 and first.seed == 123
    names = [c.name for c in first.checks]
    assert names == ["propagator", "density", "coherence", "unitarity"]
    assert all(c.max_deviation >= 0.0 for c in first.checks)


def test_cross_validate_single_draw():
    report = cross_validate(1, 7)
    assert report.passed
    assert {c.name for c in report.checks} >= {"propagator", "density", "coherence"}


def test_cross_validate_rejects_bad_draws():
    with pytest.raises(ValueError):
        cross_validate(0, 1)


def test_cross_validate_passes_moderate_sweep():
    report = cross_validate(200, 42)
    assert report.passed
    for check in report.checks:
        assert check.max_deviation <= 1e-9


def test_cross_validate_flags_corrupted_propagator(monkeypatch):
    true_analytic = scan_module.analytic_propagator

    def corrupted(params, t):
        # Perfectly unitary, but evaluated at the wrong time.
        return true_analytic(params, t * 1.001)

    monkeypatch.setattr(scan_module, "analytic_propagator", corrupted)
    report = cross_validate(20, 42)
    assert not report.passed
    assert report.worst_check == "propagator"
    # The density / coherence legs use the spectral propagator and stay ok.
    by_name = {c.name: c for c in report.checks}
    assert by_name["density"].max_deviation <= 1e-9
    assert by_name["coherence"].max_deviation <= 1e-9


def test_cross_validate_flags_corrupted_density(monkeypatch):
    true_closed = scan_module.closed_form_density

    def corrupted(label, params, t):
        return true_closed(label, params, t * 1.001)

    monkeypatch.setattr(scan_module, "closed_form_density", corrupted)
    report = cross_validate(20, 42)
    assert not report.passed
    assert report.worst_check == "density"


def test_report_serialises():
    report = cross_validate(3, 9)
    doc = report.as_dict()
    assert doc["draws"] == 3 and doc["passed"] is True
    assert len(doc["checks"]) == 4
    assert {"name", "max_deviation", "worst_draw"} <= set(doc["checks"][0])

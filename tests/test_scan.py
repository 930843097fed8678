import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import tqcoh.scan as scan_module
from conftest import CANONICAL_PARAMS
from tqcoh.coherence import closed_form_coherence, l1_coherence
from tqcoh.evolution import (
    BellLabel,
    DensityMatrix,
    DensityMatrixError,
    StateVector,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from tqcoh.model import CircuitParams, InputError
from tqcoh.scan import (
    MECHANISM_EIGENSTATE,
    MECHANISM_NONE,
    MECHANISM_TUNNELLING_OFF,
    ScanGrid,
    TimeGrid,
    _draw_parameters,
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
    TimeGrid(0.0, 1.0, 2**60 - 1)  # the most numpy can size; nothing is allocated
    grid = TimeGrid(0.0, 10.0, 11)
    times = grid.times()
    assert times[0] == 0.0 and times[-1] == 10.0 and len(times) == 11


def test_time_grid_takes_float32_ends_as_float64():
    # float32 ends used to leak float32 times into the numeric column, with
    # a gap of 7e-8 at the canonical point.
    grid = TimeGrid(np.float32(0), np.float32(10), 5)
    assert type(grid.t_start) is float and type(grid.t_end) is float
    series = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, grid)
    assert series.times.dtype == series.numeric.dtype == np.float64
    reference = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, TimeGrid(0.0, 10.0, 5))
    assert series.numeric.tobytes() == reference.numeric.tobytes()
    assert series.gap.max() <= 1e-12


# ----------------------------------------------------------------- series


def test_series_canonical_point():
    series = time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, CANONICAL_GRID)
    assert series.closed_form[0] == 1.0
    assert series.gap.max() <= 1e-9
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


@pytest.mark.parametrize("label", [BellLabel.PHI_PLUS, BellLabel.PSI_PLUS])
def test_series_numeric_column_matches_full_pipeline_in_every_block(label):
    params = CircuitParams(1.3, -0.7, 2.0)
    block = scan_module._BLOCK_ROWS
    steps = 3 * block + 123
    series = time_series(label, params, TimeGrid(0.0, 40.0, steps))
    rows = np.linspace(0, steps - 1, 20).round().astype(int)
    assert len(set(rows // block)) == 4
    for k in rows:
        t = float(series.times[k])
        rho = density_matrix(evolve(bell_state(label), numeric_propagator(params, t)))
        assert abs(series.numeric[k] - l1_coherence(rho)) <= 1e-13


def test_series_does_not_depend_on_block_size(monkeypatch):
    params = CircuitParams(-2.1, 3.4, 0.5)
    grid = TimeGrid(0.0, 50.0, 2 * scan_module._BLOCK_ROWS + 17)
    blocked = time_series(BellLabel.PHI_PLUS, params, grid)
    for rows in (1000, grid.steps):
        monkeypatch.setattr(scan_module, "_BLOCK_ROWS", rows)
        other = time_series(BellLabel.PHI_PLUS, params, grid)
        assert np.array_equal(other.numeric, blocked.numeric)


def test_series_makes_no_certificate(monkeypatch):
    # bell_state's shared input is certified once, at import.
    certified = []
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: certified.append(self))
    for label in BellLabel:
        time_series(label, CANONICAL_PARAMS, TimeGrid(0.0, 5.0, 11))
    assert certified == []


def test_series_memory_per_row_is_bounded():
    # The returned columns take 24 B/row; the closed form's temporaries
    # bring the peak to ~45 B/row. Building N x 4 x 4 propagator and
    # density stacks instead costs ~720 B/row.
    steps = 200_000
    tracemalloc.start()
    try:
        time_series(BellLabel.PHI_PLUS, CANONICAL_PARAMS, TimeGrid(0.0, 10.0, steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps < 96


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


_CANONICAL = (BellLabel.PHI_PLUS, CANONICAL_PARAMS)
_GRID = TimeGrid(0.0, 1.0, 3)


def _scan(value_range, vary="e_m"):
    return grid_scan(*_CANONICAL, vary, value_range, _GRID)


def test_grid_checks_every_row_before_computing_any(monkeypatch):
    computed = []
    monkeypatch.setattr(scan_module, "closed_form_coherence",
                        lambda *args: computed.append(args) or np.ones(3))
    # Rows 0 and 1 are in range; hbar e_m overflows only in the last one.
    with pytest.raises(InputError, match="parameters out of range"):
        grid_scan(BellLabel.PHI_PLUS, CircuitParams(0.5, 0.0, 2.0), "e_m", (0.0, 1e308, 3), _GRID)
    assert computed == []


def test_grid_too_large_to_size_is_rejected_before_any_axis(monkeypatch):
    # Each axis alone is in range; their 2**62 cells are not. The stand-in
    # linspace shows that no axis is allocated. A real 2**31 axis is 16 GiB,
    # which can succeed under memory overcommit and then exhaust memory.
    def allocate(*args):
        raise AssertionError("an axis was allocated")

    monkeypatch.setattr(np, "linspace", allocate)
    with pytest.raises(InputError, match="2147483648 x 2147483648 grid"):
        grid_scan(*_CANONICAL, "e_m", (0.0, 1.0, 2**31), TimeGrid(0.0, 1.0, 2**31))


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: CircuitParams(e_j=math.nan, e_m=1.0), "got nan"),
        (lambda: CircuitParams(e_j=0.5, e_m=1.5, hbar=0.0), "got 0.0"),
        (lambda: CircuitParams(e_j=0.5, e_m=1.5, hbar=1e200), "hbar=1e+200"),
        (lambda: TimeGrid(0.0, math.inf, 3), "[0.0, inf]"),
        # The span overflows inside np.linspace (a warning, an error here).
        (lambda: TimeGrid(-1e308, 1e308, 3), "[-1e+308, 1e+308]"),
        (lambda: TimeGrid(0.0, 0.0, 3), "[0.0, 0.0]"),
        (lambda: TimeGrid(0.0, 1.0, 1), "got 1"),
        (lambda: TimeGrid(0.0, 1.0, 2**60), "1152921504606846976 steps"),
        (lambda: TimeGrid(0.0, 1.0, 2.5), "must be an integer, got 2.5"),
        (lambda: _scan((0.0, 1.0, 3), vary="hbar"), "'hbar'"),
        # Non-finite ends: np.linspace warns before a later check.
        (lambda: _scan((0.0, math.inf, 3)), "[0.0, inf]"),
        (lambda: _scan((-math.inf, 1.0, 3)), "[-inf, 1.0]"),
        (lambda: _scan((math.nan, 1.0, 3)), "[nan, 1.0]"),
        (lambda: _scan((-1e308, 1e308, 3)), "[-1e+308, 1e+308]"),
        (lambda: _scan((1.0, 1.0, 3)), "[1.0, 1.0]"),
        (lambda: _scan((0.0, 1.0, 1)), "got 1"),
        (lambda: _scan((0.0, 1.0, 2.5)), "must be an integer, got 2.5"),
        (lambda: find_operating_point(*_CANONICAL, (0.0, math.inf), "maximize"),
         "[0.0, inf]"),
        (lambda: find_operating_point(*_CANONICAL, (5.0, 5.0), "maximize"),
         "[5.0, 5.0]"),
        (lambda: find_operating_point(*_CANONICAL, (0.0, 1.0), "minimize"),
         "'minimize'"),
        (lambda: cross_validate(0, 1), "got 0"),
        (lambda: cross_validate(1, -1), "seed, got -1"),
        (lambda: cross_validate(2.5, 1), "draws must be an integer, got 2.5"),
        (lambda: cross_validate(3, 1.5), "seed must be an integer, got 1.5"),
    ],
    ids=["params-finite", "params-hbar", "params-overflow", "grid-finite", "grid-span",
         "grid-empty", "grid-steps", "grid-size", "grid-fraction", "scan-vary", "scan-inf-hi",
         "scan-inf-lo", "scan-nan-lo", "scan-span", "scan-range", "scan-steps",
         "scan-fraction", "window-finite", "window-empty", "objective", "draws", "seed",
         "draws-fraction", "seed-fraction"],
)
def test_input_checks_raise_input_error_naming_the_value(call, value):
    with pytest.raises(InputError) as err:
        call()
    assert isinstance(err.value, ValueError)
    assert value in str(err.value)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: time_series(BellLabel.PHI_PLUS, _HOT, TimeGrid(0.0, 1e308, 3)), ValueError),
        (lambda: DensityMatrix(np.diag([0.6, 0.6, 0.0, 0.0]).astype(complex)),
         DensityMatrixError),
    ],
    ids=["phase-overflow", "density"],
)
def test_route_failures_are_not_input_errors(call, error):
    # The command line exits 2 on these, 1 on an InputError.
    with pytest.raises(error) as err:
        call()
    assert not isinstance(err.value, InputError)


def test_grid_rejects_non_finite_values():
    axis = np.array([0.0, 1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            ScanGrid("e_j", "t", axis, axis, np.array([[1.0, 2.0], [bad, 1.0]]))


def test_grid_rejects_values_that_do_not_match_its_axes():
    axis = np.array([0.0, 1.0])
    for values in (np.ones((2, 3)), np.ones((3, 2)), np.ones(4)):
        with pytest.raises(ValueError, match="grid shape does not match its axes"):
            ScanGrid("e_j", "t", axis, axis, values)


def test_series_rejects_non_finite_coherence():
    # t * |E| / hbar overflows at the two later grid points.
    # No errstate: the overflow is caught before numpy computes the phase,
    # so no RuntimeWarning (an error in this suite) is raised.
    params = CircuitParams(e_j=5.0, e_m=1.5, hbar=1.0)
    with pytest.raises(ValueError, match=r"not finite at t = 5e\+307"):
        time_series(BellLabel.PHI_PLUS, params, TimeGrid(0.0, 1e308, 3))


_HOT = CircuitParams(e_j=5.0, e_m=1.5)
_HOT_TIMES = np.array([0.0, 1e308])


@pytest.mark.parametrize(
    "route",
    [
        lambda: analytic_propagator(_HOT, 1e308),
        lambda: numeric_propagator(_HOT, 1e308),
        lambda: closed_form_density(BellLabel.PSI_PLUS, _HOT, 1e308),
        lambda: closed_form_density(BellLabel.PHI_MINUS, _HOT, 1e308),
        lambda: closed_form_coherence(BellLabel.PHI_PLUS, _HOT, 1e308),
        lambda: closed_form_coherence(BellLabel.PSI_PLUS, _HOT, _HOT_TIMES),
        lambda: time_series(BellLabel.PHI_MINUS, _HOT, TimeGrid(0.0, 1e308, 2)),
        lambda: grid_scan(BellLabel.PHI_PLUS, _HOT, "e_m", (1.5, 2.0, 2), TimeGrid(0.0, 1e308, 2)),
        lambda: find_operating_point(BellLabel.PHI_PLUS, _HOT, (1e308, 1.5e308), "maximize"),
    ],
    ids=["analytic-propagator", "numeric-propagator", "density", "density-stationary",
         "coherence", "coherence-array", "series-stationary", "grid", "optimize"],
)
def test_every_route_checks_its_own_phase(route):
    # No errstate: numpy never sees the overflowing phase.
    with pytest.raises(ValueError, match=re.escape("not finite at t = 1e+308 (e_j=5.0, ")):
        route()


def test_stationary_coherence_forms_no_phase():
    assert closed_form_coherence(BellLabel.PHI_MINUS, _HOT, 1e308) == 1.0
    assert np.array_equal(closed_form_coherence(BellLabel.PSI_MINUS, _HOT, _HOT_TIMES), [1, 1])


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


@pytest.mark.parametrize(
    "lo",
    [338.51329465957804, -973.4157974795195, 877.9113808103899, -971.8583736232803],
    ids=["copy-67", "copy-minus-194", "mirrored-copy-174", "mirrored-copy-minus-194"],
)
def test_optimize_window_starting_one_ulp_after_a_maximiser_copy(lo):
    # Each lo is the double after a copy of t* or of period - t*, where
    # (lo - offset) / period rounds down to a whole number of periods.
    point = find_operating_point(BellLabel.PHI_PLUS, CANONICAL_PARAMS, (lo, lo + 1.0), "maximize")
    assert lo <= point.t <= lo + 1.0
    assert point.coherence == pytest.approx(3.0, abs=1e-12)


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


def test_counts_accept_numpy_integers():
    grid = TimeGrid(0.0, 1.0, np.int64(3))
    assert type(grid.steps) is int and len(grid.times()) == 3
    assert _scan((0.0, 1.0, np.int32(2))).values.shape == (2, 3)
    assert cross_validate(np.int64(2), np.uint8(1)) == cross_validate(2, 1)


def test_cross_validate_passes_moderate_sweep():
    report = cross_validate(200, 42)
    assert report.passed
    for check in report.checks:
        assert check.max_deviation <= 1e-9


def test_cross_validate_flags_corrupted_propagator(monkeypatch):
    true_u = scan_module._closed_form_u

    def corrupted(terms, t):
        # Perfectly unitary, but evaluated at the wrong time.
        return true_u(terms, t * 1.001)

    monkeypatch.setattr(scan_module, "_closed_form_u", corrupted)
    report = cross_validate(20, 42)
    assert not report.passed
    assert report.worst_check == "propagator"
    # The density / coherence legs use the spectral propagator and stay ok.
    by_name = {c.name: c for c in report.checks}
    assert by_name["density"].max_deviation <= 1e-9
    assert by_name["coherence"].max_deviation <= 1e-9


def test_cross_validate_flags_corrupted_density(monkeypatch):
    true_rho = scan_module._closed_form_rho

    def corrupted(terms, t):
        return true_rho(terms, t * 1.001)

    monkeypatch.setattr(scan_module, "_closed_form_rho", corrupted)
    report = cross_validate(20, 42)
    assert not report.passed
    assert report.worst_check == "density"


def test_report_serialises():
    report = cross_validate(3, 9)
    doc = dataclasses.asdict(report)
    assert doc["draws"] == 3 and doc["passed"] is True
    assert len(doc["checks"]) == 4
    assert {"name", "max_deviation", "worst_draw"} <= set(doc["checks"][0])


@pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
def test_draw_parameters_keeps_the_documented_order(seed):
    # The report names its worst draws by index; this is the order the
    # docstring gives, with hbar drawn by Generator.choice.
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10_000):
        params, t = _draw_parameters(rng)
        e_j = reference.uniform(-5.0, 5.0)
        e_m = reference.uniform(-5.0, 5.0)
        hbar = float(reference.choice([0.5, 1.0, 2.0]))
        t_ref = reference.uniform(0.0, 50.0)
        assert (params.e_j, params.e_m, params.hbar, t) == (e_j, e_m, hbar, t_ref)

"""Parameter sweeps, operating points and the cross-validation harness.

Operating points come from the closed-form maximisers of
:func:`coherence_extrema`; no numerical search is involved.

Each closed form, the spectral synthesis and the l1 sum is one kernel of
the routes this module calls, for scalars or stacks. The block arithmetic
of :func:`cross_validate` adds two steps of its own: the stationary
states' C of exactly 1, and the evolved states psi = U b.

Everything here is deterministic: the same inputs (including the seed of
:func:`cross_validate`) reproduce bit-identical series, grids and
reports. Per-cell evaluations are pure functions, so execution order is
irrelevant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .coherence import (
    _oscillating_coherence,
    closed_form_coherence,
    coherence_extrema,
    off_diagonal_l1,
)
from .evolution import (
    _BELL_STATES,
    _LABELS,
    BellLabel,
    DensityMatrix,
    StateVector,
    UnitaryMatrix,
    _closed_form_rho,
    _closed_form_terms,
    _closed_form_u,
    _projector,
    _spectral_entry,
    _spectral_synthesis,
)
from .model import CircuitParams, InputError

__all__ = [
    "CoherenceSeries",
    "OperatingPoint",
    "ScanGrid",
    "TimeGrid",
    "ValidationReport",
    "cross_validate",
    "find_operating_point",
    "grid_scan",
    "time_series",
]

MECHANISM_EIGENSTATE = "eigenstate: stationary state, coherence constant at 1"
MECHANISM_TUNNELLING_OFF = "tunnelling off: C constant 1"
MECHANISM_NONE = "not stationary: set e_j = 0 to freeze C at 1"

# The largest deviation a :func:`cross_validate` check may record and pass.
THRESHOLD = 1e-9

# Rows per block of the numeric column in :func:`time_series`, and of
# the CLI's CSV writers. The per-block arrays (N x 4 states, N x 4 x 4
# moduli) then stay near 0.5 MiB whatever the number of steps.
_BLOCK_ROWS = 2048

# Draws per block of the stacked arithmetic in :func:`cross_validate`.
# Per-draw results live only until their block is reduced, so its peak
# (about 2 MiB traced by tracemalloc) does not grow with the number of draws.
_BLOCK_DRAWS = 256

_CHECK_NAMES = ("propagator", "density", "coherence", "unitarity")
_STATIONARY = np.array([label.stationary for label in _LABELS])

# The most float64 elements numpy can size; beyond it numpy raises a
# ValueError ("array is too big") instead of a MemoryError.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _count(value, what: str) -> int:
    """``value`` as a Python int; InputError naming it unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def _check_span(start: float, end: float, steps: int, what: str) -> int:
    """Raise InputError unless ``steps`` points on [start, end] make a usable axis.

    A finite span (which keeps linspace finite), end above start, and an
    integer 2 to ``_MAX_FLOATS`` steps, returned as a Python int. ``what``
    names the axis in the message.
    """
    steps = _count(steps, f"the steps of {what}")
    span = f"[{start!r}, {end!r}]"
    if not math.isfinite(end - start):
        raise InputError(f"{what} needs a finite span, got {span}")
    if not end > start:
        raise InputError(f"{what} needs its end above its start, got {span}")
    if steps < 2:
        raise InputError(f"{what} needs at least 2 steps, got {steps!r}")
    if steps > _MAX_FLOATS:
        raise InputError(f"{what} of {steps!r} steps is too large to allocate")
    return steps


@dataclass(frozen=True)
class TimeGrid:
    """Uniform, endpoint-inclusive time grid."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "t_start", float(self.t_start))
        object.__setattr__(self, "t_end", float(self.t_end))
        steps = _check_span(self.t_start, self.t_end, self.steps, "a time grid")
        object.__setattr__(self, "steps", steps)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


@dataclass(frozen=True)
class CoherenceSeries:
    """Closed-form and pipeline coherence sampled on a time grid."""

    times: np.ndarray
    closed_form: np.ndarray
    numeric: np.ndarray
    gap: np.ndarray


@dataclass(frozen=True)
class ScanGrid:
    """Closed-form coherence on a (parameter, time) Cartesian grid.

    ``values[i, j]`` belongs to ``axis1[i]`` and ``axis2[j]``.
    """

    axis1_name: str
    axis2_name: str
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.axis1), len(self.axis2)):
            raise ValueError("grid shape does not match its axes")
        # Written so that NaN, which compares false, fails it too.
        if not (self.values.min() >= 0.0 and self.values.max() <= 3.0 + 1e-9):
            raise ValueError("coherence values escaped [0, 3] or are not finite")


@dataclass(frozen=True)
class OperatingPoint:
    """A time selected for its coherence behaviour."""

    t: float
    coherence: float
    mechanism: str | None = None


def time_series(
    label: BellLabel, params: CircuitParams, grid: TimeGrid
) -> CoherenceSeries:
    """Sample C(t) along a grid, via both available routes.

    The ``closed_form`` column evaluates the analytic expression. The
    ``numeric`` column applies the spectral propagator to the Bell state,
    psi(t) = V (exp(-i lambda t / hbar) * V^T psi0), from one Jacobi
    eigendecomposition of the Hamiltonian (:func:`_spectral_synthesis`),
    and sums |psi_i psi_j*| over i != j (:func:`off_diagonal_l1`). It is
    computed in blocks of ``_BLOCK_ROWS`` rows, so beyond the returned
    columns memory stays O(block); no N x 4 x 4 propagator or density
    stack is formed. Raises ``ValueError`` naming the first time at which
    either column is not finite; each route rejects a phase that would
    overflow before it is computed, the closed form's first.
    """
    times = grid.times()
    closed = closed_form_coherence(label, params, times)
    eig = _spectral_entry(params, times)
    coeffs = eig.eigenvectors.T @ _BELL_STATES[label].amplitudes
    numeric = np.empty_like(times)
    for lo in range(0, len(times), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        psi = _spectral_synthesis(
            eig.eigenvalues, eig.eigenvectors, times[block, np.newaxis], params.hbar, coeffs
        )
        numeric[block] = off_diagonal_l1(_projector(psi))

    # |closed - numeric| is finite exactly when both columns are.
    gap = np.abs(closed - numeric)
    finite = np.isfinite(gap)
    if not finite.all():
        raise ValueError(f"coherence is not finite at t = {times[np.argmin(finite)]:.12g}")
    return CoherenceSeries(times=times, closed_form=closed, numeric=numeric, gap=gap)


def grid_scan(
    label: BellLabel,
    fixed: CircuitParams,
    vary: str,
    value_range: tuple[float, float, int],
    grid: TimeGrid,
) -> ScanGrid:
    """Closed-form coherence over a (parameter, time) grid.

    ``vary`` is "e_j" or "e_m"; the corresponding field of ``fixed`` is
    replaced by each of ``steps`` uniform values in [lo, hi]. Every row's
    parameters are checked before any row is computed.
    """
    if vary not in ("e_j", "e_m"):
        raise InputError(f"cannot vary {vary!r}; pick 'e_j' or 'e_m'")
    lo, hi = float(value_range[0]), float(value_range[1])
    steps = _check_span(lo, hi, value_range[2], "a parameter range")
    if steps * grid.steps > _MAX_FLOATS:
        raise InputError(f"a {steps!r} x {grid.steps!r} grid is too large to allocate")

    axis1 = np.linspace(lo, hi, steps)
    axis2 = grid.times()
    rows = [replace(fixed, **{vary: value}) for value in axis1]
    values = np.empty((steps, grid.steps))
    for i, p in enumerate(rows):
        values[i, :] = closed_form_coherence(label, p, axis2)
    return ScanGrid(
        axis1_name=vary, axis2_name="t", axis1=axis1, axis2=axis2, values=values
    )


def find_operating_point(
    label: BellLabel,
    params: CircuitParams,
    t_window: tuple[float, float],
    objective: str,
) -> OperatingPoint:
    """Select a time inside a finite window that maximises or stabilises C.

    maximize: C depends on t only through s = sin^2(omega_fast t), and its
    radicand is a concave quadratic in s, so every local maximum of C(t)
    is a periodic copy of one of the two analytic maximisers t_max and
    period - t_max (:func:`coherence_extrema`). On a closed window the
    maximum is therefore at the earliest in-window copy of one of them or
    at an edge. Two float remainders place each copy, so no copy index can
    overflow. One closed-form call scores the candidates, checking the
    phase at lo first; the earliest within 1e-12 of the best value wins.

    stabilize: classifies the only two freezing mechanisms the model has
    (stationary Bell state; tunnelling switched off via e_j = 0) and
    reports the coherence at the window start.
    """
    lo, hi = float(t_window[0]), float(t_window[1])
    window = f"[{lo!r}, {hi!r}]"
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"a time window needs finite edges, got {window}")
    if not hi > lo:
        raise InputError(f"empty time window: the end must exceed the start, got {window}")
    if objective not in ("maximize", "stabilize"):
        raise InputError(f"unknown objective {objective!r}")

    # e_j = 0 kills the oscillating term entirely (and covers the
    # zero-Hamiltonian case), so the trajectory is constant.
    if label.stationary:
        mechanism = MECHANISM_EIGENSTATE
    elif params.e_j == 0.0:
        mechanism = MECHANISM_TUNNELLING_OFF
    elif objective == "stabilize":
        mechanism = MECHANISM_NONE
    else:
        mechanism = None
    if mechanism is not None:
        return OperatingPoint(lo, closed_form_coherence(label, params, lo), mechanism)

    ext = coherence_extrema(label, params)
    period = ext.period
    candidates = [lo, hi]
    # Each period holds maxima at t_max and period - t_max (they coincide
    # when the boundary-regime maximum sits at half a period). Later copies
    # repeat the same value and the earliest time wins ties, so one copy
    # per offset is enough: lo plus the gap between two remainders in
    # [0, period], so never before lo. Where the period overflows to inf, a
    # finite offset is the only copy.
    for offset in (ext.t_of_first_max, period - ext.t_of_first_max):
        point = lo + (offset % period - lo % period) % period if math.isfinite(period) else offset
        if lo <= point <= hi:
            candidates.append(point)

    # Equal-value maxima recur every period; prefer the earliest time among
    # candidates within float noise of the best.
    values = closed_form_coherence(label, params, np.array(candidates))
    top = values.max()
    best, coherence = min((c, float(v)) for c, v in zip(candidates, values) if v >= top - 1e-12)
    return OperatingPoint(t=best, coherence=coherence)


@dataclass(frozen=True)
class CheckResult:
    """Worst observed deviation for one cross-validation check."""

    name: str
    max_deviation: float
    worst_draw: int
    worst_params: CircuitParams
    worst_time: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a seeded closed-form vs numeric validation sweep."""

    draws: int
    seed: int
    threshold: float
    checks: tuple[CheckResult, ...]
    passed: bool
    worst_check: str


def _draw_parameters(rng: np.random.Generator) -> tuple[CircuitParams, float]:
    """One validation draw: e_j, e_m ~ U(-5, 5), hbar in {0.5, 1, 2}, t ~ U(0, 50).

    The draw order is part of the report contract; do not reorder.
    """
    e_j, e_m = rng.uniform(-5.0, 5.0, 2)
    hbar = (0.5, 1.0, 2.0)[rng.integers(3)]
    t = rng.uniform(0.0, 50.0)
    return CircuitParams(e_j=e_j, e_m=e_m, hbar=hbar), t


def cross_validate(draws: int, seed: int) -> ValidationReport:
    """Batch-validate the closed forms against the spectral pipeline.

    For ``draws`` seeded random parameter/time points (PCG64 generator,
    draw order documented in :func:`_draw_parameters`) this compares

    * "propagator": closed-form U(t) vs spectral synthesis, per entry;
    * "density": closed-form rho(t) vs propagate-then-outer-product via
      the spectral propagator, per entry, all four Bell labels;
    * "coherence": closed-form C(t) vs the off-diagonal sum of the
      propagated density matrix;
    * "unitarity": max |U+U - I| over both propagator routes.

    Each draw runs, in draw order, only the draw and the two checked entries,
    :func:`_closed_form_terms` and :func:`_spectral_entry`. Both routes then
    run on stacks, one block of up to ``_BLOCK_DRAWS`` draws at a time
    (:func:`_block_deviations`), through the scalar API's own kernels and
    with its floating-point results. Each check records the latest of its
    worst draws. The report passes iff every recorded maximum is at most
    ``THRESHOLD``.
    """
    draws = _count(draws, "cross-validation draws")
    seed = _count(seed, "a cross-validation seed")
    if draws < 1:
        raise InputError(f"cross-validation needs at least 1 draw, got {draws!r}")
    if seed < 0:
        raise InputError(f"cross-validation needs a non-negative seed, got {seed!r}")
    rng = np.random.default_rng(seed)
    # Per check: (max deviation, draw, params, t) of the latest worst draw.
    worst: dict[str, tuple[float, int, CircuitParams, float]] = {}

    for lo in range(0, draws, _BLOCK_DRAWS):
        points, rows, eigs = [], [], []
        for _ in range(min(_BLOCK_DRAWS, draws - lo)):
            params, t = _draw_parameters(rng)
            points.append((params, t))
            rows.append((t, params.hbar, *_closed_form_terms(params, t)))
            eigs.append(_spectral_entry(params, t))
        for name, devs in zip(_CHECK_NAMES, _block_deviations(np.array(rows).T, eigs)):
            i = len(devs) - 1 - int(np.argmax(devs[::-1]))  # the block's latest worst
            if devs[i] >= worst.get(name, (0.0,))[0]:
                worst[name] = (float(devs[i]), lo + i, *points[i])

    checks = tuple(CheckResult(name, *worst[name]) for name in _CHECK_NAMES)
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


def _block_deviations(columns: np.ndarray, eigs: list) -> tuple[np.ndarray, ...]:
    """Each draw's deviation for each of ``_CHECK_NAMES``, one array per check.

    ``columns`` has one column per draw: t, hbar and the draw's
    :func:`tqcoh.evolution._closed_form_terms`. Both
    routes, the evolved Bell states, the densities, the coherences and the
    deviations are computed on N x ... stacks. Each draw still makes the
    certificates of the draw-by-draw chain of the scalar API: both U, and
    per label the input state, the evolved state and both densities; the
    18 per draw that ``perfbench/test_selftest.py`` pins. The input states
    are constants, so their certificates only keep that count.
    """
    t, hbar, *terms = columns
    values = np.array([eig.eigenvalues for eig in eigs])
    # Each V^T C-contiguous and each V its transpose, as the eigensolver gives them.
    vectors = np.array([eig.eigenvectors.T for eig in eigs]).swapaxes(1, 2)
    synthesis = _spectral_synthesis(
        values[:, np.newaxis, :], vectors, t[:, np.newaxis, np.newaxis],
        hbar[:, np.newaxis, np.newaxis], vectors,
    )
    # U is the transpose of the synthesised U^T, as in numeric_propagator:
    # BLAS rounds U @ b differently for a C-contiguous U.
    u_spectral = synthesis.swapaxes(1, 2)
    inputs = _BELL_STATES.values()
    psi = np.stack([u_spectral @ b.amplitudes for b in inputs], axis=1)  # draw, label, entry
    rho = _projector(psi)
    u_closed = _closed_form_u(terms, t)
    rho_closed = _closed_form_rho(terms, t)
    oscillating = _oscillating_coherence(terms, t)
    c_closed = np.where(_STATIONARY, 1.0, oscillating[:, np.newaxis])  # draw, label

    unitarity = []
    for u, v, states, rhos, closed_rhos in zip(u_closed, u_spectral, psi, rho, rho_closed):
        unitarity.append(max(UnitaryMatrix(u).defect, UnitaryMatrix(v).defect))
        for b, state, r, r_closed in zip(inputs, states, rhos, closed_rhos):
            StateVector(b.amplitudes)  # kept only for perfbench's pinned 18 (ROADMAP item 3)
            StateVector(state)
            DensityMatrix(r)
            DensityMatrix(r_closed)

    return (
        np.abs(u_closed - u_spectral).max(axis=(1, 2)),
        np.abs(rho_closed - rho).max(axis=(1, 2, 3)),
        np.abs(c_closed - off_diagonal_l1(rho)).max(axis=1),
        np.array(unitarity),
    )

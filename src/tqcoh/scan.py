"""Parameter sweeps, operating points and the cross-validation harness.

Operating points come from the closed-form maximisers of
:func:`coherence_extrema`; no numerical search is involved.

This module only orchestrates: each phase and its overflow check, the
spectral synthesis and the l1 sum belong to the routes it calls.

Everything here is deterministic: the same inputs (including the seed of
:func:`cross_validate`) reproduce bit-identical series, grids and
reports. Per-cell evaluations are pure functions, so execution order is
irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coherence import closed_form_coherence, coherence_extrema, l1_coherence, off_diagonal_l1
from .evolution import (
    BellLabel,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
    spectral_rows,
)
from .linalg import hermitian_eigensystem
from .model import (
    CircuitParams,
    InputError,
    build_hamiltonian_tensor,
    check_phase,
    scaled_energies,
)

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

# The most float64 elements numpy can size; beyond it numpy raises a
# ValueError ("array is too big") instead of a MemoryError.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _check_span(start: float, end: float, steps: int, what: str) -> None:
    """Raise InputError unless ``steps`` points on [start, end] make a usable axis.

    A finite span (which keeps linspace finite), end above start, and 2 to
    ``_MAX_FLOATS`` steps. ``what`` names the axis in the message.
    """
    span = f"[{start!r}, {end!r}]"
    if not math.isfinite(end - start):
        raise InputError(f"{what} needs a finite span, got {span}")
    if not end > start:
        raise InputError(f"{what} needs its end above its start, got {span}")
    if steps < 2:
        raise InputError(f"{what} needs at least 2 steps, got {steps!r}")
    if steps > _MAX_FLOATS:
        raise InputError(f"{what} of {steps!r} steps is too large to allocate")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform, endpoint-inclusive time grid."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        _check_span(float(self.t_start), float(self.t_end), self.steps, "a time grid")

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
    eigendecomposition of the Hamiltonian (:func:`spectral_rows`), and
    sums |psi_i psi_j*| over i != j (:func:`off_diagonal_l1`). It is
    computed in blocks of ``_BLOCK_ROWS`` rows, so beyond the returned
    columns memory stays O(block); no N x 4 x 4 propagator or density
    stack is formed. Raises ``ValueError`` naming the first time at which
    either column is not finite; each route rejects a phase that would
    overflow before it is computed.
    """
    times = grid.times()
    eig = hermitian_eigensystem(build_hamiltonian_tensor(params))
    closed = np.asarray(closed_form_coherence(label, params, times), dtype=float)
    coeffs = eig.eigenvectors.T @ bell_state(label).amplitudes
    numeric = np.empty_like(times)
    for lo in range(0, len(times), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        psi = spectral_rows(eig, params, times[block], coeffs)
        numeric[block] = off_diagonal_l1(psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :])

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
    lo, hi, steps = float(value_range[0]), float(value_range[1]), value_range[2]
    _check_span(lo, hi, steps, "a parameter range")
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
    at an edge. These candidates are compared directly; the earliest
    within 1e-12 of the best value wins.

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

    def value(t: float) -> float:
        return closed_form_coherence(label, params, t)

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
        return OperatingPoint(t=lo, coherence=value(lo), mechanism=mechanism)

    # A window edge whose phase overflows would overflow the copy index
    # below; reject it as the closed form would.
    check_phase(params, np.array([lo, hi]), scaled_energies(params)[0])
    ext = coherence_extrema(label, params)
    period = ext.period
    candidates = [lo, hi]
    # Each period holds maxima at t_max and period - t_max (they coincide
    # when the boundary-regime maximum sits at half a period). Later copies
    # repeat the same value and the earliest time wins ties, so one copy
    # per offset is enough. Where the period overflows to inf, a finite
    # offset is the only copy.
    for offset in (ext.t_of_first_max, period - ext.t_of_first_max):
        point = offset
        if math.isfinite(period):
            k = math.ceil((lo - offset) / period)
            if offset + k * period < lo:  # rounding in the ceil above
                k += 1
            point = offset + k * period
        if lo <= point <= hi:
            candidates.append(point)

    # Equal-value maxima recur every period; prefer the earliest time among
    # candidates within float noise of the best.
    scored = [(value(c), c) for c in candidates]
    top = max(v for v, _ in scored)
    best, coherence = min((c, v) for v, c in scored if v >= top - 1e-12)
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

    The report passes iff every recorded maximum is at most ``THRESHOLD``.
    """
    if draws < 1:
        raise InputError(f"cross-validation needs at least 1 draw, got {draws!r}")
    if seed < 0:
        raise InputError(f"cross-validation needs a non-negative seed, got {seed!r}")
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

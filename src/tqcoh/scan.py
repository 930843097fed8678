"""Parameter sweeps, operating points and the cross-validation harness.

Operating points come from the closed-form maximisers of
:func:`coherence_extrema`; no numerical search is involved.

Everything here is deterministic: the same inputs (including the seed of
:func:`cross_validate`) reproduce bit-identical series, grids and
reports. Per-cell evaluations are pure functions, so execution order is
irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import closed_form_coherence, coherence_extrema, l1_coherence
from .evolution import (
    BellLabel,
    _spectral_matrix,
    analytic_propagator,
    bell_state,
    closed_form_density,
    density_matrix,
    evolve,
    numeric_propagator,
)
from .linalg import hermitian_eigensystem
from .model import CircuitParams, build_hamiltonian_tensor

__all__ = [
    "CheckResult",
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform, endpoint-inclusive time grid."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.steps < 2:
            raise ValueError("a time grid needs at least 2 steps")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


@dataclass(frozen=True)
class CoherenceSeries:
    """Closed-form and pipeline coherence sampled on a time grid."""

    label: BellLabel
    params: CircuitParams
    times: np.ndarray
    closed_form: np.ndarray
    numeric: np.ndarray
    max_abs_gap: float


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
        if self.values.min() < 0.0 or self.values.max() > 3.0 + 1e-9:
            raise ValueError("coherence values escaped [0, 3]")


@dataclass(frozen=True)
class OperatingPoint:
    """A (parameters, time) point selected for its coherence behaviour."""

    params: CircuitParams
    t: float
    coherence: float
    objective: str
    mechanism: str | None = None


def time_series(
    label: BellLabel, params: CircuitParams, grid: TimeGrid
) -> CoherenceSeries:
    """Sample C(t) along a grid, via both available routes.

    The ``closed_form`` column evaluates the analytic expression; the
    ``numeric`` column runs the full pipeline (spectral propagator ->
    evolved state -> density matrix -> off-diagonal sum) from one
    eigendecomposition of the Hamiltonian.
    """
    times = grid.times()
    closed = np.asarray(closed_form_coherence(label, params, times), dtype=float)

    eig = hermitian_eigensystem(build_hamiltonian_tensor(params).matrix)
    u = _spectral_matrix(eig, params.hbar, times)
    psi = u @ bell_state(label).amplitudes
    rho_abs = np.abs(psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :])
    rho_abs[:, np.arange(4), np.arange(4)] = 0.0
    numeric = rho_abs.sum(axis=(1, 2))

    gap = float(np.max(np.abs(closed - numeric)))
    return CoherenceSeries(
        label=label,
        params=params,
        times=times,
        closed_form=closed,
        numeric=numeric,
        max_abs_gap=gap,
    )


def grid_scan(
    label: BellLabel,
    fixed: CircuitParams,
    vary: str,
    value_range: tuple[float, float, int],
    grid: TimeGrid,
) -> ScanGrid:
    """Closed-form coherence over a (parameter, time) grid.

    ``vary`` is "e_j" or "e_m"; the corresponding field of ``fixed`` is
    replaced by each of ``steps`` uniform values in [lo, hi].
    """
    if vary not in ("e_j", "e_m"):
        raise ValueError(f"cannot vary {vary!r}; pick 'e_j' or 'e_m'")
    lo, hi, steps = value_range
    if not hi > lo:
        raise ValueError("degenerate parameter range: hi must exceed lo")
    if steps < 2:
        raise ValueError("a parameter range needs at least 2 steps")

    axis1 = np.linspace(lo, hi, steps)
    axis2 = grid.times()
    values = np.empty((steps, grid.steps))
    for i, value in enumerate(axis1):
        if vary == "e_j":
            p = CircuitParams(e_j=value, e_m=fixed.e_m, hbar=fixed.hbar)
        else:
            p = CircuitParams(e_j=fixed.e_j, e_m=value, hbar=fixed.hbar)
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("time window must be finite")
    if not hi > lo:
        raise ValueError("empty time window")
    if objective not in ("maximize", "stabilize"):
        raise ValueError(f"unknown objective {objective!r}")

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
        return OperatingPoint(
            params=params,
            t=lo,
            coherence=value(lo),
            objective=objective,
            mechanism=mechanism,
        )

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
    best_value = max(value(c) for c in candidates)
    best = min(c for c in candidates if value(c) >= best_value - 1e-12)
    return OperatingPoint(
        params=params,
        t=best,
        coherence=value(best),
        objective=objective,
    )


@dataclass(frozen=True)
class CheckResult:
    """Worst observed deviation for one cross-validation check."""

    name: str
    max_deviation: float
    worst_draw: int
    worst_params: CircuitParams
    worst_time: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_deviation": self.max_deviation,
            "worst_draw": self.worst_draw,
            "worst_params": {
                "e_j": self.worst_params.e_j,
                "e_m": self.worst_params.e_m,
                "hbar": self.worst_params.hbar,
            },
            "worst_time": self.worst_time,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a seeded closed-form vs numeric validation sweep."""

    draws: int
    seed: int
    threshold: float
    checks: tuple[CheckResult, ...]
    passed: bool
    worst_check: str

    def as_dict(self) -> dict:
        return {
            "draws": self.draws,
            "seed": self.seed,
            "threshold": self.threshold,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "worst_check": self.worst_check,
        }


def _draw_parameters(rng: np.random.Generator) -> tuple[CircuitParams, float]:
    """One validation draw: e_j, e_m ~ U(-5, 5), hbar in {0.5, 1, 2}, t ~ U(0, 50).

    The draw order is part of the report contract; do not reorder.
    """
    e_j = rng.uniform(-5.0, 5.0)
    e_m = rng.uniform(-5.0, 5.0)
    hbar = float(rng.choice([0.5, 1.0, 2.0]))
    t = rng.uniform(0.0, 50.0)
    return CircuitParams(e_j=e_j, e_m=e_m, hbar=hbar), t


def cross_validate(draws: int, seed: int, threshold: float = 1e-9) -> ValidationReport:
    """Batch-validate the closed forms against the spectral pipeline.

    For ``draws`` seeded random parameter/time points (PCG64 generator,
    draw order documented in :func:`_draw_parameters`) this compares

    * "propagator": closed-form U(t) vs spectral synthesis, per entry;
    * "density": closed-form rho(t) vs propagate-then-outer-product via
      the spectral propagator, per entry, all four Bell labels;
    * "coherence": closed-form C(t) vs the off-diagonal sum of the
      propagated density matrix;
    * "unitarity": max |U+U - I| over both propagator routes.

    The report passes iff every recorded maximum is at most ``threshold``.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    names = ("propagator", "density", "coherence", "unitarity")
    max_dev = dict.fromkeys(names, 0.0)
    worst: dict[str, tuple[int, CircuitParams, float]] = {}

    identity = np.eye(4)
    for index in range(draws):
        params, t = _draw_parameters(rng)
        u_closed = analytic_propagator(params, t)
        u_spectral = numeric_propagator(params, t)

        devs = {
            "propagator": float(np.max(np.abs(u_closed.matrix - u_spectral.matrix))),
            "unitarity": max(
                float(np.max(np.abs(u.matrix.conj().T @ u.matrix - identity)))
                for u in (u_closed, u_spectral)
            ),
            "density": 0.0,
            "coherence": 0.0,
        }
        for label in BellLabel:
            rho_closed = closed_form_density(label, params, t)
            rho_piped = density_matrix(evolve(bell_state(label), u_spectral))
            devs["density"] = max(
                devs["density"],
                float(np.max(np.abs(rho_closed.matrix - rho_piped.matrix))),
            )
            devs["coherence"] = max(
                devs["coherence"],
                abs(
                    closed_form_coherence(label, params, t) - l1_coherence(rho_piped)
                ),
            )
        for name in names:
            if devs[name] >= max_dev[name]:
                max_dev[name] = devs[name]
                worst[name] = (index, params, t)

    checks = tuple(
        CheckResult(
            name=name,
            max_deviation=max_dev[name],
            worst_draw=worst[name][0],
            worst_params=worst[name][1],
            worst_time=worst[name][2],
        )
        for name in names
    )
    passed = all(c.max_deviation <= threshold for c in checks)
    worst_check = max(checks, key=lambda c: c.max_deviation).name
    return ValidationReport(
        draws=draws,
        seed=seed,
        threshold=threshold,
        checks=checks,
        passed=passed,
        worst_check=worst_check,
    )

"""An arbitrary-precision oracle: a third route that shares no code with the library.

The Hamiltonian is written from the paper's entries, diagonalised in
mpmath, and U(t) = V exp(-i Lambda t / hbar) V+ is formed from that
decomposition; rho(t) and C(t) follow for each Bell state. Every
library route must then be near the truth, not just near the other
route: within ``scan.THRESHOLD`` and within K B0, the rounding-error
scale B0 = eps (1 + ||H|| t / hbar + t root). K is 8 on the validated
box, and per route on the reduced family that stands for every input.
"""

import math

import mpmath
import numpy as np
import pytest

from tqcoh.coherence import closed_form_coherence, coherence_extrema
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    closed_form_density,
    numeric_propagator,
)
from tqcoh.model import CircuitParams, scaled_energies
from tqcoh.scan import THRESHOLD, TimeGrid, _draw_parameters, find_operating_point, time_series

DRAWS = 100
REDUCED_DRAWS = 120
EPS = np.finfo(float).eps
# Each route's K on the reduced family: the worst of 3000 seeded draws in
# units of B0 (0.49, 11.5, 0.49, 0.95 and 11.2 in this order), with headroom.
_REDUCED_K = {
    "analytic_propagator": 1.0,
    "numeric_propagator": 16.0,
    "closed_form_density": 1.0,
    "closed_form_coherence": 2.0,
    "time_series": 16.0,
}

# The Bell states as sign vectors; each state is the vector over sqrt(2).
_SIGNS = {
    BellLabel.PHI_PLUS: (1, 0, 0, 1),
    BellLabel.PSI_PLUS: (0, 1, 1, 0),
    BellLabel.PHI_MINUS: (1, 0, 0, -1),
    BellLabel.PSI_MINUS: (0, 1, -1, 0),
}
# Basis pairs joined by one qubit's tunnelling, in {|00>, |01>, |10>, |11>}.
_TUNNELLING = ((0, 1), (0, 2), (1, 3), (2, 3))


def norm_h(params: CircuitParams) -> float:
    """||H|| <= |hbar^2 e_m / 4| + |hbar e_j|, the scale of its rounding error."""
    return abs(0.25 * params.hbar**2 * params.e_m) + abs(params.hbar * params.e_j)


def rounding_scale(params: CircuitParams, t: float) -> float:
    """B0 = eps (1 + ||H|| t / hbar + t root), the rounding-error scale at t."""
    return EPS * (1.0 + norm_h(params) * t / params.hbar + t * scaled_energies(params)[0])


def oracle(params: CircuitParams, times):
    """{t: (U, {label: (rho, C)})} for each t, as complex128 and float, from one eigh.

    The working precision is 30 digits plus the digits of ||H|| t / hbar at the latest t.
    """
    phase = norm_h(params) * max(times) / params.hbar
    with mpmath.workdps(30 + len(f"{phase:.0f}")):
        e_j, e_m, hbar = (mpmath.mpf(v) for v in (params.e_j, params.e_m, params.hbar))
        coupling = hbar**2 * e_m / 4
        h = mpmath.diag([coupling, -coupling, -coupling, coupling])
        for i, j in _TUNNELLING:
            h[i, j] = h[j, i] = -hbar * e_j / 2
        values, vectors = mpmath.eigh(h)
        out = {}
        for t in times:
            phases = mpmath.diag([mpmath.expj(-lam * t / hbar) for lam in values])
            u = vectors * phases * vectors.H
            states = {}
            for label, signs in _SIGNS.items():
                psi = u * mpmath.matrix(signs) / mpmath.sqrt(2)
                rho = psi * psi.H
                c = sum(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j)
                states[label] = (np.array(rho.tolist(), dtype=complex), float(c))
            out[t] = np.array(u.tolist(), dtype=complex), states
        return out


def maximum(route: str, label: BellLabel, params: CircuitParams, t: float):
    """(time, C) of the library's maximum of C for a label, over one period or over [0, t]."""
    if route == "coherence_extrema":
        ext = coherence_extrema(label, params)
        return ext.t_of_first_max, ext.max_value
    point = find_operating_point(label, params, (0.0, t), "maximize")
    return point.t, point.coherence


_MAXIMUM_ROUTES = ("coherence_extrema", "find_operating_point")
_OSCILLATING = (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS)


@pytest.fixture(scope="module")
def draws():
    """(params, t, truth) of the first 100 ``verify --seed 42`` draws.

    ``truth`` is the oracle at t and at each maximum's time of the
    oscillating labels.
    """
    rng = np.random.default_rng(42)
    out = []
    for _ in range(DRAWS):
        params, t = _draw_parameters(rng)
        times = {t} | {
            maximum(route, label, params, t)[0]
            for route in _MAXIMUM_ROUTES
            for label in _OSCILLATING
        }
        out.append((params, t, oracle(params, sorted(times))))
    return out


def route_errors(route: str, params: CircuitParams, t: float, u, states):
    """The route's largest entry error against the oracle, per Bell label where it has one."""
    if route == "analytic_propagator":
        return [np.abs(analytic_propagator(params, t).matrix - u).max()]
    if route == "numeric_propagator":
        return [np.abs(numeric_propagator(params, t).matrix - u).max()]
    if route == "closed_form_density":
        return [
            np.abs(closed_form_density(label, params, t).matrix - rho).max()
            for label, (rho, _) in states.items()
        ]
    if route == "closed_form_coherence":
        return [
            abs(closed_form_coherence(label, params, t) - c) for label, (_, c) in states.items()
        ]
    # The c_numeric column of a series whose last time is exactly t.
    return [
        abs(time_series(label, params, TimeGrid(0.0, t, 2)).numeric[-1] - c)
        for label, (_, c) in states.items()
    ]


@pytest.mark.parametrize(
    "route",
    [
        "analytic_propagator",
        "numeric_propagator",
        "closed_form_density",
        "closed_form_coherence",
        "time_series",
    ],
)
def test_each_route_is_within_its_rounding_bound_of_the_oracle(route, draws):
    for params, t, truth in draws:
        error = float(max(route_errors(route, params, t, *truth[t])))
        assert error <= THRESHOLD, (params, t, error)
        assert error <= 8.0 * rounding_scale(params, t), (params, t, error)


@pytest.mark.parametrize("route", _MAXIMUM_ROUTES)
def test_each_maximum_is_within_its_rounding_bound_of_the_oracle(route, draws):
    # The value the library reports for its maximum, against the oracle's C at its time.
    for params, t, truth in draws:
        for label in _OSCILLATING:
            at, value = maximum(route, label, params, t)
            error = abs(value - truth[at][1][label][1])
            assert error <= THRESHOLD, (label, params, at, error)
            assert error <= 8.0 * rounding_scale(params, at), (label, params, at, error)


def reduced_draw(rng: np.random.Generator) -> tuple[CircuitParams, float]:
    """One (params, t) of the reduced family, which stands for every finite input.

    The power-of-two map of ``test_scaling.py`` takes any input to hbar and
    root in [1, 2) with bit-identical outputs. What is left is the angle
    atan2(hbar e_m, 4 e_j), with the signs, and the phase t root, drawn
    log-uniform on [1e-2, 1e6].
    """
    angle = rng.uniform(-math.pi, math.pi)
    hbar, root = rng.uniform(1.0, 2.0, 2)
    t = 10.0 ** rng.uniform(-2.0, 6.0) / root
    return CircuitParams(0.25 * root * math.cos(angle), root * math.sin(angle) / hbar, hbar), t


@pytest.fixture(scope="module")
def reduced_draws():
    """(params, t, truth at t) of ``REDUCED_DRAWS`` seeded reduced-family draws."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(REDUCED_DRAWS):
        params, t = reduced_draw(rng)
        out.append((params, t, oracle(params, [t])[t]))
    return out


@pytest.mark.parametrize("route", list(_REDUCED_K))
def test_each_route_is_within_its_k_on_the_reduced_family(route, reduced_draws):
    for params, t, truth in reduced_draws:
        error = float(max(route_errors(route, params, t, *truth)))
        assert error <= THRESHOLD, (params, t, error)
        assert error <= _REDUCED_K[route] * rounding_scale(params, t), (params, t, error)

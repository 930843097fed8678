"""An arbitrary-precision oracle: a third route that shares no code with the library.

The Hamiltonian is written from the paper's entries, diagonalised in
mpmath, and U(t) = V exp(-i Lambda t / hbar) V+ is formed from that
decomposition; rho(t) and C(t) follow for each Bell state. Every
library route must then be near the truth, not just near the other
route: within ``scan.THRESHOLD`` and within 8 B0, the rounding-error
scale B0 = eps (1 + ||H|| t / hbar + t root).
"""

import mpmath
import numpy as np
import pytest

from tqcoh.coherence import closed_form_coherence
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    closed_form_density,
    numeric_propagator,
)
from tqcoh.model import CircuitParams, scaled_energies
from tqcoh.scan import THRESHOLD, TimeGrid, _draw_parameters, time_series

DRAWS = 100
EPS = np.finfo(float).eps

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


def oracle(params: CircuitParams, t: float):
    """(U, {label: (rho, C)}) at t as complex128 and float.

    The working precision is 30 digits plus the digits of ||H|| t / hbar.
    """
    phase = norm_h(params) * t / params.hbar
    with mpmath.workdps(30 + len(f"{phase:.0f}")):
        e_j, e_m, hbar = (mpmath.mpf(v) for v in (params.e_j, params.e_m, params.hbar))
        coupling = hbar**2 * e_m / 4
        h = mpmath.diag([coupling, -coupling, -coupling, coupling])
        for i, j in _TUNNELLING:
            h[i, j] = h[j, i] = -hbar * e_j / 2
        values, vectors = mpmath.eigh(h)
        phases = mpmath.diag([mpmath.expj(-lam * t / hbar) for lam in values])
        u = vectors * phases * vectors.H
        states = {}
        for label, signs in _SIGNS.items():
            psi = u * mpmath.matrix(signs) / mpmath.sqrt(2)
            rho = psi * psi.H
            c = sum(abs(rho[i, j]) for i in range(4) for j in range(4) if i != j)
            states[label] = (np.array(rho.tolist(), dtype=complex), float(c))
        return np.array(u.tolist(), dtype=complex), states


@pytest.fixture(scope="module")
def draws():
    """(params, t, B0, U, states) of the first 100 ``verify --seed 42`` draws."""
    rng = np.random.default_rng(42)
    out = []
    for _ in range(DRAWS):
        params, t = _draw_parameters(rng)
        b0 = EPS * (1.0 + norm_h(params) * t / params.hbar + t * scaled_energies(params)[0])
        out.append((params, t, b0, *oracle(params, t)))
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
    for params, t, b0, u, states in draws:
        error = float(max(route_errors(route, params, t, u, states)))
        assert error <= THRESHOLD, (params, t, error)
        assert error <= 8.0 * b0, (params, t, error / b0)

"""An arbitrary-precision oracle: a third route that shares no code with the library.

The Hamiltonian is written from the paper's entries, diagonalised in
mpmath, and U(t) = V exp(-i Lambda t / hbar) V+ is formed from that
decomposition; rho(t) and C(t) follow for each Bell state. Every
library route must then be near the truth, not just near the other
route: within ``scan.THRESHOLD`` and within K B0, the rounding-error
scale B0 = eps (1 + ||H|| t / hbar + t root). K is 8 on the first 100
``verify --seed 42`` draws, and set per route on the reduced family that
stands for every input. 8 does not hold on the whole validated box: a
single ``series`` row of a stationary state can reach 16.9 B0 there, so
each such row is held to 24 B0.
"""

import math

import mpmath
import numpy as np
import pytest

from conftest import SPECTRUM_K, spectrum_deviation
from tqcoh.coherence import closed_form_coherence, coherence_extrema
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    closed_form_density,
    numeric_propagator,
)
from tqcoh.linalg import hermitian_eigensystem
from tqcoh.model import CircuitParams, InputError, build_hamiltonian_tensor, scaled_energies
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
# The same for the maxima: the worst of 9000 seeded draws was 0.99 B0
# (find_operating_point; 0.43 B0 for coherence_extrema).
_REDUCED_MAXIMUM_K = 2.0
# Every row of a stationary state's series: the worst rows of two sweeps of
# 1000 and 2000 benchmark-like 30,000-row series were 16.9 and 16.1 B0.
_SERIES_ROW_K = 24.0

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
    """||H|| <= |hbar^2 e_m / 4| + |hbar e_j|, the scale of its rounding error.

    Formed as H's entries are, so it overflows only where ||H|| does.
    """
    return abs(0.25 * params.hbar * (params.hbar * params.e_m)) + abs(params.hbar * params.e_j)


def rounding_scale(params: CircuitParams, t: float) -> float:
    """B0 = eps (1 + ||H|| t / hbar + t root), the rounding-error scale at t."""
    return EPS * (1.0 + norm_h(params) / params.hbar * t + t * scaled_energies(params)[0])


def oracle(params: CircuitParams, times):
    """{t: (U, {label: (rho, C)})} for each t, as complex128 and float, from one eigh.

    The working precision is 30 digits plus the digits of ||H|| t / hbar at the latest t.
    """
    phase = norm_h(params) / params.hbar * max(times)
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


def windows(t: float):
    """The windows of :func:`find_operating_point`: from 0, from before 0 and from mid-way."""
    return (0.0, t), (-t / 3, t), (t / 2, t)


def maxima(route: str, label: BellLabel, params: CircuitParams, t: float):
    """(time, C) of the library's maxima of C for a label: over one period, or per window."""
    if route == "coherence_extrema":
        ext = coherence_extrema(label, params)
        return [(ext.t_of_first_max, ext.max_value)]
    points = [find_operating_point(label, params, w, "maximize") for w in windows(t)]
    return [(point.t, point.coherence) for point in points]


_MAXIMUM_ROUTES = ("coherence_extrema", "find_operating_point")
_OSCILLATING = (BellLabel.PHI_PLUS, BellLabel.PSI_PLUS)


def with_truth(params: CircuitParams, t: float):
    """(params, t, truth): the oracle at t and at each maximum's time of the oscillating labels."""
    times = {t} | {
        at
        for route in _MAXIMUM_ROUTES
        for label in _OSCILLATING
        for at, _ in maxima(route, label, params, t)
    }
    return params, t, oracle(params, sorted(times))


@pytest.fixture(scope="module")
def draws():
    """:func:`with_truth` of the first 100 ``verify --seed 42`` draws."""
    rng = np.random.default_rng(42)
    return [with_truth(*_draw_parameters(rng)) for _ in range(DRAWS)]


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
def test_each_maximum_is_within_its_rounding_bound_of_the_oracle(route, draws, reduced_draws):
    # The value the library reports for its maximum, against the oracle's C at its time.
    for family, k in ((draws, 8.0), (reduced_draws, _REDUCED_MAXIMUM_K)):
        for params, t, truth in family:
            for label in _OSCILLATING:
                for at, value in maxima(route, label, params, t):
                    error = abs(value - truth[at][1][label][1])
                    assert error <= THRESHOLD, (label, params, at, error)
                    assert error <= k * rounding_scale(params, abs(at)), (label, params, at, error)


def test_each_operating_point_lies_in_its_window(draws, reduced_draws):
    # A window that holds a whole period holds a copy of the peak too.
    for params, t, _ in draws + reduced_draws:
        for label in _OSCILLATING:
            peak = coherence_extrema(label, params)
            points = maxima("find_operating_point", label, params, t)
            for (lo, hi), (at, value) in zip(windows(t), points):
                assert lo <= at <= hi, (label, params, lo, hi, at)
                if hi - lo >= peak.period:
                    assert abs(value - peak.max_value) <= THRESHOLD, (label, params, lo, hi, value)


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
    """:func:`with_truth` of ``REDUCED_DRAWS`` seeded reduced-family draws."""
    rng = np.random.default_rng(0)
    return [with_truth(*reduced_draw(rng)) for _ in range(REDUCED_DRAWS)]


@pytest.mark.parametrize("route", list(_REDUCED_K))
def test_each_route_is_within_its_k_on_the_reduced_family(route, reduced_draws):
    for params, t, truth in reduced_draws:
        error = float(max(route_errors(route, params, t, *truth[t])))
        assert error <= THRESHOLD, (params, t, error)
        assert error <= _REDUCED_K[route] * rounding_scale(params, t), (params, t, error)


# log2 of the ends of [1e-310, 1e-300], and of the largest double.
_TINY = (math.log2(1e-310), math.log2(1e-300))
_LOG2_MAX = math.log2(np.finfo(float).max)
_MAPPED_DRAWS = 30


def mapped_draw(rng: np.random.Generator, kind: str) -> tuple[tuple[float, ...], float]:
    """A reduced draw through the power-of-two map, onto one edge of the float range.

    (e_j, e_m, hbar, t) -> (k e_j, k h e_m, hbar / h, t / k) keeps t root, so
    it stays in [1e-2, 1e6]. ``kind`` names what the map puts at the edge:
    "e_j" or "hbar e_m" in [1e-310, 1e-300] by k alone (h = 1, so hbar stays
    in [1, 2)), and only as low as a finite t / k allows; "e_m" there by a
    huge hbar; "||H||" within 2^8 of overflow. Returns (e_j, e_m, hbar), t.
    A large h with the first two kinds also pushes H's entries out of the
    normal range; :func:`test_the_spectral_route_is_within_its_k_where_h_underflows`
    shows that miss.
    """
    params, t = reduced_draw(rng)
    e_j, e_m, hbar = params.e_j, params.e_m, params.hbar
    if kind == "||H||":
        target = rng.uniform(_LOG2_MAX - 8.0, _LOG2_MAX - 1.0)
        s = math.ceil(target - math.log2(norm_h(params)))
        a = int(rng.integers(16, s + 1))
        k, h = 2.0**a, 2.0 ** (a - s)
    elif kind == "e_m":
        a = int(rng.integers(-60, math.floor(1020 + _TINY[0] - math.log2(hbar * abs(e_m)))))
        target = rng.uniform(_TINY[0], _TINY[1] - 1.0)
        k, h = 2.0**a, 2.0 ** math.ceil(target - math.log2(abs(e_m)) - a)
    else:
        x = abs(e_j if kind == "e_j" else hbar * e_m)
        lowest = max(_TINY[0], math.log2(x) + math.log2(t) - 1022.0)
        target = rng.uniform(lowest, _TINY[1] - 1.0)
        k, h = 2.0 ** math.ceil(target - math.log2(x)), 1.0
    return (k * e_j, k * h * e_m, hbar / h), float(t) / k


_EDGE = {
    "e_j": lambda p: abs(p.e_j),
    "e_m": lambda p: abs(p.e_m),
    "hbar e_m": lambda p: abs(p.hbar * p.e_m),
}


@pytest.mark.parametrize("kind", ["e_j", "e_m", "hbar e_m", "||H||"])
def test_each_route_is_within_its_k_where_a_mapped_value_leaves_the_normal_range(kind):
    # The draws the power-of-two map cannot carry bit for bit: each route
    # still meets its reduced-family K, or the input is rejected as documented.
    rng = np.random.default_rng(1)
    accepted = 0
    for _ in range(_MAPPED_DRAWS):
        values, t = mapped_draw(rng, kind)
        try:
            params = CircuitParams(*values)
        except InputError as error:
            assert kind == "||H||" and "overflows" in str(error), (values, error)
            continue
        accepted += 1
        if kind in _EDGE:
            assert 1e-310 <= _EDGE[kind](params) < 1e-300, (values, t)
        else:
            assert 2.0 ** (_LOG2_MAX - 8.0) <= norm_h(params), (values, t)
        truth = oracle(params, [t])
        rate = np.abs(hermitian_eigensystem(build_hamiltonian_tensor(params)).eigenvalues).max()
        for route, k in _REDUCED_K.items():
            if route in ("numeric_propagator", "time_series") and math.isinf(t * float(rate)):
                # ROADMAP item 1: the spectral phase is formed as (t lambda) / hbar.
                with pytest.raises(ValueError, match="is not finite"):
                    route_errors(route, params, t, *truth[t])
                continue
            error = float(max(route_errors(route, params, t, *truth[t])))
            assert error <= THRESHOLD, (route, values, t, error)
            assert error <= k * rounding_scale(params, t), (route, values, t, error)
    assert accepted >= _MAPPED_DRAWS // 2


@pytest.mark.xfail(strict=True, reason="H's entries underflow: ROADMAP item 11")
def test_the_spectral_route_is_within_its_k_where_h_underflows():
    # h = 2^58 maps a reduced draw to hbar = 5.7e-18 with e_j in [1e-310, 1e-300]:
    # hbar e_j / 2 and hbar^2 e_m / 4 underflow to 0 and 5e-324, so the
    # eigensolve sees no tunnelling, while t root = 12.9 (C off by 0.14).
    params = CircuitParams(2.3684834561006985e-307, 3.859315599739915e-289, 5.726180905370943e-18)
    t = 5.3747667642184385e306
    truth = oracle(params, [t])
    error = float(max(route_errors("numeric_propagator", params, t, *truth[t])))
    assert error <= _REDUCED_K["numeric_propagator"] * rounding_scale(params, t), error


def test_the_jacobi_spectrum_is_within_its_bound(draws, reduced_draws):
    # The eigenvalues against the exact spectrum {+-hbar root / 4, +-hbar^2 e_m / 4}.
    for params, _, _ in draws + reduced_draws:
        values = hermitian_eigensystem(build_hamiltonian_tensor(params)).eigenvalues
        assert spectrum_deviation(values, params) <= SPECTRUM_K, params


def test_every_row_of_a_stationary_series_is_within_its_rounding_bound():
    # The closed form of |phi-> and |psi-> is exactly 1, so each row's gap is
    # the error of c_numeric alone. The draws are those of a benchmark series.
    rng = np.random.default_rng(3)
    for _ in range(12):
        params = CircuitParams(*rng.uniform(-5.0, 5.0, 2), (0.5, 1.0, 2.0)[rng.integers(3)])
        grid = TimeGrid(0.0, rng.uniform(1.0, 50.0), 30_000)
        for label in (BellLabel.PHI_MINUS, BellLabel.PSI_MINUS):
            series = time_series(label, params, grid)
            assert (series.closed_form == 1.0).all()
            k = series.gap / rounding_scale(params, series.times)
            worst = int(np.argmax(k))
            assert k[worst] <= _SERIES_ROW_K, (label, params, series.times[worst], k[worst])


def test_c_numeric_is_right_at_a_minimum_of_c():
    # C has a minimum at t = pi / 2 here, where the closed form loses digits;
    # the spectral column must not.
    params = CircuitParams(1.0, 0.0, 1.0)
    grid = TimeGrid(math.pi / 2, math.pi / 2 + 10e-9, 11)
    truth = oracle(params, list(grid.times()))
    for label in _OSCILLATING:
        series = time_series(label, params, grid)
        for t, c in zip(series.times, series.numeric):
            error = abs(c - truth[t][1][label][1])
            assert error <= 8.0 * rounding_scale(params, t), (label, t, error)

"""Scale invariance: a power-of-two map of the parameters leaves every output bit-identical.

For powers of two k and h, (e_j, e_m, hbar, t) -> (k e_j, k h e_m, hbar / h, t / k)
multiplies H by k / h and root by k, and leaves every ratio and every phase
(t root, t lambda / hbar) as it was. Scaling by a power of two is exact while
the values stay normal, so the routes must give the same floats, not merely
close ones. A step that breaks this, such as an absolute tolerance or a
rotation that does not commute with the scaling, fails here.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tqcoh.coherence import closed_form_coherence, coherence_extrema
from tqcoh.evolution import (
    BellLabel,
    analytic_propagator,
    closed_form_density,
    numeric_propagator,
)
from tqcoh.linalg import hermitian_eigensystem
from tqcoh.model import CircuitParams, build_hamiltonian_tensor
from tqcoh.scan import TimeGrid, find_operating_point, time_series


def _scalable(low: float, high: float) -> st.SearchStrategy[float]:
    """0, or a magnitude in [low, high] of either sign.

    The floor keeps every value, and every product the routes form, normal
    under the largest scalings drawn below.
    """
    magnitude = st.floats(min_value=low, max_value=high)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))


def _power_of_two(bound: int) -> st.SearchStrategy[float]:
    return st.integers(-bound, bound).map(lambda e: math.ldexp(1.0, e))


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    e_j=_scalable(1e-3, 5.0),
    e_m=_scalable(1e-3, 5.0),
    hbar=st.floats(min_value=0.5, max_value=4.0, exclude_max=True),
    t=_scalable(1e-3, 50.0).map(abs),
    window=st.tuples(_scalable(1e-3, 50.0), _scalable(1e-3, 50.0)).map(sorted),
    steps=st.integers(2, 40),
    label=st.sampled_from(BellLabel),
    objective=st.sampled_from(("maximize", "stabilize")),
    k=_power_of_two(200),
    h=_power_of_two(60),
)
@settings(max_examples=200, deadline=None)
def test_power_of_two_scaling_leaves_every_output_bit_identical(
    e_j, e_m, hbar, t, window, steps, label, objective, k, h
):
    base = CircuitParams(e_j=e_j, e_m=e_m, hbar=hbar)
    mapped = CircuitParams(e_j=k * e_j, e_m=k * h * e_m, hbar=hbar / h)
    t_mapped = t / k

    for route in (analytic_propagator, numeric_propagator):
        assert _same(route(base, t).matrix, route(mapped, t_mapped).matrix)
    assert _same(
        closed_form_density(label, base, t).matrix,
        closed_form_density(label, mapped, t_mapped).matrix,
    )
    assert _same(
        closed_form_coherence(label, base, t), closed_form_coherence(label, mapped, t_mapped)
    )

    t_max = max(t, 1.0)
    ours = time_series(label, base, TimeGrid(0.0, t_max, steps))
    theirs = time_series(label, mapped, TimeGrid(0.0, t_max / k, steps))
    assert _same(ours.times / k, theirs.times)
    for column in ("closed_form", "numeric", "gap"):
        assert _same(getattr(ours, column), getattr(theirs, column))

    eig = hermitian_eigensystem(build_hamiltonian_tensor(base))
    eig_mapped = hermitian_eigensystem(build_hamiltonian_tensor(mapped))
    assert _same(eig.eigenvectors, eig_mapped.eigenvectors)
    assert _same(eig.eigenvalues * (k / h), eig_mapped.eigenvalues)

    ext = coherence_extrema(label, base)
    ext_mapped = coherence_extrema(label, mapped)
    assert ext_mapped.max_value == ext.max_value and ext_mapped.min_value == ext.min_value
    for name in ("t_of_first_max", "t_of_first_min", "period"):
        assert getattr(ext, name) / k == getattr(ext_mapped, name)

    lo, hi = window
    if hi > lo:
        point = find_operating_point(label, base, (lo, hi), objective)
        point_mapped = find_operating_point(label, mapped, (lo / k, hi / k), objective)
        assert point.t / k == point_mapped.t
        assert point.coherence == point_mapped.coherence
        assert point.mechanism == point_mapped.mechanism

import math

import numpy as np
from hypothesis import strategies as st

from tqcoh.model import CircuitParams

# Canonical operating point used throughout the docs and figures.
CANONICAL_PARAMS = CircuitParams(e_j=0.5, e_m=1.5, hbar=1.0)


def circuit_params() -> st.SearchStrategy[CircuitParams]:
    """Parameter draws over the validated operating regime."""
    energy = st.floats(
        min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
    )
    return st.builds(
        CircuitParams,
        e_j=energy,
        e_m=energy,
        hbar=st.sampled_from([0.5, 1.0, 2.0]),
    )


def times() -> st.SearchStrategy[float]:
    return st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def unit_disc_complex() -> st.SearchStrategy[complex]:
    """Complex scalars comfortably inside the unit disc."""
    part = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False)
    return st.builds(complex, part, part)


def complex_matrix_4() -> st.SearchStrategy[np.ndarray]:
    return st.lists(unit_disc_complex(), min_size=16, max_size=16).map(
        lambda xs: np.array(xs, dtype=complex).reshape(4, 4)
    )


def hermitian_matrix_4() -> st.SearchStrategy[np.ndarray]:
    return complex_matrix_4().map(lambda m: (m + m.conj().T) / 2.0)


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random full-rank density matrix (normalised Wishart)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bell_block_spectrum(params: CircuitParams) -> list[float]:
    """Independent spectrum oracle via the 2x2 singlet/triplet reduction.

    In the Bell basis the Hamiltonian splits into a 2x2 block
    [[m, -hbar*e_j], [-hbar*e_j, -m]] with m = hbar^2 e_m / 4 plus the two
    decoupled eigenvalues +-m, so the spectrum is obtained from one
    quadratic: {+-hypot(m, hbar*e_j), +-m}.
    """
    m = params.hbar**2 * params.e_m / 4.0
    w = math.hypot(m, params.hbar * params.e_j)
    return sorted([-w, -abs(m), abs(m), w])

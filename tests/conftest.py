import math
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from tqcoh.evolution import StateVector
from tqcoh.model import CircuitParams, scaled_energies

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


def magnitudes(zero: bool = True) -> st.SearchStrategy[float]:
    """|x| log-uniform in 1e-310..1e308; about 1 draw in 30 is 0 when ``zero``."""
    low = -330.0 if zero else -310.0
    return st.floats(min_value=low, max_value=308.0).map(
        lambda e: 10.0**e if e >= -310.0 else 0.0
    )


def signed() -> st.SearchStrategy[float]:
    return st.tuples(st.booleans(), magnitudes()).map(lambda p: -p[1] if p[0] else p[1])


def times() -> st.SearchStrategy[float]:
    return st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def _entries(count: int) -> st.SearchStrategy[np.ndarray]:
    """``count`` floats in [-0.7, 0.7], as an array."""
    part = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False)
    return st.lists(part, min_size=count, max_size=count).map(np.array)


def symmetric_matrix_4() -> st.SearchStrategy[np.ndarray]:
    """Real symmetric 4x4 matrices with entries in [-0.7, 0.7]."""
    return _entries(16).map(lambda xs: xs.reshape(4, 4)).map(lambda m: (m + m.T) / 2.0)


def hermitian_matrix_4() -> st.SearchStrategy[np.ndarray]:
    """Complex Hermitian 4x4 matrices with real and imaginary parts in [-0.7, 0.7]."""
    return _entries(32).map(lambda xs: xs.view(complex).reshape(4, 4)).map(
        lambda m: (m + m.conj().T) / 2.0
    )


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


# The Jacobi eigenvalues' largest error in units of eps ||H||_2 is at most
# 5.97 over 13,000 seeded draws: 7,000 from the verify box (seeds 0, 1, 2,
# 3, 7, 42 and 2^31 - 1) and 6,000 from the reduced family (seeds 0 to 5).
SPECTRUM_K = 8.0


def spectrum_deviation(eigenvalues, params: CircuitParams) -> float:
    """max |lambda - lambda_exact| in units of eps ||H||_2, for a nonzero H.

    ``eigenvalues`` ascend, as the eigensolver returns them; the exact
    spectrum is :func:`bell_block_spectrum`, and ||H||_2 its largest |lambda|.
    """
    exact = np.array(bell_block_spectrum(params))
    error = np.abs(np.asarray(eigenvalues) - exact).max()
    return float(error / (np.finfo(float).eps * np.abs(exact).max()))


class FrequencyScales(NamedTuple):
    """The model's two oscillation scales.

    ``period_fast`` is pi / omega_fast, the period of the coherence
    oscillation of the non-stationary Bell states; it is None when
    omega_fast vanishes (constant dynamics).
    """

    omega_fast: float
    omega_slow: float
    period_fast: float | None


def frequency_scales(params: CircuitParams) -> FrequencyScales:
    """Fast and slow frequency scales for a parameter point."""
    omega_fast = 0.25 * scaled_energies(params)[0]
    period = math.pi / omega_fast if omega_fast > 0.0 else None
    return FrequencyScales(omega_fast, 0.5 * params.hbar * params.e_m, period)


def eigenstate_check(h: np.ndarray, state: StateVector) -> float | None:
    """Return the eigenvalue if ``state`` is an eigenstate of ``h``.

    Tests H|psi> against <psi|H|psi> |psi>; returns the (real) expectation
    value when the residual is below 1e-10 in max norm, None otherwise.
    """
    amp = state.amplitudes
    h_amp = h @ amp
    lam = float(np.vdot(amp, h_amp).real)
    residual = float(np.max(np.abs(h_amp - lam * amp)))
    if residual <= 1e-10:
        return lam
    return None

"""The trace formula: smoothed spectral density, Weyl term, and orbit sum.

The smoothed density (a sum of Lorentzians of half-width epsilon over the
spectrum) is reproduced identically by the logarithmic derivative of the
characteristic polynomial evaluated just below the real axis; that exact
identity anchors the whole module.  The geometric side splits into the
smooth Weyl term, a Lorentzian per vertex, and the fluctuating sum over
periodic orbits and their repetitions, evaluated here by central finite
differences at truncation cutoffs (N, R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, directed_bonds
from .laplacian import (
    LaplacianOperator,
    build_laplacian,
    char_poly_value,
    degree_vector,
    laplacian_spectrum,
)
from .orbits import OrbitCatalog, bulk_amplitudes, enumerate_orbits
from .scattering import secular_function

EPSILON_MIN = 1e-3
DEFAULT_EPSILON = 0.3
FD_STEP = 1e-5


def _check_epsilon(epsilon: float):
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    if epsilon < EPSILON_MIN:
        raise ValueError(f"epsilon below the enforced floor {EPSILON_MIN}")


@dataclass
class DensityEvaluation:
    """All curves of one trace-formula run on a common grid.

    exact_density is the Lorentzian-smoothed spectral density; weyl_term
    the smooth per-vertex part, smoothed with the same epsilon; orbit_term
    the truncated periodic-orbit sum at cutoffs orbit_cutoffs = (max period
    N, max repetition R).  residual = exact - (weyl + orbit) is the orbit
    truncation error only: with the orbit sum resummed to
    log det(I - U), the three curves agree to finite-difference accuracy.
    reference_charpoly is the log-derivative of det(lambda I - L) just
    below the axis, which reproduces exact_density to finite-difference
    accuracy; reference_secular is the same construction on the normalized
    secular function, which differs from the density by a smooth O(epsilon)
    term (reported, never hidden).
    """

    lambda_grid: np.ndarray
    epsilon: float
    exact_density: np.ndarray
    weyl_term: np.ndarray
    orbit_term: np.ndarray
    orbit_cutoffs: tuple[int, int]
    reference_charpoly: np.ndarray
    reference_secular: np.ndarray
    residual: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def peak_density(self) -> float:
        return float(np.max(self.exact_density))


def smoothed_density(op: LaplacianOperator, grid: np.ndarray, epsilon: float) -> np.ndarray:
    """(1/pi) sum_j eps / ((lambda - lambda_j)^2 + eps^2) over the spectrum."""
    _check_epsilon(epsilon)
    eigs = laplacian_spectrum(op).eigenvalues
    grid = np.asarray(grid, dtype=float)
    diff = grid[:, None] - eigs[None, :]
    return (epsilon / np.pi / (diff * diff + epsilon * epsilon)).sum(axis=1)


def weyl_term(
    g: Graph, grid: np.ndarray, kind: str = "standard", epsilon: float = 0.0
) -> np.ndarray:
    """Smooth density part: one Lorentzian per vertex, centred at deg_j.

    (1/pi) sum_j w_j / ((lambda - deg_j)^2 + w_j^2) with half-width
    w_j = deg_j + epsilon.  epsilon = 0 is the term on the real axis;
    epsilon > 0 is the term at lambda - i epsilon, i.e. its Lorentzian
    smoothing of half-width epsilon, as the trace formula needs it next to
    the smoothed density.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    deg = degree_vector(g, kind)
    width = deg + epsilon
    grid = np.asarray(grid, dtype=float)
    t = (deg[None, :] - grid[:, None]) / width[None, :]
    return ((1.0 / width)[None, :] / (1.0 + t * t)).sum(axis=1) / np.pi


def _repetition_sum(
    catalog: OrbitCatalog,
    lam: complex,
    max_length: int,
    max_repetition: int,
    kind: str,
) -> complex:
    """S(lambda) = sum_{r<=R} sum_{n_p<=N} a_p(lambda)^r / r.

    The 1/r weight is what the expansion of log det(I - U) produces; each
    orbit of any period enters every repetition with the reciprocal of the
    repetition number.
    """
    lengths, _, amps = bulk_amplitudes(catalog, lam, kind, max_length=max_length)
    total = 0.0 + 0.0j
    # one buffer, multiplied in place: a new array per power can be mapped
    # and faulted in afresh on every call once it passes malloc's mmap
    # threshold
    power = amps.copy()
    for r in range(1, max_repetition + 1):
        if r > 1:
            power *= amps
        total += power.sum() / r
    return complex(total)


def orbit_term(
    catalog: OrbitCatalog,
    g: Graph,
    grid: np.ndarray,
    epsilon: float,
    max_length: int,
    max_repetition: int,
    kind: str = "standard",
) -> np.ndarray:
    """Fluctuating part: -(1/pi) Im d/dlambda of the repetition sum at lambda - i eps.

    The lambda derivative is a central finite difference of step FD_STEP,
    matching the treatment of the reference curves.  A catalog enumerated
    on a graph other than g raises ValueError.
    """
    _check_epsilon(epsilon)
    catalog.require_depth(max_length)
    catalog.require_graph(g)
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    for i, x in enumerate(grid):
        lam = complex(x, -epsilon)
        plus = _repetition_sum(catalog, lam + FD_STEP, max_length, max_repetition, kind)
        minus = _repetition_sum(catalog, lam - FD_STEP, max_length, max_repetition, kind)
        out[i] = -((plus - minus) / (2.0 * FD_STEP)).imag / np.pi
    return out


def _log_derivative_density(fn, grid: np.ndarray, epsilon: float) -> np.ndarray:
    # log of the ratio, not difference of logs: the two sample values stay
    # within O(FD_STEP) of each other, so the principal branch cannot jump
    # even when the function crosses its cut between them
    out = np.empty_like(grid)
    for i, x in enumerate(grid):
        lam = complex(x, -epsilon)
        ratio = fn(lam + FD_STEP) / fn(lam - FD_STEP)
        out[i] = (np.log(ratio) / (2.0 * FD_STEP)).imag / np.pi
    return out


def trace_formula_report(
    g: Graph,
    grid: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    max_length: int = 10,
    max_repetition: int = 4,
    kind: str = "standard",
    catalog: OrbitCatalog | None = None,
) -> DensityEvaluation:
    """Assemble every curve of the trace formula on a grid.

    exact == reference_charpoly is an identity (up to finite-difference
    error).  The Weyl and orbit terms are both taken at lambda - i epsilon,
    so exact - (weyl + orbit) is the orbit truncation residual alone: it
    shrinks with the cutoffs (N, R) towards zero, as the trace formula is
    exact at infinite cutoff.  A given catalog must belong to g (see
    :func:`orbit_term`).
    """
    _check_epsilon(epsilon)
    grid = np.asarray(grid, dtype=float)
    lap = build_laplacian(g, kind)
    if catalog is None:
        catalog = enumerate_orbits(directed_bonds(g), max_length)
    exact = smoothed_density(lap, grid, epsilon)
    weyl = weyl_term(g, grid, kind, epsilon)
    orbit = orbit_term(catalog, g, grid, epsilon, max_length, max_repetition, kind)
    ref_char = _log_derivative_density(
        lambda lam: char_poly_value(lap, lam), grid, epsilon
    )
    ref_secular = _log_derivative_density(
        lambda lam: secular_function(g, lam, kind), grid, epsilon
    )
    residual = exact - (weyl + orbit)
    return DensityEvaluation(
        lambda_grid=grid,
        epsilon=epsilon,
        exact_density=exact,
        weyl_term=weyl,
        orbit_term=orbit,
        orbit_cutoffs=(max_length, max_repetition),
        reference_charpoly=ref_char,
        reference_secular=ref_secular,
        residual=residual,
    )


def density_total_mass(op: LaplacianOperator, epsilon: float) -> float:
    """Trapezoid integral of the smoothed density, 4001 points, spectrum padded by 20."""
    eigs = laplacian_spectrum(op).eigenvalues
    grid = np.linspace(float(eigs[0]) - 20.0, float(eigs[-1]) + 20.0, 4001)
    dens = smoothed_density(op, grid, epsilon)
    return float(np.trapezoid(dens, grid))


def write_density_csv(result: DensityEvaluation, fh) -> None:
    """CSV columns: lambda, exact, weyl, orbit, residual."""
    fh.write("lambda,exact,weyl,orbit,residual\n")
    for i in range(len(result.lambda_grid)):
        row = (
            result.lambda_grid[i],
            result.exact_density[i],
            result.weyl_term[i],
            result.orbit_term[i],
            result.residual[i],
        )
        fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def density_summary(result: DensityEvaluation) -> dict:
    """JSON-ready summary: cutoffs, epsilon, max residual, peak density."""
    n, r = result.orbit_cutoffs
    return {
        "epsilon": result.epsilon,
        "max_orbit_length": n,
        "max_repetition": r,
        "max_residual": result.max_residual,
        "peak_density": result.peak_density,
        "max_reference_deviation": float(
            np.max(np.abs(result.exact_density - result.reference_charpoly))
        ),
        "secular_reference_deviation": float(
            np.max(np.abs(result.exact_density - result.reference_secular))
        ),
    }

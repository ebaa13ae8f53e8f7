"""Discrete graph Laplacians, standard and weighted, and their spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeightsRequiredError
from .graph import Graph
from .linalg import SpectralResult, determinant, eig_symmetric

KINDS = ("standard", "generalized")

ZERO_EIG_TOL = 1e-10


def degree_vector(g: Graph, kind: str = "standard") -> np.ndarray:
    """The degrees deg_j on the diagonal of L and in the scattering phases.

    Valencies v_j for the standard kind (edge weights ignored); weighted
    valencies u_j for the generalized kind, which requires edge weights.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "generalized":
        if not g.is_weighted:
            raise WeightsRequiredError("the generalized kind requires edge weights")
        return g.degrees().weighted_valency
    return g.degrees().valency.astype(float)


@dataclass
class LaplacianOperator:
    """L = D - C (standard) or its weighted generalization.

    Real symmetric, positive semi-definite, zero row sums; the diagonal
    holds the (weighted) valencies.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.matrix))))


def build_laplacian(g: Graph, kind: str = "standard") -> LaplacianOperator:
    """Assemble the Laplacian of a graph.

    The generalized kind uses the weighted connectivity matrix and weighted
    valencies and requires weights to be present on the graph.
    """
    d = np.diag(degree_vector(g, kind))
    c = g.weighted_adjacency_matrix() if kind == "generalized" else g.adjacency_matrix()
    return LaplacianOperator(matrix=d - c)


def laplacian_spectrum(op: LaplacianOperator) -> SpectralResult:
    """Sorted real spectrum of the Laplacian.

    The lowest eigenvalue is 0 (within 1e-10 of the matrix scale) and it is
    simple exactly when the graph is connected.
    """
    result = eig_symmetric(op.matrix)
    lo = float(result.eigenvalues[0])
    tol = ZERO_EIG_TOL * op.scale()
    if lo < -tol:
        raise AssertionError(f"Laplacian not positive semi-definite: min eig {lo}")
    return result


def char_poly_value(op: LaplacianOperator, lam: complex | np.ndarray) -> complex | np.ndarray:
    """det(lambda I - L), evaluated by LU at the requested point, or at each point of a stack.

    Values only; no coefficient extraction, which would be ill-conditioned.
    """
    shift = np.asarray(lam)[..., None, None] * np.eye(op.dim, dtype=np.complex128)
    return determinant(shift - op.matrix)

"""Dense complex linear algebra kernel for desk-scale matrices.

Thin, contract-enforcing wrappers around LAPACK (via numpy): LU
determinants with partial pivoting, the symmetric eigensolver, and the
Hessenberg + shifted-QR general eigensolver.  Everything here is pure and
deterministic; matrices are a few hundred rows at most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenConvergenceError,
    NonFiniteMatrixError,
    NonSquareMatrixError,
    SymmetryError,
)

SYMMETRY_TOL = 1e-12
CLUSTER_TOL = 1e-7


def as_square_complex(a) -> np.ndarray:
    """Validate and return a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareMatrixError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteMatrixError("matrix has NaN or Inf entries")
    return m


def determinant(a) -> complex:
    """Determinant via LU with partial pivoting (sign of the permutation exact)."""
    m = as_square_complex(a)
    return complex(np.linalg.det(m))


@dataclass
class SpectralResult:
    """Eigenvalues (sorted), optional eigenvectors, and solve diagnostics.

    ``residual`` is max_k ||A x_k - lambda_k x_k|| over the computed pairs
    when eigenvectors were requested, else None.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual: float | None = None

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.eigenvalues)

    def multiplicities(self) -> list[tuple[complex, int]]:
        """Cluster eigenvalues closer than CLUSTER_TOL; returns (value, count)."""
        vals = np.asarray(self.eigenvalues)
        if len(vals) == 0:
            return []
        order = np.lexsort((np.imag(vals), np.real(vals)))
        ordered = vals[order]
        clusters: list[list[complex]] = [[ordered[0]]]
        for z in ordered[1:]:
            if abs(z - clusters[-1][-1]) <= CLUSTER_TOL:
                clusters[-1].append(z)
            else:
                clusters.append([z])
        out = []
        for members in clusters:
            centre = np.mean(members)
            if self.is_real:
                centre = float(np.real(centre))
            out.append((centre, len(members)))
        return out


def eig_symmetric(a, vectors: bool = False) -> SpectralResult:
    """Eigendecomposition of a real symmetric matrix.

    Eigenvalues come back exactly real, sorted ascending.  The input is
    rejected if max|A - A^T| >= 1e-12 or it has a non-negligible imaginary
    part.
    """
    m = as_square_complex(a)
    if np.max(np.abs(m.imag), initial=0.0) >= SYMMETRY_TOL:
        raise SymmetryError("matrix has a non-real part")
    r = m.real
    if np.max(np.abs(r - r.T), initial=0.0) >= SYMMETRY_TOL:
        raise SymmetryError("matrix is not symmetric within 1e-12")
    if vectors:
        vals, vecs = np.linalg.eigh(r)
        residual = float(np.max(np.abs(r @ vecs - vecs * vals), initial=0.0))
        return SpectralResult(vals, vecs, residual)
    vals = np.linalg.eigvalsh(r)
    return SpectralResult(vals)


def _sort_general(vals: np.ndarray, vecs: np.ndarray | None):
    # modulus descending, then argument ascending
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order], (None if vecs is None else vecs[:, order])


def eig_general(a, vectors: bool = False) -> SpectralResult:
    """All complex eigenvalues via Hessenberg reduction and shifted QR.

    Non-convergence of the QR iteration is a hard error; no partial
    spectrum is ever returned.  Sorted by (modulus desc, argument asc).
    """
    m = as_square_complex(a)
    try:
        if vectors:
            vals, vecs = np.linalg.eig(m)
        else:
            vals, vecs = np.linalg.eigvals(m), None
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"QR iteration did not converge: {exc}") from exc
    vals, vecs = _sort_general(vals, vecs)
    residual = None
    if vectors:
        residual = float(np.max(np.abs(m @ vecs - vecs * vals), initial=0.0))
    return SpectralResult(vals, vecs, residual)


def matrix_power_trace(a, n: int) -> complex:
    """trace(A^n) by repeated multiplication, n >= 1."""
    m = as_square_complex(a)
    return complex(np.trace(np.linalg.matrix_power(m, n)))


def null_space_basis(a, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the dim right singular vectors of a with the smallest singular values.

    Returns (basis columns, all singular values ascending).
    """
    m = as_square_complex(a)
    _, s, vh = np.linalg.svd(m)
    # numpy returns singular values descending
    basis = vh[len(s) - dim:].conj().T
    return basis, s[::-1]

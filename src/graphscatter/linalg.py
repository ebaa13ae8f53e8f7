"""Dense complex linear algebra kernel for desk-scale matrices.

Thin, contract-enforcing wrappers around LAPACK (via numpy): LU
determinants with partial pivoting, the symmetric eigensolver, and the
Hessenberg + shifted-QR general eigensolver.  Everything here is pure and
deterministic; matrices are a few hundred rows at most.  The determinant
and the power trace also take a stack (..., n, n) of matrices, one LAPACK
or BLAS pass for all of them, each result bit for bit the one matrix's.
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


def _square_stack(a) -> np.ndarray:
    """Validate and return a (..., n, n) stack of square complex128 matrices (or one matrix)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NonSquareMatrixError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(np.ascontiguousarray(m).view(np.float64)).all():  # faster than on complex
        raise NonFiniteMatrixError("matrix has NaN or Inf entries")
    return m


def as_square_complex(a) -> np.ndarray:
    """Validate and return a square complex128 matrix."""
    m = _square_stack(a)
    if m.ndim != 2:
        raise NonSquareMatrixError(f"expected a square matrix, got shape {m.shape}")
    return m


def determinant(a) -> complex | np.ndarray:
    """Determinant via LU with partial pivoting (sign of the permutation exact).

    A stack (..., n, n) gives an array of shape (...): one batched call.
    """
    d = np.linalg.det(_square_stack(a))
    return complex(d) if d.ndim == 0 else d


@dataclass
class SpectralResult:
    """Eigenvalues (sorted) and, when requested, eigenvectors in the same order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None


def eig_symmetric(a) -> SpectralResult:
    """Eigenvalues of a real symmetric matrix.

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
    return SpectralResult(np.linalg.eigvalsh(r))


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
    return SpectralResult(*_sort_general(vals, vecs))


def matrix_power_trace(a, n: int) -> complex | np.ndarray:
    """trace(A^n) by repeated multiplication, n >= 1; a stack (..., N, N) gives shape (...)."""
    power = np.linalg.matrix_power(_square_stack(a), n)
    t = np.trace(power, axis1=-2, axis2=-1)
    return complex(t) if t.ndim == 0 else t


"""Classical Markov dynamics induced by the quantum evolution on bonds.

Squaring the moduli of the evolution-operator entries gives a bi-stochastic
transition matrix on the directed bonds; its spectral gap controls mixing.
At the special spectral point of a regular graph the back-scatter amplitude
vanishes and the transition matrix degenerates to the non-backtracking
adjacency, whose spectrum is an explicit function of the Laplacian
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegularityError, VerificationError
from .graph import DirectedBondSpace, Graph
from .laplacian import build_laplacian, laplacian_spectrum
from .linalg import determinant, eig_general
from .scattering import evolution_operator
from .zeta import ihara_zeta_det, nonbacktracking_matrix

BISTOCHASTIC_TOL = 1e-10
NON_MIXING_TOL = 1e-9


@dataclass
class ClassicalMap:
    """Non-negative transition matrix on the 2B directed bonds."""

    matrix: np.ndarray
    lam: complex
    space: DirectedBondSpace
    bistochastic_defect: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _bistochastic_defect(m: np.ndarray) -> float:
    rows = np.abs(m.sum(axis=1) - 1.0)
    cols = np.abs(m.sum(axis=0) - 1.0)
    return float(max(rows.max(initial=0.0), cols.max(initial=0.0)))


def transition_matrix(g: Graph, lam: float, kind: str = "standard") -> ClassicalMap:
    """M = |U(lambda)|^2 entrywise, for real lambda; verified bi-stochastic."""
    if isinstance(lam, complex) and lam.imag != 0:
        raise ValueError(
            "transition matrix needs real lambda; use no_backscatter_map for "
            "the special complex point"
        )
    lam = float(np.real(lam))
    u = evolution_operator(g, lam, kind)
    m = np.abs(u.matrix) ** 2
    defect = _bistochastic_defect(m)
    if defect > BISTOCHASTIC_TOL:
        raise VerificationError(
            "bi-stochasticity", f"defect {defect:.3e} at lambda={lam}"
        )
    return ClassicalMap(
        matrix=m, lam=lam, space=u.space, bistochastic_defect=defect
    )


@dataclass
class MixingReport:
    """Spectral-gap summary of a classical map."""

    gap: float
    second_modulus: float
    non_mixing: bool
    eigenvalues: np.ndarray
    equilibrium_deviation: float


def mixing_gap(cmap: ClassicalMap) -> MixingReport:
    """Gap between the unit eigenvalue and the rest of the spectrum.

    Flags non-mixing when a second eigenvalue sits on the unit circle
    (within 1e-9).  Also reports how far the modulus-1 right eigenvector is
    from the uniform equilibrium.
    """
    result = eig_general(cmap.matrix, vectors=True)
    vals = result.eigenvalues
    top = int(np.argmin(np.abs(vals - 1.0)))
    rest = np.delete(np.abs(vals), top)
    second = float(rest.max(initial=0.0))
    vec = result.eigenvectors[:, top]
    vec = vec / vec.sum()
    uniform = np.full(cmap.dim, 1.0 / cmap.dim)
    return MixingReport(
        gap=1.0 - second,
        second_modulus=second,
        non_mixing=second > 1.0 - NON_MIXING_TOL,
        eigenvalues=vals,
        equilibrium_deviation=float(np.max(np.abs(vec - uniform))),
    )


def no_backscatter_map(g: Graph) -> ClassicalMap:
    """The classical map at the back-scatter-free point of a v-regular graph.

    Evaluates |U|^2 at lambda = v + i(v - 2) (the point where the
    back-scatter amplitude vanishes and every other entry has modulus one),
    checks the result agrees entrywise with the combinatorial
    non-backtracking adjacency, and returns it normalized by v - 1 so it
    conserves probability.
    """
    v = g.regular_degree
    if v <= 2:
        raise RegularityError("needs a regular graph with degree > 2")
    lam = complex(v, v - 2)
    u = evolution_operator(g, lam)
    m = np.abs(u.matrix) ** 2
    combinatorial = nonbacktracking_matrix(u.space)
    mismatch = float(np.max(np.abs(m - combinatorial)))
    if mismatch > 1e-12:
        raise VerificationError(
            "no-backscatter structure",
            f"|U|^2 at lambda={lam} deviates from the non-backtracking "
            f"adjacency by {mismatch:.3e}",
        )
    # the verified entries are 0 or 1 up to rounding dust; return them clean
    normalized = combinatorial / (v - 1.0)
    return ClassicalMap(
        matrix=normalized,
        lam=lam,
        space=u.space,
        bistochastic_defect=_bistochastic_defect(normalized),
    )


def no_backscatter_spectrum_from_laplacian(g: Graph) -> np.ndarray:
    """Spectrum of the normalized no-backscatter map from the Laplacian alone.

    For each Laplacian eigenvalue lambda_j the pair

        m_j^+- = ((v - lambda_j) +- sqrt((v - lambda_j)^2 - 4(v-1))) / (2(v-1))

    plus (B-V)-fold degenerate eigenvalues at +1/(v-1) and -1/(v-1), from
    Bass's identity on any finite graph (B - V = r - 1 on a connected one,
    r the cycle rank).  Returned as a multiset sorted by (modulus,
    argument), 2B values in total.
    """
    v = g.regular_degree
    if v <= 2:
        raise RegularityError("needs a regular graph with degree > 2")
    excess = g.num_edges - g.num_vertices
    eigs = laplacian_spectrum(build_laplacian(g)).eigenvalues
    vals = []
    for lam_j in eigs:
        c = v - lam_j
        disc = np.sqrt(complex(c * c - 4.0 * (v - 1.0)))
        vals.append((c + disc) / (2.0 * (v - 1.0)))
        vals.append((c - disc) / (2.0 * (v - 1.0)))
    vals.extend([1.0 / (v - 1.0)] * excess)
    vals.extend([-1.0 / (v - 1.0)] * excess)
    out = np.array(vals, dtype=np.complex128)
    order = np.lexsort((np.angle(out), np.abs(out)))
    return out[order]


def multiset_defect(a: np.ndarray, b: np.ndarray) -> float:
    """Multiset distance: optimal pairing, max pairwise gap reported.

    A plain sort by (modulus, argument) misorders clusters of equal-modulus
    eigenvalues whose moduli differ only by rounding noise, so the pairing
    minimizes the total distance instead (see `_min_sum_assignment`).
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    cols = _min_sum_assignment(cost.tolist())
    return float(cost[np.arange(len(cols)), cols].max())


def _min_sum_assignment(cost: list[list[float]]) -> list[int]:
    """cols minimizing sum_i cost[i][cols[i]] over the permutations, for a square cost.

    Each row joins the matching along a shortest augmenting path over costs
    reduced by row and column potentials (Jonker-Volgenant), in O(n^3), as
    scipy.optimize.linear_sum_assignment runs it, ties broken alike (Crouse,
    IEEE Trans. Aerosp. Electron. Syst. 52 (2016) 1679).
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        dist, remaining = [math.inf] * n, list(range(n - 1, -1, -1))
        rows, cols, min_val = [cur], [], 0.0
        while True:  # Dijkstra from row cur to the nearest free column j
            i = rows[-1]
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                if d < lowest or d == lowest and row4col[j] == -1:  # a tie goes to a free column
                    index, lowest = it, d
            min_val, j = lowest, remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] == -1:
                break
            rows.append(row4col[j])
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols:
            v[j] -= min_val - dist[j]
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def classical_secular(cmap: ClassicalMap, mu: complex | np.ndarray) -> complex | np.ndarray:
    """det(I - mu M), the secular function of the classical evolution.

    A stack of mu gives an array of its shape from one batched determinant.
    """
    return determinant(np.eye(cmap.dim) - np.asarray(mu)[..., None, None] * cmap.matrix)


def no_backscatter_secular_closed_form(g: Graph, mu: complex | np.ndarray) -> complex | np.ndarray:
    """Closed form of det(I - mu M_sharp/(v-1)) through the Ihara determinant.

    M_sharp is the non-backtracking matrix of the v-regular graph, so this is
    the reciprocal Ihara zeta at u = mu/(v-1): (1 - u^2)^(r-1) det(I - uC +
    u^2 (v-1) I).  A stack of mu gives an array of its shape: u is taken at
    each point in Python's scalar arithmetic and :func:`ihara_zeta_det` runs
    on the stack of them, so entry i is bit for bit the call at
    mu.flat[i].item().
    """
    mu = np.asarray(mu)
    scale = g.regular_degree - 1.0
    return ihara_zeta_det(g, np.reshape([m / scale for m in mu.ravel().tolist()], mu.shape))

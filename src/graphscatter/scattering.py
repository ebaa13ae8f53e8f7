"""Vertex scattering matrices, the bond evolution operator, and the secular function.

The evolution operator U(lambda) acts on the 2B directed-bond amplitudes.
This module is where the vertex scattering amplitudes sigma are defined,
once, as the entries of

    U(lambda) = i (R - K diag(coef[terminus])),  coef_j = (1 + e^{i alpha_j}) / deg_j,

with R the bond reversal and K the allowed-transition table of the bond
space (entries sqrt(w_d' w_d) for the generalized kind, 1 for the
standard kind).  coef is the only lambda-dependent part; the vertex
scattering matrices are blocks of U, and every orbit amplitude is a product
of its entries.  For real lambda U is unitary, and the stationary
directions of U mark exactly the Laplacian eigenvalues; the secular
function built from det(I - U) is real on the real axis and vanishes on the
spectrum with the right multiplicities.  Eigenvectors on the vertices are
recovered from the stationary bond amplitude vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DisconnectedGraphError, NullSpaceError, SpectralPoleError
from .graph import DirectedBondSpace, Graph, directed_bonds
from .laplacian import build_laplacian, degree_vector, laplacian_spectrum
from .linalg import determinant, null_space_basis

POLE_GUARD = 1e-12
NULL_SPACE_TOL = 1e-6
RECONSTRUCT_RESIDUAL_TOL = 1e-7


def scattering_phases(g: Graph, lam: complex, kind: str = "standard") -> np.ndarray:
    """Per-vertex phase factors e^{i alpha_j}(lambda).

    e^{i alpha_j} = (1 + i(1 - lambda/deg_j)) / (1 - i(1 - lambda/deg_j)),
    where deg_j is the (weighted) valency.  Unimodular for real lambda.
    Raises near the V complex poles where the denominator vanishes.
    """
    return _vertex_factors(g, lam, kind)[0]


def vertex_coefficients(g: Graph, lam: complex, kind: str = "standard") -> np.ndarray:
    """coef_j(lambda) = (1 + e^{i alpha_j}) / deg_j, the lambda-dependent part of U.

    A step through vertex j transmits with amplitude -i coef_j (times
    sqrt(w_d' w_d) for the generalized kind) and back-scatters with
    i (1 - coef_j w_d).
    """
    return _vertex_factors(g, lam, kind)[1]


def _vertex_factors(g: Graph, lam: complex, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(e^{i alpha_j}, coef_j) from one evaluation of the degree vector."""
    deg = degree_vector(g, kind)
    if not deg.all():  # degrees are >= 0: an isolated vertex has no bond to scatter on
        raise DisconnectedGraphError(f"vertex {int(np.argmin(deg))} is isolated")
    t = 1.0 - lam / deg
    denom = 1.0 - 1j * t
    bad = np.abs(denom) < POLE_GUARD
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SpectralPoleError(
            f"lambda={lam} is within {POLE_GUARD} of the evolution-operator pole "
            f"at vertex {j} (degree {deg[j]})"
        )
    phases = (1.0 + 1j * t) / denom
    return phases, (1.0 + phases) / deg


def pole_candidates(g: Graph, kind: str = "standard") -> list[complex]:
    """Both candidate pole locations deg_j*(1 +/- i) per vertex (diagnostic).

    The denominator of e^{i alpha_j} vanishes at deg_j*(1+i); the reflected
    point deg_j*(1-i) zeroes the numerator.  Both neighbourhoods are
    rejected by the guard, and observed locations are reported rather than
    asserted to one side.
    """
    out = []
    for d in degree_vector(g, kind):
        out.append(complex(d, d))
        out.append(complex(d, -d))
    return out


@dataclass
class VertexScatteringMatrix:
    """Scattering matrix of one vertex at one spectral parameter.

    Rows are indexed by the outgoing bonds of the vertex (ascending bond
    index), columns by the incoming bonds (ascending, which pairs column k
    with the reversal of the row-k bond).  The diagonal is therefore the
    back-scatter amplitude.  Unitary for real lambda.
    """

    vertex: int
    entries: np.ndarray
    lam: complex
    phase: complex
    outgoing_bonds: np.ndarray
    incoming_bonds: np.ndarray


def vertex_scattering_matrix(
    g: Graph, vertex: int, lam: complex, kind: str = "standard"
) -> VertexScatteringMatrix:
    """sigma^(vertex)(lambda), the block of U(lambda) at one vertex.

    Standard kind: sigma_{d,d'} = i(delta_{rev(d),d'} - (1/v)(1 + e^{i alpha})).
    Weighted kind replaces v by u and scales the uniform part by
    sqrt(w_d w_{d'}); the back-scatter delta is unweighted.
    """
    space = directed_bonds(g)
    out = space.outgoing(vertex)
    inc = space.incoming(vertex)
    u = evolution_operator(g, lam, kind).matrix
    return VertexScatteringMatrix(
        vertex=vertex,
        entries=u[np.ix_(out, inc)],
        lam=lam,
        phase=complex(scattering_phases(g, lam, kind)[vertex]),
        outgoing_bonds=out,
        incoming_bonds=inc,
    )


@dataclass
class EvolutionOperator:
    """The 2B x 2B bond evolution operator U(lambda).

    U[d', d] is nonzero only when d' follows d, i.e. terminus(d) ==
    origin(d'); the entry is the scattering amplitude of the shared vertex.
    Unitary for real lambda.
    """

    matrix: np.ndarray
    lam: complex
    space: DirectedBondSpace
    kind: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.max(np.abs(u @ u.conj().T - np.eye(self.dim))))


def evolution_operator(g: Graph, lam: complex, kind: str = "standard") -> EvolutionOperator:
    """Assemble U(lambda) = i (R - K diag(coef[terminus])) in the canonical bond order."""
    return _evolution_operator(g, lam, kind, vertex_coefficients(g, lam, kind))


def _evolution_operator(g: Graph, lam: complex, kind: str, coef: np.ndarray) -> EvolutionOperator:
    """U(lambda) from its vertex coefficients coef = vertex_coefficients(g, lam, kind)."""
    space = directed_bonds(g)
    k = space.weighted_transitions if kind == "generalized" else space.transitions
    u = 1j * (space.reversal_matrix - k * coef[space.terminus])
    return EvolutionOperator(matrix=u, lam=lam, space=space, kind=kind)


def evolution_determinant_closed_form(
    g: Graph, lam: complex, kind: str = "standard"
) -> complex:
    """det U(lambda) in closed form: (-1)^V times the product of the vertex phases.

    The parity factor is forced by the block structure of U (verified
    against the LU determinant on every fixture; it matters only for odd
    V).  The product alone has exactly V complex poles.
    """
    phases = scattering_phases(g, lam, kind)
    sign = -1.0 if g.num_vertices % 2 else 1.0
    return complex(sign * np.prod(phases))


def secular_function(g: Graph, lam: complex, kind: str = "standard") -> complex:
    """The normalized secular function built from the evolution operator.

    Z(lambda) = 2^{-B} (det U)^{-1/2} det(I - U), with the square root taken
    as (-i)^V times the product of per-vertex half phases (principal
    branch), never as a global square root of the determinant.  This branch
    makes Z real on the real axis for every graph, zero exactly on the
    Laplacian spectrum, and Z -> 1 as lambda -> +infinity.
    """
    phases, coef = _vertex_factors(g, lam, kind)
    op = _evolution_operator(g, lam, kind, coef)
    half = np.exp(-0.5 * np.log(phases))  # principal branch per vertex
    b = g.num_edges
    branch = (-1j) ** g.num_vertices
    return complex(
        (2.0 ** -b) * branch * np.prod(half) * determinant(np.eye(op.dim) - op.matrix)
    )


def stationarity_gap(g: Graph, lam: complex, kind: str = "standard") -> float:
    """Smallest singular value of I - U(lambda); zero marks an eigenvalue."""
    op = evolution_operator(g, lam, kind)
    s = np.linalg.svd(np.eye(op.dim) - op.matrix, compute_uv=False)
    return float(s[-1])


@dataclass
class SecularZero:
    """One zero of the secular function found on the real axis."""

    lam: float
    multiplicity: int
    singular_value: float
    secular_value: float


def secular_zero_scan(
    g: Graph,
    kind: str = "standard",
    lam_min: float | None = None,
    lam_max: float | None = None,
    grid_per_vertex: int = 50,
    refine_tol: float = 1e-10,
    null_tol: float = NULL_SPACE_TOL,
) -> list[SecularZero]:
    """Find all real zeros of the secular function, with multiplicities.

    The scan covers the Gershgorin interval of the Laplacian by default.
    Sign changes of Z are bracketed and bisected; local minima of |Z| are
    refined by minimizing the smallest singular value of I - U, which
    catches even-multiplicity zeros that never change sign.  Multiplicity
    is the numerical null-space dimension of I - U at the zero.
    """
    op = build_laplacian(g, kind)
    diag = np.diag(op.matrix)
    if lam_min is None:
        lam_min = -1.0
    if lam_max is None:
        lam_max = float(2.0 * np.max(diag) + 1.0)
    n_grid = max(grid_per_vertex * g.num_vertices, 20)
    grid = np.linspace(lam_min, lam_max, n_grid + 1)
    z = np.array([secular_function(g, x, kind).real for x in grid])

    candidates: list[float] = []
    f = lambda x: secular_function(g, x, kind).real
    for i in range(n_grid):
        if z[i] == 0.0:
            candidates.append(float(grid[i]))
        elif z[i] * z[i + 1] < 0.0:
            candidates.append(float(brentq(f, grid[i], grid[i + 1], xtol=refine_tol)))

    # touching zeros: local minima of |Z| below a loose threshold, refined by
    # minimizing the smallest singular value of I - U (V-shaped at a zero)
    sv = lambda x: stationarity_gap(g, x, kind)
    absz = np.abs(z)
    for i in range(1, n_grid):
        if absz[i] <= absz[i - 1] and absz[i] <= absz[i + 1] and absz[i] < 0.05:
            candidates.append(
                _golden_min(sv, float(grid[i - 1]), float(grid[i + 1]), refine_tol)
            )

    # cluster nearby candidates; within a cluster the most stationary wins
    zeros: list[SecularZero] = []
    span = lam_max - lam_min
    cluster_tol = 1e-7 * max(1.0, span)
    clusters: list[list[float]] = []
    for lam0 in sorted(candidates):
        if clusters and abs(lam0 - clusters[-1][-1]) < cluster_tol:
            clusters[-1].append(lam0)
        else:
            clusters.append([lam0])
    for members in clusters:
        best_lam, best_s = None, None
        for lam0 in members:
            opu = evolution_operator(g, lam0, kind)
            s = np.linalg.svd(np.eye(opu.dim) - opu.matrix, compute_uv=False)
            if best_s is None or s[-1] < best_s[-1]:
                best_lam, best_s = lam0, s
        smin = float(best_s[-1])
        if smin >= null_tol:
            continue
        mult = int(np.sum(best_s < null_tol))
        zeros.append(
            SecularZero(
                lam=best_lam,
                multiplicity=mult,
                singular_value=smin,
                secular_value=float(secular_function(g, best_lam, kind).real),
            )
        )
    return zeros


def _golden_min(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum with an absolute width tolerance.

    Unlike the bounded Brent minimizer this has no sqrt(eps)*|x| accuracy
    floor, which matters when locating zeros to 1e-10 at |lambda| of a few.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def reconstruct_eigenvectors(
    g: Graph,
    lam: float,
    kind: str = "standard",
    null_tol: float = NULL_SPACE_TOL,
    residual_tol: float = RECONSTRUCT_RESIDUAL_TOL,
) -> np.ndarray:
    """Laplacian eigenvectors rebuilt from stationary bond amplitudes.

    Finds an orthonormal basis a_1..a_k of the numerical null space of
    I - U(lambda), then maps each bond vector to vertex values through

        psi_i = (1/deg_i) sum_{d: origin(d)=i} (a_d e^{i pi/4} + a_rev(d) e^{-i pi/4})

    and orthonormalizes the results.  Returns a (V, k) array; every column
    satisfies ||L psi - lambda psi|| < residual_tol * ||psi||.
    """
    space = directed_bonds(g)
    op = evolution_operator(g, lam, kind)
    basis, svals = null_space_basis(np.eye(op.dim) - op.matrix, null_tol)
    if basis.shape[1] == 0:
        raise NullSpaceError(
            f"no stationary direction at lambda={lam}: smallest singular value "
            f"{svals[0]:.3e} >= {null_tol}"
        )
    deg = degree_vector(g, kind)
    lap = build_laplacian(g, kind)
    plus = np.exp(1j * np.pi / 4)
    minus = np.exp(-1j * np.pi / 4)
    v = g.num_vertices
    psis = np.zeros((v, basis.shape[1]), dtype=np.complex128)
    for col in range(basis.shape[1]):
        a = basis[:, col]
        for i in range(v):
            out = space.outgoing(i)
            contrib = a[out] * plus + a[space.reversal[out]] * minus
            psis[i, col] = contrib.sum() / deg[i]
    # orthonormalize inside the eigenspace
    q, r = np.linalg.qr(psis)
    keep = np.abs(np.diag(r)) > 1e-10
    psis = q[:, keep]
    for col in range(psis.shape[1]):
        psi = psis[:, col]
        res = np.linalg.norm(lap.matrix @ psi - lam * psi)
        if res > residual_tol * np.linalg.norm(psi):
            raise NullSpaceError(
                f"reconstructed vector at lambda={lam} has residual {res:.3e}"
            )
    return psis


def spectrum_from_scan(g: Graph, kind: str = "standard") -> np.ndarray:
    """Real eigenvalues found by the secular zero scan, repeated by multiplicity."""
    zeros = secular_zero_scan(g, kind)
    out: list[float] = []
    for z in zeros:
        out.extend([z.lam] * z.multiplicity)
    return np.array(out)


def scan_spectrum_deviation(g: Graph, kind: str = "standard") -> float:
    """Max pairwise deviation between scan zeros and the direct spectrum."""
    direct = laplacian_spectrum(build_laplacian(g, kind)).eigenvalues
    scanned = spectrum_from_scan(g, kind)
    if len(scanned) != len(direct):
        return float("inf")
    return float(np.max(np.abs(np.sort(scanned) - np.sort(direct))))

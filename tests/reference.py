"""Reference oracles for the tests: slow, direct forms of what the library computes in bulk."""

import math

import numpy as np

from graphscatter.classical import ClassicalMap, no_backscatter_map
from graphscatter.graph import Graph, directed_bonds
from graphscatter.laplacian import degree_vector
from graphscatter.linalg import determinant, eig_general, matrix_power_trace
from graphscatter.orbits import PrimitiveOrbit, _trace_powers, bulk_amplitudes
from graphscatter.scattering import (
    ON_ZERO_TOL, _det_identity_minus_u, _minus_u_on_span, _vertex_factors, _ZeroCounter,
    evolution_determinant_closed_form, evolution_operator, vertex_coefficients,
)
from graphscatter.trace import FD_STEP
from graphscatter.zeta import secular_ratio_constant


def orbit_amplitude(
    orbit: PrimitiveOrbit, g: Graph, lam: complex, kind: str = "standard"
) -> complex:
    """Product of the entries of U(lambda) along one orbit (reference path)."""
    return orbit_matrix_amplitude(orbit, evolution_operator(g, lam, kind).matrix)


def vertex_block(g: Graph, vertex: int, lam: complex, kind: str = "standard") -> np.ndarray:
    """sigma^(vertex)(lambda), the block U[outgoing(vertex), incoming(vertex)] of U(lambda)."""
    space = directed_bonds(g)
    rows, columns = space.outgoing(vertex), space.incoming(vertex)
    return evolution_operator(g, lam, kind).matrix[np.ix_(rows, columns)]


CLUSTER_TOL = 1e-7


def multiplicities(eigenvalues: np.ndarray) -> list[tuple[complex, int]]:
    """(value, count) of each cluster of eigenvalues closer than CLUSTER_TOL, in (real, imag) order.

    The value is the cluster's mean, a float when the eigenvalues are real.
    """
    vals = np.asarray(eigenvalues)
    if len(vals) == 0:
        return []
    ordered = vals[np.lexsort((np.imag(vals), np.real(vals)))]
    clusters: list[list[complex]] = [[ordered[0]]]
    for z in ordered[1:]:
        if abs(z - clusters[-1][-1]) <= CLUSTER_TOL:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    is_real = not np.iscomplexobj(vals)
    return [(float(np.real(np.mean(c))) if is_real else np.mean(c), len(c)) for c in clusters]


def dense_identity_minus_u(
    g: Graph, lam: complex, kind: str = "standard", corrupt_sigma: bool = False
) -> np.ndarray:
    """The 2B x 2B I - U(lambda), formed densely from U (corrupted as `point_u` corrupts it)."""
    u = point_u(g, lam, kind, corrupt_sigma).matrix
    return np.eye(u.shape[-1]) - u


def orbit_matrix_amplitude(orbit: PrimitiveOrbit, matrix: np.ndarray) -> complex:
    """Cyclic product of matrix entries M[d_{k+1}, d_k] along the orbit."""
    seq = orbit.bonds
    n = len(seq)
    amp = 1.0 + 0.0j
    for k in range(n):
        amp *= matrix[seq[(k + 1) % n], seq[k]]
    return complex(amp)


def trace_powers_by_length(lengths: np.ndarray, amps: np.ndarray, top: int) -> np.ndarray:
    """t[n] = tr U^n for n = 0..top, one fresh array per power of each length block."""
    t = np.zeros(top + 1, dtype=np.complex128)
    starts = np.searchsorted(lengths, np.arange(2, top + 2))
    for m in range(2, top + 1):
        block = amps[starts[m - 2] : starts[m - 1]]
        if block.size == 0:
            continue
        power = block
        for r in range(1, top // m + 1):
            if r > 1:
                power = power * block
            t[r * m] += m * power.sum()
    return t


def log_derivative_density_per_point(fn, grid: np.ndarray, epsilon: float) -> np.ndarray:
    """-(1/pi) Im d/dlambda log fn at lambda - i eps, by one call of fn per point."""
    out = np.empty_like(grid)
    for i, x in enumerate(grid):
        lam = complex(x, -epsilon)
        ratio = fn(lam + FD_STEP) / fn(lam - FD_STEP)
        out[i] = (np.log(ratio) / (2.0 * FD_STEP)).imag / np.pi
    return out


def evolve(cmap: ClassicalMap, rho0: np.ndarray, steps: int,
           return_trajectory: bool = False):
    """Iterate rho -> M rho; preserves non-negativity and the l1 norm."""
    rho = np.asarray(rho0, dtype=float)
    if rho.shape != (cmap.dim,):
        raise ValueError(f"distribution must have shape ({cmap.dim},)")
    if np.any(rho < 0) or abs(rho.sum() - 1.0) > 1e-12:
        raise ValueError("initial state must be a probability vector")
    traj = [rho]
    for _ in range(steps):
        rho = cmap.matrix @ rho
        traj.append(rho)
    return traj if return_trajectory else rho


# -- the zero scan's eigenphase count, from the general eigensolver ------------


def reference_staircase(g: Graph, x: float, kind: str = "standard") -> tuple[float | None, float]:
    """(staircase, min |mu|) at real x from zgeev (`eig_general`) of I - U_S.

    The staircase is (sum_k f_k - sum_j alpha_j) / 2 pi, f_k = arg(1 - mu_k)
    in [0, 2 pi) for the eigenvalues mu_k of I - U_S; None when min |mu_k| <
    ON_ZERO_TOL x 2B, where x sits on a zero of Z.
    """
    phases, coef = _vertex_factors(g, x, kind)
    mu = eig_general(_minus_u_on_span(g, kind, coef)).eigenvalues
    gap = float(np.min(np.abs(mu)))
    if gap < ON_ZERO_TOL * 2 * g.num_edges:
        return None, gap
    turn = np.sum(np.angle(1.0 - mu) % (2.0 * np.pi)) - np.sum(np.angle(phases))
    return float(turn) / (2.0 * math.pi), gap


def reference_count(g: Graph, a: float, b: float, kind: str = "standard") -> int | None:
    """Zeros of Z in (a, b), with multiplicity: the reference staircase's rise; None on a zero."""
    sa, sb = reference_staircase(g, a, kind)[0], reference_staircase(g, b, kind)[0]
    return None if sa is None or sb is None else round(sb - sa)


# -- the identity suite's stacked checks, one sample point at a time ----------


def point_u(g: Graph, lam, kind: str, corrupt_sigma: bool = False):
    """U(lambda) at one point, its first nonzero entry of row 0 scaled by 1 + 1e-6 if corrupt."""
    op = evolution_operator(g, lam, kind)
    if corrupt_sigma:
        op.matrix[0, int(np.argmax(np.abs(op.matrix[0]) > 0))] *= 1.0 + 1e-6
    return op


def unitarity_measure(g: Graph, lams, kind: str, corrupt_sigma: bool = False) -> float:
    """Largest unitarity defect of U over the real sample points."""
    worst = 0.0
    for lam in lams:
        worst = max(worst, point_u(g, float(lam), kind, corrupt_sigma).unitarity_defect())
    return worst


def det_closed_form_measure(g: Graph, lams, kind: str, corrupt_sigma: bool = False) -> float:
    """Largest relative gap between the LU det U and its closed form over the points."""
    worst = 0.0
    for lam in lams:
        d_lu = determinant(point_u(g, complex(lam), kind, corrupt_sigma).matrix)
        d_cf = evolution_determinant_closed_form(g, complex(lam), kind)
        worst = max(worst, abs(d_lu - d_cf) / abs(d_cf))
    return worst


def vertex_reduction_measure(g: Graph, lams, kind: str, corrupt_sigma: bool = False) -> float:
    """Largest relative gap between det(I - U) as 2^B det M and the LU det of np.eye(2B) - U."""
    worst = 0.0
    for lam in lams:
        dense = determinant(dense_identity_minus_u(g, complex(lam), kind, corrupt_sigma))
        vertex = _det_identity_minus_u(g, complex(lam), kind)
        worst = max(worst, abs(vertex - dense) / abs(dense))
    return worst


def ratio_measure(g: Graph, lams, kind: str) -> tuple[float, complex]:
    """(relative spread, mean) of the secular ratio constant over the points."""
    ratios = np.array([secular_ratio_constant(g, complex(lam), kind) for lam in lams])
    return float(np.std(ratios) / abs(np.mean(ratios))), complex(np.mean(ratios))


def trace_oracle_measure(
    g: Graph, catalog, lams, kind: str, corrupt_sigma: bool = False
) -> float:
    """Largest relative gap between tr U^n by matrix powers and by orbits, n = 2..8."""
    worst = 0.0
    for lam in lams:
        op = point_u(g, complex(lam), kind, corrupt_sigma)
        lengths, _, amps = bulk_amplitudes(catalog, complex(lam), kind)
        t_orbit = _trace_powers(lengths, amps, 8)
        for n in range(2, 9):
            t_direct = matrix_power_trace(op.matrix, n)
            worst = max(worst, abs(t_direct - complex(t_orbit[n])) / max(abs(t_direct), 1e-12))
    return worst


def reference_regular_zeta_z(g: Graph, z: complex) -> complex:
    """(2z/(z+1))^V det(C + i v (z-1)/(z+1) I) at one point, in z's own scalar arithmetic."""
    nv = g.num_vertices
    shift = 1j * g.regular_degree * (z - 1.0) / (z + 1.0)
    return complex((2.0 * z / (z + 1.0)) ** nv * determinant(g.adjacency_matrix() + shift * np.eye(nv)))


def functional_equation_measure(g: Graph, zs) -> float:
    """Largest |gamma(1/z) - conj(gamma(conj(z)))| / max(1, |gamma(1/z)|) over the points z."""
    nv = g.num_vertices

    def gamma(w):
        return np.exp(0.5 * nv * np.log(w)) / reference_regular_zeta_z(g, w)

    worst = 0.0
    for z in zs:
        lhs = gamma(1.0 / z)
        worst = max(worst, float(abs(lhs - np.conj(gamma(np.conj(z)))) / max(1.0, abs(lhs))))
    return worst


def no_backscatter_secular_measure(g: Graph, mus) -> float:
    """Largest relative gap between det(I - mu M) and (1 - u^2)^(B-V) det(I - uC + u^2 Q),
    u = mu/(v-1), over the points, one point at a time."""
    m = no_backscatter_map(g).matrix
    c = g.adjacency_matrix()
    q = np.diag(g.degrees().valency.astype(float) - 1.0)
    n = g.num_vertices
    worst = 0.0
    for mu in mus:
        lhs = determinant(np.eye(len(m)) - mu * m)
        u = mu / (g.regular_degree - 1.0)
        rhs = complex((1.0 - u * u) ** (g.num_edges - n) * determinant(np.eye(n) - u * c + (u * u) * q))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    return worst


# -- eigenvectors by the bond lift, through the span's basis Q -----------------


def reference_span_basis(g: Graph, kind: str = "standard") -> np.ndarray:
    """Q, the orthonormal 2B x r basis of the uniform-mode span S, from the incidence SVDs.

    The leading V - c_b (V - c) left singular vectors of the unsigned (signed)
    incidence matrix, placed in the edge-pair coordinates (e_2k +- e_2k+1) /
    sqrt 2 (see `scattering._FixedPart.span`): the SVDs that give P and P^t.
    """
    space = directed_bonds(g)
    c, c_b = g.components()
    num_edges, v = g.num_edges, g.num_vertices
    edge = np.arange(num_edges)
    root_w = np.sqrt(space.bond_weight[::2]) if kind == "generalized" else np.ones(num_edges)
    basis = []
    for sign, rank in ((1.0, v - c_b), (-1.0, v - c)):
        incidence = np.zeros((num_edges, v))
        incidence[edge, space.origin[::2]] = root_w
        incidence[edge, space.terminus[::2]] = sign * root_w
        half = np.linalg.svd(incidence, full_matrices=False)[0][:, :rank] / math.sqrt(2.0)
        # E+- column k is (e_2k +- e_2k+1) / sqrt 2: rows 2k and 2k + 1 of Q
        basis.append(np.stack([half, sign * half], axis=1).reshape(-1, rank))
    return np.hstack(basis)


def reference_eigenvectors(g: Graph, lam: float, kind: str = "standard") -> np.ndarray:
    """The eigenspace at lam, orthonormalized, lifted bond by bond from the null vectors of I - U_S.

    k is the zero count of the box lam +- 1e-8.  The k smallest right singular
    vectors v of I - U_S give bond amplitudes a = Q v, and each vertex sums its
    own bonds: psi_i = (1/deg_i) sum_{d: origin(d)=i} sqrt(w_d) (a_d e^{i pi/4}
    + a_rev(d) e^{-i pi/4}).
    """
    space = directed_bonds(g)
    k = _ZeroCounter(g, kind).box(lam)
    vh = np.linalg.svd(_minus_u_on_span(g, kind, vertex_coefficients(g, lam, kind)))[2]
    a = reference_span_basis(g, kind) @ vh[len(vh) - k:].conj().T
    root_w = np.sqrt(space.bond_weight) if kind == "generalized" else np.ones(space.num_bonds)
    out = space.by_origin
    contrib = root_w[out, None] * (
        a[out] * np.exp(1j * np.pi / 4) + a[space.reversal[out]] * np.exp(-1j * np.pi / 4)
    )
    psis = np.add.reduceat(contrib, space.offsets[:-1], axis=0) / degree_vector(g, kind)[:, None]
    q, r = np.linalg.qr(psis)
    return q[:, np.abs(np.diag(r)) > 1e-10]

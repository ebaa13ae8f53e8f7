"""Zeta functions on graphs: spectral, Ihara, Stark, and the regular z-form.

The spectral zeta pairs a product over all primitive periodic orbits with
a closed determinant form; the Ihara zeta does the same for
back-scatter-free orbits with the classical three-term determinant; the
Stark edge zeta generalizes the latter to arbitrary bond weights.  Each
supplies the orbit traces t_n = tr T^n of its transfer operator (U, u times
the non-backtracking matrix, or the Stark matrix Y) to one core,
:func:`_cycle_expansion`, which expands the product in pseudo-orbits
(Artuso, Aurell & Cvitanovic, Nonlinearity 3 (1990) 325); det(I - T) has
degree 2B, so the expansion is exact once the truncation reaches 2B.  Each
evaluation reports both sides, the plain Euler product and the truncation
diagnostics so that no disagreement is ever hidden.  The back-scatter-free
orbit counts come exactly from the determinant's Bass form on 2V x 2V.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SpectralPoleError
from .graph import DirectedBondSpace, Graph, directed_bonds, nonbacktracking_matrix
from .laplacian import build_laplacian, char_poly_value, degree_vector
from .linalg import determinant, eig_general
from .orbits import (
    OrbitCatalog,
    _preflight_counts,
    _trace_powers,
    bulk_amplitudes,
    enumerate_orbits,
)
from .scattering import _det_identity_minus_u, _per_point


@dataclass
class ZetaEvaluation:
    """A cycle-expanded orbit product next to its determinant reference.

    ``value`` is the product side (of the reciprocal zeta), expanded in
    pseudo-orbits and cut at total length ``truncation_length``;
    ``det_value`` is the determinant side; ``convergence_gap`` is |c_N| /
    |value|, the relative size of the last expansion term.
    ``euler_value`` is the plain Euler product over the same primitive
    orbits, kept as a diagnostic: it converges far more slowly than
    ``value``, or not at all.  ``warning`` flags evaluations outside the
    guaranteed convergence region; the numbers are still reported.
    """

    value: complex
    det_value: complex
    truncation_length: int
    convergence_gap: float
    euler_value: complex
    warning: str | None = None

    @property
    def relative_error(self) -> float:
        return self._error_of(self.value)

    @property
    def euler_relative_error(self) -> float:
        return self._error_of(self.euler_value)

    def _error_of(self, value: complex) -> float:
        if self.det_value == 0:
            return float("inf")
        return abs(value - self.det_value) / abs(self.det_value)


def _cycle_expansion(
    traces: np.ndarray, euler: complex, det_value: complex, warning: str | None
) -> ZetaEvaluation:
    """det(I - zT) = sum_n c_n z^n at z = 1, cut at N, from t_n = tr T^n, n <= N.

    Newton's identities give c_0 = 1 and n c_n = -sum_{k=1..n} t_k c_{n-k}
    (t_0 is not read); value = sum_{n <= N} c_n, gap = |c_N| / |value|.
    """
    truncation = traces.size - 1
    coeffs = np.zeros(truncation + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    for n in range(1, truncation + 1):
        coeffs[n] = -np.dot(traces[1 : n + 1], coeffs[n - 1 :: -1]) / n
    value = complex(coeffs.sum())
    return ZetaEvaluation(
        value=value,
        det_value=det_value,
        truncation_length=truncation,
        convergence_gap=abs(coeffs[truncation]) / max(abs(value), 1e-300),
        euler_value=euler,
        warning=warning,
    )


# -- spectral zeta -----------------------------------------------------------


def spectral_zeta_det(g: Graph, lam: complex, kind: str = "standard") -> complex:
    """Determinant form det(lambda I - L) / prod_j (deg_j + i(deg_j - lambda)).

    Note the sign convention: the orbit product det(I - U) equals
    2^B i^V det(lambda I - L) divided by the conjugate-signed product
    prod_j (deg_j - i(deg_j - lambda)), so this function and det(I - U)
    differ by the lambda-dependent factor 2^B (-i)^V det U(lambda).
    See :func:`secular_ratio_constant` for the exactly constant ratio.
    """
    deg = degree_vector(g, kind)
    lap = build_laplacian(g, kind)
    denom = np.prod(deg + 1j * (deg - lam))
    if abs(denom) < 1e-300:
        raise SpectralPoleError(f"denominator pole at lambda={lam}")
    return complex(char_poly_value(lap, lam) / denom)


def secular_ratio_constant(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> complex | np.ndarray:
    """det(I - U) * prod_j(deg_j - i(deg_j - lambda)) / det(lambda I - L).

    Exactly constant in lambda; equals 2^B i^V for every graph (measured
    and asserted in the tests rather than assumed).  A stack of lambda gives
    an array of its shape: one batched determinant per side.
    """
    deg = degree_vector(g, kind)
    lap = build_laplacian(g, kind)
    det_iu = _det_identity_minus_u(g, lam, kind)
    denom = np.prod(deg - 1j * (deg - np.asarray(lam)[..., None]), axis=-1)
    return _per_point(lambda p, d, c: d * p / c, denom, det_iu, char_poly_value(lap, lam))


def spectral_zeta_product(
    catalog: OrbitCatalog,
    g: Graph,
    lam: complex,
    truncation: int,
    kind: str = "standard",
) -> ZetaEvaluation:
    """Orbit product prod_p (1 - a_p) by cycle expansion, cut at total length N.

    The orbit traces t_n = tr U^n (see :func:`trace_power_from_orbits`) go
    through :func:`_cycle_expansion`; the value equals det(I - U(lambda))
    up to rounding once N >= 2B, whatever Im lambda is.  For Im lambda >= 0
    a warning is raised: there the Euler product, and the partial sum for
    N < 2B, carry no convergence guarantee.

    ``euler_value`` converges only at an O(1/N) rate: U(lambda) carries
    lambda-independent eigenvalues on the unit circle, -i with multiplicity
    B - V + c and +i with multiplicity B - V + c_b (c components, c_b of
    them bipartite; B - V + 1 and B - V + beta on a connected graph, beta = 1
    when it is bipartite), so the length-n primitive amplitude sums decay like 1/n
    instead of geometrically.  A catalog enumerated on a graph other than g
    raises ValueError, as does a no-backtrack catalog.
    """
    catalog.require_depth(truncation)
    catalog.require_graph(g)
    catalog.require_full()
    warning = None
    if lam.imag >= 0:
        warning = (
            "Im lambda >= 0: convergence of the Euler product and of the"
            " pseudo-orbit sum below 2B not guaranteed"
        )
        warnings.warn(warning, UserWarning, stacklevel=2)
    lengths, _, amps = bulk_amplitudes(catalog, lam, kind, max_length=truncation)
    return _cycle_expansion(
        _trace_powers(lengths, amps, truncation),
        complex(np.prod(1.0 - amps)),
        _det_identity_minus_u(g, lam, kind),
        warning,
    )


# -- Ihara zeta ---------------------------------------------------------------


def ihara_zeta_det(g: Graph, u: complex) -> complex:
    """Reciprocal Ihara zeta: (1 - u^2)^(B-V) det(I - uC + u^2 Q), Q = D - I.

    Bass's identity holds on every finite graph, connected or not; on a
    connected one B - V is r - 1, r the cycle rank.
    """
    c = g.adjacency_matrix()
    q = np.diag(g.degrees().valency.astype(float) - 1.0)
    n = g.num_vertices
    det = determinant(np.eye(n) - u * c + (u * u) * q)
    return complex((1.0 - u * u) ** (g.num_edges - n) * det)


def ihara_zeta_product(
    catalog: OrbitCatalog, u: complex, truncation: int
) -> ZetaEvaluation:
    """Reciprocal Ihara zeta from orbit counts, against the determinant form.

    The back-scatter-free orbit counts |C(m)| alone give the traces
    t_n = u^n tr B^n = u^n sum_{m|n} m |C(m)| of the non-backtracking
    matrix B, and :func:`_cycle_expansion` turns them into det(I - uB),
    exact once truncation >= 2B.  ``euler_value`` is the plain product
    prod_n (1 - u^n)^{|C(n)|} over n <= truncation.
    """
    catalog.require_depth(truncation)
    closed_walks = np.zeros(truncation + 1)  # tr B^n
    euler = 1.0 + 0.0j
    for m in range(2, truncation + 1):
        cm = catalog.count_no_backtrack(m)
        if cm:
            closed_walks[m::m] += m * cm
            euler *= (1.0 - u ** m) ** cm
    warning = None
    rho = catalog.space.nonbacktracking_radius
    if rho * abs(u) >= 1.0:
        warning = f"|u| * rho(non-backtracking matrix) = {rho * abs(u):.3f} >= 1"
        warnings.warn(warning, UserWarning, stacklevel=2)
    traces = closed_walks * complex(u) ** np.arange(truncation + 1)
    return _cycle_expansion(traces, euler, ihara_zeta_det(catalog.space.graph, u), warning)


# -- Stark edge zeta -----------------------------------------------------------


def stark_matrix(space: DirectedBondSpace, eta: np.ndarray) -> np.ndarray:
    """Y[d', d] = eta[d', d] where the non-backtracking matrix B[d', d] = 1, else 0."""
    n = space.num_bonds
    eta = np.asarray(eta, dtype=np.complex128)
    if eta.shape != (n, n):
        raise ValueError(f"eta must be ({n}, {n}), got {eta.shape}")
    return eta * nonbacktracking_matrix(space)


def stark_zeta(
    space: DirectedBondSpace,
    eta: np.ndarray,
    truncation: int,
    catalog: OrbitCatalog | None = None,
) -> ZetaEvaluation:
    """Edge zeta with arbitrary weights: det(I - Y) against prod_c (1 - f_c).

    f_c is the cyclic product of eta entries along each back-scatter-free
    primitive orbit of period <= truncation.  Their traces t_n = tr Y^n go
    through :func:`_cycle_expansion`, exact once truncation >= 2B;
    ``euler_value`` is the plain product.  The spectral radius of Y is
    reported as a warning when it reaches 1.  A catalog enumerated on a
    graph other than space.graph raises ValueError.
    """
    y = stark_matrix(space, eta)
    if catalog is None:
        catalog = enumerate_orbits(space, truncation, no_backtrack=True)
    catalog.require_depth(truncation)
    catalog.require_graph(space.graph)
    lengths, betas = catalog._flat_columns(truncation)
    weights = [np.zeros(0, dtype=np.complex128)]
    for n in range(2, truncation + 1):
        block = catalog._blocks.get(n)
        if block is None:
            continue
        rows = block.walks[block.beta == 0]
        f = np.ones(rows.shape[0], dtype=np.complex128)
        for k in range(n):
            f *= y[rows[:, (k + 1) % n], rows[:, k]]
        weights.append(f)
    f = np.concatenate(weights)
    warning = None
    rho = float(np.max(np.abs(eig_general(y).eigenvalues), initial=0.0))
    if rho >= 1.0:
        warning = f"rho(Y) = {rho:.3f} >= 1: Euler product diverges"
        warnings.warn(warning, UserWarning, stacklevel=2)
    return _cycle_expansion(
        _trace_powers(lengths[betas == 0], f, truncation),
        complex(np.prod(1.0 - f)),
        determinant(np.eye(space.num_bonds) - y),
        warning,
    )


# -- regular-graph z-form --------------------------------------------------------


def regular_zeta_z(g: Graph, z: complex) -> complex:
    """Reciprocal zeta of a v-regular graph in the z variable.

    z = e^{i alpha}(lambda), the phase every vertex of a v-regular graph
    shares (`scattering_phases`); the unit circle is the real lambda axis.
    (2z/(z+1))^V det(C + i v (z-1)/(z+1) I).  Zeros sit at the images of
    the Laplacian eigenvalues.  Related to the determinant form in lambda
    by an explicit bridge factor v^V n^2V with n = 2z/(z+1); the product
    normalizations of the two conventions differ, the zero sets agree.
    """
    v = g.regular_degree
    if z == -1:
        raise ValueError("z = -1 is a pole of the normalization")
    c = g.adjacency_matrix()
    shift = 1j * v * (z - 1.0) / (z + 1.0)
    nv = g.num_vertices
    pref = (2.0 * z / (z + 1.0)) ** nv
    return complex(pref * determinant(c + shift * np.eye(nv)))


BRANCH_CUT_TOL = 1e-9


def functional_equation_defect(g: Graph, z: complex) -> float:
    """|gamma(1/z) - conj(gamma(conj(z)))| / max(1, |gamma(1/z)|).

    gamma(z) = z^{V/2} / regular_zeta_z(z).  The difference vanishes
    identically; the defect measures floating error.  gamma has
    poles at the images of the spectrum on the unit circle, so the
    difference is taken relative to |gamma(1/z)| once that exceeds 1: next
    to a pole the absolute difference of two correct values grows with
    |gamma| and says nothing about the identity.  The principal branch of
    z^{V/2} is used, and proximity to its cut on the negative real axis
    (odd V only) is flagged with a warning.
    """
    if z == 0:
        raise ValueError("z = 0 is outside the functional-equation domain")
    nv = g.num_vertices
    if nv % 2 and abs(abs(np.angle(z)) - np.pi) < BRANCH_CUT_TOL:
        warnings.warn(
            "z is within 1e-9 of the z^{V/2} branch cut", UserWarning, stacklevel=2
        )

    def gamma(w: complex) -> complex:
        return np.exp(0.5 * nv * np.log(w)) / regular_zeta_z(g, w)

    lhs = gamma(1.0 / z)
    return float(abs(lhs - np.conj(gamma(np.conj(z)))) / max(1.0, abs(lhs)))


# -- orbit counts from the determinant ------------------------------------------


def nonbacktracking_counts_from_determinant(g: Graph, n_max: int) -> list[int]:
    """|C(n)| for n <= n_max read off the Ihara determinant, as exact integers.

    -log of the reciprocal zeta det(I - uB) is sum_n tr(B^n) u^n / n, and
    Bass's form (1 - u^2)^(B-V) det(I - uT), T = [[A, I - D], [I, 0]],
    puts its coefficients on the 2V x 2V matrix T: tr B^n = tr T^n +
    2(B - V)[n even].  The traces are integers, propagated exactly (see
    :func:`.orbits._closed_walks`), and Moebius-inverted to primitive
    counts.  Returns the counts indexed 0..n_max.
    """
    counts = _preflight_counts(directed_bonds(g), n_max, True, math.inf)
    return [0, 0] + [counts[n] for n in range(2, n_max + 1)]

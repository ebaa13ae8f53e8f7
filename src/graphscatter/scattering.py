"""Vertex scattering matrices, the bond evolution operator, and the secular function.

The evolution operator U(lambda) acts on the 2B directed-bond amplitudes.
This module is where the vertex scattering amplitudes sigma are defined,
once, as the entries of

    U(lambda) = i (R - K diag(coef[terminus])),  coef_j = (1 + e^{i alpha_j}) / deg_j,

with R the bond reversal and K nonzero where d' may follow d (entries
sqrt(w_d' w_d) for the generalized kind, 1 for the standard kind).  coef is
the only lambda-dependent part: the rest (`_fixed_part`) is built once per
graph and kind, and each call scatters coef onto the bond space's sparse
transition list; no dense K or R exists.  K diag(coef[terminus]) is a sum
of V rank-one terms, vertex j's outgoing uniform mode times coef_j times its
incoming one.  So det(I - U) is 2^B times the determinant of a V x V
matrix (`_vertex_matrix`, by the matrix determinant lemma), and U depends
on lambda only on the span of those modes, r = 2V - c - c_b dimensions for
c components, c_b of them bipartite, and is i R on the rest (Kottos &
Smilansky, Ann. Phys. 274 (1999) 76).  The secular function and the zeta
determinants take the V x V determinant; the zero scan's counts and SVDs
and the eigenvector reconstruction, which need the eigenvalues or singular
values of I - U, work on its r x r restriction I - U_S (`_minus_u_on_span`).
On the real axis U_S is unitary, and the counts read its eigenphases from a
Hermitian eigenproblem, its Cayley transform i (I + U_S)(I - U_S)^-1
(`_cayley_eigenvalues`).  Only `evolution_operator` forms the 2B x 2B U.
The lambda part takes one point or a stack of them (an array of any shape):
a stack is assembled as one (..., n, n) array for one batched LAPACK call,
each point bit for bit its own call, and callers cut long stacks to
_STACK_BYTES of the n x n matrices they form, V x V for Z and r x r for the
SVDs (`_stacks`).  The zero scan takes Z on its grid as stacks, then one
stack per round of Brent's method, run on all the grid's brackets in
lockstep (`_brent_lockstep`), and the SVDs of its zeros as stacks.  The
vertex scattering matrix sigma^(j) is the block U[outgoing(j), incoming(j)],
and every orbit amplitude is a product of U's entries.  For real lambda U
is unitary, and the stationary directions of U mark exactly the Laplacian
eigenvalues; the secular function built from det(I - U) is real on the
real axis and vanishes on the spectrum with the right multiplicities.
Eigenvectors on the vertices are recovered from the stationary bond
amplitude vectors, in the span's coordinates.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from collections.abc import Generator, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedGraphError, NullSpaceError, SpectralPoleError
from .graph import DirectedBondSpace, Graph, _read_only, directed_bonds
from .laplacian import build_laplacian, degree_vector, laplacian_spectrum
from .linalg import determinant

POLE_GUARD = 1e-12
NULL_SPACE_TOL = 1e-6
RECONSTRUCT_RESIDUAL_TOL = 1e-7
REFINE_TOL = 1e-10  # absolute tolerance of the zero scan's roots
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # relative tolerance of `_brent_steps`
# U is normal, so rounding moves its eigenvalues by a small multiple of 2B
# eps: an eigenvalue mu of I - U_S within ON_ZERO_TOL x 2B of 0 may lie on
# either side of it, and x sits on a zero.  The count reads the eigenphases
# from X = (I - U_S)^-1, exact only to eps ||X|| = eps / min |mu|, so each
# moves by up to that (the phase of mu itself by about eps):
# tests/test_scattering.py::TestHermitianStaircase bounds the staircase's gap
# to zgeev's by 2B eps / min |mu|, that is by 1/8 wherever this guard lets a
# point through, and a count, the difference of two, still rounds right.
ON_ZERO_TOL = 8.0 * float(np.finfo(float).eps)
# Bytes of the n x n complex matrices formed for one stack of lambdas, n = V for
# Z, r for I - U_S and 2B for U (see `_stacks`).  Past this the identity suite's transients
# raise peak RSS more than stacking saves: 1 MiB stacks of (2B)^2 matrices read
# 3.5 MB more on the verify benchmark for 4 % less time.
_STACK_BYTES = 1 << 18


def scattering_phases(g: Graph, lam: complex | np.ndarray, kind: str = "standard") -> np.ndarray:
    """Per-vertex phase factors e^{i alpha_j}(lambda), shape lam.shape + (V,).

    e^{i alpha_j} = (1 + i(1 - lambda/deg_j)) / (1 - i(1 - lambda/deg_j)),
    where deg_j is the (weighted) valency.  Unimodular for real lambda.
    Raises near the V complex poles where the denominator vanishes.
    """
    return _vertex_factors(g, lam, kind)[0]


def vertex_coefficients(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> np.ndarray:
    """coef_j(lambda) = (1 + e^{i alpha_j}) / deg_j, the lambda-dependent part of U.

    A step through vertex j transmits with amplitude -i coef_j (times
    sqrt(w_d' w_d) for the generalized kind) and back-scatters with
    i (1 - coef_j w_d).
    """
    return _vertex_factors(g, lam, kind)[1]


@dataclass(frozen=True)
class _FixedPart:
    """The lambda-independent part of U for one graph and kind; every array read-only.

    The transitions [d', d] are kept with the 2B back-scatters [reversal(d), d]
    last, so the i of the bond reversal is added to a slice of the steps.
    The span of the uniform modes (`span`) is built on first use.
    """

    deg: np.ndarray  # float degrees, all positive
    index: np.ndarray  # per transition: its flat position d' * 2B + d
    step_vertex: np.ndarray  # per transition: the vertex it passes, terminus(d)
    step_weight: np.ndarray | None  # per transition: sqrt(w_d' w_d); None for the standard kind
    vertex_index: np.ndarray  # per bond d: its flat position terminus(d) * V + origin(d) in V x V
    space: DirectedBondSpace

    @functools.cached_property
    def span(self) -> _Span:
        """I - U on the span S of the vertices' uniform modes, the one part of U that moves.

        U = i R - i sum_j coef_j o_j iota_j^T, with o_j (iota_j) vertex j's
        outgoing (incoming) uniform mode: 1, or sqrt(w_d) for the generalized
        kind, on each bond leaving (entering) j.  R swaps o_j and iota_j, so S
        = span{o_j, iota_j} and its complement are both invariant, and U = i R
        on the complement.  In the edge-pair coordinates E+- = (e_2k +- e_2k+1)
        / sqrt 2, where R = diag(+1, -1), S is the column space of the
        unsigned incidence N+ (sqrt(w_k) at both ends of edge k) in E+ and
        of the signed one N- (+sqrt(w_k) at the lower end, -sqrt(w_k) at the
        upper) in E-.  Their ranks are structural, V - c_b and V - c (c
        components, c_b of them bipartite, from `Graph.components`), so the
        leading left singular vectors of each span S and no threshold
        decides the rank.  With Q that orthonormal basis (2B x r, r = 2V - c
        - c_b) and N = W Sigma X^T,

            I - U_S = Q^T (I - U) Q = diag(1 - i J) + i P diag(coef) P^t,

        P = Q^T [o_j] = [Sigma+ X+^T; Sigma- X-^T] / sqrt 2, P^t = [iota_j^T] Q
        = [X+ Sigma+, -X- Sigma-] / sqrt 2 and J = diag(+1 x (V - c_b), -1 x
        (V - c)).  On the complement I - U is 1 - i (E+) and 1 + i (E-).
        Q itself is not stored: a vector Q v of S meets the uniform modes
        only through P and P^t, o_j^T Q v = (P^T v)_j and iota_j^T Q v =
        (P^t v)_j (see `reconstruct_eigenvectors`).
        """
        space, w = self.space, self.space.bond_weight[::2]
        c, c_b = space.graph.components()
        num_edges, v = w.size, space.graph.num_vertices
        edge, lower, upper = np.arange(num_edges), space.origin[::2], space.terminus[::2]
        root_w = np.sqrt(w) if self.step_weight is not None else np.ones(num_edges)
        p, j = [], []
        for sign, rank in ((1.0, v - c_b), (-1.0, v - c)):
            incidence = np.zeros((num_edges, v))
            incidence[edge, lower] = root_w
            incidence[edge, upper] = sign * root_w
            _, sigma, x_t = np.linalg.svd(incidence, full_matrices=False)
            p.append(sigma[:rank, None] * x_t[:rank] / math.sqrt(2.0))
            j.append(np.full(rank, sign))
        p, j = np.vstack(p), np.concatenate(j)
        return _Span(
            p=_read_only(p),
            pt=_read_only(np.ascontiguousarray((j[:, None] * p).T)),
            diag=_read_only(1.0 - 1j * j),
        )


class _Span(NamedTuple):
    """I - U(lambda) restricted to the span S of the uniform modes (see `_FixedPart.span`)."""

    p: np.ndarray  # P, (r, V): column j is Q^T o_j
    pt: np.ndarray  # P^t, (V, r): row j is iota_j^T Q
    diag: np.ndarray  # 1 - i J, (r,)


def _fixed_part(g: Graph, kind: str) -> _FixedPart:
    """The fixed part of U for (g, kind), built on first use and kept on the bond space."""
    space = directed_bonds(g)
    if kind not in space._per_kind:
        deg = degree_vector(g, kind)  # rejects an unknown kind before anything is kept
        if not deg.all():  # degrees are >= 0: an isolated vertex has no bond to scatter on
            raise DisconnectedGraphError(f"vertex {int(np.argmin(deg))} is isolated")
        column = space.transition_column
        back = space.transition_index // space.num_bonds == space.reversal[column]
        order = np.argsort(back, kind="stable")  # the back-scatters last
        space._per_kind[kind] = _FixedPart(
            _read_only(deg),
            _read_only(space.transition_index[order]),
            _read_only(space.terminus[column[order]]),
            _read_only(space.transition_weight[order]) if kind == "generalized" else None,
            _read_only(space.terminus * g.num_vertices + space.origin),
            space,
        )
    return space._per_kind[kind]


def _vertex_factors(
    g: Graph, lam: complex | np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """(e^{i alpha_j}, coef_j), the lambda part of U, on the degrees of the fixed part.

    lam is one point or a stack of any shape; both factors come back with
    shape lam.shape + (V,), each row bit for bit the one point's.
    """
    x = np.asarray(lam)
    # one point stays 0-d and goes to cmath: numpy's finiteness test of a 0-d
    # array and a (1,) broadcast would add a tenth to the scalar call
    if not (np.isfinite(x).all() if x.ndim else cmath.isfinite(lam)):
        raise ValueError(f"lambda={_offender(lam, ~np.isfinite(x)[..., None])[0]} is not finite")
    deg = _fixed_part(g, kind).deg
    it = 1j * (1.0 - (x[..., None] if x.ndim else x) / deg)
    denom = 1.0 - it
    size = np.abs(denom)
    if size.min() < POLE_GUARD:
        at, j = _offender(lam, size < POLE_GUARD)
        raise SpectralPoleError(
            f"lambda={at} is within {POLE_GUARD} of the evolution-operator pole "
            f"at vertex {j} (degree {deg[j]})"
        )
    phases = (1.0 + it) / denom
    return phases, (1.0 + phases) / deg


def _offender(lam: complex | np.ndarray, bad: np.ndarray) -> tuple[complex, int]:
    """(lambda, vertex) of the first True in bad, of shape lam.shape + (V,), in stack order."""
    *at, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (np.asarray(lam)[tuple(at)].item() if at else lam), int(j)


def _per_point(f, *values) -> complex | np.ndarray:
    """f of the values at each point of a stack, in numpy's scalar arithmetic.

    One point's call computes f on scalars; numpy's array complex multiply
    may round differently, so a stack's values go through f one point at a
    time.  A complex for scalar values, else an array of their shape.
    """
    if not isinstance(values[0], np.ndarray):
        return complex(f(*values))
    points = zip(*(np.asarray(v).flat for v in values))
    return np.array([f(*p) for p in points]).reshape(values[0].shape)


def _stacks(lams: np.ndarray | list[float], n: int) -> Iterator[np.ndarray]:
    """lams cut into stacks whose n x n complex matrices fill _STACK_BYTES (one at least).

    n is the size of the matrices the caller forms at each point: V for Z,
    det(lambda - L) and the ratio of the two, r for I - U_S, 2B for U.
    """
    lams = np.asarray(lams)
    rows = max(1, _STACK_BYTES // (16 * n * n))
    return (lams[i : i + rows] for i in range(0, lams.size, rows))


@dataclass
class EvolutionOperator:
    """The 2B x 2B bond evolution operator U(lambda), or a stack (..., 2B, 2B) of them.

    U[d', d] is nonzero only when d' follows d, i.e. terminus(d) ==
    origin(d'); the entry is the scattering amplitude of the shared vertex.
    Unitary for real lambda.
    """

    matrix: np.ndarray
    space: DirectedBondSpace

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def unitarity_defect(self) -> float:
        """max |U U^H - I| over the entries of every matrix of the stack."""
        u, n = self.matrix, self.dim
        gram = u @ u.conj().swapaxes(-1, -2)
        gram.reshape(gram.shape[:-2] + (n * n,))[..., :: n + 1] -= 1.0  # in place: no second stack
        return float(np.max(np.abs(gram)))


def evolution_operator(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> EvolutionOperator:
    """Assemble U(lambda) = i (R - K diag(coef[terminus])) in the canonical bond order.

    The steps (see `_steps`), with i added at each [reversal(d), d], are
    scattered onto every allowed [d', d] of the transition list.  A stack of
    lambda gives a stack of matrices, shape lam.shape + (2B, 2B).
    """
    coef = vertex_coefficients(g, lam, kind)
    space, fixed = directed_bonds(g), _fixed_part(g, kind)
    n, stack = space.num_bonds, coef.shape[:-1]
    at = (slice(None),) * len(stack)  # u[at + (i,)] is u[..., i], minus numpy's Ellipsis cost
    step = _steps(fixed, coef, at)
    step[..., -n:] += 1j  # the back-scatters
    u = np.zeros(stack + (n * n,), dtype=np.complex128)
    u[at + (fixed.index,)] = step
    return EvolutionOperator(matrix=u.reshape(stack + (n, n)), space=space)


def _minus_u_on_span(g: Graph, kind: str, coef: np.ndarray) -> np.ndarray:
    """I - U_S = diag(1 - i J) + i P diag(coef) P^t, I - U on the span (see `_FixedPart.span`).

    r x r, r = 2V - c - c_b, where I - U is 2B x 2B; coef is
    vertex_coefficients(g, lam, kind), and coef of shape (..., V) gives a
    stack (..., r, r), each matrix bit for bit the one point's.
    """
    span = _fixed_part(g, kind).span
    r = span.diag.size
    # P and P^t are real: i P diag(coef) P^t is two real products, half a complex one's work
    m = np.empty(coef.shape[:-1] + (r, r), dtype=np.complex128)
    m.real = (span.p * -coef.imag[..., None, :]) @ span.pt
    m.imag = (span.p * coef.real[..., None, :]) @ span.pt
    m.reshape(m.shape[:-2] + (r * r,))[..., :: r + 1] += span.diag
    return m


def _vertex_matrix(g: Graph, kind: str, phases: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """M = diag((1 - e^{i alpha}) / 2) + (i/2) A diag(coef), V x V, with det(I - U) = 2^B det M.

    U = i R - i O diag(coef) I^t, with O's columns the outgoing uniform
    modes o_j and I^t's rows the incoming ones iota_j^T (see
    `_FixedPart.span`).  R^2 = 1, so (I - i R)^{-1} = (I + i R) / 2, and
    the matrix determinant lemma gives

        det(I - U) = det(I - i R) det(1 + I^t (I + i R) O diag(i coef) / 2) = 2^B det M,

    as det(I - i R) = 2^B (a factor 1 - i^2 per edge), R o_j = iota_j, I^t
    [iota_j] = diag(deg), deg_j coef_j = 1 + e^{i alpha_j}, and I^t O = A,
    the adjacency matrix: A[k, j] = iota_k . o_j is w_d (1 for the standard
    kind) for the one bond d from j to k, as the graph is simple.  phases
    and coef are `_vertex_factors(g, lam, kind)`; a stack of them gives a
    stack (..., V, V), each matrix bit for bit the one point's.  Scattered
    from the bonds: no product of matrices.
    """
    fixed = _fixed_part(g, kind)
    v, stack = coef.shape[-1], coef.shape[:-1]
    at = (slice(None),) * len(stack)  # m[at + (i,)] is m[..., i], minus numpy's Ellipsis cost
    entry = (0.5j * coef)[at + (fixed.space.origin,)]
    if fixed.step_weight is not None:
        entry *= fixed.space.bond_weight
    m = np.zeros(stack + (v * v,), dtype=np.complex128)
    m[at + (fixed.vertex_index,)] = entry
    m[..., :: v + 1] += 0.5 * (1.0 - phases)
    return m.reshape(stack + (v, v))


def _det_identity_minus_u(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> complex | np.ndarray:
    """det(I - U(lambda)) = 2^B det M (see `_vertex_matrix`).

    A stack of lambda gives an array of lam's shape, each value bit for bit
    the one point's.  Past B = 1023 the factor 2^B is inf, and so the value
    is not finite.
    """
    det = determinant(_vertex_matrix(g, kind, *_vertex_factors(g, lam, kind)))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.ldexp(1.0, g.num_edges)
        return _per_point(lambda d: scale * d, det)


def _steps(fixed: _FixedPart, coef: np.ndarray, at: tuple) -> np.ndarray:
    """-i coef at the vertex each transition passes (times sqrt(w_d' w_d) for the generalized kind)."""
    step = (-1j * coef)[at + (fixed.step_vertex,)]
    if fixed.step_weight is not None:
        step *= fixed.step_weight
    return step


def evolution_determinant_closed_form(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> complex | np.ndarray:
    """det U(lambda) in closed form: (-1)^V times the product of the vertex phases.

    The parity factor is forced by the block structure of U (verified
    against the LU determinant on every fixture; it matters only for odd
    V).  The product alone has exactly V complex poles.  A stack of lambda
    gives an array of lam's shape.
    """
    phases = scattering_phases(g, lam, kind)
    sign = -1.0 if g.num_vertices % 2 else 1.0
    det = sign * np.prod(phases, axis=-1)
    return complex(det) if det.ndim == 0 else det


def secular_function(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> complex | np.ndarray:
    """The normalized secular function built from the evolution operator.

    Z(lambda) = 2^{-B} (det U)^{-1/2} det(I - U), with the square root taken
    as (-i)^V times the product of per-vertex half phases (principal
    branch), never as a global square root of the determinant.  This branch
    makes Z real on the real axis for every graph, zero exactly on the
    Laplacian spectrum, and Z -> 1 as lambda -> +infinity.  A stack of
    lambda gives an array of lam's shape: one assembly of the M stack and one
    batched determinant, each value bit for bit the one point's.  2^{-B}
    det(I - U) is det M, V x V (see `_vertex_matrix`), so Z = (-i)^V
    prod_j e^{-i alpha_j / 2} det M.
    """
    phases, coef = _vertex_factors(g, lam, kind)
    if not phases.all():  # e^{i alpha_j} = 0 at deg_j (1 - i), a pole of (det U)^{-1/2}
        at, j = _offender(lam, phases == 0)
        raise SpectralPoleError(f"lambda={at} is the pole of (det U)^(-1/2) at vertex {j}")
    half = np.prod(np.exp(-0.5 * np.log(phases)), axis=-1)  # principal branch per vertex
    det = determinant(_vertex_matrix(g, kind, phases, coef))
    scale = (-1j) ** g.num_vertices
    return _per_point(lambda h, d: scale * h * d, half, det)


def stationarity_gap(
    g: Graph, lam: complex | np.ndarray, kind: str = "standard"
) -> float | np.ndarray:
    """Smallest singular value of I - U(lambda); zero marks an eigenvalue.

    The singular values of I - U are those of I - U_S (see `_FixedPart.span`)
    and |1 -+ i| = sqrt 2 on the complement of the span, when it is not empty.
    A stack of lambda gives an array of lam's shape: one batched SVD, each
    value bit for bit the one point's.
    """
    m = _minus_u_on_span(g, kind, vertex_coefficients(g, lam, kind))
    gap = np.linalg.svd(m, compute_uv=False)[..., -1]
    if 2 * g.num_edges > m.shape[-1]:
        gap = np.minimum(gap, math.sqrt(2.0))
    return float(gap) if gap.ndim == 0 else gap


@dataclass
class SecularZero:
    """One zero of the secular function found on the real axis."""

    lam: float
    multiplicity: int
    singular_value: float


def secular_zero_scan(
    g: Graph,
    kind: str = "standard",
    lam_min: float | None = None,
    lam_max: float | None = None,
    grid_per_vertex: int = 10,
) -> list[SecularZero]:
    """Find all real zeros of the secular function, with multiplicities.

    The zeros in [lam_min, lam_max] (the Gershgorin interval of the
    Laplacian by default) are counted once, from the eigenphases of U at the
    two ends: on the real axis U is unitary and its eigenphases only fall as
    lambda grows (U' = U iH with H <= 0), so each zero of Z is one of them
    crossing 0 (see `secular_zero_count`).  Every zero returned is accounted
    for against that total; the count never forms det(lambda - L).
    A real grid of grid_per_vertex x V cells, evaluated in stacks, only locates
    the zeros: Brent's method refines every sign change on it to REFINE_TOL in
    lockstep (`_brent_lockstep`), one stack of Z per round holding the next
    point of each bracket, to the roots each bracket would reach alone.
    Roots closer than res = 100 REFINE_TOL form one cluster.  Each cluster
    holds at least one distinct zero, so when the clusters are as many as the
    total, every zero is simple and the scan is done.  Otherwise one recursion
    settles the range part by part, recursing only into parts whose count their
    clusters do not explain.  In a part of one or two cells the box lambda +-
    res of each cluster gives its multiplicity, and while the clusters fall
    short of the part's count a deflated search looks for another zero (see
    `_ZeroCounter.search`).  A part these leave unexplained is split by one
    rule, at the first point whose count resolves, largest |Z| first (far from
    any zero): the grid points near the middle of a part wider than two cells,
    then the part's quarter points, evaluated as one stack.  A part narrower
    than two boxes, or with no such point, reports its zeros as one, with the
    part's count as multiplicity.  The search evaluates Z alone; each zero
    returned has smallest singular value of I - U below NULL_SPACE_TOL, the one
    SVD per zero, the zeros' SVDs taken as stacks.  Every determinant is V x V
    (see `_vertex_matrix`); every count's inverse and Hermitian eigensolve
    (see `_ZeroCounter.staircase`) and every SVD is r x r, on the span of the
    uniform modes (see `_FixedPart.span`).  Raises ValueError unless lam_min <
    lam_max.
    """
    counter = _ZeroCounter(g, kind)
    if lam_min is None:
        lam_min = -1.0
    if lam_max is None:
        lam_max = float(2.0 * np.max(counter.deg) + 1.0)
    if not lam_min < lam_max:
        raise ValueError(f"empty interval [{lam_min}, {lam_max}]")
    n_grid = max(grid_per_vertex * g.num_vertices, 20)
    grid = np.linspace(lam_min, lam_max, n_grid + 1).tolist()
    z = counter.reals(grid)
    brackets = [(grid[i], grid[i + 1]) for i in range(n_grid) if z[i] * z[i + 1] < 0.0]
    found = _brent_lockstep(counter.reals, brackets, REFINE_TOL)

    def splits(a: float, b: float, lo: int, hi: int):
        """The split points of (a, b), largest |Z| first."""
        if hi - lo > 2:
            near = [i for i in range(lo + 1, hi) if abs(2 * i - lo - hi) <= max(2, (hi - lo) // 4)]
            yield from (grid[k] for k in sorted(near, key=lambda i: -abs(z[i])))
        if b - a > 2.0 * counter.res:  # evaluated only when the grid points fail
            quarters = [a + 0.25 * (b - a), 0.5 * (a + b), b - 0.25 * (b - a)]
            z_quarters = dict(zip(quarters, counter.reals(quarters)))  # one stack
            yield from sorted(quarters, key=lambda x: -abs(z_quarters[x]))

    def settle(a: float, b: float, n: int | None, roots: list[float]) -> list[tuple[float, int]]:
        """(lam, multiplicity) of the n zeros in (a, b), given zeros found there."""
        roots = [lam0 for lam0 in roots if a <= lam0 < b]
        lo, hi = bisect.bisect_right(grid, a) - 1, bisect.bisect_left(grid, b)
        wide = hi - lo > 2
        # the clusters explain n by themselves; a wide part is split before any
        # box is counted, as a box costs two count points and a split one
        clusters = counter.clusters(roots)
        if not wide or len(clusters) == n:
            zeros = counter.explain(roots, n)
            if zeros is not None:
                return zeros
        if not wide:
            hit = counter.search(a, b, roots)
            if hit is not None:
                return settle(a, b, n, roots + [hit])
        for x in splits(a, b, lo, hi):
            n_left = counter.count(a, x)
            if n is None or n_left is not None:
                n_right = counter.count(x, b) if n is None else n - n_left
                return settle(a, x, n_left, roots) + settle(x, b, n_right, roots)
        # one cluster the counts cannot split: it takes the part's count
        return [(roots[0] if roots else 0.5 * (a + b), n)]

    settled = settle(grid[0], grid[-1], counter.count(grid[0], grid[-1]), found)
    r = _fixed_part(g, kind).span.diag.size
    gaps = [s for stack in _stacks([lam0 for lam0, _ in settled], r)
            for s in stationarity_gap(g, stack, kind).tolist()]
    return [SecularZero(lam=lam0, multiplicity=mult, singular_value=smin)
            for (lam0, mult), smin in zip(settled, gaps) if smin < NULL_SPACE_TOL]


def secular_zero_count(g: Graph, lam_min: float, lam_max: float, kind: str = "standard") -> int:
    """Number of zeros of Z in (lam_min, lam_max), with multiplicity, from the eigenphases of U.

    On the real axis U is unitary and U' = U iH with H = sum_j alpha_j' P_j
    <= 0 (P_j projects onto vertex j's uniform mode), so every eigenphase
    of U falls as lambda grows, and each zero of Z is one of them crossing 0.
    With the eigenphases f_k taken in [0, 2 pi), a crossing adds 2 pi to
    sum_k f_k, which otherwise follows arg det U = sum_j alpha_j + pi V.  So
    the count is the rise of (sum_k f_k - sum_j alpha_j) / 2 pi over the
    interval: one Hermitian eigensolve at each end, whatever the interval's
    length, without det(lambda - L).  Only the eigenphases of U_S are
    computed (see `_FixedPart.span`), from its Cayley transform (see
    `_ZeroCounter.staircase`); U's others are +-i at every lambda.  Raises
    ValueError when an endpoint lies on a zero, where an eigenvalue of U is 1
    up to rounding.
    """
    a, b = float(lam_min), float(lam_max)
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    counter = _ZeroCounter(g, kind)
    n = counter.count(a, b)
    if n is None:
        raise ValueError(f"an endpoint of [{a}, {b}] lies on a zero of the secular function")
    return n


class _ZeroCounter:
    """Counts, clusters and searches for the real zeros of one graph's secular function.

    Counts come from the eigenphases of U_S, U on the span of the uniform
    modes (see `_FixedPart.span`), one r x r inverse and Hermitian eigensolve
    per point, cached (see `staircase`): on the real axis U is unitary and its
    eigenphases only fall as lambda grows (U' = U iH with H <= 0), so each
    zero of Z is one of them crossing 0.  Zeros closer than res = 100
    REFINE_TOL are one cluster; a cluster's multiplicity is the count of the
    box lam +- res around it.
    """

    res = 100.0 * REFINE_TOL

    def __init__(self, g: Graph, kind: str):
        self.g, self.kind = g, kind
        self.deg = _fixed_part(g, kind).deg
        self._reals: dict[float, float] = {}
        self._stairs: dict[float, float | None] = {}

    def real(self, lam: float) -> float:
        """Z(lam) for real lam, evaluated once per point."""
        if lam not in self._reals:
            self._reals[lam] = secular_function(self.g, lam, self.kind).real
        return self._reals[lam]

    def reals(self, xs: list[float]) -> list[float]:
        """Z at each real point of xs, kept for `real`; the points not yet known go as stacks."""
        todo = [x for x in dict.fromkeys(xs) if x not in self._reals]
        for stack in _stacks(todo, self.g.num_vertices):
            z = secular_function(self.g, stack, self.kind).real
            self._reals.update(zip(stack.tolist(), z.tolist()))
        return [self._reals[x] for x in xs]

    def staircase(self, x: float) -> float | None:
        """(sum_k f_k - sum_j alpha_j) / 2 pi at real x, f_k the eigenphases of U_S in (0, 2 pi).

        The eigenphases only fall as x grows (see `secular_zero_count`), so
        this rises by one at each zero of Z, once per multiplicity, and is
        flat between zeros.  U's other eigenphases, pi/2 and 3 pi/2 on the
        complement of the span, would only shift it by a constant.  U_S is
        unitary, so its Cayley transform H = i (I + U_S)(I - U_S)^-1 is
        Hermitian, with eigenvalues h_k = -cot(f_k / 2) (`_cayley_eigenvalues`):
        f_k = pi + 2 atan(h_k), and the eigenvalues mu_k = 1 - e^{i f_k} of
        I - U_S have |mu_k| = 2 / sqrt(1 + h_k^2).  None when some |mu_k| is
        below ON_ZERO_TOL x 2B, or I - U_S has no finite inverse: x sits on a
        zero, and which side of 1 the eigenvalue of U lies on is rounding
        noise.  The transform's pole is at +1, where that guard answers
        anyway; at -1 it would fall on the eigenphases at pi that a bipartite
        graph has beside its zeros.
        """
        if x not in self._stairs:
            phases, coef = _vertex_factors(self.g, x, self.kind)
            h = _cayley_eigenvalues(_minus_u_on_span(self.g, self.kind, coef))
            if h is None or np.min(2.0 / np.hypot(1.0, h)) < ON_ZERO_TOL * 2 * self.g.num_edges:
                self._stairs[x] = None
            else:
                turn = np.sum(np.pi + 2.0 * np.arctan(h)) - np.sum(np.angle(phases))
                self._stairs[x] = float(turn) / (2.0 * math.pi)
        return self._stairs[x]

    def count(self, a: float, b: float) -> int | None:
        """Zeros in (a, b), with multiplicity: the staircase's rise; None if a or b is on a zero."""
        sa, sb = self.staircase(a), self.staircase(b)
        return None if sa is None or sb is None else round(sb - sa)

    def box(self, lam: float) -> int | None:
        """Multiplicity of the cluster at lam: the count of (lam - res, lam + res)."""
        return self.count(lam - self.res, lam + self.res)

    def clusters(self, roots: list[float]) -> list[float]:
        """One representative root per group of roots closer than res."""
        out: list[float] = []
        for lam0 in sorted(roots):
            if not out or lam0 - out[-1] >= self.res:
                out.append(lam0)
        return out

    def is_new(self, lam: float, roots: list[float]) -> bool:
        """Whether lam is a zero (its box count is positive) outside the clusters of roots."""
        far = all(abs(lam - lam0) >= self.res for lam0 in self.clusters(roots))
        return far and bool(self.box(lam))

    def explain(self, roots: list[float], n: int | None) -> list[tuple[float, int]] | None:
        """(lam, multiplicity) of the zeros at `roots` if they account for n zeros, else None.

        Every root is a zero.  Roots that form n clusters are n simple zeros,
        since each cluster holds at least one distinct zero; otherwise the box
        counts of the clusters must add up to n.  With n None (an end of the
        part sits on a zero) the box counts are taken as they are.
        """
        clusters = self.clusters(roots)
        if len(clusters) == n:
            return [(lam0, 1) for lam0 in clusters]
        zeros = [(lam0, self.box(lam0)) for lam0 in clusters]
        zeros = [(lam0, m) for lam0, m in zeros if m]
        return zeros if n is None or sum(m for _, m in zeros) == n else None

    def search(self, a: float, b: float, roots: list[float]) -> float | None:
        """A zero in (a, b) outside the clusters of `roots`, or None if none is found.

        The clusters are divided out of Z: q = Z / prod_r (lam - r)^m_r, with
        m_r the box count of cluster r, vanishes only at the zeros still
        missing, so no known zero can attract the search.  When q changes
        sign over (a, b), Brent's method (`_brent_lockstep` on that one
        bracket, q a point at a time) refines the change; otherwise the
        missing zeros may be even in number, with no sign change to bracket,
        and a golden-section search of |q| looks for one.
        What either returns is a zero only if `is_new` confirms it.
        """
        known = [(lam0, self.box(lam0) or 1) for lam0 in self.clusters(roots)]

        def q(lam: float) -> float:
            den = math.prod((lam - lam0) ** m for lam0, m in known)
            return self.real(lam) / den if den else 0.0  # den is 0 only on a known zero

        if q(a) * q(b) < 0.0:
            lam = _brent_lockstep(lambda xs: [q(x) for x in xs], [(a, b)], REFINE_TOL)[0]
        else:
            lam = _golden_min(lambda x: abs(q(x)), a, b, REFINE_TOL)
        return lam if self.is_new(lam, roots) else None


def _cayley_eigenvalues(m: np.ndarray) -> np.ndarray | None:
    """h_k = -cot(f_k / 2), the eigenvalues of i (I + U_S)(I - U_S)^-1, from m = I - U_S.

    With X = m^-1 the transform is i (2 X - I), Hermitian while U_S is
    unitary.  `eigvalsh` reads one triangle only, so it is passed the
    Hermitian part, i (X - X^H), Hermitian to the last bit.  None when m is
    singular or X is not finite.
    """
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # an eigenvalue of U_S is exactly 1
        return None
    return np.linalg.eigvalsh(1j * (x - x.conj().T)) if np.isfinite(x).all() else None


def _brent_lockstep(evaluate, brackets: list[tuple[float, float]], xtol: float) -> list[float]:
    """Brent's method (`_brent_steps`) on every bracket (a, b) at once: a zero of f in each.

    Each round passes the next point of every unfinished bracket to
    evaluate, which returns f at each as a list: one stacked evaluation per
    round instead of one call per point.  Every bracket is sent the values
    it would get alone, so it takes the same steps to the same root, bit for
    bit, as on its own.
    """
    runs = [_brent_steps(a, b, xtol) for a, b in brackets]
    roots = [0.0] * len(runs)
    asked = {i: next(run) for i, run in enumerate(runs)}
    while asked:
        pending = {}
        for i, fx in zip(asked, evaluate(list(asked.values()))):
            try:
                pending[i] = runs[i].send(fx)
            except StopIteration as done:
                roots[i] = done.value
        asked = pending
    return roots


def _brent_steps(a: float, b: float, xtol: float) -> Generator[float, float, float]:
    """Brent's method on [a, b]: yields each point it needs, is sent f there, returns the zero.

    Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4, as
    scipy.optimize.brentq runs it, step for step: the same root, to xtol +
    BRENT_RTOL |zero|, from the same evaluations of f, starting with f(a)
    and f(b).  Raises ValueError when f(a) and f(b) have the same sign,
    RuntimeError after 100 iterations.
    """
    xpre, xcur = a, b
    fpre = yield a
    fcur = yield b
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a}) and f({b}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best estimate so far
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = yield xcur
    raise RuntimeError(f"Brent's method did not converge in 100 iterations, at {xcur}")


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


def reconstruct_eigenvectors(g: Graph, lam: float, kind: str = "standard") -> np.ndarray:
    """Laplacian eigenvectors rebuilt from stationary bond amplitudes.

    The eigenspace dimension k is the multiplicity of the secular zero at
    lambda, counted as the scan counts it: the eigenphases of U crossing 0
    over the box lambda +- 1e-8, read from the Hermitian Cayley transform of
    U_S (see `_ZeroCounter.staircase`).  On the real axis U is unitary and its
    eigenphases only fall as lambda grows (U' = U iH with H <= 0), so each
    crossing is one zero.  Every null vector of I - U lies in the span S of
    the uniform modes (U = i R off it, whose eigenvalues are +-i): it is a =
    Q v, v among the k right singular vectors of the r x r I - U_S (see
    `_FixedPart.span`) with the smallest singular values, each below
    NULL_SPACE_TOL.  These stationary bond amplitudes map to vertex values

        psi_i = (1/deg_i) sum_{d: origin(d)=i} sqrt(w_d) (a_d e^{i pi/4} + a_rev(d) e^{-i pi/4})
              = (e^{i pi/4} o_i^T a + e^{-i pi/4} iota_i^T a) / deg_i,

    w_d = 1 for the standard kind, and o_i^T Q v = (P^T v)_i, iota_i^T Q v =
    (P^t v)_i: psi = D^-1 (e^{i pi/4} P^T v + e^{-i pi/4} P^t v), a never
    formed.  The psi are orthonormalized.  Returns a (V, k) array; every
    column satisfies ||L psi - lambda psi|| < RECONSTRUCT_RESIDUAL_TOL ||psi||.
    """
    fixed = _fixed_part(g, kind)
    m = _minus_u_on_span(g, kind, vertex_coefficients(g, lam, kind))
    k = _ZeroCounter(g, kind).box(lam)
    _, s, vh = np.linalg.svd(m)
    svals = s[::-1]  # ascending; numpy returns them descending
    if not k or svals[k - 1] >= NULL_SPACE_TOL:
        raise NullSpaceError(
            f"no stationary direction at lambda={lam}: box zero count {k}, smallest "
            f"singular value {svals[0]:.3e}, NULL_SPACE_TOL {NULL_SPACE_TOL}"
        )
    v, span = vh[len(s) - k:].conj().T, fixed.span
    plus, minus = np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)
    psis = (plus * (span.p.T @ v) + minus * (span.pt @ v)) / fixed.deg[:, None]
    lap = build_laplacian(g, kind)
    # orthonormalize inside the eigenspace
    q, r = np.linalg.qr(psis)
    keep = np.abs(np.diag(r)) > 1e-10
    psis = q[:, keep]
    for col in range(psis.shape[1]):
        psi = psis[:, col]
        res = np.linalg.norm(lap.matrix @ psi - lam * psi)
        if res > RECONSTRUCT_RESIDUAL_TOL * np.linalg.norm(psi):
            raise NullSpaceError(
                f"reconstructed vector at lambda={lam} has residual {res:.3e}"
            )
    return psis


def scan_spectrum_deviation(g: Graph, kind: str = "standard") -> float:
    """Max pairwise deviation between scan zeros, repeated by multiplicity, and the direct spectrum."""
    direct = laplacian_spectrum(build_laplacian(g, kind)).eigenvalues
    scanned = [z.lam for z in secular_zero_scan(g, kind) for _ in range(z.multiplicity)]
    if len(scanned) != len(direct):
        return float("inf")
    return float(np.max(np.abs(np.sort(scanned) - np.sort(direct))))

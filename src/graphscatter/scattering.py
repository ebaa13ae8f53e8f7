"""Vertex scattering matrices, the bond evolution operator, and the secular function.

The evolution operator U(lambda) acts on the 2B directed-bond amplitudes.
This module is where the vertex scattering amplitudes sigma are defined,
once, as the entries of

    U(lambda) = i (R - K diag(coef[terminus])),  coef_j = (1 + e^{i alpha_j}) / deg_j,

with R the bond reversal and K nonzero where d' may follow d (entries
sqrt(w_d' w_d) for the generalized kind, 1 for the standard kind).  U is
scattered from the bond space's sparse transition list; no dense K or R
exists.  coef is the only lambda-dependent part; the vertex scattering
matrices are blocks of U, and every orbit amplitude is a product of its
entries.  For real lambda U is unitary, and the stationary
directions of U mark exactly the Laplacian eigenvalues; the secular
function built from det(I - U) is real on the real axis and vanishes on the
spectrum with the right multiplicities.  Eigenvectors on the vertices are
recovered from the stationary bond amplitude vectors.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, NullSpaceError, SpectralPoleError
from .graph import DirectedBondSpace, Graph, directed_bonds
from .laplacian import build_laplacian, degree_vector, laplacian_spectrum
from .linalg import determinant, null_space_basis

POLE_GUARD = 1e-12
NULL_SPACE_TOL = 1e-6
RECONSTRUCT_RESIDUAL_TOL = 1e-7
REFINE_TOL = 1e-10  # absolute tolerance of the zero scan's roots
BRENT_RTOL = 4.0 * float(np.finfo(float).eps)  # relative tolerance of `_brent_root`


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

    The denominator of e^{i alpha_j} vanishes at deg_j*(1+i), and the guard
    rejects its neighbourhood everywhere.  The reflected point deg_j*(1-i)
    zeroes the numerator: U and det U stay finite there, and only
    `secular_function` raises, at the point itself, where (det U)^{-1/2} has
    its pole.
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
    space: DirectedBondSpace

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.max(np.abs(u @ u.conj().T - np.eye(self.dim))))


def evolution_operator(g: Graph, lam: complex, kind: str = "standard") -> EvolutionOperator:
    """Assemble U(lambda) = i (R - K diag(coef[terminus])) in the canonical bond order."""
    return _evolution_operator(g, kind, vertex_coefficients(g, lam, kind))


def _evolution_operator(g: Graph, kind: str, coef: np.ndarray) -> EvolutionOperator:
    """U(lambda) from its vertex coefficients coef = vertex_coefficients(g, lam, kind).

    -i coef[terminus(d)] (times sqrt(w_d' w_d) for the generalized kind) is
    scattered onto every allowed [d', d] of the transition list, and i is
    added at [reversal(d), d]: entry for entry i (R - K diag(coef[terminus])).
    """
    space = directed_bonds(g)
    n = space.num_bonds
    step = (-1j * coef)[space.terminus][space.transition_column]
    if kind == "generalized":
        step *= space.transition_weight
    u = np.zeros(n * n, dtype=np.complex128)
    u[space.transition_index] = step
    u[space.reversal * n + np.arange(n)] += 1j
    return EvolutionOperator(matrix=u.reshape(n, n), space=space)


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
    if not phases.all():  # e^{i alpha_j} = 0 at deg_j (1 - i), a pole of (det U)^{-1/2}
        j = int(np.argmin(np.abs(phases)))
        raise SpectralPoleError(f"lambda={lam} is the pole of (det U)^(-1/2) at vertex {j}")
    op = _evolution_operator(g, kind, coef)
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


def secular_zero_scan(
    g: Graph,
    kind: str = "standard",
    lam_min: float | None = None,
    lam_max: float | None = None,
    grid_per_vertex: int = 10,
) -> list[SecularZero]:
    """Find all real zeros of the secular function, with multiplicities.

    The zeros in [lam_min, lam_max] (the Gershgorin interval of the
    Laplacian by default) are counted once, by the argument principle (see
    `secular_zero_count`), and every zero returned is accounted for against
    that total; the count never forms det(lambda - L).  A real grid of
    grid_per_vertex x V cells only locates the zeros: Brent's method
    (`_brent_root`) refines each sign change on it to REFINE_TOL, and roots
    closer than res = 100 REFINE_TOL form one cluster.  Each cluster holds
    at least one distinct zero, so when the clusters are as many as the
    total, every zero is simple and the scan is done.  Otherwise one
    recursion settles the range part by part, recursing only into parts
    whose count their clusters do not explain.  In a part of one or two
    cells the box lambda +- res of each cluster gives its multiplicity, and
    while the clusters fall short of the part's count a deflated search
    looks for another zero (see `_ZeroCounter.search`).  A part these leave
    unexplained is split by one rule, at the first point whose count
    resolves, largest |Z| first: the grid points near the middle of a part
    wider than two cells, counted on the top edge of the whole-range count,
    then the part's quarter points, each counted on a contour of its own.  A
    part narrower than two boxes, or with no such point, reports its zeros
    as one, with the part's count as multiplicity.  The search evaluates Z
    alone; each zero returned has smallest singular value of I - U below
    NULL_SPACE_TOL, the one SVD per zero.
    """
    counter = _ZeroCounter(g, kind)
    if lam_min is None:
        lam_min = -1.0
    if lam_max is None:
        lam_max = float(2.0 * np.max(counter.deg) + 1.0)
    n_grid = max(grid_per_vertex * g.num_vertices, 20)
    grid = np.linspace(lam_min, lam_max, n_grid + 1).tolist()
    z = [counter.real(x) for x in grid]
    found = [_brent_root(counter.real, grid[i], grid[i + 1], REFINE_TOL)
             for i in range(n_grid) if z[i] * z[i + 1] < 0.0]
    edge = _TopEdge(counter, lam_min, lam_max)

    def splits(a: float, b: float, lo: int, hi: int):
        """(x, count) at the split points of (a, b), largest |Z| first: the
        count's side there passes far from any zero, where Z turns slowly."""
        if hi - lo > 2:
            near = [i for i in range(lo + 1, hi) if abs(2 * i - lo - hi) <= max(2, (hi - lo) // 4)]
            for k in sorted(near, key=lambda i: -abs(z[i])):
                yield grid[k], edge.count
        if b - a > 2.0 * counter.res:  # evaluated only when the grid points fail
            quarters = [a + 0.25 * (b - a), 0.5 * (a + b), b - 0.25 * (b - a)]
            for x in sorted(quarters, key=lambda x: -abs(counter.real(x))):
                yield x, counter.count

    def settle(a: float, b: float, n: int | None, roots: list[float]) -> list[tuple[float, int]]:
        """(lam, multiplicity) of the n zeros in (a, b), given zeros found there."""
        roots = [lam0 for lam0 in roots if a <= lam0 < b]
        lo, hi = bisect.bisect_right(grid, a) - 1, bisect.bisect_left(grid, b)
        wide = hi - lo > 2
        # the clusters explain n by themselves, or by their boxes, which cost
        # less than splitting a wide part down to each of them when they are few
        clusters = counter.clusters(roots)
        if not wide or len(clusters) == n or n is not None and len(clusters) < math.log2(hi - lo):
            zeros = counter.explain(roots, n)
            if zeros is not None:
                return zeros
        if not wide:
            hit = counter.search(a, b, roots)
            if hit is not None:
                return settle(a, b, n, roots + [hit])
        for x, count in splits(a, b, lo, hi):
            n_left = count(a, x)
            if n is None or n_left is not None:
                n_right = count(x, b) if n is None else n - n_left
                return settle(a, x, n_left, roots) + settle(x, b, n_right, roots)
        # one cluster the counts cannot split: it takes the part's count
        return [(roots[0] if roots else 0.5 * (a + b), n)]

    zeros: list[SecularZero] = []
    total = edge.count(grid[0], grid[-1])
    for lam0, mult in settle(grid[0], grid[-1], total, found):
        smin = stationarity_gap(g, lam0, kind)
        if smin < NULL_SPACE_TOL:
            zeros.append(
                SecularZero(
                    lam=lam0,
                    multiplicity=mult,
                    singular_value=smin,
                )
            )
    return zeros


def secular_zero_count(g: Graph, lam_min: float, lam_max: float, kind: str = "standard") -> int:
    """Number of zeros of Z in (lam_min, lam_max), with multiplicity, by the argument principle.

    Z is analytic in the strip |Im lambda| < min deg (its poles lie at
    deg_j (1 + i)) and vanishes there only on the Laplacian spectrum, which
    is real.  Z is real on the axis, so by Schwarz reflection the count is
    (1/pi) times the change of arg Z along lam_max -> lam_max + i eta ->
    lam_min + i eta -> lam_min.  That equals the number of eigenvalues in
    the interval, computed without det(lambda - L).  Raises ValueError when
    an endpoint lies on a zero, where the sign of Z is rounding noise.
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

    Zeros closer than res = 100 REFINE_TOL are one cluster; a cluster's
    multiplicity is the count of the box lam +- res around it.
    """

    res = 100.0 * REFINE_TOL

    def __init__(self, g: Graph, kind: str):
        self.g, self.kind = g, kind
        self.deg = degree_vector(g, kind)
        self.eta_max = 0.5 * float(np.min(self.deg))  # half-way to the nearest pole
        self._boxes: dict[float, int | None] = {}
        self._reals: dict[float, float] = {}

    def z(self, lam: complex) -> complex:
        return secular_function(self.g, lam, self.kind)

    def real(self, lam: float) -> float:
        """Z(lam) for real lam, evaluated once per point."""
        if lam not in self._reals:
            self._reals[lam] = self.z(lam).real
        return self._reals[lam]

    def count(self, a: float, b: float) -> int | None:
        """Zeros in (a, b) by the argument principle, on a contour of their own (see `_TopEdge`)."""
        return _TopEdge(self, a, b).count(a, b)

    def box(self, lam: float) -> int | None:
        """Multiplicity of the cluster at lam: the count of (lam - res, lam + res)."""
        if lam not in self._boxes:
            self._boxes[lam] = self.count(lam - self.res, lam + self.res)
        return self._boxes[lam]

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
        sign over (a, b), Brent's method (`_brent_root`) refines the change;
        otherwise the missing zeros may be even in number, with no sign
        change to bracket, and a golden-section search of |q| looks for one.
        What either returns is a zero only if `is_new` confirms it.
        """
        known = [(lam0, self.box(lam0) or 1) for lam0 in self.clusters(roots)]

        def q(lam: float) -> float:
            den = math.prod((lam - lam0) ** m for lam0, m in known)
            return self.real(lam) / den if den else 0.0  # den is 0 only on a known zero

        if q(a) * q(b) < 0.0:
            lam = _brent_root(q, a, b, REFINE_TOL)
        else:
            lam = _golden_min(lambda x: abs(q(x)), a, b, REFINE_TOL)
        return lam if self.is_new(lam, roots) else None


class _TopEdge:
    """The top edge lam + i eta, a <= lam <= b, of argument-principle contours.

    The zeros of Z in (x, y), for a <= x < y <= b, number (1/pi) x the turn
    of arg Z along y -> y + i eta -> x + i eta -> x, by Schwarz reflection,
    with eta = min(b - a, deg_min / 2).  The turn along the top edge is
    accumulated once from a, so a count over (x, y) walks only the sides at
    x and y.  Each segment is halved while Z turns by more than pi/4 along
    it or its modulus changes by more than a factor e^0.5; the phase alone
    aliases, since a fourfold zero can turn Z by nearly 2 pi between two
    samples.  Along the top edge the modulus can be equal at both ends of a
    piece that zeros below turn by 2 pi, so that edge is first cut into
    pieces that turn Z by less than 7 pi / 4: per unit length each of the V
    zeros turns it by at most 1/eta, and the poles at deg_j (1 +- i) by at
    most 1/(deg_j - eta) per vertex.  A segment that would have to shrink
    below 1e-6 eta means a side sits on a zero, where the sign of Z is
    rounding noise; that side's phase, and every count through it, is then
    None.
    """

    def __init__(self, counter: _ZeroCounter, a: float, b: float):
        self.counter = counter
        self.eta = eta = min(b - a, counter.eta_max)
        rate = counter.g.num_vertices / eta + float(np.sum(1.0 / (counter.deg - eta)))
        pieces = math.ceil((b - a) * rate / (1.75 * math.pi))
        self.floor = max(1e-6 * eta, 1e-14 * max(1.0, abs(a), abs(b)))
        self.xs = np.linspace(a, b, pieces + 1)
        self.values = [counter.z(complex(x, eta)) for x in self.xs]
        self.turns: list[float | None] = [0.0]  # along the top, from a + i eta to each node
        for k in range(pieces):
            step = self.turn(complex(self.xs[k], eta), self.values[k],
                             complex(self.xs[k + 1], eta), self.values[k + 1])
            self.turns.append(None if step is None or self.turns[-1] is None
                              else self.turns[-1] + step)
        self._phases: dict[float, float | None] = {}

    def turn(self, p: complex, zp: complex, q: complex, zq: complex) -> float | None:
        """Turn of arg Z along the segment p -> q, or None if it cannot be resolved."""
        turn = 0.0
        stack = [(p, zp, q, zq)]
        while stack:
            p, zp, q, zq = stack.pop()
            step = zq / zp
            angle = cmath.phase(step)
            if abs(angle) <= 0.25 * math.pi and abs(math.log(abs(step))) <= 0.5:
                turn += angle
            elif abs(q - p) < self.floor:
                return None
            else:
                mid = 0.5 * (p + q)
                zmid = self.counter.z(mid)
                stack.append((mid, zmid, q, zq))
                stack.append((p, zp, mid, zmid))
        return turn

    def phase(self, x: float) -> float | None:
        """Turn of arg Z along a + i eta -> x + i eta -> x."""
        if x not in self._phases:
            zx = self.counter.real(x)
            k = min(int(np.searchsorted(self.xs, x, "right")) - 1, len(self.xs) - 1)
            top, zt, along = complex(x, self.eta), self.values[k], self.turns[k]
            if x != self.xs[k] and along is not None:
                zt = self.counter.z(top)
                step = self.turn(complex(self.xs[k], self.eta), self.values[k], top, zt)
                along = None if step is None else along + step
            # walked upwards, so a side sitting on a zero fails after few halvings
            up = None if zx == 0.0 or along is None else self.turn(complex(x), complex(zx), top, zt)
            self._phases[x] = None if up is None else along - up
        return self._phases[x]

    def count(self, x: float, y: float) -> int | None:
        """Zeros in (x, y); None if x or y sits on a zero."""
        px, py = self.phase(x), self.phase(y)
        return None if px is None or py is None else round((px - py) / math.pi)


def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """A zero of f in [a, b] to xtol + BRENT_RTOL |zero|, where f(a) and f(b) differ in sign.

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) as scipy.optimize.brentq runs it, step for step: the same
    root from the same evaluations of f.  Raises ValueError when f(a) and
    f(b) have the same sign, RuntimeError after 100 iterations.
    """
    xpre, xcur, fpre, fcur = a, b, f(a), f(b)
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
        fcur = f(xcur)
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
    lambda, counted as the scan counts it: by the argument principle over
    the box lambda +- 1e-8.  The k right singular vectors a_1..a_k of
    I - U(lambda) with the smallest singular values, each below
    NULL_SPACE_TOL, map to vertex values through

        psi_i = (1/deg_i) sum_{d: origin(d)=i} sqrt(w_d) (a_d e^{i pi/4} + a_rev(d) e^{-i pi/4}),

    with w_d = 1 for the standard kind, and are orthonormalized.  Returns a
    (V, k) array; every column satisfies ||L psi - lambda psi|| <
    RECONSTRUCT_RESIDUAL_TOL * ||psi||.
    """
    space = directed_bonds(g)
    op = evolution_operator(g, lam, kind)
    k = _ZeroCounter(g, kind).box(lam)
    basis, svals = null_space_basis(np.eye(op.dim) - op.matrix, k or 0)
    if not k or svals[k - 1] >= NULL_SPACE_TOL:
        raise NullSpaceError(
            f"no stationary direction at lambda={lam}: box zero count {k}, smallest "
            f"singular value {svals[0]:.3e}, NULL_SPACE_TOL {NULL_SPACE_TOL}"
        )
    deg = degree_vector(g, kind)
    lap = build_laplacian(g, kind)
    plus = np.exp(1j * np.pi / 4)
    minus = np.exp(-1j * np.pi / 4)
    root_w = np.sqrt(space.bond_weight) if kind == "generalized" else np.ones(space.num_bonds)
    # every vertex has a bond (U rejects isolated ones), so no segment is empty
    out = space.by_origin
    contrib = root_w[out, None] * (basis[out] * plus + basis[space.reversal[out]] * minus)
    psis = np.add.reduceat(contrib, space.offsets[:-1], axis=0) / deg[:, None]
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

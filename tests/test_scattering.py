"""Vertex scattering matrices, evolution operator, secular function, reconstruction."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscatter import scattering
from graphscatter.errors import (
    DisconnectedGraphError, EndpointRangeError, NullSpaceError, SpectralPoleError,
)
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.laplacian import (
    build_laplacian, char_poly_value, degree_vector, laplacian_spectrum,
)
from graphscatter.linalg import determinant, eig_general, matrix_power_trace
from graphscatter.scattering import (
    NULL_SPACE_TOL,
    evolution_determinant_closed_form,
    evolution_operator,
    reconstruct_eigenvectors,
    scan_spectrum_deviation,
    scattering_phases,
    secular_function,
    secular_zero_count,
    secular_zero_scan,
    stationarity_gap,
    _ZeroCounter,
)
from graphscatter.classical import multiset_defect
from graphscatter.zeta import secular_ratio_constant
from conftest import (
    fixture_graphs, make_c3, make_c3_weighted, make_c6, make_k33, make_k4, make_p2_weighted,
    make_petersen,
)
from reference import (
    dense_identity_minus_u, multiplicities, reference_count, reference_eigenvectors,
    reference_span_basis, reference_staircase, vertex_block,
)


def _with_kind(g, kind):
    """g, or for the generalized kind on an unweighted g, g with seeded random weights."""
    if kind == "generalized" and not g.is_weighted:
        rng = np.random.default_rng(g.num_edges)
        g = build_graph(g.num_vertices, g.edges, weights=rng.uniform(0.5, 2.0, g.num_edges))
    return g


def _random_graph(seed, v=24, b=40, weighted=False):
    """A seeded connected graph: a random spanning tree plus random extra edges.

    Weighted, its edges then draw weights from U[0.5, 2] off the same generator.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(v).tolist()
    edges = {tuple(sorted((order[k], order[int(rng.integers(k))]))) for k in range(1, v)}
    while len(edges) < b:
        i, j = sorted(rng.choice(v, 2, replace=False).tolist())
        edges.add((i, j))
    return build_graph(v, sorted(edges), weights=rng.uniform(0.5, 2.0, b) if weighted else None)


# every fixture and C3w, in both kinds, at real lambda (on a degree, where the
# steps carry signed zeros, and off it) and complex lambda
OPERATOR_GRAPHS = [g for _, g, _ in fixture_graphs()] + [make_c3_weighted()]
OPERATOR_IDS = [name for name, _, _ in fixture_graphs()] + ["C3w"]
OPERATOR_LAMS = (-0.7, 1.3, 2.0, 3.0, 4.2, complex(2.0, -0.5), complex(3.1, 0.8))


class TestVertexSigma:
    """sigma^(v), the block U[outgoing(v), incoming(v)] of U (`reference.vertex_block`)."""

    def test_degree_two_at_zero(self, c3):
        # phase (1+i)/(1-i) = i; back-scatter (1+i)/2, transmission (1-i)/2
        assert scattering_phases(c3, 0.0)[0] == pytest.approx(1j)
        expected = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
        np.testing.assert_allclose(vertex_block(c3, 0, 0.0), expected, atol=1e-14)

    def test_unitary_for_real_lambda(self, petersen):
        rng = np.random.default_rng(2)
        for lam in rng.uniform(-5, 10, 10):
            sig = vertex_block(petersen, 3, float(lam))
            defect = np.max(np.abs(sig @ sig.conj().T - np.eye(3)))
            assert defect < 1e-10

    def test_backscatter_vanishes_at_special_point(self, k4):
        # v-regular at lambda = v + i(v-2): diagonal 0, off-diagonal modulus 1
        lam = complex(3, 1)
        sig = vertex_block(k4, 0, lam)
        assert np.max(np.abs(np.diag(sig))) < 1e-14
        off = sig[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(np.abs(off), 1.0, atol=1e-12)

    def test_unit_weights_reproduce_standard_bitwise(self):
        gw = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 1.0, 1.0))
        for v in range(3):
            std = vertex_block(gw, v, 1.7, "standard")
            gen = vertex_block(gw, v, 1.7, "generalized")
            assert np.array_equal(std, gen)

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_vertex_out_of_range(self, c3, vertex):
        with pytest.raises(EndpointRangeError, match=f"vertex {vertex} "):
            vertex_block(c3, vertex, 1.0)

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("g", OPERATOR_GRAPHS, ids=OPERATOR_IDS)
    def test_equals_block_of_u(self, g, kind):
        """U's block at each vertex v is sigma^(v) entry for entry: sigma_{d,d'} =
        i (delta_{rev(d),d'} - coef_v sqrt(w_d w_d')), w = 1 for the standard kind."""
        g = _with_kind(g, kind)
        space = directed_bonds(g)
        for lam in OPERATOR_LAMS:
            step = -1j * scattering.vertex_coefficients(g, lam, kind)
            for v in range(g.num_vertices):
                out, inc = space.outgoing(v), space.incoming(v)
                sig = np.full((len(out), len(inc)), step[v])
                if kind == "generalized":
                    sig *= np.sqrt(space.bond_weight[out, None] * space.bond_weight[inc])
                sig[np.diag_indices(len(out))] += 1j  # column k is the reversal of row k
                block = vertex_block(g, v, lam, kind)
                assert sig.dtype == block.dtype
                assert sig.tobytes() == block.tobytes(), (lam, v)



class TestEvolutionOperator:
    def test_p2_antidiagonal(self, p2):
        lam = 0.8
        u = evolution_operator(p2, lam)
        phases = scattering_phases(p2, lam)
        assert u.matrix[0, 0] == 0 and u.matrix[1, 1] == 0
        assert u.matrix[1, 0] == pytest.approx(-1j * phases[1])
        assert u.matrix[0, 1] == pytest.approx(-1j * phases[0])

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("g", OPERATOR_GRAPHS, ids=OPERATOR_IDS)
    def test_equals_dense_reference(self, g, kind):
        """U scattered onto the transition list equals i (R - K diag(coef[terminus]))
        built densely from the bond arrays, entry for entry.  The generalized
        kind runs an unweighted fixture with seeded random weights."""
        g = _with_kind(g, kind)
        space = directed_bonds(g)
        n = space.num_bonds
        reversal = np.zeros((n, n))
        reversal[space.reversal, np.arange(n)] = 1.0
        follows = space.origin[:, None] == space.terminus[None, :]
        if kind == "generalized":
            k = np.sqrt(np.outer(space.bond_weight, space.bond_weight)) * follows
        else:
            k = follows.astype(float)
        for lam in (-0.7, 1.3, 4.2, complex(2.0, -0.5), complex(3.1, 0.8)):
            coef = scattering.vertex_coefficients(g, lam, kind)
            want = 1j * (reversal - k * coef[space.terminus])
            got = evolution_operator(g, lam, kind).matrix
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), lam

    def test_sparsity_pattern(self, random8):
        space = directed_bonds(random8)
        u = evolution_operator(random8, 1.3)
        for d in range(space.num_bonds):
            for dp in range(space.num_bonds):
                if space.terminus[d] != space.origin[dp]:
                    assert u.matrix[dp, d] == 0

    def test_unitary_on_real_axis(self, c3):
        rng = np.random.default_rng(0)
        for lam in rng.uniform(-5, 10, 100):
            assert evolution_operator(c3, float(lam)).unitarity_defect() < 1e-10

    def test_weighted_unitary(self, c3w):
        rng = np.random.default_rng(1)
        for lam in rng.uniform(-5, 10, 20):
            defect = evolution_operator(c3w, float(lam), "generalized").unitarity_defect()
            assert defect < 1e-10

    def test_unit_weights_bitwise_identical(self):
        gw = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 1.0, 1.0))
        a = evolution_operator(gw, 2.2, "standard").matrix
        b = evolution_operator(gw, 2.2, "generalized").matrix
        assert np.array_equal(a, b)

    def test_pole_rejected(self, c3):
        with pytest.raises(SpectralPoleError):
            evolution_operator(c3, complex(2.0, 2.0))  # v(1+i) for v=2

    @pytest.mark.parametrize("lam", [complex(3.0, -3.0), complex(3.0, 3.0)])
    def test_secular_function_raises_at_both_poles(self, k4, lam):
        # at 3 - 3i the phases vanish, so (det U)^{-1/2} has its pole there
        # while U and det U stay finite; 3 + 3i is the pole of U itself
        with pytest.raises(SpectralPoleError):
            secular_function(k4, lam)
        if lam.imag < 0:
            assert np.all(np.isfinite(evolution_operator(k4, lam).matrix))
            assert evolution_determinant_closed_form(k4, lam) == 0.0

    @pytest.mark.parametrize(
        "lam", [float("nan"), float("inf"), complex(float("-inf"), 0.0), complex(1.0, float("nan"))]
    )
    def test_non_finite_lambda_rejected(self, k4, lam):
        """A NaN or infinite lambda raises one ValueError naming it, with no
        warning on the way and no NaN matrix returned."""
        for fn in (evolution_operator, secular_function, stationarity_gap, scattering_phases):
            with pytest.raises(ValueError, match=r"lambda=.* is not finite"):
                fn(k4, lam)

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    def test_isolated_vertex_rejected(self, kind):
        """A vertex of degree 0 has no scattering matrix: raise, never NaN."""
        g = build_graph(4, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 2.0, 0.5))
        for fn in (evolution_operator, secular_function, scattering_phases):
            with pytest.raises(DisconnectedGraphError, match="vertex 3"):
                fn(g, complex(1.5, -0.2), kind)


class TestIdentityMinusU:
    """det(I - U) as 2^B det M, V x V, and I - U on the span of the uniform modes for its SVDs."""

    GRAPHS = OPERATOR_GRAPHS + [_random_graph(seed) for seed in range(8)]
    IDS = OPERATOR_IDS + [f"random24-{seed}" for seed in range(8)]

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_equals_eye_minus_u_and_old_formulas(self, g, kind):
        """Z equals its formula on M and the stationarity gap its formula on I - U_S,
        byte for byte; and against np.eye - U, 2^B det M is the LU det(I - U), the gaps
        agree, and eig U is eig U_S with +i x (B - V + c_b) and -i x (B - V + c)."""
        g = _with_kind(g, kind)
        span = scattering._fixed_part(g, kind).span
        scale = (-1j) ** g.num_vertices
        c, c_b = g.components()
        excess = g.num_edges - g.num_vertices
        fixed = [1j] * (excess + c_b) + [-1j] * (excess + c)
        for lam in OPERATOR_LAMS:
            phases, coef = scattering._vertex_factors(g, lam, kind)
            vertex = scattering._vertex_matrix(g, kind, phases, coef)
            assert vertex.dtype == np.complex128 and vertex.shape == (g.num_vertices,) * 2
            half = np.exp(-0.5 * np.log(phases))
            z = complex(scale * np.prod(half) * determinant(vertex))
            assert np.array(secular_function(g, lam, kind)).tobytes() == np.array(z).tobytes()
            m = scattering._minus_u_on_span(g, kind, coef)
            assert m.dtype == np.complex128 and m.shape == (span.diag.size,) * 2
            gap = float(np.linalg.svd(m, compute_uv=False)[-1])
            gap = min(gap, math.sqrt(2.0)) if m.shape[0] < 2 * g.num_edges else gap
            assert np.array(stationarity_gap(g, lam, kind)).tobytes() == np.array(gap).tobytes()

            dense = dense_identity_minus_u(g, lam, kind)
            sv = np.linalg.svd(dense, compute_uv=False)
            assert abs(gap - sv[-1]) <= 1e-14, lam
            if sv[-1] > NULL_SPACE_TOL:  # off the spectrum, where det(I - U) is not rounding noise
                # 1e-12 relative while I - U is well conditioned; beside a zero of Z the
                # rounding of either determinant grows with the condition number
                lu = determinant(dense)
                tol = 1e-12 * max(1.0, sv[0] / sv[-1] / 100.0)
                det = 2.0 ** g.num_edges * determinant(vertex)
                assert abs(det - lu) <= tol * abs(lu), lam
                assert scattering._det_identity_minus_u(g, lam, kind) == det
            eig_u = 1.0 - eig_general(dense).eigenvalues
            eig_span = np.concatenate([1.0 - eig_general(m).eigenvalues, fixed])
            assert multiset_defect(eig_u, eig_span) <= 1e-12, lam


def _same_bytes(stacked, fn, lams):
    """Whether a stack's result holds, byte for byte, fn at each point of lams in turn."""
    want = b"".join(np.asarray(fn(lam)).tobytes() for lam in lams.tolist())
    return np.asarray(stacked).tobytes() == want


class TestStacks:
    """A stack of lambda runs each kernel once for every point, with each
    result bit for bit the one point's call."""

    REAL = np.array([-0.7, 1.3, 2.0, 3.0, 4.2])  # on a degree the steps carry signed zeros
    COMPLEX = np.array([complex(2.0, -0.5), complex(3.1, 0.8), complex(-1.0, 1.5)])
    GRAPHS = OPERATOR_GRAPHS + [_random_graph(2024)]
    IDS = OPERATOR_IDS + ["random24"]

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_kernels_match_per_point_calls(self, g, kind):
        g = _with_kind(g, kind)
        lap = build_laplacian(g, kind)

        def minus_u(lam):
            coef = scattering.vertex_coefficients(g, lam, kind)
            return scattering._minus_u_on_span(g, kind, coef)

        def vertex(lam):
            return scattering._vertex_matrix(g, kind, *scattering._vertex_factors(g, lam, kind))

        r = scattering._fixed_part(g, kind).span.diag.size
        for lams in (self.REAL, self.COMPLEX):
            u = evolution_operator(g, lams, kind).matrix
            m = minus_u(lams)
            assert u.shape == lams.shape + (2 * g.num_edges,) * 2
            assert m.shape == lams.shape + (r, r)
            assert _same_bytes(u, lambda lam: evolution_operator(g, lam, kind).matrix, lams)
            defect = np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(u.shape[-1])))
            assert np.float64(evolution_operator(g, lams, kind).unitarity_defect()).tobytes() == (
                defect.tobytes()
            )
            assert _same_bytes(m, minus_u, lams)
            assert _same_bytes(stationarity_gap(g, lams, kind),
                               lambda lam: stationarity_gap(g, lam, kind), lams)
            assert _same_bytes(determinant(m), lambda lam: determinant(minus_u(lam)), lams)
            assert _same_bytes(vertex(lams), vertex, lams)
            assert _same_bytes(scattering._det_identity_minus_u(g, lams, kind),
                               lambda lam: scattering._det_identity_minus_u(g, lam, kind), lams)
            assert _same_bytes(secular_function(g, lams, kind),
                               lambda lam: secular_function(g, lam, kind), lams)
            assert _same_bytes(evolution_determinant_closed_form(g, lams, kind),
                               lambda lam: evolution_determinant_closed_form(g, lam, kind), lams)
            assert _same_bytes(char_poly_value(lap, lams),
                               lambda lam: char_poly_value(lap, lam), lams)
            for n in (1, 2, 3, 5, 8):
                assert _same_bytes(
                    matrix_power_trace(u, n),
                    lambda lam: matrix_power_trace(evolution_operator(g, lam, kind).matrix, n),
                    lams,
                ), n
        # off the real axis only: on it the ratio may divide by det(lambda - L) = 0
        assert _same_bytes(secular_ratio_constant(g, self.COMPLEX, kind),
                           lambda lam: secular_ratio_constant(g, lam, kind), self.COMPLEX)

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("g", GRAPHS, ids=IDS)
    def test_scan_grid_matches_per_point_calls(self, g, kind, monkeypatch):
        """Z on the scan's grid, as whole stacks and as one-matrix stacks."""
        g = _with_kind(g, kind)
        deg = scattering._fixed_part(g, kind).deg
        grid = np.linspace(-1.0, 2.0 * deg.max() + 1.0, max(10 * g.num_vertices, 20) + 1)
        want = [secular_function(g, x, kind).real for x in grid.tolist()]
        assert _ZeroCounter(g, kind).reals(grid.tolist()) == want
        assert _same_bytes(secular_function(g, grid, kind),
                           lambda lam: secular_function(g, lam, kind), grid)
        monkeypatch.setattr(scattering, "_STACK_BYTES", 1)
        assert [len(s) for s in scattering._stacks(grid, g.num_vertices)] == [1] * grid.size
        assert _ZeroCounter(g, kind).reals(grid.tolist()) == want

    @pytest.mark.parametrize("v, b", [(3, 3), (24, 40)])
    def test_stacks_cut_to_the_byte_budget(self, v, b):
        """Stacks of (2B)^2 matrices (U) and of V^2 ones (Z), each as full as the budget allows."""
        g = _random_graph(7, v, b)
        lams = np.arange(500.0)
        stacks = list(scattering._stacks(lams, 2 * g.num_edges))
        assert np.array_equal(np.concatenate(stacks), lams)
        assert max(len(s) for s in stacks) * 16 * (2 * b) ** 2 <= scattering._STACK_BYTES
        assert len(stacks) == -(-lams.size // len(stacks[0]))
        stacks = list(scattering._stacks(lams, g.num_vertices))
        assert np.array_equal(np.concatenate(stacks), lams)
        assert max(len(s) for s in stacks) * 16 * v ** 2 <= scattering._STACK_BYTES
        assert len(stacks) == -(-lams.size // len(stacks[0]))
        # only the last stack stops short of the budget
        assert all((len(s) + 1) * 16 * v ** 2 > scattering._STACK_BYTES for s in stacks[:-1])

    def test_non_finite_point_named(self, k4):
        """A stack with a NaN or infinite point raises the ValueError of its first such point."""
        for fn in (evolution_operator, secular_function, stationarity_gap, scattering_phases):
            with pytest.raises(ValueError, match=r"^lambda=nan is not finite$"):
                fn(k4, float("nan"))
            with pytest.raises(ValueError, match=r"^lambda=inf is not finite$"):
                fn(k4, np.array([0.5, np.inf, np.nan]))
            with pytest.raises(ValueError, match=r"^lambda=\(nan\+1j\) is not finite$"):
                fn(k4, np.array([complex(0.5, 0.0), complex(np.nan, 1.0)]))

    def test_pole_named(self, c3, k4):
        """A stack near a pole raises the one point's SpectralPoleError, word for word."""
        pole_u = ("lambda=(2+2j) is within 1e-12 of the evolution-operator pole "
                  "at vertex 0 (degree 2.0)")
        for lam in (complex(2.0, 2.0), np.array([0.5, complex(2.0, 2.0), complex(2.0, 2.0)])):
            with pytest.raises(SpectralPoleError) as err:
                evolution_operator(c3, lam)
            assert str(err.value) == pole_u
        pole_z = "lambda=(3-3j) is the pole of (det U)^(-1/2) at vertex 0"
        for lam in (complex(3.0, -3.0), np.array([1.0, complex(3.0, -3.0)])):
            with pytest.raises(SpectralPoleError) as err:
                secular_function(k4, lam)
            assert str(err.value) == pole_z

    def test_scan_memory_within_one_stack_of_per_point(self, monkeypatch):
        """The grid's stacks add at most _STACK_BYTES to a scan's traced peak on a
        V = 24, B = 40 graph over one-matrix stacks, which is per-point
        evaluation (0.18-0.20 MB before the grid was stacked), and change no zero."""

        def scan():
            g = _random_graph(2024)
            tracemalloc.start()
            try:
                zeros = secular_zero_scan(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return zeros, peak

        budget = scattering._STACK_BYTES
        zeros, peak = scan()
        monkeypatch.setattr(scattering, "_STACK_BYTES", 1)
        per_point_zeros, per_point_peak = scan()
        assert zeros == per_point_zeros and sum(z.multiplicity for z in zeros) == 24
        assert peak <= per_point_peak + budget, (peak, per_point_peak)


class TestSpectrumStructure:
    """Unit-circle structure of U at Im lambda < 0.

    Besides the strictly contracting part, U keeps fixed eigenvalues at
    +/- i whose multiplicity equals 2B minus the rank of the in/out-sum
    constraints; only trees are free of them.
    """

    @pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
    def test_closed_disc_and_fixed_modes(self, name, g, kind):
        space = directed_bonds(g)
        nb = space.num_bonds
        vcount = g.num_vertices
        cons = np.zeros((2 * vcount, nb))
        for d in range(nb):
            cons[space.terminus[d], d] = 1.0
            cons[vcount + space.origin[d], d] = 1.0
        expected_fixed = nb - np.linalg.matrix_rank(cons)
        vals = eig_general(evolution_operator(g, complex(1.7, -0.9), kind).matrix).eigenvalues
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
        fixed = np.sum(np.minimum(np.abs(vals - 1j), np.abs(vals + 1j)) < 1e-9)
        assert fixed == expected_fixed
        rest = vals[np.minimum(np.abs(vals - 1j), np.abs(vals + 1j)) >= 1e-9]
        assert np.all(np.abs(rest) < 1.0 - 1e-12)

    def test_p2_strictly_inside(self, p2):
        vals = eig_general(evolution_operator(p2, complex(1.0, -0.5)).matrix).eigenvalues
        assert np.max(np.abs(vals)) < 1.0

    @pytest.mark.parametrize("lam", [0.37, 2.9])
    @pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
    def test_topological_eigenvalues(self, name, g, kind, lam):
        # -i has multiplicity B - V + 1 and +i has B - V + beta, beta = 1 on
        # bipartite graphs: K4 (3, 2), K3,3 (4, 4)
        beta = 1 if _is_bipartite(g) else 0
        excess = g.num_edges - g.num_vertices
        vals = eig_general(evolution_operator(g, lam, kind).matrix).eigenvalues
        assert int(np.sum(np.abs(vals + 1j) < 1e-8)) == excess + 1
        assert int(np.sum(np.abs(vals - 1j) < 1e-8)) == excess + beta


def _is_bipartite(g):
    """Two-colouring by depth-first search of a connected graph."""
    colour = {0: 0}
    stack = [0]
    while stack:
        i = stack.pop()
        for a, b in g.edges:
            if i in (a, b):
                j = b if a == i else a
                if j not in colour:
                    colour[j] = 1 - colour[i]
                    stack.append(j)
                elif colour[j] == colour[i]:
                    return False
    return True


class TestDeterminantClosedForm:
    def test_matches_lu_on_fixtures(self):
        rng = np.random.default_rng(5)
        for name, g, kind in fixture_graphs():
            for _ in range(5):
                lam = complex(rng.uniform(-4, 9), rng.uniform(-2, 2))
                u = evolution_operator(g, lam, kind)
                closed = evolution_determinant_closed_form(g, lam, kind)
                assert abs(determinant(u.matrix) - closed) <= 1e-9 * abs(closed), name

    def test_p2_at_zero(self, p2):
        assert evolution_determinant_closed_form(p2, 0.0) == pytest.approx(-1.0)

    def test_k4_at_degree(self, k4):
        assert evolution_determinant_closed_form(k4, 3.0) == pytest.approx(1.0)

    def test_unimodular_on_real_axis(self, petersen):
        rng = np.random.default_rng(6)
        for lam in rng.uniform(-4, 12, 30):
            val = evolution_determinant_closed_form(petersen, float(lam))
            assert abs(abs(val) - 1.0) < 1e-10

    def test_parity_factor_needed_for_odd_vertex_count(self, c3):
        # direct determinant at lambda = 2: the non-backtracking permutation
        # times -i, det = -1; the bare phase product gives +1
        u = evolution_operator(c3, 2.0)
        assert determinant(u.matrix) == pytest.approx(-1.0)
        assert np.prod(scattering_phases(c3, 2.0)) == pytest.approx(1.0)


class TestSecularFunction:
    def test_real_on_real_axis(self):
        rng = np.random.default_rng(8)
        for name, g, kind in fixture_graphs():
            for lam in rng.uniform(-4, 9, 10):
                z = secular_function(g, float(lam), kind)
                assert abs(z.imag) < 1e-9, name

    def test_approaches_one_at_plus_infinity(self):
        for name, g, kind in fixture_graphs():
            z = secular_function(g, 1e8, kind)
            assert z.real == pytest.approx(1.0, abs=1e-4), name

    def test_p2_closed_form(self, p2):
        for lam in (-1.5, 0.3, 1.0, 2.7):
            expected = lam * (lam - 2.0) / (1.0 + (1.0 - lam) ** 2)
            assert secular_function(p2, lam).real == pytest.approx(expected)

    def test_equals_charpoly_ratio(self, k4):
        lap = build_laplacian(k4)
        deg = k4.degrees().valency.astype(float)
        from graphscatter.laplacian import char_poly_value

        for lam in (0.7, 2.0, 5.5):
            ratio = char_poly_value(lap, lam).real / np.sqrt(
                np.prod(deg**2 + (deg - lam) ** 2)
            )
            assert secular_function(k4, lam).real == pytest.approx(ratio)

    def test_vanishes_on_spectrum(self, c6):
        for lam in laplacian_spectrum(build_laplacian(c6)).eigenvalues:
            assert abs(secular_function(c6, float(lam))) < 1e-8


class TestZeroScan:
    @pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
    def test_zeros_match_spectrum_with_multiplicity(self, name, g, kind):
        assert scan_spectrum_deviation(g, kind) < 1e-7

    def test_even_multiplicity_zero_found(self, c3):
        # {0, 3, 3}: the double zero at 3 never changes sign
        zeros = secular_zero_scan(c3)
        assert [(round(z.lam, 7), z.multiplicity) for z in zeros] == [(0.0, 1), (3.0, 2)]

    def test_weighted_scan(self, c3w):
        assert scan_spectrum_deviation(c3w, "generalized") < 1e-7


K4_EDGES = [(i, j) for i in range(4) for j in range(i + 1, 4)]

# The V=24, B=40 standard graph the benchmark's scan workload draws at seed
# 12.  Two of its eigenvalues lie 5.6e-3 apart, inside one grid cell, with no
# sign change between them.
SEED12_EDGES = [
    (0, 6), (0, 10), (0, 13), (1, 4), (1, 9), (1, 10), (1, 12), (1, 18),
    (1, 21), (2, 7), (2, 15), (2, 19), (3, 5), (3, 12), (3, 21), (4, 20),
    (5, 7), (5, 8), (5, 13), (5, 14), (5, 18), (6, 7), (6, 16), (6, 21),
    (7, 18), (7, 20), (9, 18), (9, 22), (9, 23), (11, 12), (12, 17), (12, 19),
    (12, 23), (14, 15), (14, 21), (15, 22), (16, 21), (18, 19), (19, 21),
    (20, 23),
]


def edge_list_laplacian(g, kind):
    """L = D - C assembled here from the edge list, independent of the package."""
    lap = np.zeros((g.num_vertices, g.num_vertices))
    for k, (i, j) in enumerate(g.edges):
        w = g.weights[k] if kind == "generalized" else 1.0
        lap[i, j] -= w
        lap[j, i] -= w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def assert_scan_matches_eigvalsh(g, kind, **scan_options):
    zeros = secular_zero_scan(g, kind, **scan_options)
    found = np.sort(np.repeat([z.lam for z in zeros], [z.multiplicity for z in zeros]))
    expected = np.linalg.eigvalsh(edge_list_laplacian(g, kind))
    assert len(found) == len(expected), (found, expected)
    assert np.max(np.abs(found - expected)) < 1e-7, (found, expected)
    assert all(z.singular_value < NULL_SPACE_TOL for z in zeros)


# graphs whose span rank 2V - c - c_b needs the component counts (c, c_b)
TRIANGLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
SPAN_RANK_CASES = [
    ("two-triangles", build_graph(6, TRIANGLES), "standard", (2, 0)),
    ("triangle+edge", build_graph(5, TRIANGLES[:4]), "standard", (2, 1)),
    ("triangle+edge-weighted", build_graph(5, TRIANGLES[:4], weights=(1.5, 0.7, 2.0, 3.0)),
     "generalized", (2, 1)),
    ("C6", make_c6(), "standard", (1, 1)),
    ("K3,3", make_k33(), "standard", (1, 1)),
]


class TestSpanRank:
    """The rank rule r = 2V - c - c_b of the uniform-mode span, on graphs where c or c_b matter."""

    @pytest.mark.parametrize("name,g,kind,counts", SPAN_RANK_CASES,
                             ids=[case[0] for case in SPAN_RANK_CASES])
    def test_rank_constant_and_fixed_modes(self, name, g, kind, counts):
        assert g.components() == counts
        c, c_b = counts
        r, excess = 2 * g.num_vertices - c - c_b, g.num_edges - g.num_vertices
        span = scattering._fixed_part(g, kind).span
        q = reference_span_basis(g, kind)
        assert q.shape == (2 * g.num_edges, r) and span.diag.size == r
        np.testing.assert_allclose(q.T @ q, np.eye(r), atol=1e-14)
        # P = Q^T [o_j] and P^t = [iota_j^T] Q, the pairings the eigenvector lift reads
        space, bonds = directed_bonds(g), np.arange(2 * g.num_edges)
        root_w = np.sqrt(space.bond_weight) if kind == "generalized" else np.ones(bonds.size)
        o, iota = np.zeros((2, bonds.size, g.num_vertices))
        o[bonds, space.origin], iota[bonds, space.terminus] = root_w, root_w
        np.testing.assert_allclose(q.T @ o, span.p, atol=1e-14)
        np.testing.assert_allclose(iota.T @ q, span.pt, atol=1e-14)
        complement = (1 - 1j) ** (excess + c_b) * (1 + 1j) ** (excess + c)
        for lam in (0.37, 2.9):
            # det(I - U) = det(I - U_S) times 1 - i and 1 + i over the complement of the span
            m = scattering._minus_u_on_span(g, kind, scattering.vertex_coefficients(g, lam, kind))
            on_span = complement * determinant(m)
            det = scattering._det_identity_minus_u(g, lam, kind)
            assert abs(det - on_span) <= 1e-12 * abs(on_span), lam
            vals = eig_general(evolution_operator(g, lam, kind).matrix).eigenvalues
            assert int(np.sum(np.abs(vals - 1j) < 1e-8)) == excess + c_b, lam
            assert int(np.sum(np.abs(vals + 1j) < 1e-8)) == excess + c, lam

    @pytest.mark.parametrize("name,g,kind,counts", SPAN_RANK_CASES,
                             ids=[case[0] for case in SPAN_RANK_CASES])
    def test_scan_matches_eigvalsh(self, name, g, kind, counts):
        assert_scan_matches_eigvalsh(g, kind)

    @pytest.mark.parametrize(
        "g,kind",
        [(_random_graph(2024), "standard"), (_with_kind(_random_graph(2024), "generalized"),
                                             "generalized")]
        + [(g, kind) for _, g, kind, _ in SPAN_RANK_CASES[:3]],
        ids=["random24", "random24-generalized"] + [case[0] for case in SPAN_RANK_CASES[:3]],
    )
    def test_scan_decomposes_small_matrices_only(self, g, kind, monkeypatch):
        """Every determinant of a scan is V x V, and every inverse, Hermitian
        eigendecomposition and SVD r x r, none 2B x 2B; no general eigensolver runs."""
        c, c_b = g.components()
        r = 2 * g.num_vertices - c - c_b
        assert r < 2 * g.num_edges
        scattering._fixed_part(g, kind).span  # built once per graph, from B x V incidence SVDs
        shapes = {"determinant": [], "inv": [], "eigvalsh": [], "svd": []}
        det, inv, eigvalsh, svd = (scattering.determinant, np.linalg.inv, np.linalg.eigvalsh,
                                   np.linalg.svd)
        monkeypatch.setattr(scattering, "determinant",
                            lambda m: shapes["determinant"].append(m.shape) or det(m))
        monkeypatch.setattr(np.linalg, "inv", lambda m: shapes["inv"].append(m.shape) or inv(m))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: shapes["eigvalsh"].append(m.shape) or eigvalsh(m))
        monkeypatch.setattr(np.linalg, "svd",
                            lambda m, **kw: shapes["svd"].append(m.shape) or svd(m, **kw))

        def no_general_eigensolver(*args, **kwargs):
            raise AssertionError("general eigensolver called")

        for name in ("eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_general_eigensolver)
        secular_zero_scan(g, kind)
        sizes = {"determinant": g.num_vertices, "inv": r, "eigvalsh": r, "svd": r}
        for name, seen in shapes.items():
            n = sizes[name]
            assert seen and all(shape[-2:] == (n, n) for shape in seen), (name, set(seen))


    def test_excess_past_the_float_range(self):
        """K47 has B - V = 1034: 2^(B - V) and det(I - U) pass the largest float, while the
        span (r = 93), the gaps, the counts and Z, which never form either, stay finite."""
        g = build_graph(47, [(i, j) for i in range(47) for j in range(i + 1, 47)])
        assert g.num_edges - g.num_vertices >= 1024
        assert scattering._fixed_part(g, "standard").span.p.shape == (93, 47)
        assert stationarity_gap(g, 47.0) < NULL_SPACE_TOL < stationarity_gap(g, 20.0)
        assert secular_zero_count(g, -1.0, 1.0) == 1  # the spectrum is 0 and 47 x 46
        assert secular_zero_count(g, 1.0, 50.0) == 46
        assert math.isfinite(abs(secular_function(g, 20.0)))
        assert math.isinf(abs(scattering._det_identity_minus_u(g, complex(20.0, 1.0))))


class TestNearDegenerateZeros:
    """Zeros closer than one grid cell: the K4 1+delta splitting and a seeded graph."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5, 1e-6, 1e-8])
    def test_k4_split_double_zero(self, delta):
        # spectrum {0, 4, 4, 4 + 2 delta}: a double zero beside a simple one
        assert_scan_matches_eigvalsh(_k4_split(delta), "generalized")

    def test_benchmark_seed12_graph(self):
        assert_scan_matches_eigvalsh(build_graph(24, SEED12_EDGES), "standard")

    def test_reference_guard_on_the_k4_split_zero(self):
        # zgeev's min |mu| at the eigenvalue 4 + 2e-6 sits below ON_ZERO_TOL x 2B
        staircase, gap = reference_staircase(_k4_split(1e-6), K4_SPLIT_ZERO, "generalized")
        assert staircase is None
        assert gap < scattering.ON_ZERO_TOL * 2 * 6

    @pytest.mark.xfail(strict=True, reason=(
        "at a lambda on a zero to rounding the Cayley guard can let the point through where"
        " zgeev's would not: on K4 with edge weight 1 + 1e-6 at lambda = 4.000002 the LU"
        " inverse in scattering._cayley_eigenvalues reads min |mu| = 2.96e-14 against"
        " ON_ZERO_TOL x 2B = 2.13e-14, while zgeev reads 8.5e-16"
    ))
    def test_staircase_on_the_k4_split_zero(self):
        assert _ZeroCounter(_k4_split(1e-6), "generalized").staircase(K4_SPLIT_ZERO) is None

    def test_scan_range_ending_on_a_zero(self, k4):
        # the run at lam_min = 0 cannot be counted; its zero keeps its box count
        zeros = secular_zero_scan(k4, lam_min=0.0)
        assert [(round(z.lam, 9), z.multiplicity) for z in zeros] == [(0.0, 1), (4.0, 3)]


# the eigenvalue 4 + 2 delta of _k4_split(1e-6), 4.000002 to rounding
K4_SPLIT_ZERO = float.fromhex("0x1.000008637bd06p+2")


def _k4_split(delta):
    """K4 with one edge weight 1 + delta: spectrum {0, 4, 4, 4 + 2 delta}."""
    return build_graph(4, K4_EDGES, weights=(1.0 + delta,) + (1.0,) * 5)


def _c6_split(delta):
    """C6 with one edge weight 1 + delta."""
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)], weights=(1.0 + delta,) + (1.0,) * 5)


CERTIFIED_CASES = (
    fixture_graphs()
    + [("seed12", build_graph(24, SEED12_EDGES), "standard")]
    + [(f"K4-delta-{d:g}", _k4_split(d), "generalized") for d in (1e-2, 1e-3, 1e-5, 1e-6, 1e-8)]
)


class TestDeflatedSearch:
    """Zeros inside one cell are found by a search of Z with the known zeros
    divided out, not by minimizing the smallest singular value of I - U."""

    def test_k4_cluster_within_rounding_placed_exactly(self):
        # {4, 4, 4 + 2e-8}: |Z| is below rounding between them, yet the
        # deflated search places both zeros to the root tolerance
        g = _k4_split(1e-8)
        zeros = secular_zero_scan(g, "generalized")
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, "generalized"))
        assert sum(z.multiplicity for z in zeros) == len(expected)
        for z in zeros:
            near = np.abs(expected - z.lam) < 1e-9
            assert int(np.sum(near)) == z.multiplicity, (z, expected)
            assert np.max(np.abs(expected[near] - z.lam)) < 1e-10, (z, expected)

    @pytest.mark.parametrize("g", [_k4_split(1e-6), _c6_split(1e-8)],
                             ids=["K4-delta-1e-06", "C6-delta-1e-08"])
    def test_one_svd_per_zero(self, g, monkeypatch):
        # the search evaluates Z alone; s_min is taken once, to check each zero,
        # the zeros' points passed as stacks
        points = []
        gap = scattering.stationarity_gap
        monkeypatch.setattr(scattering, "stationarity_gap",
                            lambda *args: points.extend(np.atleast_1d(args[1])) or gap(*args))
        zeros = secular_zero_scan(g, "generalized")
        assert points == [z.lam for z in zeros]
        assert_scan_matches_eigvalsh(g, "generalized")

    @pytest.mark.parametrize("name,g,kind", CERTIFIED_CASES, ids=[c[0] for c in CERTIFIED_CASES])
    def test_halving_alone_finds_every_zero(self, name, g, kind, monkeypatch):
        # the fallback when the search misses: splitting with counts
        monkeypatch.setattr(_ZeroCounter, "search", lambda self, a, b, roots: None)
        assert_scan_matches_eigvalsh(g, kind)

    @pytest.mark.parametrize("delta", [1e-7, 3.2e-7])
    def test_halving_alone_separates_k4_split(self, delta, monkeypatch):
        # the midpoint of the part around {4, 4, 4 + 2 delta} lies near a zero
        # but outside its box, so its count fails; a quarter point splits the
        # part instead.  The deflated search has not been seen to miss here,
        # so only a forced miss reaches this
        monkeypatch.setattr(_ZeroCounter, "search", lambda self, a, b, roots: None)
        assert_scan_matches_eigvalsh(_k4_split(delta), "generalized")

    def test_failed_split_count_tries_the_next_point(self, monkeypatch):
        # the count through the first split point fails once; the seed-12
        # graph's close pair forces a split of the whole range
        calls = []
        count = _ZeroCounter.count

        def fail_once(self, x, y):
            calls.append((x, y))
            return None if len(calls) == 2 else count(self, x, y)

        monkeypatch.setattr(_ZeroCounter, "count", fail_once)
        assert_scan_matches_eigvalsh(build_graph(24, SEED12_EDGES), "standard")
        assert len(calls) > 2 and calls[1][0] == calls[0][0] and calls[1][1] < calls[0][1]


class TestCertifiedScan:
    """The whole-range count certifies the scan: a grid too coarse to bracket
    every zero still finds them all, with their multiplicities."""

    @pytest.mark.parametrize("per_vertex", [2, 3])
    @pytest.mark.parametrize("name,g,kind", CERTIFIED_CASES, ids=[c[0] for c in CERTIFIED_CASES])
    def test_coarse_grid_finds_every_zero(self, name, g, kind, per_vertex):
        assert_scan_matches_eigvalsh(g, kind, grid_per_vertex=per_vertex)


BRENT_CASES = fixture_graphs() + [
    (f"K4-delta-{d:g}", _k4_split(d), "generalized") for d in (1e-3, 1e-6)
]


def _brent_one(f, a, b, xtol):
    """Brent's method on one bracket, f evaluated a point at a time."""
    return scattering._brent_lockstep(lambda xs: [f(x) for x in xs], [(a, b)], xtol)[0]


def _record_scan(g, kind, monkeypatch):
    """Scan g, recording what Brent's method is handed.

    Returns the zeros, the brackets of every lockstep pass as lists of [a,
    b, xtol, root, the points evaluated in order], and the function each
    pass evaluates.  The first pass refines the grid's sign changes; each
    further one is a deflated search's single bracket.
    """
    lockstep, steps = scattering._brent_lockstep, scattering._brent_steps
    passes, evaluators = [], []

    def replay(record, run):
        x = next(run)
        while True:
            record[4].append(x)
            try:
                x = run.send((yield x))
            except StopIteration as done:
                record[3] = done.value
                return done.value

    def recording_lockstep(evaluate, brackets, xtol):
        records = []

        def recording_steps(a, b, xtol):
            records.append([a, b, xtol, None, []])
            return replay(records[-1], steps(a, b, xtol))

        with monkeypatch.context() as m:
            m.setattr(scattering, "_brent_steps", recording_steps)
            roots = lockstep(evaluate, brackets, xtol)
        assert [(a, b) for a, b, *_ in records] == brackets
        assert [r[3] for r in records] == roots
        passes.append(records)
        evaluators.append(evaluate)
        return roots

    with monkeypatch.context() as m:
        m.setattr(scattering, "_brent_lockstep", recording_lockstep)
        zeros = secular_zero_scan(g, kind)
    return zeros, passes, evaluators


LOCKSTEP_CASES = BRENT_CASES + [
    (f"random24-{seed}-{kind}", _with_kind(_random_graph(seed), kind), kind)
    for seed in range(300, 310) for kind in ("standard", "generalized")
]


class TestBrentRoot:
    """`_brent_steps`, driven bracket by bracket in lockstep by the scan and on
    one bracket by the deflated search, against scipy.optimize.brentq, the
    variant it ports."""

    @pytest.mark.parametrize("name,g,kind", BRENT_CASES, ids=[c[0] for c in BRENT_CASES])
    def test_scan_brackets_match_scipy(self, name, g, kind, monkeypatch):
        # every bracket the scan hands over, refined in lockstep or alone: the
        # same root, bit for bit, from the same sequence of evaluations
        optimize = pytest.importorskip("scipy.optimize")
        _, passes, evaluators = _record_scan(g, kind, monkeypatch)
        assert passes[0] or passes[1:]  # P2's zeros sit on grid points
        assert all(len(records) == 1 for records in passes[1:])  # a search's one bracket
        fs = [lambda t: secular_function(g, t, kind).real]
        fs += [lambda t, evaluate=evaluate: evaluate([t])[0] for evaluate in evaluators[1:]]
        for records, f in zip(passes, fs):
            for a, b, xtol, x, ours in records:
                theirs = []
                y = optimize.brentq(lambda t: theirs.append(t) or f(t), a, b, xtol=xtol)
                assert x.hex() == float(y).hex(), (a, b)
                assert ours == theirs, (a, b)

    @pytest.mark.parametrize("name,g,kind", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES])
    def test_lockstep_roots_match_scalar_brent(self, name, g, kind, monkeypatch):
        _, passes, _ = _record_scan(g, kind, monkeypatch)
        for a, b, xtol, x, _ in passes[0]:
            alone = _brent_one(lambda t: secular_function(g, t, kind).real, a, b, xtol)
            assert x.hex() == alone.hex(), (a, b)

    def test_scan_evaluates_z_in_stacks(self, monkeypatch):
        """With every zero simple and bracketed by the grid, Z is one stacked call per
        grid stack and per Brent round (one scalar call per point before: about 270)."""
        g = _random_graph(0)
        calls = []
        z = scattering.secular_function
        monkeypatch.setattr(scattering, "secular_function",
                            lambda g, lam, kind="standard": calls.append(lam) or z(g, lam, kind))
        zeros, passes, _ = _record_scan(g, "standard", monkeypatch)
        assert [zero.multiplicity for zero in zeros] == [1] * g.num_vertices
        assert calls and all(isinstance(lam, np.ndarray) and lam.ndim == 1 for lam in calls)
        n_grid = 10 * g.num_vertices
        stacks = len(list(scattering._stacks(np.zeros(n_grid + 1), g.num_vertices)))
        rounds = max(len(points) for *_, points in passes[0]) - 2  # f(a), f(b) are grid values
        assert len(calls) <= stacks + rounds, (len(calls), stacks, rounds)

    def test_endpoint_zero_returned_as_is(self):
        assert _brent_one(lambda x: x - 1.0, 1.0, 3.0, 1e-10) == 1.0
        assert _brent_one(lambda x: x - 3.0, 1.0, 3.0, 1e-10) == 3.0

    def test_matching_signs_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            _brent_one(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_no_convergence_in_100_iterations(self):
        # a step has no slope to interpolate, so every step bisects, and a
        # bracket 2e300 wide needs about 1000 halvings to reach 1e-10
        calls = []
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brent_one(lambda x: calls.append(x) or (-1.0 if x < 1 / 3 else 1.0),
                       -1e300, 1e300, 1e-10)
        assert len(calls) == 102


def _planted_family(name, n):
    """Edge list of a graph with exactly degenerate Laplacian eigenvalues."""
    if name == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if name == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if name == "star":
        return [(0, j) for j in range(1, n)]
    p = n // 2  # complete bipartite K_{p, n - p}
    return [(i, j) for i in range(p) for j in range(p, n)]


@st.composite
def planted_near_degeneracies(draw):
    """A small symmetric graph with one edge weight moved to 1 + delta."""
    name = draw(st.sampled_from(["complete", "cycle", "star", "bipartite"]))
    n = draw(st.integers(4, 6 if name == "complete" else 8))
    edges = _planted_family(name, n)
    k = draw(st.integers(0, len(edges) - 1))
    delta = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.floats(2.0, 8.0))
    weights = [1.0] * len(edges)
    weights[k] += delta
    return build_graph(n, edges, weights=tuple(weights))


class TestPlantedNearDegeneracies:
    @settings(max_examples=30)
    @given(planted_near_degeneracies())
    def test_counts_and_positions_match_eigvalsh(self, g):
        assert_scan_matches_eigvalsh(g, "generalized")


def default_grid(g):
    """A 50 V grid: [-1, 2 max deg + 1] in 50 V cells."""
    deg = g.degrees().valency
    return np.linspace(-1.0, 2.0 * deg.max() + 1.0, 50 * g.num_vertices + 1)


class ReferenceTopEdge:
    """Argument-principle counts along one top edge lam + i eta, a <= lam <= b.

    The reference for the eigenphase count of `_ZeroCounter`, computed from
    Z at complex lambda alone.  The zeros of Z in (x, y), for a <= x < y <=
    b, number (1/pi) x the turn of arg Z along y -> y + i eta -> x + i eta
    -> x, by Schwarz reflection, with eta = min(b - a, deg_min / 2).  The
    turn along the top edge is accumulated once from a, so a count over
    (x, y) walks only the sides at x and y.  Each segment is halved while Z
    turns by more than pi/4 along it or its modulus changes by more than a
    factor e^0.5; the phase alone aliases, since a fourfold zero can turn Z
    by nearly 2 pi between two samples.  Along the top edge the modulus can
    be equal at both ends of a piece that zeros below turn by 2 pi, so that
    edge is first cut into pieces that turn Z by less than 7 pi / 4: per
    unit length each of the V zeros turns it by at most 1/eta, and the
    poles at deg_j (1 +- i) by at most 1/(deg_j - eta) per vertex.  A
    segment that would have to shrink below 1e-6 eta means a side sits on a
    zero, where the sign of Z is rounding noise; that side's phase, and
    every count through it, is then None.
    """

    def __init__(self, g, kind, a, b):
        self.z = lambda lam: secular_function(g, lam, kind)
        deg = degree_vector(g, kind)
        self.eta = eta = min(b - a, 0.5 * float(np.min(deg)))
        rate = g.num_vertices / eta + float(np.sum(1.0 / (deg - eta)))
        pieces = math.ceil((b - a) * rate / (1.75 * math.pi))
        self.floor = max(1e-6 * eta, 1e-14 * max(1.0, abs(a), abs(b)))
        self.xs = np.linspace(a, b, pieces + 1)
        self.values = [self.z(complex(x, eta)) for x in self.xs]
        self.turns = [0.0]  # along the top, from a + i eta to each node
        for k in range(pieces):
            step = self.turn(complex(self.xs[k], eta), self.values[k],
                             complex(self.xs[k + 1], eta), self.values[k + 1])
            self.turns.append(None if step is None or self.turns[-1] is None
                              else self.turns[-1] + step)
        self._phases = {}

    def turn(self, p, zp, q, zq):
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
                zmid = self.z(mid)
                stack.append((mid, zmid, q, zq))
                stack.append((p, zp, mid, zmid))
        return turn

    def phase(self, x):
        """Turn of arg Z along a + i eta -> x + i eta -> x."""
        if x not in self._phases:
            zx = self.z(x).real
            k = min(int(np.searchsorted(self.xs, x, "right")) - 1, len(self.xs) - 1)
            top, zt, along = complex(x, self.eta), self.values[k], self.turns[k]
            if x != self.xs[k] and along is not None:
                zt = self.z(top)
                step = self.turn(complex(self.xs[k], self.eta), self.values[k], top, zt)
                along = None if step is None else along + step
            # walked upwards, so a side sitting on a zero fails after few halvings
            up = None if zx == 0.0 or along is None else self.turn(complex(x), complex(zx), top, zt)
            self._phases[x] = None if up is None else along - up
        return self._phases[x]

    def count(self, x, y):
        """Zeros in (x, y); None if x or y sits on a zero."""
        px, py = self.phase(x), self.phase(y)
        return None if px is None or py is None else round((px - py) / math.pi)


# the fixtures, then every weighted graph in its other kind too
K4_SPLITS = [_k4_split(d) for d in (1e-3, 1e-6, 1e-8)]
SUBRANGE_CASES = (
    fixture_graphs()
    + [("P2w-standard", make_p2_weighted(), "standard")]
    + [(f"K4-delta-{d:g}-{kind}", g, kind) for d, g in zip((1e-3, 1e-6, 1e-8), K4_SPLITS)
       for kind in ("generalized", "standard")]
)
ON_ZERO_CASES = fixture_graphs() + [
    (f"K4-delta-{d:g}", g, "generalized") for d, g in zip((1e-3, 1e-6, 1e-8), K4_SPLITS)
]


class TestZeroCount:
    """The eigenphase count against eigvalsh multiplicities."""

    @pytest.mark.parametrize(
        "make,lam,mult",
        [(make_petersen, 2.0, 5), (make_petersen, 5.0, 4), (make_k33, 3.0, 4),
         (make_k4, 4.0, 3), (make_c3, 3.0, 2)],
        ids=["petersen-2", "petersen-5", "k33-3", "k4-4", "c3-3"],
    )
    def test_bracket_count_is_multiplicity(self, make, lam, mult):
        g = make()
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, "standard"))
        assert int(np.sum(np.abs(expected - lam) < 1e-9)) == mult
        grid = default_grid(g)
        i = int(np.argmin(np.abs(grid - lam)))
        # the default-grid cells on either side, and a wider bracket
        for a, b in ((grid[i - 1], grid[i + 1]), (lam - 0.3, lam + 0.45)):
            assert secular_zero_count(g, a, b) == mult, (a, b)

    def test_petersen_five_sits_on_the_default_grid(self):
        g = make_petersen()
        grid = default_grid(g)
        assert np.min(np.abs(grid - 5.0)) < 1e-12

    def test_empty_bracket_reads_zero(self, petersen, k4):
        assert secular_zero_count(petersen, 2.5, 4.5) == 0
        assert secular_zero_count(k4, 0.5, 3.5) == 0

    def test_whole_spectrum(self, random8):
        assert secular_zero_count(random8, -0.5, 12.0) == 8

    @pytest.mark.parametrize("name,g,kind", SUBRANGE_CASES, ids=[c[0] for c in SUBRANGE_CASES])
    def test_shared_top_edge_counts_every_subrange(self, name, g, kind):
        # 351 sub-ranges of 27 points off the top edge's nodes: the eigenphase
        # count, the argument principle along one shared top edge, and eigvalsh
        counter = _ZeroCounter(g, kind)
        lam_max = float(2.0 * np.max(counter.deg) + 1.0)
        edge = ReferenceTopEdge(g, kind, -1.0, lam_max)
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, kind))
        xs = np.linspace(-1.0, lam_max, 29)[1:-1] + 0.0123
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                inside = int(np.sum((expected > xs[i]) & (expected < xs[j])))
                assert counter.count(xs[i], xs[j]) == inside, (xs[i], xs[j])
                assert edge.count(xs[i], xs[j]) == inside, (xs[i], xs[j])

    def test_endpoint_on_a_zero_rejected(self, petersen):
        with pytest.raises(ValueError):
            secular_zero_count(petersen, 5.0, 5.2)

    def test_empty_interval_rejected(self, k4):
        with pytest.raises(ValueError):
            secular_zero_count(k4, 2.0, 2.0)

    def test_long_range_costs_two_eigendecompositions(self, k4, monkeypatch):
        # the count reads U_S at the two ends alone, however long the range
        coefs, eigs = [], []
        span, eigvalsh = scattering._minus_u_on_span, np.linalg.eigvalsh
        monkeypatch.setattr(scattering, "_minus_u_on_span",
                            lambda g, kind, coef: coefs.append(coef) or span(g, kind, coef))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigs.append(m) or eigvalsh(m))

        def no_z(*args):
            raise AssertionError("Z evaluated")

        monkeypatch.setattr(scattering, "secular_function", no_z)
        assert secular_zero_count(k4, -1.0, 1e5) == 4
        want = [scattering.vertex_coefficients(k4, lam).tobytes() for lam in (-1.0, 1e5)]
        assert sorted(c.tobytes() for c in coefs) == sorted(want)
        assert len(eigs) == 2 and all(m.shape == (7, 7) for m in eigs)  # r = 2V - 1 on K4

    @pytest.mark.parametrize("name,g,kind", ON_ZERO_CASES, ids=[c[0] for c in ON_ZERO_CASES])
    def test_count_beside_a_zero_is_none_or_right(self, name, g, kind):
        # near a zero the count may fail, never miscount; from 1e-10 out it resolves
        counter = _ZeroCounter(g, kind)
        lo, hi = -1.0, float(2.0 * np.max(counter.deg) + 1.0)
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, kind))
        for lam in expected:
            for offset in (1e-12, 1e-10, 1e-9, 1e-8):
                for x in (lam - offset, lam + offset):
                    below = int(np.sum(expected < x))
                    left, right = counter.count(lo, x), counter.count(x, hi)
                    assert left in (None, below), (lam, x)
                    assert right in (None, len(expected) - below), (lam, x)
                    if offset >= 1e-10:
                        assert left is not None and right is not None, (lam, x)


# the 58 graphs the scan regressions compare bit for bit
SCAN_REGRESSION_CASES = (
    fixture_graphs()
    + [(f"K4-delta-{d:g}", _k4_split(d), "generalized")
       for d in (1e-2, 1e-3, 1e-5, 1e-6, 1e-7, 3.2e-7, 1e-8)]
    + [(f"C6-delta-{d:g}", _c6_split(d), "generalized") for d in (1e-4, 1e-6, 1e-8)]
    + [(f"random24-{seed}-{kind}", _random_graph(seed, weighted=kind == "generalized"), kind)
       for seed in range(100, 120) for kind in ("standard", "generalized")]
)
# ... and the fixtures in their other kind, and K4 1 + 1e-9
STAIRCASE_CASES = (
    SCAN_REGRESSION_CASES
    + [(f"{name}-{other}", _with_kind(g, other), other) for name, g, kind in fixture_graphs()
       for other in ({"standard", "generalized"} - {kind})]
    + [("K4-delta-1e-09", _k4_split(1e-9), "generalized")]
)


def _assert_staircase_matches_reference(g, kind, xs, pairs):
    """The Hermitian staircase against zgeev's at xs, and their counts over pairs.

    At every point where neither side is None the two agree to 1e-9 plus 2B
    eps / min |mu|: the inverse (I - U_S)^-1 is exact only to eps times its
    norm, 1 / min |mu|, so the eigenphases far from 0 carry that error beside
    a zero.  Where a count lets x through (min |mu| >= ON_ZERO_TOL x 2B), it
    is at most 1/8, so the rounded counts agree.
    """
    counter = _ZeroCounter(g, kind)
    eps = float(np.finfo(float).eps)
    for x in xs:
        ours, (theirs, gap) = counter.staircase(x), reference_staircase(g, x, kind)
        if ours is not None and theirs is not None:
            assert abs(ours - theirs) <= 1e-9 + 2 * g.num_edges * eps / gap, (x, ours, theirs)
    for a, b in pairs:
        ours, theirs = counter.count(a, b), reference_count(g, a, b, kind)
        if ours is not None and theirs is not None:
            assert ours == theirs, (a, b)


class TestHermitianStaircase:
    """The eigenphase count from eigvalsh of the Cayley transform of U_S against
    the reference count from zgeev of I - U_S (`reference.reference_staircase`)."""

    @pytest.mark.parametrize("name,g,kind", STAIRCASE_CASES, ids=[c[0] for c in STAIRCASE_CASES])
    def test_scan_points_match_zgeev(self, name, g, kind, monkeypatch):
        # every point a scan counts at, and 9 points across the range
        pairs = []
        count = _ZeroCounter.count
        monkeypatch.setattr(_ZeroCounter, "count",
                            lambda self, a, b: pairs.append((a, b)) or count(self, a, b))
        secular_zero_scan(g, kind)
        monkeypatch.undo()
        lam_max = float(2.0 * np.max(scattering._fixed_part(g, kind).deg) + 1.0)
        across = (np.linspace(-1.0, lam_max, 9) + 0.0123).tolist()
        pairs += list(zip(across, across[1:]))
        _assert_staircase_matches_reference(g, kind, sorted({x for p in pairs for x in p}), pairs)

    @pytest.mark.parametrize("name,g,kind", ON_ZERO_CASES, ids=[c[0] for c in ON_ZERO_CASES])
    def test_points_beside_a_zero_match_zgeev(self, name, g, kind):
        lo, hi = -1.0, float(2.0 * np.max(scattering._fixed_part(g, kind).deg) + 1.0)
        xs = [float(lam + side * offset) for lam in np.linalg.eigvalsh(edge_list_laplacian(g, kind))
              for offset in (1e-12, 1e-10, 1e-9, 1e-8) for side in (-1, 1)]
        _assert_staircase_matches_reference(g, kind, xs + [lo, hi],
                                            [(lo, x) for x in xs] + [(x, hi) for x in xs])

    BIPARTITE = [
        ("P2", build_graph(2, [(0, 1)]), "standard"),
        ("C6", make_c6(), "standard"),
        ("K3,3", make_k33(), "standard"),
        ("C8w", build_graph(8, [(i, (i + 1) % 8) for i in range(8)],
                            weights=np.random.default_rng(8).uniform(0.5, 2.0, 8)), "generalized"),
    ]

    @pytest.mark.parametrize("name,g,kind", BIPARTITE, ids=[c[0] for c in BIPARTITE])
    def test_box_counts_beside_eigenphases_at_pi(self, name, g, kind):
        """On a bipartite graph U_S has eigenphases at pi where it has them at 0, at
        every eigenvalue: the transform's pole sits at +1, where a count at the
        zero itself answers None, not at -1, where the box lam +- res counts through."""
        counter = _ZeroCounter(g, kind)
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, kind))
        for lam, mult in multiplicities(laplacian_spectrum(build_laplacian(g, kind)).eigenvalues):
            coef = scattering.vertex_coefficients(g, lam, kind)
            mu = eig_general(scattering._minus_u_on_span(g, kind, coef)).eigenvalues
            assert int(np.sum(np.abs(mu - 2.0) < 1e-7)) == mult, lam  # eigenphases at pi
            assert int(np.sum(np.abs(expected - lam) < 1e-9)) == mult
            assert counter.box(lam) == mult, lam


class TestScanRange:
    def test_reversed_range_rejected(self, k4):
        with pytest.raises(ValueError, match=r"empty interval \[5.0, 1.0\]"):
            secular_zero_scan(k4, lam_min=5.0, lam_max=1.0)

    def test_empty_range_rejected(self, k4):
        with pytest.raises(ValueError, match=r"empty interval \[2.0, 2.0\]"):
            secular_zero_scan(k4, lam_min=2.0, lam_max=2.0)


WEIGHTED_4_5 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)],
                           weights=tuple(np.random.default_rng(0).uniform(0.5, 2.0, 5)))
# the fixtures, a weighted graph and K4 with one edge weight 1 + delta, down to
# a triple zero whose members lie 2e-9 apart
LIFT_CASES = fixture_graphs() + [("weighted-4-5", WEIGHTED_4_5, "generalized")] + [
    (f"K4-delta-{delta:g}", _k4_split(delta), "generalized") for delta in (1e-3, 1e-6, 1e-7, 1e-9)
]


class TestReconstruction:
    def test_p2_ground_state_uniform(self, p2):
        psi = reconstruct_eigenvectors(p2, 0.0)
        assert psi.shape == (2, 1)
        ratio = psi[1, 0] / psi[0, 0]
        assert ratio == pytest.approx(1.0)

    def test_p2_top_state_alternating(self, p2):
        psi = reconstruct_eigenvectors(p2, 2.0)
        ratio = psi[1, 0] / psi[0, 0]
        assert ratio == pytest.approx(-1.0)

    def test_any_graph_zero_mode_constant(self, random8):
        psi = reconstruct_eigenvectors(random8, 0.0)
        assert psi.shape[1] == 1
        ratios = psi[:, 0] / psi[0, 0]
        np.testing.assert_allclose(ratios, 1.0, atol=1e-9)

    def test_k4_degenerate_eigenspace(self, k4):
        psi = reconstruct_eigenvectors(k4, 4.0)
        assert psi.shape == (4, 3)
        ones = np.ones(4) / 2.0
        # orthogonal to the equilibrium state
        assert np.max(np.abs(ones @ psi)) < 1e-9

    def test_residuals_on_all_fixtures(self):
        for name, g, kind in fixture_graphs():
            lap = build_laplacian(g, kind)
            eigs = laplacian_spectrum(lap).eigenvalues
            for lam, count in multiplicities(laplacian_spectrum(lap).eigenvalues):
                psi = reconstruct_eigenvectors(g, float(lam), kind)
                assert psi.shape[1] == count, (name, lam)
                res = lap.matrix @ psi - float(lam) * psi
                assert np.max(np.abs(res)) < 1e-7, (name, lam)

    def test_off_spectrum_rejected(self, k4):
        with pytest.raises(NullSpaceError):
            reconstruct_eigenvectors(k4, 1.2345)

    @pytest.mark.parametrize(
        "g",
        [WEIGHTED_4_5, _k4_split(1e-6), _k4_split(1e-7)],
        ids=["weighted-4-5", "K4-delta-1e-06", "K4-delta-1e-07"],
    )
    def test_generalized_eigenspaces(self, g):
        # weighted bonds enter psi with sqrt(w_d); a near-degenerate null space
        # takes its dimension from the zero's multiplicity, not from null_tol
        lap = edge_list_laplacian(g, "generalized")
        eigs = np.linalg.eigvalsh(lap)
        for lam in eigs:
            psi = reconstruct_eigenvectors(g, float(lam), "generalized")
            assert psi.shape[1] == int(np.sum(np.abs(eigs - lam) < 1e-8)), lam
            assert np.max(np.abs(lap @ psi - lam * psi)) < 1e-7, lam

    @pytest.mark.parametrize("name,g,kind", LIFT_CASES, ids=[case[0] for case in LIFT_CASES])
    def test_lift_through_p_matches_the_bond_lift(self, name, g, kind):
        """psi = D^-1 (e^{i pi/4} P^T v + e^{-i pi/4} P^t v) spans the eigenspace that the
        bond amplitudes a = Q v span when summed bond by bond (`reference_eigenvectors`)."""
        for lam, _ in multiplicities(np.linalg.eigvalsh(edge_list_laplacian(g, kind))):
            psi, ref = reconstruct_eigenvectors(g, lam, kind), reference_eigenvectors(g, lam, kind)
            assert psi.shape == ref.shape, lam
            assert np.max(np.abs(psi @ psi.conj().T - ref @ ref.conj().T)) <= 1e-12, lam

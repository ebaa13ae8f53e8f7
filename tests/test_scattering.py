"""Vertex scattering matrices, evolution operator, secular function, reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphscatter import scattering
from graphscatter.errors import (
    DisconnectedGraphError, EndpointRangeError, NullSpaceError, SpectralPoleError,
)
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.laplacian import build_laplacian, laplacian_spectrum
from graphscatter.linalg import determinant, eig_general
from graphscatter.scattering import (
    NULL_SPACE_TOL,
    evolution_determinant_closed_form,
    evolution_operator,
    pole_candidates,
    reconstruct_eigenvectors,
    scan_spectrum_deviation,
    scattering_phases,
    secular_function,
    secular_zero_count,
    secular_zero_scan,
    vertex_scattering_matrix,
    _TopEdge,
    _ZeroCounter,
)
from conftest import (
    fixture_graphs, make_c3, make_c3_weighted, make_k33, make_k4, make_petersen,
)


class TestVertexSigma:
    def test_degree_two_at_zero(self, c3):
        # phase (1+i)/(1-i) = i; back-scatter (1+i)/2, transmission (1-i)/2
        sig = vertex_scattering_matrix(c3, 0, 0.0)
        assert sig.phase == pytest.approx(1j)
        expected = np.array([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
        np.testing.assert_allclose(sig.entries, expected, atol=1e-14)

    def test_unitary_for_real_lambda(self, petersen):
        rng = np.random.default_rng(2)
        for lam in rng.uniform(-5, 10, 10):
            sig = vertex_scattering_matrix(petersen, 3, float(lam))
            defect = np.max(np.abs(sig.entries @ sig.entries.conj().T - np.eye(3)))
            assert defect < 1e-10

    def test_backscatter_vanishes_at_special_point(self, k4):
        # v-regular at lambda = v + i(v-2): diagonal 0, off-diagonal modulus 1
        lam = complex(3, 1)
        sig = vertex_scattering_matrix(k4, 0, lam)
        assert np.max(np.abs(np.diag(sig.entries))) < 1e-14
        off = sig.entries[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(np.abs(off), 1.0, atol=1e-12)

    def test_unit_weights_reproduce_standard_bitwise(self):
        gw = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 1.0, 1.0))
        for v in range(3):
            std = vertex_scattering_matrix(gw, v, 1.7, "standard")
            gen = vertex_scattering_matrix(gw, v, 1.7, "generalized")
            assert np.array_equal(std.entries, gen.entries)

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_vertex_out_of_range(self, c3, vertex):
        with pytest.raises(EndpointRangeError, match=f"vertex {vertex} "):
            vertex_scattering_matrix(c3, vertex, 1.0)

    def test_rows_are_outgoing_columns_incoming(self, c3):
        sig = vertex_scattering_matrix(c3, 1, 0.5)
        space = directed_bonds(c3)
        assert list(sig.outgoing_bonds) == list(space.outgoing(1))
        assert list(sig.incoming_bonds) == list(space.incoming(1))


class TestEvolutionOperator:
    def test_p2_antidiagonal(self, p2):
        lam = 0.8
        u = evolution_operator(p2, lam)
        phases = scattering_phases(p2, lam)
        assert u.matrix[0, 0] == 0 and u.matrix[1, 1] == 0
        assert u.matrix[1, 0] == pytest.approx(-1j * phases[1])
        assert u.matrix[0, 1] == pytest.approx(-1j * phases[0])

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize(
        "g",
        [g for _, g, _ in fixture_graphs()] + [make_c3_weighted()],
        ids=[name for name, _, _ in fixture_graphs()] + ["C3w"],
    )
    def test_equals_dense_reference(self, g, kind):
        """U scattered onto the transition list equals i (R - K diag(coef[terminus]))
        built densely from the bond arrays, entry for entry.  The generalized
        kind runs an unweighted fixture with seeded random weights."""
        if kind == "generalized" and not g.is_weighted:
            rng = np.random.default_rng(g.num_edges)
            g = build_graph(g.num_vertices, g.edges, weights=rng.uniform(0.5, 2.0, g.num_edges))
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

    def test_pole_candidates_listed(self, c3):
        cands = pole_candidates(c3)
        assert complex(2, 2) in cands and complex(2, -2) in cands

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    def test_isolated_vertex_rejected(self, kind):
        """A vertex of degree 0 has no scattering matrix: raise, never NaN."""
        g = build_graph(4, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 2.0, 0.5))
        for fn in (evolution_operator, secular_function, scattering_phases):
            with pytest.raises(DisconnectedGraphError, match="vertex 3"):
                fn(g, complex(1.5, -0.2), kind)


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


class TestNearDegenerateZeros:
    """Zeros closer than one grid cell: the K4 1+delta splitting and a seeded graph."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5, 1e-6, 1e-8])
    def test_k4_split_double_zero(self, delta):
        # spectrum {0, 4, 4, 4 + 2 delta}: a double zero beside a simple one
        assert_scan_matches_eigvalsh(_k4_split(delta), "generalized")

    def test_benchmark_seed12_graph(self):
        assert_scan_matches_eigvalsh(build_graph(24, SEED12_EDGES), "standard")

    def test_scan_range_ending_on_a_zero(self, k4):
        # the run at lam_min = 0 cannot be counted; its zero keeps its box count
        zeros = secular_zero_scan(k4, lam_min=0.0)
        assert [(round(z.lam, 9), z.multiplicity) for z in zeros] == [(0.0, 1), (4.0, 3)]


def _k4_split(delta):
    """K4 with one edge weight 1 + delta: spectrum {0, 4, 4, 4 + 2 delta}."""
    return build_graph(4, K4_EDGES, weights=(1.0 + delta,) + (1.0,) * 5)


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

    @pytest.mark.parametrize(
        "g",
        [_k4_split(1e-6), build_graph(6, [(i, (i + 1) % 6) for i in range(6)],
                                      weights=(1.0 + 1e-8,) + (1.0,) * 5)],
        ids=["K4-delta-1e-06", "C6-delta-1e-08"],
    )
    def test_one_svd_per_zero(self, g, monkeypatch):
        # the search evaluates Z alone; s_min is taken once, to check each zero
        calls = []
        gap = scattering.stationarity_gap
        monkeypatch.setattr(scattering, "stationarity_gap",
                            lambda *args: calls.append(args) or gap(*args))
        zeros = secular_zero_scan(g, "generalized")
        assert len(calls) == len(zeros)
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
        count = _TopEdge.count

        def fail_once(self, x, y):
            calls.append((x, y))
            return None if len(calls) == 2 else count(self, x, y)

        monkeypatch.setattr(_TopEdge, "count", fail_once)
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


class TestBrentRoot:
    """`_brent_root` against scipy.optimize.brentq, the variant it ports."""

    @pytest.mark.parametrize("name,g,kind", BRENT_CASES, ids=[c[0] for c in BRENT_CASES])
    def test_scan_brackets_match_scipy(self, name, g, kind, monkeypatch):
        # every bracket the scan hands over: the same root, bit for bit, from
        # the same sequence of evaluations
        optimize = pytest.importorskip("scipy.optimize")
        brackets = []
        root = scattering._brent_root
        monkeypatch.setattr(
            scattering, "_brent_root",
            lambda f, a, b, xtol: brackets.append((f, a, b, xtol)) or root(f, a, b, xtol),
        )
        secular_zero_scan(g, kind)
        assert brackets
        for f, a, b, xtol in brackets:
            ours, theirs = [], []
            x = root(lambda t: ours.append(t) or f(t), a, b, xtol)
            y = optimize.brentq(lambda t: theirs.append(t) or f(t), a, b, xtol=xtol)
            assert x.hex() == float(y).hex(), (a, b)
            assert ours == theirs, (a, b)

    def test_endpoint_zero_returned_as_is(self):
        assert scattering._brent_root(lambda x: x - 1.0, 1.0, 3.0, 1e-10) == 1.0
        assert scattering._brent_root(lambda x: x - 3.0, 1.0, 3.0, 1e-10) == 3.0

    def test_matching_signs_rejected(self):
        with pytest.raises(ValueError, match="same sign"):
            scattering._brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)

    def test_no_convergence_in_100_iterations(self):
        # a step has no slope to interpolate, so every step bisects, and a
        # bracket 2e300 wide needs about 1000 halvings to reach 1e-10
        calls = []
        with pytest.raises(RuntimeError, match="100 iterations"):
            scattering._brent_root(lambda x: calls.append(x) or (-1.0 if x < 1 / 3 else 1.0),
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


class TestZeroCount:
    """The argument-principle count against eigvalsh multiplicities."""

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

    @pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=[c[0] for c in fixture_graphs()])
    def test_shared_top_edge_counts_every_subrange(self, name, g, kind):
        # the scan's bisection counts share the whole range's top edge; points
        # between its nodes need their own short walk along it
        counter = _ZeroCounter(g, kind)
        lam_max = float(2.0 * np.max(counter.deg) + 1.0)
        edge = _TopEdge(counter, -1.0, lam_max)
        expected = np.linalg.eigvalsh(edge_list_laplacian(g, kind))
        xs = np.linspace(-1.0, lam_max, 29)[1:-1] + 0.0123
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                inside = int(np.sum((expected > xs[i]) & (expected < xs[j])))
                assert edge.count(xs[i], xs[j]) == inside, (xs[i], xs[j])

    def test_endpoint_on_a_zero_rejected(self, petersen):
        with pytest.raises(ValueError):
            secular_zero_count(petersen, 5.0, 5.2)

    def test_empty_interval_rejected(self, k4):
        with pytest.raises(ValueError):
            secular_zero_count(k4, 2.0, 2.0)


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
            for lam, count in laplacian_spectrum(lap).multiplicities():
                psi = reconstruct_eigenvectors(g, float(lam), kind)
                assert psi.shape[1] == count, (name, lam)
                res = lap.matrix @ psi - float(lam) * psi
                assert np.max(np.abs(res)) < 1e-7, (name, lam)

    def test_off_spectrum_rejected(self, k4):
        with pytest.raises(NullSpaceError):
            reconstruct_eigenvectors(k4, 1.2345)

    @pytest.mark.parametrize(
        "g",
        [build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)],
                     weights=tuple(np.random.default_rng(0).uniform(0.5, 2.0, 5))),
         _k4_split(1e-6), _k4_split(1e-7)],
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

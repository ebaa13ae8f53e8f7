"""Graph construction, validation, bond space, and file formats."""

import numpy as np
import pytest

from graphscatter.errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointRangeError,
    GraphFormatError,
    GraphValidationError,
    NonPositiveWeightError,
    SelfLoopError,
    WeightCountError,
)
from graphscatter.graph import (
    build_graph,
    cycle_rank,
    directed_bonds,
    graph_to_json,
    parse_graph_edgelist,
    parse_graph_json,
)
from conftest import MALFORMED_JSON, fixture_graphs, make_c3, make_c3_weighted


class TestValidation:
    def test_smallest_legal_graph(self):
        g = build_graph(2, [(0, 1)])
        assert g.num_edges == 1
        assert g.is_connected

    def test_k4_valencies(self):
        g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert g.num_edges == 6
        assert list(g.degrees().valency) == [3, 3, 3, 3]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(EndpointRangeError):
            build_graph(2, [(0, 2)])

    def test_non_positive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            build_graph(2, [(0, 1)], weights=(0.0,))
        with pytest.raises(NonPositiveWeightError):
            build_graph(2, [(0, 1)], weights=(-1.0,))

    def test_weight_count_mismatch(self):
        with pytest.raises(WeightCountError):
            build_graph(3, [(0, 1), (1, 2)], weights=(1.0,))

    def test_connectivity_flag(self):
        disconnected = build_graph(4, [(0, 1), (2, 3)])
        assert not disconnected.is_connected
        assert build_graph(4, [(0, 1), (1, 2), (2, 3)]).is_connected


class TestMalformedInput:
    """Vertex counts and endpoints are integers; nothing is truncated or coerced."""

    @pytest.mark.parametrize("num_vertices,edges", [
        (2.7, [(0, 1)]),
        (2, [(0, 1.9)]),
        ("3", [(1, 2)]),
        (3, [(True, 2)]),
        (True, [(0, 1)]),
        (None, [(0, 1)]),
        (3, [(0, None)]),
    ])
    def test_non_integer_rejected(self, num_vertices, edges):
        with pytest.raises(GraphValidationError, match="integer"):
            build_graph(num_vertices, edges)

    @pytest.mark.parametrize("weight", ["2.5", True, None, 1j])
    def test_non_real_weight_rejected(self, weight):
        with pytest.raises(GraphValidationError, match="edge 0 must be a real number"):
            build_graph(2, [(0, 1)], weights=[weight])

    def test_numpy_real_weights_build(self):
        g = build_graph(3, [(0, 1), (1, 2)], weights=[np.float32(0.5), np.int64(2)])
        assert g.weights == (0.5, 2.0) and all(type(w) is float for w in g.weights)

    @pytest.mark.parametrize("edge", [5, (0, 1, 2), (1,), None])
    def test_edge_not_a_pair_rejected(self, edge):
        with pytest.raises(GraphValidationError, match="edge 0 must be a pair of endpoints"):
            build_graph(3, [edge])

    def test_numpy_integers_build(self):
        g = build_graph(np.int64(3), [(np.int32(0), np.int64(2)), (np.uint8(1), 2)])
        assert g.num_vertices == 3 and type(g.num_vertices) is int
        assert g.edges == ((0, 2), (1, 2))
        assert all(type(x) is int for edge in g.edges for x in edge)

    @pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
    def test_malformed_json(self, name):
        text, error = MALFORMED_JSON[name]
        with pytest.raises(error):
            parse_graph_json(text)


class TestBondSpace:
    def test_p2_two_bonds(self, p2):
        space = directed_bonds(p2)
        assert space.num_bonds == 2
        assert space.reversal[0] == 1 and space.reversal[1] == 0

    def test_k4_twelve_bonds(self, k4):
        assert directed_bonds(k4).num_bonds == 12

    def test_reversal_is_fixed_point_free_involution(self, petersen):
        space = directed_bonds(petersen)
        rev = space.reversal
        assert np.all(rev[rev] == np.arange(space.num_bonds))
        assert np.all(rev != np.arange(space.num_bonds))

    def test_reversal_swaps_origin_terminus(self, random8):
        space = directed_bonds(random8)
        rev = space.reversal
        assert np.all(space.origin[rev] == space.terminus)
        assert np.all(space.terminus[rev] == space.origin)

    def test_bond_indexing_follows_edge_order(self, c3):
        space = directed_bonds(c3)
        assert space.bonds() == [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]

    def test_successor_counts_equal_terminus_valency(self, random8):
        space = directed_bonds(random8)
        valency = random8.degrees().valency
        for d in range(space.num_bonds):
            succ = space.successors(d)
            assert len(succ) == valency[space.terminus[d]]
            assert np.sum(succ == space.reversal[d]) == 1

    def test_triangle_has_one_non_backtracking_successor(self, c3):
        space = directed_bonds(c3)
        for d in range(6):
            succ = [s for s in space.successors(d) if s != space.reversal[d]]
            assert len(succ) == 1

    def test_sum_of_valencies_is_2b(self, petersen):
        assert petersen.degrees().valency.sum() == 2 * petersen.num_edges

    def test_adjacency_symmetric_zero_diagonal(self, random8):
        c = random8.adjacency_matrix()
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0)


class TestCaches:
    def test_bond_space_built_once(self, c3):
        assert directed_bonds(c3) is directed_bonds(c3)

    def test_cached_arrays_read_only(self, c3w):
        space = directed_bonds(c3w)
        for a in (
            space.origin,
            space.by_origin,
            space.offsets,
            space.outgoing(0),
            space.transition_index,
            space.transition_column,
            space.transition_weight,
            c3w.degrees().valency,
        ):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_equality_ignores_caches(self):
        a = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        b = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        directed_bonds(a)
        a.degrees()
        assert a.is_connected
        assert a == b


def reference_layout(g):
    """The bond space's arrays and the vertex quantities, rebuilt with plain loops."""
    v = g.num_vertices
    origin, terminus, reversal, weight = [], [], [], []
    for k, (i, j) in enumerate(g.edges):
        w = 1.0 if g.weights is None else g.weights[k]
        origin += [i, j]
        terminus += [j, i]
        reversal += [2 * k + 1, 2 * k]
        weight += [w, w]
    nb = len(origin)
    outgoing = [[d for d in range(nb) if origin[d] == i] for i in range(v)]
    incoming = [[d for d in range(nb) if terminus[d] == i] for i in range(v)]
    width = max(len(o) for o in outgoing)
    table = [outgoing[terminus[d]] + [-1] * (width - len(outgoing[terminus[d]])) for d in range(nb)]
    valency = [0] * v
    weighted = [0.0] * v
    adjacency = np.zeros((v, v))
    weighted_adjacency = np.zeros((v, v))
    for d in range(nb):
        valency[origin[d]] += 1
        weighted[origin[d]] += weight[d]
        adjacency[origin[d], terminus[d]] = 1.0
        weighted_adjacency[origin[d], terminus[d]] = weight[d]
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for d in outgoing[i]:
            if terminus[d] not in seen:
                seen.add(terminus[d])
                stack.append(terminus[d])
    by_origin = [d for out in outgoing for d in out]
    offsets = [0]
    for out in outgoing:
        offsets.append(offsets[-1] + len(out))
    return {
        "origin": origin, "terminus": terminus, "reversal": reversal, "bond_weight": weight,
        "by_origin": by_origin, "offsets": offsets, "outgoing": outgoing, "incoming": incoming,
        "table": np.array(table, dtype=np.int64).reshape(nb, width), "valency": valency,
        "weighted": weighted, "adjacency": adjacency, "weighted_adjacency": weighted_adjacency,
        "connected": len(seen) == v,
    }


def layout_graphs():
    graphs = [(name, g) for name, g, _ in fixture_graphs()]
    graphs += [("C3w", make_c3_weighted()), ("C3+isolated", build_graph(4, make_c3().edges))]
    graphs.append(("single", build_graph(1, [])))
    rng = np.random.default_rng(20261019)
    for seed in range(12):
        v = int(rng.integers(3, 12))
        pairs = [(i, j) for i in range(v) for j in range(i + 1, v - (seed % 3 == 0))]
        pick = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
        edges = [pairs[k][:: 1 if rng.random() < 0.5 else -1] for k in pick]
        weights = tuple(rng.uniform(0.2, 3.0, size=len(edges)).tolist()) if seed % 2 else None
        graphs.append((f"seeded{seed}", build_graph(v, edges, weights=weights)))
    return graphs


class TestLayout:
    """One layout, the bonds grouped by origin, carries the whole adjacency."""

    @pytest.mark.parametrize("g", [g for _, g in layout_graphs()],
                             ids=[name for name, _ in layout_graphs()])
    def test_matches_loop_reference(self, g):
        space = directed_bonds(g)
        ref = reference_layout(g)
        for name in ("origin", "terminus", "reversal", "by_origin", "offsets"):
            got = getattr(space, name)
            assert got.dtype == np.int64 and got.tolist() == ref[name], name
        assert space.bond_weight.dtype == np.float64
        assert space.bond_weight.tolist() == ref["bond_weight"]
        for i in range(g.num_vertices):
            assert space.outgoing(i).tolist() == ref["outgoing"][i]
            assert space.incoming(i).tolist() == ref["incoming"][i]
        np.testing.assert_array_equal(space.successor_table(), ref["table"])
        assert space.successor_table().dtype == np.int64
        degrees = g.degrees()
        assert degrees.valency.dtype == np.int64 and degrees.valency.tolist() == ref["valency"]
        # the weights of a vertex are added in edge order, so the sums match bit for bit
        assert degrees.weighted_valency.dtype == np.float64
        assert degrees.weighted_valency.tolist() == ref["weighted"]
        np.testing.assert_array_equal(g.adjacency_matrix(), ref["adjacency"])
        np.testing.assert_array_equal(g.weighted_adjacency_matrix(), ref["weighted_adjacency"])
        assert g.is_connected == ref["connected"]

    def test_isolated_vertex(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 2.5, 0.5))
        space = directed_bonds(g)
        assert space.outgoing(3).size == 0 and space.incoming(3).size == 0
        assert g.degrees().valency.tolist() == [2, 2, 2, 0]
        assert g.degrees().weighted_valency.tolist() == [1.5, 3.5, 3.0, 0.0]
        assert not g.is_connected
        ring = np.array([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(g.adjacency_matrix(), ring)
        np.testing.assert_array_equal(
            g.weighted_adjacency_matrix(),
            [[0, 1.0, 0.5, 0], [1.0, 0, 2.5, 0], [0.5, 2.5, 0, 0], [0, 0, 0, 0]],
        )

    def test_edgeless_single_vertex(self):
        g = build_graph(1, [])
        space = directed_bonds(g)
        assert space.num_bonds == 0
        assert space.outgoing(0).size == 0 and space.incoming(0).size == 0
        assert space.successor_table().shape == (0, 0)
        assert space.transition_index.size == 0
        assert g.degrees().valency.tolist() == [0]
        assert g.degrees().weighted_valency.dtype == np.float64
        assert g.is_connected
        assert g.adjacency_matrix().tolist() == [[0.0]]

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_vertex_out_of_range(self, c3, vertex):
        space = directed_bonds(c3)
        with pytest.raises(EndpointRangeError, match=f"vertex {vertex} "):
            space.outgoing(vertex)
        with pytest.raises(EndpointRangeError, match=f"vertex {vertex} "):
            space.incoming(vertex)


class TestRank:
    def test_tree(self, p2):
        assert cycle_rank(p2) == 0

    def test_triangle(self, c3):
        assert cycle_rank(c3) == 1

    def test_k4(self, k4):
        assert cycle_rank(k4) == 3  # 6 - 4 + 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            cycle_rank(build_graph(4, [(0, 1), (2, 3)]))


class TestFileFormats:
    def test_json_round_trip(self, c3w):
        g = parse_graph_json(graph_to_json(c3w))
        assert g.edges == c3w.edges
        assert g.weights == c3w.weights

    def test_json_unweighted(self):
        g = parse_graph_json('{"num_vertices": 2, "edges": [{"u": 0, "v": 1}]}')
        assert g.weights is None

    def test_json_error_carries_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph_json('{"num_vertices": 2,\n "edges": [}')

    def test_edgelist_with_comments_and_weights(self):
        text = "# triangle\n0 1 1.0\n1 2 2.5\n0 2 0.5\n"
        g = parse_graph_edgelist(text)
        assert g.num_vertices == 3
        assert g.weights == (1.0, 2.5, 0.5)

    def test_edgelist_malformed_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_edgelist("0 1\nnot an edge here at all\n")
        assert exc.value.line == 2

    def test_edgelist_bad_weight_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_edgelist("0 1\n1 2 heavy\n")
        assert exc.value.line == 2

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
from conftest import MALFORMED_JSON


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
        assert a == b


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

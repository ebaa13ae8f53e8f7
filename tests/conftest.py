"""Shared fixture graphs and session-scoped orbit catalogs."""

import pytest
from hypothesis import settings

from graphscatter.errors import GraphFormatError, GraphValidationError
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.orbits import enumerate_orbits

# Property tests draw the same examples on every run, with no time limit per
# example: tier-1 stays deterministic on a loaded host and writes no example
# database.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

# Frozen random connected graph on 8 vertices (generated once, seed 20260810).
RANDOM8_EDGES = [
    (0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 3),
    (2, 4), (2, 7), (3, 6), (4, 6), (4, 7),
]


def make_p2():
    return build_graph(2, [(0, 1)])


def make_c3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def make_c6():
    return build_graph(6, [(i, (i + 1) % 6) for i in range(6)])


def make_k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def make_k33():
    return build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def make_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def make_random8():
    return build_graph(8, RANDOM8_EDGES)


def make_p2_weighted():
    return build_graph(2, [(0, 1)], weights=(5.0,))


def make_c3_weighted():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 2.5, 0.5))


def two_copies(g):
    """The disjoint union of g with itself: a disconnected graph."""
    v = g.num_vertices
    return build_graph(2 * v, list(g.edges) + [(a + v, b + v) for a, b in g.edges])


@pytest.fixture
def p2():
    return make_p2()


@pytest.fixture
def c3():
    return make_c3()


@pytest.fixture
def c6():
    return make_c6()


@pytest.fixture
def k4():
    return make_k4()


@pytest.fixture
def k33():
    return make_k33()


@pytest.fixture
def petersen():
    return make_petersen()


@pytest.fixture
def random8():
    return make_random8()


@pytest.fixture
def p2w():
    return make_p2_weighted()


@pytest.fixture
def c3w():
    return make_c3_weighted()


def fixture_graphs():
    """The eight acceptance fixtures as (name, graph, kind) triples."""
    return [
        ("P2", make_p2(), "standard"),
        ("C3", make_c3(), "standard"),
        ("C6", make_c6(), "standard"),
        ("K4", make_k4(), "standard"),
        ("K3,3", make_k33(), "standard"),
        ("Petersen", make_petersen(), "standard"),
        ("random8", make_random8(), "standard"),
        ("P2w", make_p2_weighted(), "generalized"),
    ]


@pytest.fixture(scope="session")
def k4_catalog_16():
    """Deep K4 catalog, enumerated once per session (a few seconds)."""
    return enumerate_orbits(directed_bonds(make_k4()), 16)


@pytest.fixture(scope="session")
def c3_catalog_16():
    return enumerate_orbits(directed_bonds(make_c3()), 16)


@pytest.fixture(scope="session")
def c6_catalog_16():
    return enumerate_orbits(directed_bonds(make_c6()), 16)


@pytest.fixture(scope="session")
def catalogs_depth8():
    """n <= 8 catalogs for every acceptance fixture, keyed by name."""
    return {
        name: enumerate_orbits(directed_bonds(g), 8)
        for name, g, _ in fixture_graphs()
    }


# Malformed JSON graph files, each with the error it raises: a wrong shape or
# weight type is a format error; a vertex count or endpoint that is not an
# integer (null, float, string or bool) is a validation error.
MALFORMED_JSON = {
    "edges-not-a-list": ('{"num_vertices": 3, "edges": 5}', GraphFormatError),
    "null-vertex-count": (
        '{"num_vertices": null, "edges": [{"u": 0, "v": 1}]}', GraphValidationError
    ),
    "null-endpoint": (
        '{"num_vertices": 3, "edges": [{"u": null, "v": 1}]}', GraphValidationError
    ),
    "list-weight": (
        '{"num_vertices": 3, "edges": [{"u": 0, "v": 1, "w": [1]}]}', GraphFormatError
    ),
    "float-count-and-endpoint": (
        '{"num_vertices": 2.7, "edges": [{"u": 0, "v": 1.9}]}', GraphValidationError
    ),
    "string-count-bool-endpoint": (
        '{"num_vertices": "3", "edges": [{"u": true, "v": 2}]}', GraphValidationError
    ),
}

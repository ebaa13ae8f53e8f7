"""Graph representation, validation, and the directed-bond coordinate system.

An undirected simple graph (no self-loops, no parallel edges, optional
strictly positive edge weights) is the single source of combinatorial truth.
Every operator in the package lives either on the V vertices or on the 2B
directed bonds; the bond indexing fixed here is inherited by all downstream
matrices so results are reproducible across runs.  The adjacency is kept
once, in the bond space, as the bonds grouped by origin: degrees,
connectivity, both adjacency matrices, the successor table and the sparse
transition list are all read from that layout.  A (2B)^2 matrix is built
only when asked for (the evolution operator, the non-backtracking matrix).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EndpointRangeError,
    GraphFormatError,
    GraphValidationError,
    NonPositiveWeightError,
    RegularityError,
    SelfLoopError,
    WeightCountError,
)
from .linalg import eig_general


@dataclass
class Graph:
    """Undirected simple graph with optional positive edge weights.

    Vertices are 0-based.  Edges are stored with endpoints ordered
    ``u < v`` in the input edge order.  Instances are immutable by
    convention: nothing in the package mutates a Graph after construction,
    except that its component counts, degrees and bond space are computed
    on first use and kept.  Two threads filling them at once build equal
    values, so graphs stay safe to share across threads.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

    # filled on first use by components(), degrees() and directed_bonds()
    _components: tuple[int, int] | None = field(init=False, repr=False, compare=False, default=None)
    _degrees: VertexDegrees | None = field(init=False, repr=False, compare=False, default=None)
    _bond_space: DirectedBondSpace | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not _is_integer(self.num_vertices):
            raise GraphValidationError(
                f"num_vertices must be an integer, got {self.num_vertices!r}"
            )
        v = int(self.num_vertices)
        if v <= 0:
            raise EndpointRangeError("num_vertices must be positive")
        self.num_vertices = v

        norm_edges = []
        seen = set()
        for k, edge in enumerate(self.edges):
            try:
                i, j = edge
            except (TypeError, ValueError):
                raise GraphValidationError(
                    f"edge {k} must be a pair of endpoints, got {edge!r}"
                ) from None
            if not (_is_integer(i) and _is_integer(j)):
                raise GraphValidationError(
                    f"edge {k} endpoints must be integers, got ({i!r}, {j!r})"
                )
            i, j = int(i), int(j)
            if not (0 <= i < v and 0 <= j < v):
                raise EndpointRangeError(f"edge {k} endpoint out of range: ({i}, {j})")
            if i == j:
                raise SelfLoopError(f"edge {k} is a self-loop at vertex {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DuplicateEdgeError(f"edge {k} duplicates pair {key}")
            seen.add(key)
            norm_edges.append(key)
        self.edges = tuple(norm_edges)

        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise WeightCountError(
                    f"{len(self.weights)} weights for {len(self.edges)} edges"
                )
            for k, x in enumerate(self.weights):
                if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
                    raise GraphValidationError(
                        f"weight of edge {k} must be a real number, got {x!r}"
                    )
            w = tuple(float(x) for x in self.weights)
            for k, x in enumerate(w):
                if not (x > 0.0) or not np.isfinite(x):
                    raise NonPositiveWeightError(f"weight of edge {k} is {x}")
            self.weights = w

    # -- basic queries ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def is_connected(self) -> bool:
        """Whether the graph has one component (see `components`)."""
        return self.components()[0] == 1

    def components(self) -> tuple[int, int]:
        """(c, c_b): the number of connected components and of bipartite ones; computed once.

        One two-colouring search along the bonds: a component is bipartite
        when no bond joins two vertices of one colour.  An isolated vertex is
        a bipartite component of its own.
        """
        if self._components is None:
            space = directed_bonds(self)
            neighbours = space.terminus[space.by_origin].tolist()
            offsets = space.offsets.tolist()
            colour = [-1] * self.num_vertices
            count = bipartite = 0
            for root in range(self.num_vertices):
                if colour[root] >= 0:
                    continue
                colour[root], stack, odd = 0, [root], False
                while stack:
                    i = stack.pop()
                    for j in neighbours[offsets[i] : offsets[i + 1]]:
                        if colour[j] < 0:
                            colour[j] = 1 - colour[i]
                            stack.append(j)
                        elif colour[j] == colour[i]:
                            odd = True
                count, bipartite = count + 1, bipartite + (not odd)
            self._components = (count, bipartite)
        return self._components

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    # -- matrices and degrees ---------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """0/1 connectivity matrix, symmetric with zero diagonal."""
        space = directed_bonds(self)
        c = np.zeros((self.num_vertices, self.num_vertices))
        c[space.origin, space.terminus] = 1.0
        return c

    def weighted_adjacency_matrix(self) -> np.ndarray:
        """Connectivity matrix with weights in place of the ones."""
        space = directed_bonds(self)
        c = np.zeros((self.num_vertices, self.num_vertices))
        c[space.origin, space.terminus] = space.bond_weight
        return c

    def degrees(self) -> VertexDegrees:
        """Valencies and weighted valencies, computed once; the arrays are read-only.

        The weights of each vertex's bonds are added in bond order, which is
        edge order.
        """
        if self._degrees is None:
            space = directed_bonds(self)
            weighted = np.bincount(
                space.origin, weights=space.bond_weight, minlength=self.num_vertices
            ).astype(float, copy=False)  # bincount gives ints when there are no bonds
            self._degrees = VertexDegrees(
                valency=_read_only(np.diff(space.offsets)), weighted_valency=_read_only(weighted)
            )
        return self._degrees

    @property
    def is_regular(self) -> bool:
        deg = self.degrees().valency
        return bool(np.all(deg == deg[0]))

    @property
    def regular_degree(self) -> int:
        if not self.is_regular:
            raise RegularityError("graph is not regular")
        return int(self.degrees().valency[0])


@dataclass
class VertexDegrees:
    """Per-vertex valencies and their weighted analogue u_i = sum_j w_ij."""

    valency: np.ndarray
    weighted_valency: np.ndarray


@dataclass
class DirectedBondSpace:
    """Indexed set of the 2B directed bonds of a graph, with its transition list.

    Edge k of the graph (with endpoints i < j) yields bond 2k = (i -> j)
    and bond 2k+1 = (j -> i), so reversal(d) = d ^ 1.  Bond d' may follow
    bond d exactly when terminus(d) == origin(d').

    The graph's adjacency is kept once, as ``by_origin``, the bonds grouped
    by origin (ascending within a vertex), and V + 1 ``offsets``:
    ``outgoing(v)`` is ``by_origin[offsets[v]:offsets[v + 1]]``,
    ``incoming(v)`` is outgoing(v) ^ 1 (also ascending), and the successor
    table, padded with -1, is gathered from the same layout.

    The allowed steps d -> d', the nonzero pattern of U, form one list read
    off the successor table: ``transition_index`` holds the flat position
    d' * 2B + d of each in an array indexed [d', d] like U,
    ``transition_column`` its column d, and ``transition_weight`` the
    sqrt(w_d' w_d) of the generalized kind.  Every array is read-only.  The
    spectral radius of the non-backtracking matrix is computed on first use
    and cached (read-only property ``nonbacktracking_radius``), and so is
    the lambda-independent part of U, per kind (``scattering._fixed_part``).
    """

    graph: Graph
    origin: np.ndarray
    terminus: np.ndarray
    reversal: np.ndarray
    bond_weight: np.ndarray  # weight of the underlying edge, 1.0 if unweighted
    by_origin: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    transition_index: np.ndarray = field(init=False, repr=False)
    transition_column: np.ndarray = field(init=False, repr=False)
    transition_weight: np.ndarray = field(init=False, repr=False)

    @property
    def num_bonds(self) -> int:
        return len(self.origin)

    def outgoing(self, vertex: int) -> np.ndarray:
        """Bonds leaving vertex, ascending; raises EndpointRangeError outside [0, V)."""
        if not 0 <= vertex < self.graph.num_vertices:
            raise EndpointRangeError(
                f"vertex {vertex} out of range for {self.graph.num_vertices} vertices"
            )
        return self.by_origin[self.offsets[vertex] : self.offsets[vertex + 1]]

    def incoming(self, vertex: int) -> np.ndarray:
        """Bonds entering vertex, ascending: the reversals of outgoing(vertex)."""
        return self.outgoing(vertex) ^ 1

    def __post_init__(self):
        for a in (self.origin, self.terminus, self.reversal, self.bond_weight):
            _read_only(a)
        self.by_origin = _read_only(np.argsort(self.origin, kind="stable"))
        self.offsets = _read_only(
            np.searchsorted(self.origin[self.by_origin], np.arange(self.graph.num_vertices + 1))
        )
        # padded successor table: slot s of bond d holds the s-th bond leaving terminus(d)
        valency = np.diff(self.offsets)
        filled = np.arange(valency.max()) < valency[self.terminus, None]
        column, slot = np.nonzero(filled)
        row = self.by_origin[self.offsets[self.terminus[column]] + slot]
        pad = np.full(filled.shape, -1, dtype=np.int64)
        pad[column, slot] = row
        self._succ_pad = _read_only(pad)

        self.transition_index = _read_only(row * self.num_bonds + column)
        self.transition_column = _read_only(column)
        self.transition_weight = _read_only(
            np.sqrt(self.bond_weight[row] * self.bond_weight[column])
        )
        self._nonbacktracking_radius: float | None = None
        self._per_kind: dict[str, object] = {}

    @property
    def nonbacktracking_radius(self) -> float:
        """Spectral radius of the non-backtracking matrix (see :func:`nonbacktracking_matrix`)."""
        if self._nonbacktracking_radius is None:
            eigenvalues = eig_general(nonbacktracking_matrix(self)).eigenvalues
            self._nonbacktracking_radius = float(np.max(np.abs(eigenvalues), initial=0.0))
        return self._nonbacktracking_radius

    def successor_table(self) -> np.ndarray:
        """(2B, max_degree) successor table padded with -1."""
        return self._succ_pad


def nonbacktracking_matrix(space: DirectedBondSpace) -> np.ndarray:
    """0/1 bond matrix B[d', d] = 1 when d' follows d and d' != reversal(d), built on demand."""
    n = space.num_bonds
    b = np.zeros(n * n)
    b[space.transition_index] = 1.0
    b[space.reversal * n + np.arange(n)] = 0.0
    return b.reshape(n, n)


def _is_integer(x) -> bool:
    """A Python or numpy integer; bool, float, str and None are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_graph(
    num_vertices: int,
    edges,
    weights=None,
) -> Graph:
    """Validate and build a Graph from a vertex count and edge list."""
    return Graph(num_vertices=num_vertices, edges=tuple(edges), weights=weights)


def directed_bonds(g: Graph) -> DirectedBondSpace:
    """The directed-bond coordinate system of a graph, built once per graph."""
    if g._bond_space is None:
        ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
        weight = np.ones(len(ends)) if g.weights is None else np.array(g.weights)
        g._bond_space = DirectedBondSpace(
            graph=g,
            origin=ends.ravel(),
            terminus=ends[:, ::-1].ravel(),
            reversal=np.arange(ends.size) ^ 1,
            bond_weight=np.repeat(weight, 2),
        )
    return g._bond_space


def cycle_rank(g: Graph) -> int:
    """Number of independent cycles, B - V + 1, of a connected graph."""
    if not g.is_connected:
        raise DisconnectedGraphError("cycle rank B - V + 1 assumes one component")
    return g.num_edges - g.num_vertices + 1


# -- file formats ----------------------------------------------------------

def parse_graph_json(text: str) -> Graph:
    """Parse the JSON graph format.

    ``{"num_vertices": int, "edges": [{"u": int, "v": int, "w": float?}, ...]}``
    An omitted "w" means weight 1; if no edge carries "w" the graph is
    unweighted.  A wrong shape or weight type raises GraphFormatError; a
    vertex count or endpoint that is not an integer raises
    GraphValidationError from the Graph itself.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(data, dict) or "num_vertices" not in data or "edges" not in data:
        raise GraphFormatError('expected {"num_vertices": ..., "edges": [...]}')
    if not isinstance(data["edges"], list):
        raise GraphFormatError('"edges" must be a list of {"u": int, "v": int} objects')
    edges = []
    weights = []
    any_weight = False
    for k, entry in enumerate(data["edges"]):
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise GraphFormatError(f'edge {k}: expected {{"u": int, "v": int}}')
        edges.append((entry["u"], entry["v"]))
        if "w" in entry and entry["w"] is not None:
            w = entry["w"]
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise GraphFormatError(f"edge {k}: weight must be a number, got {w!r}")
            any_weight = True
            weights.append(float(w))
        else:
            weights.append(1.0)
    return build_graph(
        data["num_vertices"], edges, weights=tuple(weights) if any_weight else None
    )


def parse_graph_edgelist(text: str) -> Graph:
    """Parse the plain-text edge list: one "u v [w]" per line, '#' comments."""
    edges = []
    weights = []
    any_weight = False
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"expected 'u v [w]', got {raw!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"bad vertex index in {raw!r}", line=lineno) from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphFormatError(f"bad weight in {raw!r}", line=lineno) from None
            any_weight = True
        edges.append((u, v))
        weights.append(w)
        max_vertex = max(max_vertex, u, v)
    if not edges:
        raise GraphFormatError("no edges found")
    return build_graph(
        max_vertex + 1, edges, weights=tuple(weights) if any_weight else None
    )


def load_graph(path) -> Graph:
    """Load a graph file, JSON or plain-text edge list."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_edgelist(text)


def graph_to_json(g: Graph) -> str:
    edges = []
    for k, (i, j) in enumerate(g.edges):
        entry = {"u": i, "v": j}
        if g.weights is not None:
            entry["w"] = g.weights[k]
        edges.append(entry)
    return json.dumps({"num_vertices": g.num_vertices, "edges": edges})

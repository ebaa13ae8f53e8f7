"""Outside-in tracer: spans around the calls into each graphscatter module.

The package's modules import one another by name (``from .graph import
directed_bonds``), so replacing a function at its definition is not enough:
the tracer replaces it at every module binding that holds it.  Two methods
are wrapped on their class (``Graph.degrees`` and the cached first-call
boundary ``OrbitCatalog._vertex_stats``), and ``numpy.linalg.svd`` is wrapped
because ``scattering`` calls it directly.

A span records its id, its parent's id, a name index, and start and end in
``perf_counter_ns``.  Self time is a span's duration minus the durations of
its child spans.  The spans of the last traced pass stay in memory until
:meth:`Tracer.write`; the per-name totals cover every traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

PACKAGE = "graphscatter"

# (module, qualified name) of every traced function, grouped by layer.
TRACED = (
    ("graph", "directed_bonds"),
    ("graph", "Graph.degrees"),
    ("scattering", "scattering_phases"),
    ("scattering", "evolution_operator"),
    ("scattering", "secular_function"),
    ("scattering", "stationarity_gap"),
    ("scattering", "secular_zero_scan"),
    ("linalg", "determinant"),
    ("linalg", "eig_general"),
    ("linalg", "matrix_power_trace"),
    ("laplacian", "build_laplacian"),
    ("laplacian", "char_poly_value"),
    ("orbits", "enumerate_orbits"),
    ("orbits", "OrbitCatalog._vertex_stats"),
    ("orbits", "bulk_amplitudes"),
    ("orbits", "trace_power_from_orbits"),
    ("trace", "trace_formula_report"),
    ("trace", "orbit_term"),
    ("zeta", "spectral_zeta_product"),
    ("zeta", "ihara_zeta_product"),
    ("zeta", "nonbacktracking_matrix"),
    ("zeta", "secular_ratio_constant"),
    ("zeta", "functional_equation_defect"),
    ("classical", "no_backscatter_map"),
    ("verify", "run_identity_suite"),
    ("cli", "main"),
)
SVD = "numpy.linalg.svd"


def _graph_key(g) -> tuple:
    return (g.num_vertices, g.edges, g.weights)


def per_pass_count(total: int, passes: int) -> float:
    """A count per pass; exact, as an int, when every pass counted the same."""
    return total // passes if total % passes == 0 else total / passes


class Tracer:
    """Collects spans and per-name totals over the passes it is installed for."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        # counts taken at the boundaries, summed over traced passes
        self.counts = {
            "graphs": 0,
            "eigenvalues_found": 0,
            "orbits_enumerated": 0,
            "catalog_bytes": 0,
            "vertex_stats_bytes": 0,
            "orbit_evals": 0,
        }
        self.passes = 0
        self._stack: list[list[int]] = []  # open spans: [id, child_ns]
        self._next_id = 1
        self._graphs: set[tuple] = set()
        self._stats_seen: set[int] = set()
        self._patches: list[tuple] | None = None

    # -- spans -----------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def _enter(self) -> tuple[int, int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([span_id, 0])
        return span_id, parent, time.perf_counter_ns()

    def _exit(self, idx: int, span_id: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[idx] += 1
        self.self_ns[idx] += dur - child_ns
        self.total_ns[idx] += dur
        self.spans.append((span_id, parent, idx, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one op."""
        idx = self.names.index(name) if name in self.names else self._index(name)
        span_id, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(idx, span_id, parent, start)

    def _wrap(self, name: str, fn, observe=None):
        idx = self._index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx, span_id, parent, start)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- boundary counts ---------------------------------------------------------

    def _on_directed_bonds(self, args, space) -> None:
        self._graphs.add(_graph_key(args[0]))

    def _on_scan(self, args, zeros) -> None:
        self.counts["eigenvalues_found"] += sum(z.multiplicity for z in zeros)

    def _on_enumerate(self, args, catalog) -> None:
        self.counts["orbits_enumerated"] += catalog.total()
        self.counts["catalog_bytes"] += sum(
            b.walks.nbytes + b.beta.nbytes for b in catalog._blocks.values()
        )

    def _on_vertex_stats(self, args, stats) -> None:
        # cached calls hand back the same arrays; count each computation once
        if id(stats[0]) not in self._stats_seen:
            self._stats_seen.add(id(stats[0]))
            self.counts["vertex_stats_bytes"] += stats[0].nbytes + stats[1].nbytes

    def _on_amplitudes(self, args, result) -> None:
        self.counts["orbit_evals"] += len(result[2])

    # -- installation ------------------------------------------------------------

    def _patch_list(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        if self._patches is not None:
            return self._patches
        import numpy.linalg

        observers = {
            "graph.directed_bonds": self._on_directed_bonds,
            "scattering.secular_zero_scan": self._on_scan,
            "orbits.enumerate_orbits": self._on_enumerate,
            "orbits.OrbitCatalog._vertex_stats": self._on_vertex_stats,
            "orbits.bulk_amplitudes": self._on_amplitudes,
        }
        for mod_name, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        patches = []
        for mod_name, qualname in TRACED:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{mod_name}.{qualname}"
            wrapper = self._wrap(name, original, observers.get(name))
            if cls_path:
                patches.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, binding, original, wrapper))
        svd = numpy.linalg.svd
        patches.append((numpy.linalg, "svd", svd, self._wrap(SVD, svd)))
        self._patches = patches
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of one pass."""
        patches = self._patch_list()
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        self.spans.clear()
        self._graphs.clear()
        self._stats_seen.clear()
        try:
            yield
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)
            self.counts["graphs"] += len(self._graphs)
            self.passes += 1

    # -- results -------------------------------------------------------------------

    def per_pass(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s per span name, averaged over traced passes."""
        n = max(self.passes, 1)
        return {
            name: {
                "calls": per_pass_count(self.calls[i], n),
                "self_s": self.self_ns[i] / n / 1e9,
                "total_s": self.total_ns[i] / n / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as [id, parent, name index, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))

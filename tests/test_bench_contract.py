"""The benchmark's tracer against the package names and return values it relies on.

``perfbench/tracer.py`` wraps every (module, qualified name) in its TRACED
table and reads the results of ``OrbitCatalog._vertex_stats`` (two arrays,
for their ``nbytes``) and ``bulk_amplitudes`` (a 3-tuple).  A rename or a
changed return value breaks ``perfbench/run.py --trace 1``; these tests
catch it here.  The tracer file is loaded as it is, never changed.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

from graphscatter import orbits, scattering, trace
from graphscatter.graph import directed_bonds

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for mod_name, qualname in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        # the tracer takes the function from the owner's own namespace
        assert callable(vars(owner).get(attr)), f"{mod_name}.{qualname} does not resolve"


def test_observed_return_values(k4):
    cat = orbits.enumerate_orbits(directed_bonds(k4), 6)
    stats = cat._vertex_stats(6)
    assert isinstance(stats, tuple) and len(stats) == 2
    assert all(isinstance(a, np.ndarray) and a.nbytes > 0 for a in stats)
    result = orbits.bulk_amplitudes(cat, complex(2.0, -0.3))
    assert isinstance(result, tuple) and len(result) == 3
    assert len(result[2]) == cat.total()


def test_traced_pass_records_the_orbit_layer(k4):
    tracer = load_tracer().Tracer()
    with tracer.installed():
        cat = orbits.enumerate_orbits(directed_bonds(k4), 6)
        orbits.bulk_amplitudes(cat, complex(2.0, -0.3))
    calls = {name: tracer.calls[i] for i, name in enumerate(tracer.names)}
    assert calls["orbits.bulk_amplitudes"] == 1
    assert calls["orbits.OrbitCatalog._vertex_stats"] == 5  # lengths 2..6
    assert tracer.counts["orbit_evals"] == cat.total()
    # the tracer reads the catalog's block layout
    assert tracer.counts["orbits_enumerated"] == cat.total()
    assert tracer.counts["catalog_bytes"] == sum(
        b.walks.nbytes + b.beta.nbytes for b in cat._blocks.values()
    )
    assert tracer.counts["vertex_stats_bytes"] > 0
    # installation is undone after the pass
    assert not hasattr(orbits.bulk_amplitudes, "__wrapped__")


def test_traced_trace_report_keeps_one_span_stack(k4):
    """The orbit term's thread pool calls no traced function: every span opens
    on the calling thread, nests inside its parent, and the stack ends empty."""
    tracer = load_tracer().Tracer()
    enter = tracer._enter
    callers = []

    def spy():
        callers.append(threading.get_ident())
        return enter()

    tracer._enter = spy
    with tracer.installed():
        trace.trace_formula_report(k4, np.linspace(-1.0, 7.0, 9), 0.3, 8, 3)
    calls = {name: tracer.calls[i] for i, name in enumerate(tracer.names)}
    assert calls["trace.orbit_term"] == 1
    assert calls["orbits.OrbitCatalog._vertex_stats"] == 7  # once per length 2..8
    assert len(callers) == len(tracer.spans) == sum(tracer.calls)
    assert set(callers) == {threading.get_ident()}
    assert tracer._stack == []
    bounds = {span_id: (start, end) for span_id, _, _, start, end in tracer.spans}
    for _, parent, _, start, end in tracer.spans:
        if parent:
            assert bounds[parent][0] <= start <= end <= bounds[parent][1]


def test_traced_scan_records_the_scan_layer(c3):
    tracer = load_tracer().Tracer()
    with tracer.installed():
        scattering.secular_zero_scan(c3)
    calls = {name: tracer.calls[i] for i, name in enumerate(tracer.names)}
    assert calls["scattering.secular_function"] > 0
    assert calls["scattering.stationarity_gap"] > 0
    assert tracer.counts["eigenvalues_found"] == 3

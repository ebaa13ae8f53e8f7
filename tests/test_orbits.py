"""Orbit enumeration against a brute-force oracle, amplitudes, trace identities."""

import io
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest

from graphscatter import orbits
from graphscatter.errors import CatalogDepthError, CatalogSizeError, DisconnectedGraphError
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.linalg import matrix_power_trace
from graphscatter.orbits import (
    _preflight_counts,
    _trace_powers,
    bulk_amplitudes,
    enumerate_orbits,
    orbit_amplitude,
    orbit_matrix_amplitude,
    trace_power_from_orbits,
)
from graphscatter.scattering import (
    evolution_operator,
    scattering_phases,
    vertex_scattering_matrix,
)
from graphscatter.zeta import regular_z_from_lambda
from conftest import fixture_graphs, make_c6, make_k4, make_petersen, make_random8


def mobius(n):
    """The Moebius function mu(n), by trial division."""
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def exact_primitive_counts(space, n_max, no_backtrack):
    """n -> number of primitive orbits of period n, from tr S^n alone.

    S is the 0/1 successor matrix of the directed bonds (the Hashimoto
    matrix when no_backtrack), powered in exact Python integers; the
    orbit counts follow by Moebius inversion of
    tr S^n = sum_{m|n} m |P(m)|.
    """
    nb = space.num_bonds
    s = np.zeros((nb, nb), dtype=object)
    for d in range(nb):
        for c in space.successors(d):
            if not (no_backtrack and c == space.reversal[d]):
                s[c, d] = 1
    traces, power = {}, np.identity(nb, dtype=int).astype(object)
    for n in range(1, n_max + 1):
        power = power.dot(s)
        traces[n] = int(np.trace(power))
    return {
        n: sum(mobius(n // m) * traces[m] for m in range(1, n + 1) if n % m == 0) // n
        for n in range(2, n_max + 1)
    }


def brute_force_orbits(space, n_max, no_backtrack=False):
    """Oracle: enumerate all closed following walks, dedup by rotation.

    Exponential in n_max; only for tiny fixtures.  Returns the canonical
    orbit set per length; with no_backtrack, walks that back-scatter
    anywhere (the closing step included) are dropped.
    """
    nb = space.num_bonds
    succ = [list(space.successors(d)) for d in range(nb)]
    rev = space.reversal
    by_length = {}
    for n in range(2, n_max + 1):
        found = set()
        for walk in product(range(nb), repeat=n):
            ok = all(walk[(k + 1) % n] in succ[walk[k]] for k in range(n))
            if not ok:
                continue
            if no_backtrack and any(walk[(k + 1) % n] == rev[walk[k]] for k in range(n)):
                continue
            rotations = {tuple(walk[k:] + walk[:k]) for k in range(n)}
            if len(rotations) < n:
                continue  # a repetition of a shorter walk
            found.add(min(rotations))
        by_length[n] = found
    return by_length


class TestEnumeration:
    def test_p2_single_orbit(self, p2):
        cat = enumerate_orbits(directed_bonds(p2), 4)
        assert cat.count(2) == 1
        assert cat.count(3) == 0 and cat.count(4) == 0
        assert all(cat.count_no_backtrack(n) == 0 for n in range(2, 5))
        assert cat.orbit(2, 0).bonds == (0, 1)

    def test_c3_counts(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 3)
        assert cat.count(2) == 3  # one back-and-forth orbit per edge
        assert cat.count_no_backtrack(3) == 2  # the two triangle orientations

    def test_k4_triangles(self, k4):
        cat = enumerate_orbits(directed_bonds(k4), 3)
        assert cat.count_no_backtrack(3) == 8  # 4 triangles x 2 orientations

    @pytest.mark.parametrize(
        "maker,n_max,no_backtrack",
        [
            pytest.param(lambda: build_graph(2, [(0, 1)]), 6, False, id="P2"),
            pytest.param(lambda: build_graph(3, [(0, 1), (1, 2), (0, 2)]), 6, False, id="C3"),
            pytest.param(make_k4, 4, False, id="K4"),
            pytest.param(make_k4, 5, True, id="K4-nb"),
            pytest.param(make_random8, 4, True, id="random8-nb"),
        ],
    )
    def test_matches_brute_force(self, maker, n_max, no_backtrack):
        g = maker()
        space = directed_bonds(g)
        oracle = brute_force_orbits(space, n_max, no_backtrack)
        cat = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        for n in range(2, n_max + 1):
            mine = {cat.orbit(n, i).bonds for i in range(cat.count(n))}
            assert mine == oracle[n], f"length {n}"

    @pytest.mark.parametrize(
        "g", [g for _, g, _ in fixture_graphs()], ids=[name for name, _, _ in fixture_graphs()]
    )
    @pytest.mark.parametrize("no_backtrack", [False, True], ids=["full", "nb"])
    def test_counts_match_successor_traces(self, g, no_backtrack):
        space = directed_bonds(g)
        n_max = 12 if no_backtrack else 9
        cat = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        nb_counts = exact_primitive_counts(space, n_max, True)
        all_counts = nb_counts if no_backtrack else exact_primitive_counts(space, n_max, False)
        assert cat.counts_table() == {n: (all_counts[n], nb_counts[n]) for n in all_counts}
        # the package's pre-flight count, which sizes the blocks, agrees
        assert _preflight_counts(space, n_max, True, 10**9) == nb_counts
        assert _preflight_counts(space, n_max, no_backtrack, 10**9) == all_counts

    def test_every_orbit_validates(self, random8):
        space = directed_bonds(random8)
        cat = enumerate_orbits(space, 6)
        for orb in cat.iter_orbits():
            orb.validate(space)

    def test_reversal_closure(self, k4):
        space = directed_bonds(k4)
        cat = enumerate_orbits(space, 6)
        rev = space.reversal
        for n in range(2, 7):
            catalog_set = {cat.orbit(n, i).bonds: cat.orbit(n, i).backscatter_count
                           for i in range(cat.count(n))}
            for bonds, beta in catalog_set.items():
                reversed_walk = tuple(int(rev[d]) for d in bonds[::-1])
                rotations = [reversed_walk[k:] + reversed_walk[:k] for k in range(n)]
                canonical = min(rotations)
                assert canonical in catalog_set
                assert catalog_set[canonical] == beta

    def test_no_backtrack_mode_matches_full_catalog(self, petersen):
        space = directed_bonds(petersen)
        full = enumerate_orbits(space, 7)
        nb_only = enumerate_orbits(space, 7, no_backtrack=True)
        for n in range(2, 8):
            assert nb_only.count(n) == full.count_no_backtrack(n)

    def test_no_backtrack_catalog_counts_every_orbit(self, k4):
        space = directed_bonds(k4)
        nb_only = enumerate_orbits(space, 8, no_backtrack=True)
        full = enumerate_orbits(space, 8)
        for n in range(2, 10):  # 9 is past the depth: both read 0
            assert nb_only.count_no_backtrack(n) == nb_only.count(n)
            assert nb_only.count_no_backtrack(n) == full.count_no_backtrack(n)

    def test_catalog_cap(self, k4):
        # K4 holds 80 orbits to length 5 and 196 to length 6
        with pytest.raises(CatalogSizeError) as exc:
            enumerate_orbits(directed_bonds(k4), 12, max_orbits=100)
        assert exc.value.cap == 100
        assert exc.value.length_reached == 6

    def test_negative_cap_rejected(self, k4):
        with pytest.raises(ValueError, match="max_orbits must be non-negative"):
            enumerate_orbits(directed_bonds(k4), 4, max_orbits=-5)

    @pytest.mark.parametrize(
        "cap,length", [(10**4, 10), (10**5, 12), (10**6, 15), (10**7, 17)]
    )
    def test_cap_names_first_length_past_it(self, random8, cap, length):
        """The cap error names the first length whose exact running total
        passes the cap, whatever the requested depth."""
        space = directed_bonds(random8)
        with pytest.raises(CatalogSizeError) as exc:
            enumerate_orbits(space, 22, max_orbits=cap)
        assert exc.value.length_reached == length
        counts = exact_primitive_counts(space, length, False)
        assert sum(counts.values()) > cap >= sum(counts.values()) - counts[length]

    def test_preflight_matches_successor_traces(self, k4):
        """Past length 39 the int64 powers of S would overflow on K4 (entries
        near 3^n): the counts carry on in Python integers, still exact."""
        space = directed_bonds(k4)
        for no_backtrack in (False, True):
            want = exact_primitive_counts(space, 45, no_backtrack)
            assert _preflight_counts(space, 45, no_backtrack, 10**40) == want

    def test_peak_memory_near_catalog_size(self, k4):
        """Blocks are allocated once at their exact size and frontiers are
        bounded by _CHUNK_ROWS, so the traced peak stays close to the
        catalog's own bytes (15.7 MB of walks and betas on K4 to 14)."""
        space = directed_bonds(k4)
        tracemalloc.start()
        try:
            cat = enumerate_orbits(space, 14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = sum(b.walks.nbytes + b.beta.nbytes for b in cat._blocks.values())
        assert peak <= 1.6 * own, f"peak {peak / own:.2f}x the catalog"

    def test_large_sparse_graph_memory(self):
        """No (2B)^2 table is built: a 1,000-vertex cycle's bond space and
        its 1,000 orbits to length 3 stay under a 10 MB traced peak."""
        g = build_graph(1000, [(i, (i + 1) % 1000) for i in range(1000)])
        tracemalloc.start()
        try:
            cat = enumerate_orbits(directed_bonds(g), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cat.total() == 1000
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_depth_guard(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 4)
        with pytest.raises(CatalogDepthError):
            trace_power_from_orbits(cat, None, 1.0, 6)

    def test_catalog_of_another_graph_rejected(self, k4, c3):
        cat = enumerate_orbits(directed_bonds(k4), 6)
        with pytest.raises(ValueError, match="another graph"):
            trace_power_from_orbits(cat, c3, complex(1.0, -0.5), 6)
        # an equal graph built separately is the same graph
        trace_power_from_orbits(cat, make_k4(), complex(1.0, -0.5), 6)

    @pytest.mark.parametrize("no_backtrack", [False, True], ids=["full", "nb"])
    def test_counts_with_isolated_vertex(self, no_backtrack):
        """Vertex 3 carries no bond: an empty segment of the bond layout."""
        space = directed_bonds(build_graph(4, [(0, 1), (1, 2), (0, 2)]))
        n_max = 10
        cat = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        want = {n: cat.count(n) for n in range(2, n_max + 1)}
        assert _preflight_counts(space, n_max, no_backtrack, 10**9) == want
        assert want == exact_primitive_counts(space, n_max, no_backtrack)

    def test_deterministic_order(self, k4):
        space = directed_bonds(k4)
        a = enumerate_orbits(space, 5)
        b = enumerate_orbits(space, 5)
        for n in range(2, 6):
            np.testing.assert_array_equal(a._blocks[n].walks, b._blocks[n].walks)

    @pytest.mark.parametrize(
        "maker,n_max,no_backtrack", [(make_k4, 9, False), (make_petersen, 12, True)],
        ids=["K4-full", "Petersen-nb"],
    )
    def test_order_across_chunk_boundaries(self, monkeypatch, maker, n_max, no_backtrack):
        """Frontiers split into pieces of _CHUNK_ROWS walks leave the catalog
        bitwise unchanged, and every block comes out in strictly increasing
        lexicographic order without a sort."""
        space = directed_bonds(maker())
        default = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        monkeypatch.setattr(orbits, "_CHUNK_ROWS", 5)
        split = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        assert sorted(split._blocks) == sorted(default._blocks)
        for n, block in split._blocks.items():
            ref = default._blocks[n]
            for got, want in ((block.walks, ref.walks), (block.beta, ref.beta)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            walks = block.walks
            differ = walks[1:] != walks[:-1]
            assert np.all(differ.any(axis=1)), f"repeated row at length {n}"
            col = np.argmax(differ, axis=1)
            rows = np.arange(col.size)
            assert np.all(walks[1:][rows, col] > walks[:-1][rows, col]), f"length {n}"


class TestAmplitudes:
    def test_p2_two_orbit_amplitude(self, p2):
        # both vertices have degree 1: a = (-i e^{i a0})(-i e^{i a1})
        lam = 1.3
        cat = enumerate_orbits(directed_bonds(p2), 2)
        amp = orbit_amplitude(cat.orbit(2, 0), p2, lam)
        phases = scattering_phases(p2, lam)
        assert amp == pytest.approx(-phases[0] * phases[1])
        assert abs(amp) == pytest.approx(1.0)

    def test_regular_closed_form_in_z(self, k4):
        # a_p(z) = e^{-i pi n/2} ((1+z)/v)^{n-beta} (-1)^beta (1 - (1+z)/v)^beta
        lam = complex(1.7, -0.6)
        v = 3
        z = regular_z_from_lambda(v, lam)
        cat = enumerate_orbits(directed_bonds(k4), 5)
        for orb in cat.iter_orbits():
            n, beta = orb.period, orb.backscatter_count
            expected = (
                np.exp(-0.5j * np.pi * n)
                * ((1.0 + z) / v) ** (n - beta)
                * (-1.0) ** beta
                * (1.0 - (1.0 + z) / v) ** beta
            )
            got = orbit_amplitude(orb, k4, lam)
            assert got == pytest.approx(expected), (n, beta)

    def test_triangle_amplitude_unimodular_at_special_point(self, k4):
        lam = complex(3, 1)  # v + i(v - 2)
        cat = enumerate_orbits(directed_bonds(k4), 3)
        triangle = next(o for o in cat.orbits_of_length(3) if o.no_backtrack)
        assert abs(orbit_amplitude(triangle, k4, lam)) == pytest.approx(1.0)

    def test_bulk_matches_reference(self, c6):
        space = directed_bonds(c6)
        cat = enumerate_orbits(space, 8)
        lam = complex(0.4, -1.1)
        lengths, betas, amps = bulk_amplitudes(cat, lam)
        ref = np.array([orbit_amplitude(o, c6, lam) for o in cat.iter_orbits()])
        np.testing.assert_allclose(amps, ref, rtol=1e-12)

    def test_flat_columns_cover_only_the_requested_length(self, k4):
        """The flat lengths and betas hold the orbits up to the largest
        length asked for so far, not the whole catalog."""
        cat = enumerate_orbits(directed_bonds(k4), 8)
        upto = {n: sum(cat.count(m) for m in range(2, n + 1)) for n in range(2, 9)}
        lengths, betas, amps = bulk_amplitudes(cat, 1.3, max_length=5)
        assert lengths.size == betas.size == amps.size == upto[5]
        assert cat._flat[1].size == upto[5]
        lengths, betas = cat._flat_columns(7)
        assert lengths.size == upto[7] and cat._flat[1].size == upto[7]
        np.testing.assert_array_equal(betas, np.concatenate(
            [cat._blocks[n].beta for n in range(2, 8)]))
        assert cat._flat_columns(4)[0].base is cat._flat[1]
        assert cat._flat[1].size == upto[7]

    @staticmethod
    def assert_weighted_bulk_matches_reference(g, n_max):
        cat = enumerate_orbits(directed_bonds(g), n_max)
        lam = complex(1.9, -0.7)
        _, _, amps = bulk_amplitudes(cat, lam, kind="generalized")
        ref = np.array(
            [orbit_amplitude(o, g, lam, "generalized") for o in cat.iter_orbits()]
        )
        np.testing.assert_allclose(amps, ref, rtol=1e-12)

    def test_bulk_weighted_matches_reference(self, c3w):
        self.assert_weighted_bulk_matches_reference(c3w, 8)

    @pytest.mark.parametrize("maker, n_max", [(make_k4, 7), (make_petersen, 9), (make_random8, 7)])
    def test_bulk_seeded_weights_match_reference(self, maker, n_max):
        g = maker()
        rng = np.random.default_rng(g.num_edges)
        weights = rng.uniform(0.5, 2.0, g.num_edges)
        self.assert_weighted_bulk_matches_reference(
            build_graph(g.num_vertices, g.edges, weights), n_max
        )

    def test_bulk_weighted_zero_backscatter_branch(self):
        """At lambda = 2 - 2i the pendant vertex 3 (weighted degree 2) has
        coef_3 = 1/2, so a back-scatter off its bond of weight 2 has
        rho = i(1 - coef_3 w) = 0 exactly: those amplitudes are exactly zero."""
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], weights=(0.5, 2.0, 1.5, 2.0))
        lam = complex(2.0, -2.0)
        cat = enumerate_orbits(directed_bonds(g), 8)
        _, _, amps = bulk_amplitudes(cat, lam, kind="generalized")
        ref = np.array(
            [orbit_amplitude(o, g, lam, "generalized") for o in cat.iter_orbits()]
        )
        assert np.count_nonzero(ref == 0) == 56 and ref.size == 127
        np.testing.assert_array_equal(amps == 0, ref == 0)
        np.testing.assert_allclose(amps, ref, rtol=1e-12)

    def test_isolated_vertex_rejected(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2)])
        cat = enumerate_orbits(directed_bonds(g), 6)
        with pytest.raises(DisconnectedGraphError, match="vertex 3"):
            bulk_amplitudes(cat, complex(2.0, -0.5))
        with pytest.raises(DisconnectedGraphError, match="vertex 3"):
            orbit_amplitude(cat.orbit(3, 0), g, complex(2.0, -0.5))

    def test_unit_weights_bitwise_identical_reference_path(self):
        gw = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=(1.0, 1.0, 1.0))
        space = directed_bonds(gw)
        cat = enumerate_orbits(space, 6)
        lam = complex(2.3, -0.4)
        for orb in cat.iter_orbits():
            a = orbit_amplitude(orb, gw, lam, "standard")
            b = orbit_amplitude(orb, gw, lam, "generalized")
            assert a == b

    def test_standard_kind_ignores_edge_weights(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        weighted = build_graph(4, edges, weights=(0.5, 2.0, 1.5, 3.0))
        plain = build_graph(4, edges)
        lam = complex(1.7, -0.6)
        assert np.array_equal(
            evolution_operator(weighted, lam).matrix, evolution_operator(plain, lam).matrix
        )
        for j in range(4):
            assert np.array_equal(
                vertex_scattering_matrix(weighted, j, lam).entries,
                vertex_scattering_matrix(plain, j, lam).entries,
            )
        cat_w = enumerate_orbits(directed_bonds(weighted), 6)
        cat_p = enumerate_orbits(directed_bonds(plain), 6)
        for orb in cat_w.iter_orbits():
            assert orbit_amplitude(orb, weighted, lam) == orbit_amplitude(orb, plain, lam)
        for a, b in zip(bulk_amplitudes(cat_w, lam), bulk_amplitudes(cat_p, lam)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("maker", [make_c6, make_random8])
    def test_bulk_zero_backscatter_branch(self, maker):
        """At lambda = 2 a degree-2 vertex has rho_j = 0 exactly: every orbit
        that back-scatters there has amplitude exactly zero.  All of C6 is
        degree 2; random8 mixes degrees 1, 2, 3 and 5."""
        g = maker()
        lam = complex(2.0, 0.0)
        cat = enumerate_orbits(directed_bonds(g), 8)
        _, betas, amps = bulk_amplitudes(cat, lam)
        ref = np.array([orbit_amplitude(o, g, lam) for o in cat.iter_orbits()])
        assert 0 < np.count_nonzero(ref == 0) < ref.size
        np.testing.assert_array_equal(amps == 0, ref == 0)
        np.testing.assert_allclose(amps, ref, rtol=1e-12)

    def test_matrix_amplitude(self, c3):
        space = directed_bonds(c3)
        cat = enumerate_orbits(space, 3)
        m = np.arange(36, dtype=float).reshape(6, 6)
        orb = cat.orbit(2, 0)
        d, dhat = orb.bonds
        assert orbit_matrix_amplitude(orb, m) == m[dhat, d] * m[d, dhat]


class TestOrbitClasses:
    @staticmethod
    def direct_counts(space, walks, kind):
        """Per-orbit, per-column (passes without back-scatter | back-scatters).

        A step along bond d is keyed on terminus(d) for the standard kind
        and on d itself for the generalized kind.
        """
        m, n = walks.shape
        standard = kind == "standard"
        ncol = space.graph.num_vertices if standard else space.num_bonds
        out = np.zeros((m, 2 * ncol), dtype=np.int64)
        for k in range(n):
            back = walks[:, (k + 1) % n] == space.reversal[walks[:, k]]
            column = space.terminus[walks[:, k]] if standard else walks[:, k]
            np.add.at(out, (np.arange(m), column + ncol * back), 1)
        return out

    def assert_classes_exact(self, maker, n_max, no_backtrack, kind):
        space = directed_bonds(maker())
        ncol = space.graph.num_vertices if kind == "standard" else space.num_bonds
        cat = enumerate_orbits(space, n_max, no_backtrack=no_backtrack)
        n_classes = 0
        for n in sorted(cat._blocks):
            classes, index = cat._vertex_stats(n, kind)
            assert classes.shape[1] == 2 * ncol
            assert index.dtype == np.int32
            np.testing.assert_array_equal(
                classes[index], self.direct_counts(space, cat._blocks[n].walks, kind)
            )
            assert np.all(classes.sum(axis=1) == n)
            # distinct classes never share a row
            assert np.unique(classes, axis=0).shape[0] == classes.shape[0]
            assert cat._vertex_stats(n, kind)[0] is classes  # cached per kind
            n_classes += classes.shape[0]
        if maker is make_k4:
            assert n_classes < cat.total()

    @pytest.mark.parametrize("maker, n_max", [(make_petersen, 12), (make_k4, 10)])
    @pytest.mark.parametrize("no_backtrack", [False, True])
    def test_classes_are_exact(self, maker, n_max, no_backtrack):
        self.assert_classes_exact(maker, n_max, no_backtrack, "standard")

    @pytest.mark.parametrize("maker, n_max", [(make_petersen, 12), (make_k4, 10)])
    @pytest.mark.parametrize("no_backtrack", [False, True])
    def test_bond_classes_are_exact(self, maker, n_max, no_backtrack):
        """The generalized kind keys each step on its bond, 2B columns."""
        self.assert_classes_exact(maker, n_max, no_backtrack, "generalized")


class TestTraceIdentity:
    @pytest.mark.parametrize("name,g,kind", fixture_graphs(), ids=lambda t: str(t))
    def test_matches_matrix_powers(self, name, g, kind):
        cat = enumerate_orbits(directed_bonds(g), 8)
        rng = np.random.default_rng(9)
        for _ in range(3):
            lam = complex(rng.uniform(-3, 8), rng.uniform(-2, 0))
            u = evolution_operator(g, lam, kind)
            lengths, _, amps = bulk_amplitudes(cat, lam, kind)
            all_n = _trace_powers(lengths, amps, 8)
            for n in range(2, 9):
                direct = matrix_power_trace(u.matrix, n)
                from_orbits = trace_power_from_orbits(cat, g, lam, n, kind)
                assert abs(direct - from_orbits) <= 1e-8 * max(1e-12, abs(direct))
                assert abs(direct - all_n[n]) <= 1e-8 * max(1e-12, abs(direct))

    def test_p2_repetition_exponent(self, p2):
        # tr U^4 = 2 a^2 for the single 2-orbit: the repetition enters
        # with the power n/m, not linearly
        cat = enumerate_orbits(directed_bonds(p2), 4)
        lam = complex(0.9, -0.3)
        amp = orbit_amplitude(cat.orbit(2, 0), p2, lam)
        u = evolution_operator(p2, lam)
        assert matrix_power_trace(u.matrix, 4) == pytest.approx(2.0 * amp**2)
        assert trace_power_from_orbits(cat, p2, lam, 4) == pytest.approx(2.0 * amp**2)


class TestExport:
    def test_jsonl_format(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 3)
        buf = io.StringIO()
        count = cat.export_jsonl(buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert count == len(lines) == cat.total()
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"n", "beta", "bonds"}
            assert rec["n"] == len(rec["bonds"])

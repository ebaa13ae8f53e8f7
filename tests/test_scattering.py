"""Vertex scattering matrices, evolution operator, secular function, reconstruction."""

import numpy as np
import pytest

from graphscatter.errors import DisconnectedGraphError, NullSpaceError, SpectralPoleError
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.laplacian import build_laplacian, laplacian_spectrum
from graphscatter.linalg import determinant, eig_general
from graphscatter.scattering import (
    evolution_determinant_closed_form,
    evolution_operator,
    pole_candidates,
    reconstruct_eigenvectors,
    scan_spectrum_deviation,
    scattering_phases,
    secular_function,
    secular_zero_scan,
    vertex_scattering_matrix,
)
from conftest import fixture_graphs


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

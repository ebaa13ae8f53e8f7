"""Zeta functions: determinant forms vs orbit products vs count extraction."""

import warnings

import numpy as np
import pytest

from graphscatter.errors import RegularityError
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.laplacian import build_laplacian, laplacian_spectrum
from graphscatter.orbits import enumerate_orbits
from graphscatter.scattering import scattering_phases
from graphscatter.zeta import (
    functional_equation_defect,
    ihara_zeta_det,
    ihara_zeta_product,
    nonbacktracking_counts_from_determinant,
    nonbacktracking_matrix,
    regular_zeta_z,
    secular_ratio_constant,
    spectral_zeta_det,
    spectral_zeta_product,
    stark_zeta,
)
from conftest import make_c3, two_copies


class TestSpectralZetaDet:
    def test_vanishes_on_spectrum(self, k4):
        for lam in laplacian_spectrum(build_laplacian(k4)).eigenvalues:
            assert abs(spectral_zeta_det(k4, float(lam))) < 1e-12

    def test_p2_at_one(self, p2):
        # numerator 1*(1-2) = -1, denominator (1 + i*0)^2 = 1
        assert spectral_zeta_det(p2, 1.0) == pytest.approx(-1.0)

    def test_k4_at_two(self, k4):
        expected = -16.0 / (3.0 + 1.0j) ** 4
        assert spectral_zeta_det(k4, 2.0) == pytest.approx(expected)


class TestRatioConstant:
    def test_constant_and_valued(self, c3, k4, c3w):
        rng = np.random.default_rng(12)
        cases = [(c3, "standard"), (k4, "standard"), (c3w, "generalized")]
        for g, kind in cases:
            vals = np.array(
                [
                    secular_ratio_constant(
                        g, complex(rng.uniform(-4, 9), rng.uniform(-2, 2)), kind
                    )
                    for _ in range(30)
                ]
            )
            assert np.std(vals) / abs(np.mean(vals)) < 1e-8
            expected = 2.0 ** g.num_edges * 1j ** g.num_vertices
            assert np.mean(vals) == pytest.approx(expected)


class TestSpectralZetaProduct:
    def test_p2_single_orbit_exact(self, p2):
        cat = enumerate_orbits(directed_bonds(p2), 4)
        ev = spectral_zeta_product(cat, p2, complex(1.0, -0.5), truncation=4)
        assert ev.relative_error < 1e-9  # one orbit, finite product is exact

    def test_catalog_of_another_graph_rejected(self, k4, c3):
        cat = enumerate_orbits(directed_bonds(k4), 6)
        with pytest.raises(ValueError, match="another graph"):
            spectral_zeta_product(cat, c3, complex(1.0, -0.5), truncation=6)

    def test_no_backtrack_catalog_rejected(self, k4):
        cat = enumerate_orbits(directed_bonds(k4), 6, no_backtrack=True)
        with pytest.raises(ValueError, match="without back-scatter"):
            spectral_zeta_product(cat, k4, complex(1.0, -0.5), truncation=6)

    def test_warning_above_axis(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 4)
        with pytest.warns(UserWarning):
            ev = spectral_zeta_product(cat, c3, complex(1.0, 0.5), truncation=4)
        assert ev.warning is not None

    @pytest.mark.parametrize(
        "maker, kind",
        [("p2", "standard"), ("p2w", "generalized"), ("c3", "standard"),
         ("c6", "standard"), ("k4", "standard"), ("c3w", "generalized")],
    )
    def test_cycle_expansion_exact_from_2b(self, maker, kind, request):
        """det(I - zU) has degree 2B in z: cut at N >= 2B the expansion is exact."""
        g = request.getfixturevalue(maker)
        two_b = 2 * g.num_edges
        cat = enumerate_orbits(directed_bonds(g), two_b + 1)
        for lam in (complex(2.0, -1.0), complex(0.7, -0.2)):
            for n in (two_b, two_b + 1):
                ev = spectral_zeta_product(cat, g, lam, truncation=n, kind=kind)
                assert ev.relative_error <= 1e-12, (lam, n)
            assert ev.convergence_gap <= 1e-12

    def test_slow_oscillatory_convergence(self, c3_catalog_16, c3):
        """The plain Euler product's error envelope decays like 1/N, not geometrically.

        U keeps a fixed eigenvalue at -i whatever lambda is, so the
        length-n primitive amplitude sums fall off only as 1/n; the Euler
        product over primitive orbits at N = 16 (the ``euler_value``
        diagnostic) still sits percents away from the determinant, at any
        depth below the axis.
        """
        lam = complex(2.0, -1.0)
        errors = {}
        for n in (8, 12, 16):
            ev = spectral_zeta_product(c3_catalog_16, c3, lam, truncation=n)
            errors[n] = ev.euler_relative_error
        assert errors[16] < errors[8]  # the trend decreases
        assert 1e-3 < errors[16] < 0.2  # but only harmonically fast


class TestIhara:
    def test_at_zero(self, k4):
        assert ihara_zeta_det(k4, 0.0) == pytest.approx(1.0)

    def test_k4_series_starts_with_triangles(self, k4):
        u = 1e-3
        lead = (1.0 - ihara_zeta_det(k4, u)) / u**3
        assert lead == pytest.approx(8.0, abs=0.01)

    def test_tree_product_is_one(self, p2):
        cat = enumerate_orbits(directed_bonds(p2), 10, no_backtrack=True)
        ev = ihara_zeta_product(cat, 0.3, 10)
        assert ev.value == pytest.approx(1.0)
        assert ihara_zeta_det(p2, 0.3) == pytest.approx(1.0)

    def test_product_vs_det(self, k4, petersen, c6):
        for g in (k4, petersen, c6):
            cat = enumerate_orbits(directed_bonds(g), 12, no_backtrack=True)
            ev = ihara_zeta_product(cat, 0.1, 12)
            assert ev.relative_error < 1e-6

    def test_either_catalog_mode(self, k4):
        # the counts |C(m)| read the same off a full and a no-backtrack catalog
        space = directed_bonds(k4)
        full = ihara_zeta_product(enumerate_orbits(space, 10), 0.1, 10)
        nb = ihara_zeta_product(enumerate_orbits(space, 10, no_backtrack=True), 0.1, 10)
        assert full.value == nb.value and full.euler_value == nb.euler_value

    @pytest.mark.parametrize(
        "g", [build_graph(4, [(0, 1), (2, 3)]), two_copies(make_c3())], ids=["2xP2", "2xC3"]
    )
    def test_disconnected_matches_nonbacktracking_det(self, g):
        """Bass's exponent B - V holds on every finite graph, so the V x V
        form equals det(I - uB) on disconnected graphs as well."""
        space = directed_bonds(g)
        eye = np.eye(space.num_bonds)
        for u in (0.1, complex(0.3, -0.2), 0.7):
            want = np.linalg.det(eye - u * nonbacktracking_matrix(space))
            assert ihara_zeta_det(g, u) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_radius_cached_on_bond_space(self, k4, c6):
        # K4 is 3-regular: rho(B) = degree - 1; any cycle has rho(B) = 1
        for g, rho in ((k4, 2.0), (c6, 1.0)):
            space = directed_bonds(g)
            eig = np.linalg.eigvals(nonbacktracking_matrix(space))
            assert space.nonbacktracking_radius == pytest.approx(np.max(np.abs(eig)))
            assert space.nonbacktracking_radius == pytest.approx(rho)
            assert space.nonbacktracking_radius is space.nonbacktracking_radius
            with pytest.raises(AttributeError):
                space.nonbacktracking_radius = 0.0


U_PAST_K4_RADIUS = complex(0.45, 0.3)  # |u| rho(B) = 1.08 on K4, 0.54 on cycles


@pytest.mark.parametrize("maker", ["c3", "c6", "k4"])
@pytest.mark.parametrize("no_backtrack", [False, True])
class TestCycleExpansionExact:
    """det(I - uB) and det(I - Y) have degree 2B: the products are exact from N = 2B."""

    def test_ihara(self, maker, no_backtrack, request):
        g = request.getfixturevalue(maker)
        two_b = 2 * g.num_edges
        cat = enumerate_orbits(directed_bonds(g), two_b + 1, no_backtrack=no_backtrack)
        u = U_PAST_K4_RADIUS
        for n in (two_b, two_b + 1):
            if maker == "k4":
                with pytest.warns(UserWarning, match="non-backtracking"):
                    ev = ihara_zeta_product(cat, u, n)
            else:
                ev = ihara_zeta_product(cat, u, n)
                assert ev.warning is None
            assert ev.relative_error <= 1e-12, n
            euler = 1.0 + 0.0j
            for m in range(2, n + 1):
                euler *= (1.0 - u**m) ** cat.count_no_backtrack(m)
            assert ev.euler_value == pytest.approx(euler, rel=1e-14, abs=0.0)
            if maker == "k4":
                # the plain Euler product is far off where the expansion is exact
                assert ev.euler_relative_error > 0.1

    def test_stark(self, maker, no_backtrack, request):
        g = request.getfixturevalue(maker)
        two_b = 2 * g.num_edges
        space = directed_bonds(g)
        cat = enumerate_orbits(directed_bonds(g), two_b + 1, no_backtrack=no_backtrack)
        rng = np.random.default_rng(two_b)
        eta = U_PAST_K4_RADIUS * rng.uniform(0.5, 1.5, (two_b, two_b))
        for n in (two_b, two_b + 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                ev = stark_zeta(space, eta, truncation=n, catalog=cat)
            assert len(caught) == (ev.warning is not None)
            assert ev.relative_error <= 1e-12, n
            assert ev.truncation_length == n


class TestCountsFromDeterminant:
    @pytest.mark.parametrize("maker", ["c3", "k4", "petersen", "k33"])
    def test_matches_enumeration(self, maker, request):
        g = request.getfixturevalue(maker)
        counts = nonbacktracking_counts_from_determinant(g, 8)
        cat = enumerate_orbits(directed_bonds(g), 8, no_backtrack=True)
        for n in range(2, 9):
            assert counts[n] == cat.count(n), n

    def test_k4_triangle_count(self, k4):
        counts = nonbacktracking_counts_from_determinant(k4, 3)
        assert counts[3] == 8

    def test_exact_past_float_rounding(self, k4):
        # exact integers at every length, checked against enumeration at 17
        counts = nonbacktracking_counts_from_determinant(k4, 25)
        assert counts[17:] == [
            7_728, 14_364, 27_720, 52_548, 99_456, 190_620, 365_400, 698_132, 1_341_648,
        ]
        cat = enumerate_orbits(directed_bonds(k4), 17, no_backtrack=True)
        assert counts[17] == cat.count(17)

    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_rejects_length_below_two(self, k4, n_max):
        with pytest.raises(ValueError, match="max_length must be at least 2"):
            nonbacktracking_counts_from_determinant(k4, n_max)


class TestStark:
    def test_zero_weights(self, c3):
        space = directed_bonds(c3)
        ev = stark_zeta(space, np.zeros((6, 6)), truncation=6)
        assert ev.value == pytest.approx(1.0)
        assert ev.det_value == pytest.approx(1.0)

    def test_constant_weights_give_ihara(self, k4):
        # with eta = u everywhere, det(I - Y) is exactly the reciprocal
        # Ihara zeta (both equal the non-backtracking determinant)
        space = directed_bonds(k4)
        u = 0.12
        ev = stark_zeta(space, np.full((12, 12), u, dtype=complex), truncation=16)
        assert ev.det_value == pytest.approx(ihara_zeta_det(k4, u))
        assert ev.relative_error < 1e-10

    def test_random_weights_c3(self, c3):
        rng = np.random.default_rng(21)
        space = directed_bonds(c3)
        eta = rng.uniform(0.0, 0.2, (6, 6)).astype(complex)
        ev = stark_zeta(space, eta, truncation=15)
        assert ev.relative_error < 1e-6

    def test_random_weights_k4_radius_guarded(self, k4):
        rng = np.random.default_rng(22)
        space = directed_bonds(k4)
        y_raw = nonbacktracking_matrix(space)
        eta = rng.uniform(0.0, 1.0, (12, 12)).astype(complex)
        from graphscatter.linalg import eig_general
        from graphscatter.zeta import stark_matrix

        rho = np.max(np.abs(eig_general(stark_matrix(space, eta)).eigenvalues))
        eta *= 0.3 / rho  # keep the spectral radius well below 1
        ev = stark_zeta(space, eta, truncation=14)
        assert ev.relative_error < 1e-6
        assert ev.warning is None


    def test_catalog_of_another_graph_rejected(self, c6, k4):
        # C6 and K4 both have 12 bonds, so the K4 catalog indexes C6's Y
        # without an error; it must be refused, not summed
        space = directed_bonds(c6)
        eta = np.full((12, 12), 0.3, dtype=complex)
        own = enumerate_orbits(space, 12, no_backtrack=True)
        assert stark_zeta(space, eta, truncation=12, catalog=own).relative_error < 1e-12
        foreign = enumerate_orbits(directed_bonds(k4), 12, no_backtrack=True)
        with pytest.raises(ValueError, match="another graph"):
            stark_zeta(space, eta, truncation=12, catalog=foreign)

    def test_either_catalog_mode(self, k4):
        # only the back-scatter-free orbits enter, so a full catalog does too
        space = directed_bonds(k4)
        eta = np.random.default_rng(23).uniform(0.0, 0.1, (12, 12)).astype(complex)
        full = stark_zeta(space, eta, 10, enumerate_orbits(space, 10))
        nb = stark_zeta(space, eta, 10, enumerate_orbits(space, 10, no_backtrack=True))
        assert full.value == nb.value and full.euler_value == nb.euler_value


class TestRegularZForm:
    def test_c3_at_z_one(self, c3):
        assert regular_zeta_z(c3, 1.0) == pytest.approx(2.0)  # det of the triangle adjacency

    def test_zero_at_z_i(self, k4):
        # z = i maps to lambda = 0, which is in the spectrum
        assert abs(regular_zeta_z(k4, 1j)) < 1e-12
        assert scattering_phases(k4, 0.0)[0] == pytest.approx(1j)

    def test_bridge_to_det_form(self, k4, petersen):
        # z-form) = det-form * v^V * n^{2V} with n = 2z/(z+1), z = e^{i alpha}(lambda)
        rng = np.random.default_rng(13)
        for g in (k4, petersen):
            v, nv = g.regular_degree, g.num_vertices
            for _ in range(10):
                lam = complex(rng.uniform(-1.0, 2.0 * v + 1.0), rng.uniform(-1.5, 1.5))
                z = scattering_phases(g, lam)[0]
                nfac = 2.0 * z / (z + 1.0)
                lhs = regular_zeta_z(g, z)
                rhs = spectral_zeta_det(g, lam) * v**nv * nfac ** (2 * nv)
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_non_regular_rejected(self, random8):
        with pytest.raises(RegularityError):
            regular_zeta_z(random8, 0.5)

    def test_pole_at_minus_one(self, k4):
        with pytest.raises(ValueError):
            regular_zeta_z(k4, -1.0)


class TestFunctionalEquation:
    def test_unit_circle(self, k4):
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = np.exp(1j * rng.uniform(-np.pi, np.pi))
            assert functional_equation_defect(k4, z) < 1e-9

    def test_off_circle_pairs(self, k4, petersen, c3):
        rng = np.random.default_rng(15)
        for g in (k4, petersen, c3):
            for _ in range(10):
                z = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(-3.0, 3.0))
                assert functional_equation_defect(g, z) < 1e-8

    def test_branch_cut_flagged_for_odd_vertex_count(self, c3):
        with pytest.warns(UserWarning):
            functional_equation_defect(c3, complex(-0.8, 1e-12))

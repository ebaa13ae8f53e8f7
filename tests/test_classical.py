"""Classical bond dynamics: bi-stochasticity, mixing, the no-backscatter map."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphscatter.classical import (
    _min_sum_assignment,
    classical_secular,
    mixing_gap,
    multiset_defect,
    no_backscatter_map,
    no_backscatter_secular_closed_form,
    no_backscatter_spectrum_from_laplacian,
    transition_matrix,
)
from graphscatter.errors import RegularityError
from graphscatter.graph import directed_bonds
from graphscatter.linalg import eig_general, matrix_power_trace
from graphscatter.orbits import enumerate_orbits
from conftest import two_copies
from reference import evolve, orbit_amplitude, orbit_matrix_amplitude


class TestTransitionMatrix:
    def test_bistochastic_at_many_lambdas(self, random8):
        rng = np.random.default_rng(17)
        for lam in rng.uniform(-5.0, 12.0, 50):
            cmap = transition_matrix(random8, float(lam))
            assert cmap.bistochastic_defect < 1e-10

    def test_p2_is_the_swap(self, p2):
        cmap = transition_matrix(p2, 0.7)
        np.testing.assert_allclose(cmap.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_c3_has_uniform_equilibrium(self, c3):
        cmap = transition_matrix(c3, 1.0)
        rep = mixing_gap(cmap)
        assert abs(rep.eigenvalues[np.argmin(np.abs(rep.eigenvalues - 1.0))] - 1.0) < 1e-12
        assert rep.equilibrium_deviation < 1e-10

    def test_complex_lambda_rejected(self, c3):
        with pytest.raises(ValueError):
            transition_matrix(c3, complex(1.0, 0.5))

    def test_weighted_kind(self, c3w):
        cmap = transition_matrix(c3w, 0.9, kind="generalized")
        assert cmap.bistochastic_defect < 1e-10


class TestEvolve:
    def test_uniform_is_fixed(self, k4):
        cmap = transition_matrix(k4, 2.0)
        rho = np.full(12, 1.0 / 12.0)
        out = evolve(cmap, rho, 7)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_p2_alternates(self, p2):
        cmap = transition_matrix(p2, 0.0)
        out = evolve(cmap, np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-14)

    def test_l1_and_positivity_preserved(self, petersen):
        rng = np.random.default_rng(18)
        cmap = transition_matrix(petersen, 1.5)
        rho = rng.dirichlet(np.ones(30))
        traj = evolve(cmap, rho, 20, return_trajectory=True)
        for state in traj:
            assert abs(state.sum() - 1.0) < 1e-12
            assert np.all(state >= -1e-15)

    def test_mixing_rate_bound(self, c3):
        rng = np.random.default_rng(19)
        cmap = transition_matrix(c3, 1.0)
        rep = mixing_gap(cmap)
        rho0 = rng.dirichlet(np.ones(6))
        out = evolve(cmap, rho0, 50)
        deviation = np.max(np.abs(out - 1.0 / 6.0))
        assert deviation < rep.second_modulus**50

    def test_invalid_distribution_rejected(self, c3):
        cmap = transition_matrix(c3, 1.0)
        with pytest.raises(ValueError):
            evolve(cmap, np.array([0.5, 0.5, 0.0, 0.0, 0.0, -0.0001]), 1)
        with pytest.raises(ValueError):
            evolve(cmap, np.full(6, 0.2), 1)


class TestMixingGap:
    def test_p2_permutation_non_mixing(self, p2):
        rep = mixing_gap(transition_matrix(p2, 0.4))
        assert rep.second_modulus == pytest.approx(1.0)
        assert rep.non_mixing

    def test_bipartite_sharp_map_non_mixing(self, k33):
        rep = mixing_gap(no_backscatter_map(k33))
        assert rep.non_mixing  # Laplacian eigenvalue 2v puts -1 in the spectrum

    def test_k4_sharp_gap(self, k4):
        rep = mixing_gap(no_backscatter_map(k4))
        assert rep.second_modulus == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert not rep.non_mixing


class TestNoBackscatterMap:
    def test_k4_structure(self, k4):
        cmap = no_backscatter_map(k4)
        m = cmap.matrix
        space = cmap.space
        # back-scatter entries exactly zero, each column two entries of 1/2
        for d in range(12):
            assert m[space.reversal[d], d] == 0.0
            col = m[:, d]
            assert np.sum(col == 0.5) == 2
            assert col.sum() == pytest.approx(1.0)
        assert cmap.bistochastic_defect < 1e-12

    def test_petersen_size(self, petersen):
        cmap = no_backscatter_map(petersen)
        assert cmap.matrix.shape == (30, 30)
        assert cmap.bistochastic_defect < 1e-12

    def test_degree_two_rejected(self, c3):
        with pytest.raises(RegularityError):
            no_backscatter_map(c3)

    def test_non_regular_rejected(self, random8):
        with pytest.raises(RegularityError):
            no_backscatter_map(random8)


class TestSharpSpectrum:
    def test_k4_expected_multiset(self, k4):
        formula = no_backscatter_spectrum_from_laplacian(k4)
        expected = np.array(
            [1.0, 0.5, 0.5, 0.5, -0.5, -0.5]
            + [(-1 + 1j * np.sqrt(7)) / 4] * 3
            + [(-1 - 1j * np.sqrt(7)) / 4] * 3
        )
        assert multiset_defect(formula, expected) < 1e-12

    def test_matches_direct_eigensolve(self, k4, petersen):
        for g in (k4, petersen):
            cmap = no_backscatter_map(g)
            direct = eig_general(cmap.matrix).eigenvalues
            formula = no_backscatter_spectrum_from_laplacian(g)
            assert multiset_defect(direct, formula) < 1e-8

    def test_disconnected_matches_direct_eigensolve(self, k4):
        """Two copies of K4: B - V = 4 eigenvalues at each of +-1/(v-1)."""
        g = two_copies(k4)
        direct = eig_general(no_backscatter_map(g).matrix).eigenvalues
        formula = no_backscatter_spectrum_from_laplacian(g)
        assert formula.size == 2 * g.num_edges
        assert multiset_defect(direct, formula) < 1e-8

    def test_zero_eigenvalue_gives_unit_pair(self, petersen):
        formula = no_backscatter_spectrum_from_laplacian(petersen)
        v = petersen.regular_degree
        assert np.min(np.abs(formula - 1.0)) < 1e-12
        assert np.min(np.abs(formula - 1.0 / (v - 1.0))) < 1e-12

    def test_second_modulus_from_formula(self, k4):
        formula = no_backscatter_spectrum_from_laplacian(k4)
        moduli = np.sort(np.abs(formula))[::-1]
        assert moduli[0] == pytest.approx(1.0)
        assert moduli[1] == pytest.approx(1.0 / np.sqrt(2.0))


class TestClassicalSecular:
    def test_at_zero(self, c3):
        cmap = transition_matrix(c3, 1.0)
        assert classical_secular(cmap, 0.0) == pytest.approx(1.0)

    def test_at_one_on_normalized_map(self, k4):
        cmap = no_backscatter_map(k4)
        assert abs(classical_secular(cmap, 1.0)) < 1e-12

    def test_closed_form_identity(self, k4, petersen):
        rng = np.random.default_rng(20)
        for g in (k4, petersen):
            cmap = no_backscatter_map(g)
            for _ in range(20):
                mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                lhs = classical_secular(cmap, mu)
                rhs = no_backscatter_secular_closed_form(g, mu)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_orbit_expansion_with_squared_amplitudes(self, c3):
        """-log det(I - mu M) = sum_n mu^n tr M^n / n, where tr M^n is the
        orbit sum with every amplitude replaced by its absolute square."""
        lam = 1.0
        cmap = transition_matrix(c3, lam)
        space = directed_bonds(c3)
        cat = enumerate_orbits(space, 6)

        for n in range(2, 7):
            direct = matrix_power_trace(cmap.matrix, n)
            orbit_sum = 0.0
            for m in range(2, n + 1):
                if n % m:
                    continue
                for orb in (cat.orbit(m, i) for i in range(cat.count(m))):
                    amp_m = orbit_matrix_amplitude(orb, cmap.matrix)
                    quantum = orbit_amplitude(orb, c3, lam)
                    assert amp_m == pytest.approx(abs(quantum) ** 2)
                    orbit_sum += m * amp_m ** (n // m)
            assert direct == pytest.approx(orbit_sum)


@st.composite
def tied_point_sets(draw):
    """Two multisets of n <= 30 points on a coarse grid: ties and duplicates planted."""
    n = draw(st.integers(1, 30))
    grid = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    a = [complex(*draw(grid)) for _ in range(n)]
    b = draw(st.permutations(a))
    moved = draw(st.lists(st.tuples(st.integers(0, n - 1), grid), max_size=n))
    for k, step in moved:
        b[k] += 0.5 * complex(*step)
    return np.array(a), np.array(b)


class TestMinSumAssignment:
    """The in-package assignment against scipy.optimize.linear_sum_assignment."""

    @given(tied_point_sets())
    @example(points=(np.arange(30) % 5 + 0j, np.arange(30)[::-1] % 5 + 0.5j))
    def test_total_cost_matches_scipy(self, points):
        optimize = pytest.importorskip("scipy.optimize")
        a, b = points
        cost = np.abs(a[:, None] - b[None, :])
        cols = _min_sum_assignment(cost.tolist())
        assert sorted(cols) == list(range(len(a)))
        rows, ref = optimize.linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == cost[rows, ref].sum()

    @pytest.mark.parametrize("maker", ["k4", "k33", "petersen"])
    def test_defect_matches_scipy_on_fixture_spectra(self, maker, request):
        # the no-backscatter spectra the identity suite compares
        optimize = pytest.importorskip("scipy.optimize")
        g = request.getfixturevalue(maker)
        direct = eig_general(no_backscatter_map(g).matrix).eigenvalues
        formula = no_backscatter_spectrum_from_laplacian(g)
        cost = np.abs(direct[:, None] - formula[None, :])
        rows, cols = optimize.linear_sum_assignment(cost)
        assert multiset_defect(direct, formula) == float(cost[rows, cols].max())

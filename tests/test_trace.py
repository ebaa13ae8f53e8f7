"""Trace formula: densities, Weyl term, orbit term, report assembly."""

import io

import numpy as np
import pytest

from graphscatter.graph import directed_bonds
from graphscatter.laplacian import build_laplacian
from graphscatter.orbits import bulk_amplitudes, enumerate_orbits
from graphscatter.scattering import evolution_operator, scattering_phases
from graphscatter.trace import (
    density_summary,
    density_total_mass,
    orbit_term,
    smoothed_density,
    trace_formula_report,
    weyl_term,
    write_density_csv,
)


class TestSmoothedDensity:
    def test_lorentzian_peak_height(self, p2):
        # eigenvalue at 0: contribution 1/(pi eps); the eigenvalue at 2 adds
        # its tail eps/(pi (4 + eps^2))
        eps = 0.3
        lap = build_laplacian(p2)
        got = smoothed_density(lap, np.array([0.0]), eps)[0]
        expected = 1.0 / (np.pi * eps) + eps / (np.pi * (4.0 + eps * eps))
        assert got == pytest.approx(expected)

    def test_two_peaks(self, p2):
        lap = build_laplacian(p2)
        grid = np.linspace(-1.0, 3.0, 401)
        dens = smoothed_density(lap, grid, 0.3)
        peaks = grid[np.argsort(dens)[-2:]]
        np.testing.assert_allclose(np.sort(peaks), [0.0, 2.0], atol=0.02)

    def test_weighted_peaks(self, p2w):
        lap = build_laplacian(p2w, "generalized")
        grid = np.linspace(-3.0, 13.0, 1601)
        dens = smoothed_density(lap, grid, 0.3)
        peaks = grid[np.argsort(dens)[-2:]]
        np.testing.assert_allclose(np.sort(peaks), [0.0, 10.0], atol=0.02)

    def test_total_mass(self, k4, c3):
        for g, v in ((k4, 4), (c3, 3)):
            mass = density_total_mass(build_laplacian(g), 0.1)
            assert 0.95 * v <= mass <= 1.0 * v

    def test_epsilon_floor(self, p2):
        lap = build_laplacian(p2)
        with pytest.raises(ValueError):
            smoothed_density(lap, np.array([0.0]), 1e-4)
        with pytest.raises(ValueError):
            smoothed_density(lap, np.array([0.0]), -0.1)


class TestWeylTerm:
    def test_regular_value_at_degree(self, k4):
        got = weyl_term(k4, np.array([3.0]))[0]
        assert got == pytest.approx(4.0 / (3.0 * np.pi))

    def test_decays_at_infinity(self, c3):
        far = weyl_term(c3, np.array([-1e6, 1e6]))
        assert np.all(far < 1e-9)

    def test_weighted_uses_weighted_valency(self, p2w):
        # u = 5 at both vertices: value at lambda = 5 is 2/(5 pi)
        got = weyl_term(p2w, np.array([5.0]), "generalized")[0]
        assert got == pytest.approx(2.0 / (5.0 * np.pi))

    def test_trace_formula_at_infinite_cutoff(self, c3, k4):
        """density = weyl(eps) + (1/pi) Im d/dlambda log det(I - U) at lambda - i eps.

        The resummed orbit sum is the log-derivative of det(I - U); with the
        Weyl term smoothed to half-width deg_j + eps, nothing is left over.
        """
        eps, fd = 0.3, 1e-5
        for g, grid in ((c3, np.linspace(-1.0, 5.0, 49)), (k4, np.linspace(-1.0, 7.0, 49))):
            def det_iu(lam):
                u = evolution_operator(g, lam).matrix
                return np.linalg.det(np.eye(u.shape[0]) - u)

            resummed = np.array([
                (np.log(det_iu(complex(x + fd, -eps)) / det_iu(complex(x - fd, -eps)))
                 / (2.0 * fd)).imag / np.pi
                for x in grid
            ])
            exact = smoothed_density(build_laplacian(g), grid, eps)
            np.testing.assert_allclose(
                weyl_term(g, grid, epsilon=eps) + resummed, exact, rtol=0, atol=1e-8
            )


class TestOrbitTerm:
    def test_p2_analytic_vs_finite_difference(self, p2):
        """Closed form for the single orbit: a = -e^{2 i alpha},
        S = sum_r a^r / r, dS/dlambda = 2 i alpha' sum_r a^r with
        alpha' = -2 / (1 + (1 - lambda)^2)."""
        eps, n_rep = 0.3, 6
        cat = enumerate_orbits(directed_bonds(p2), 2)
        grid = np.linspace(-1.0, 3.0, 21)
        got = orbit_term(cat, p2, grid, eps, 2, n_rep)
        analytic = np.empty_like(grid)
        for i, x in enumerate(grid):
            lam = complex(x, -eps)
            phase = scattering_phases(p2, lam)[0]
            a = -phase * phase
            alpha_prime = -2.0 / (1.0 + (1.0 - lam) ** 2)
            total = sum(a**r for r in range(1, n_rep + 1))
            analytic[i] = -(2j * alpha_prime * total).imag / np.pi
        np.testing.assert_allclose(got, analytic, atol=1e-6)

    def test_catalog_of_another_graph_rejected(self, k4, c3):
        cat = enumerate_orbits(directed_bonds(k4), 4)
        grid = np.linspace(-1.0, 5.0, 7)
        with pytest.raises(ValueError, match="another graph"):
            orbit_term(cat, c3, grid, 0.3, 4, 2)
        with pytest.raises(ValueError, match="another graph"):
            trace_formula_report(c3, grid, epsilon=0.3, max_length=4, catalog=cat)

    def test_residual_decreases_with_cutoffs(self, c3, c3_catalog_16):
        grid = np.linspace(-1.0, 5.0, 31)
        exact = smoothed_density(build_laplacian(c3), grid, 0.3)
        weyl = weyl_term(c3, grid)
        residuals = {}
        for n_len in (6, 10, 14):
            for n_rep in (2, 4, 6):
                o = orbit_term(c3_catalog_16, c3, grid, 0.3, n_len, n_rep)
                residuals[(n_len, n_rep)] = np.max(np.abs(exact - weyl - o))
        for n_len in (6, 10, 14):
            assert residuals[(n_len, 4)] <= residuals[(n_len, 2)] + 1e-12
            assert residuals[(n_len, 6)] <= residuals[(n_len, 4)] + 1e-12
        for n_rep in (2, 4, 6):
            assert residuals[(10, n_rep)] <= residuals[(6, n_rep)] + 1e-12
            assert residuals[(14, n_rep)] <= residuals[(10, n_rep)] + 1e-12


    def test_matches_naive_repetition_sum(self, k4, k4_catalog_16):
        """orbit_term equals sum_r sum_p a_p^r / r, differenced point by point.

        The finite difference magnifies rounding, so the naive sum keeps the
        catalog order of the amplitudes and the power-by-multiplication
        recursion; a regrouped sum drifts by a few 1e-10 at these cutoffs.
        """
        eps, fd, n_len, n_rep = 0.3, 1e-5, 14, 6
        grid = np.linspace(-1.0, 7.0, 49)[:5]
        naive = np.empty_like(grid)
        for i, x in enumerate(grid):
            sums = []
            for lam in (complex(x, -eps) + fd, complex(x, -eps) - fd):
                _, _, amps = bulk_amplitudes(k4_catalog_16, lam, max_length=n_len)
                power = np.ones_like(amps)
                total = 0.0 + 0.0j
                for r in range(1, n_rep + 1):
                    power = power * amps
                    total += power.sum() / r
                sums.append(total)
            naive[i] = -((sums[0] - sums[1]) / (2 * fd)).imag / np.pi
        got = orbit_term(k4_catalog_16, k4, grid, eps, n_len, n_rep)
        np.testing.assert_allclose(got, naive, rtol=0, atol=1e-10)


class TestReport:
    def test_charpoly_reference_identity(self, k4):
        cat = enumerate_orbits(directed_bonds(k4), 6)
        grid = np.linspace(-1.0, 6.0, 29)
        rep = trace_formula_report(k4, grid, epsilon=0.3, max_length=6,
                                   max_repetition=3, catalog=cat)
        dev = np.max(np.abs(rep.exact_density - rep.reference_charpoly))
        assert dev < 1e-8

    def test_secular_reference_off_by_order_epsilon(self, c3):
        """The secular-function log-derivative differs from the density by
        a smooth term that scales with epsilon (the per-vertex
        normalization evaluated below the axis)."""
        cat = enumerate_orbits(directed_bonds(c3), 4)
        grid = np.linspace(-1.0, 5.0, 25)
        devs = {}
        for eps in (0.6, 0.3, 0.15):
            rep = trace_formula_report(c3, grid, epsilon=eps, max_length=4,
                                       max_repetition=2, catalog=cat)
            devs[eps] = np.max(np.abs(rep.exact_density - rep.reference_secular))
        assert devs[0.15] < devs[0.3] < devs[0.6]
        assert devs[0.6] < 0.6  # order epsilon, not order one

    def test_weighted_report_runs(self, p2w):
        cat = enumerate_orbits(directed_bonds(p2w), 4)
        grid = np.linspace(-2.0, 12.0, 29)
        rep = trace_formula_report(p2w, grid, epsilon=0.3, max_length=4,
                                   max_repetition=4, kind="generalized", catalog=cat)
        assert np.max(np.abs(rep.exact_density - rep.reference_charpoly)) < 1e-8
        peak_positions = grid[np.argsort(rep.exact_density)[-2:]]
        np.testing.assert_allclose(np.sort(peak_positions), [0.0, 10.0], atol=0.3)

    def test_csv_format(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 4)
        grid = np.linspace(0.0, 3.0, 4)
        rep = trace_formula_report(c3, grid, epsilon=0.3, max_length=4,
                                   max_repetition=2, catalog=cat)
        buf = io.StringIO()
        write_density_csv(rep, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "lambda,exact,weyl,orbit,residual"
        assert len(lines) == 5
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == grid[0]
        assert first[4] == pytest.approx(first[1] - first[2] - first[3])

    def test_summary_fields(self, c3):
        cat = enumerate_orbits(directed_bonds(c3), 4)
        rep = trace_formula_report(c3, np.linspace(0, 3, 5), epsilon=0.3,
                                   max_length=4, max_repetition=2, catalog=cat)
        summary = density_summary(rep)
        assert summary["max_orbit_length"] == 4
        assert summary["max_repetition"] == 2
        assert summary["epsilon"] == 0.3
        assert summary["max_residual"] >= 0

"""Trace formula: densities, Weyl term, orbit term, report assembly."""

import io
import os
import threading
import time

import numpy as np
import pytest

from graphscatter import scattering, trace
from graphscatter.graph import build_graph, directed_bonds
from graphscatter.laplacian import build_laplacian, char_poly_value, laplacian_spectrum
from graphscatter.orbits import _LEAF, _power_sums, bulk_amplitudes, enumerate_orbits
from graphscatter.scattering import evolution_operator, scattering_phases, secular_function
from graphscatter.trace import (
    FD_STEP,
    density_summary,
    orbit_term,
    smoothed_density,
    trace_formula_report,
    weyl_term,
    write_density_csv,
)
from reference import log_derivative_density_per_point


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
        # trapezoid integral over 4001 points, the spectrum padded by 20
        for g, v in ((k4, 4), (c3, 3)):
            lap = build_laplacian(g)
            eigs = laplacian_spectrum(lap).eigenvalues
            grid = np.linspace(float(eigs[0]) - 20.0, float(eigs[-1]) + 20.0, 4001)
            mass = float(np.trapezoid(smoothed_density(lap, grid, 0.1), grid))
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

    def test_no_backtrack_catalog_rejected(self, k4):
        # the orbit sum runs over all of P(n), back-scattering orbits included
        cat = enumerate_orbits(directed_bonds(k4), 4, no_backtrack=True)
        grid = np.linspace(-1.0, 5.0, 7)
        with pytest.raises(ValueError, match="without back-scatter"):
            orbit_term(cat, k4, grid, 0.3, 4, 2)
        with pytest.raises(ValueError, match="without back-scatter"):
            trace_formula_report(k4, grid, epsilon=0.3, max_length=4, catalog=cat)

    def test_cutoff_sweep_keeps_one_class_index(self, k4):
        """A sweep of cutoffs on one catalog keeps one class index per kind,
        built for the largest period asked; smaller periods read views of it."""
        cat = enumerate_orbits(directed_bonds(k4), 14)
        for n in range(4, 15):
            orbit_term(cat, k4, np.array([0.5, 2.5]), 0.3, n, 2)
        for top in range(2, 13):
            bulk_amplitudes(cat, complex(1.3, -0.7), max_length=top)
        assert list(cat._classes) == ["standard"]
        largest, _, index = cat._classes["standard"]
        assert largest == 14 and index.size == 533_830
        for top in range(2, 15):
            blocks, view = cat._class_blocks(top, "standard")
            assert view.base is index
            assert view.size == sum(cat.count(n) for n in range(2, top + 1))
            assert len(blocks) == top - 1

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


    def test_infinite_epsilon_rejected(self, k4):
        cat = enumerate_orbits(directed_bonds(k4), 4)
        grid = np.linspace(0.0, 4.0, 3)
        for call in (
            lambda: smoothed_density(build_laplacian(k4), grid, np.inf),
            lambda: orbit_term(cat, k4, grid, np.inf, 4, 2),
            lambda: trace_formula_report(k4, grid, np.inf, 4, 2, catalog=cat),
        ):
            with pytest.raises(ValueError, match="^epsilon must be finite$"):
                call()

    @pytest.mark.parametrize(
        "grid, message",
        [([0.0, np.nan, 1.0], "grid point 1 is not finite: nan"),
         ([np.inf], "grid point 0 is not finite: inf"),
         ([0.0, 1.0, -np.inf], "grid point 2 is not finite: -inf"),
         (2.0, r"grid must be one-dimensional, got shape \(\)"),
         (np.zeros((2, 3)), r"grid must be one-dimensional, got shape \(2, 3\)")],
        ids=["nan", "inf", "-inf", "scalar", "2-D"],
    )
    def test_bad_grid_rejected_before_any_kernel(self, k4, monkeypatch, grid, message):
        cat = enumerate_orbits(directed_bonds(k4), 4)

        def kernel(*args):
            raise AssertionError("a kernel ran on a rejected grid")

        monkeypatch.setattr(trace, "_orbit_point", kernel)
        with pytest.raises(ValueError, match=f"^{message}$"):
            orbit_term(cat, k4, grid, 0.3, 4, 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            trace_formula_report(k4, grid, 0.3, 4, 2, catalog=cat)

    @pytest.mark.parametrize(
        "max_length, max_repetition, message",
        [(4, 0, "max_repetition must be at least 1, got 0"),
         (4, -2, "max_repetition must be at least 1, got -2"),
         (1, 2, "max_length must be at least 2, got 1"),
         (-3, 2, "max_length must be at least 2, got -3")],
    )
    def test_cutoffs_below_range_rejected(self, c3, max_length, max_repetition, message):
        """A cutoff that admits no term would give an all-zero orbit term."""
        cat = enumerate_orbits(directed_bonds(c3), 4)
        grid = np.linspace(0.0, 4.0, 3)
        with pytest.raises(ValueError, match=message):
            orbit_term(cat, c3, grid, 0.3, max_length, max_repetition)
        with pytest.raises(ValueError, match=message):
            trace_formula_report(c3, grid, 0.3, max_length, max_repetition, catalog=cat)


def _naive_orbit_term(catalog, grid, eps, n_len, n_rep, kind="standard"):
    """orbit_term's finite difference of sum_r sum_p a_p^r / r over materialized powers."""
    out = np.empty_like(grid)
    for i, x in enumerate(grid):
        sums = []
        for lam in (complex(x, -eps) + FD_STEP, complex(x, -eps) - FD_STEP):
            _, _, amps = bulk_amplitudes(catalog, lam, kind, max_length=n_len)
            power = amps.copy()
            total = 0.0 + 0.0j
            for r in range(1, n_rep + 1):
                if r > 1:
                    power *= amps
                total += power.sum() / r
            sums.append(complex(total))
        out[i] = -((sums[0] - sums[1]) / (2.0 * FD_STEP)).imag / np.pi
    return out


class TestBlockedSums:
    """The leaf-blocked power sums add exactly what ndarray.sum adds, in its order."""

    @pytest.mark.parametrize(
        "size",
        [0, 1, 7, 8, 9, 64, 65, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 3, 300_007],
    )
    def test_power_sums_match_numpy_sum(self, size):
        rng = np.random.default_rng(size)
        # moduli spread over decades, as orbit amplitudes are: a regrouped
        # sum rounds differently
        table = np.exp(rng.uniform(-4.0, 0.2, 997) + 1j * rng.uniform(-np.pi, np.pi, 997))
        index = rng.integers(0, table.size, size)
        amps = table[index]
        power = amps.copy()
        expected = np.empty(6, dtype=np.complex128)
        for r in range(6):
            if r:
                power *= amps
            expected[r] = np.sum(power)
        assert _power_sums(table, index, 6).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_len, n_rep", [(10, 1), (10, 3), (10, 6), (14, 1), (14, 3), (14, 6)])
    def test_k4_orbit_term_bit_identical(self, k4, k4_catalog_16, n_len, n_rep):
        grid = np.array([-0.7, 1.9, 4.3])
        got = orbit_term(k4_catalog_16, k4, grid, 0.3, n_len, n_rep)
        assert got.tobytes() == _naive_orbit_term(k4_catalog_16, grid, 0.3, n_len, n_rep).tobytes()

    def test_generalized_kind_bit_identical(self, c3w):
        cat = enumerate_orbits(directed_bonds(c3w), 12)
        grid = np.linspace(-1.0, 8.0, 7)
        got = orbit_term(cat, c3w, grid, 0.3, 12, 5, "generalized")
        naive = _naive_orbit_term(cat, grid, 0.3, 12, 5, "generalized")
        assert got.tobytes() == naive.tobytes()

    def test_single_orbit_bit_identical(self, p2):
        cat = enumerate_orbits(directed_bonds(p2), 6)
        grid = np.linspace(-1.0, 3.0, 9)
        assert orbit_term(cat, p2, grid, 0.3, 6, 6).tobytes() == (
            _naive_orbit_term(cat, grid, 0.3, 6, 6).tobytes()
        )

    def test_exact_zero_backscatter_bit_identical(self):
        """At lambda = 2 - 2i the pendant vertex 3 (weighted degree 2) has
        rho = i(1 - coef_3 w) = 0 exactly on its bond of weight 2; the grid
        puts one side of each difference there."""
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], weights=(0.5, 2.0, 1.5, 2.0))
        cat = enumerate_orbits(directed_bonds(g), 8)
        grid = np.array([2.0 - FD_STEP, 2.0 + FD_STEP])
        _, _, amps = bulk_amplitudes(cat, complex(grid[0], -2.0) + FD_STEP, "generalized")
        assert 0 < np.count_nonzero(amps == 0) < amps.size
        got = orbit_term(cat, g, grid, 2.0, 8, 4, "generalized")
        assert got.tobytes() == _naive_orbit_term(cat, grid, 2.0, 8, 4, "generalized").tobytes()


@pytest.fixture(scope="module")
def k4_workload_reference(k4_catalog_16):
    """The trace workload's orbit term on K4 (N = 14, R = 6), summed serially."""
    grid = np.linspace(-1.0, 7.0, 49)
    return grid, _naive_orbit_term(k4_catalog_16, grid, 0.3, 14, 6)


class TestPool:
    """The grid points run on a thread pool; its size changes no bit and leaves no thread."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_k4_bytes_do_not_depend_on_workers(
        self, k4, k4_catalog_16, k4_workload_reference, monkeypatch, workers
    ):
        grid, naive = k4_workload_reference
        monkeypatch.setattr(trace, "_workers", lambda points: workers)
        got = orbit_term(k4_catalog_16, k4, grid, 0.3, 14, 6)
        assert got.tobytes() == naive.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_generalized_bytes_do_not_depend_on_workers(self, c3w, monkeypatch, workers):
        cat = enumerate_orbits(directed_bonds(c3w), 12)
        grid = np.linspace(-1.0, 8.0, 7)
        monkeypatch.setattr(trace, "_workers", lambda points: workers)
        got = orbit_term(cat, c3w, grid, 0.3, 12, 5, "generalized")
        assert got.tobytes() == _naive_orbit_term(cat, grid, 0.3, 12, 5, "generalized").tobytes()

    def test_worker_count_follows_cpu_affinity(self):
        cpus = len(os.sched_getaffinity(0))
        assert trace._workers(10_000) == cpus
        assert trace._workers(1) == 1
        assert trace._workers(0) == 1

    @staticmethod
    def _grid_point_kernel(monkeypatch, workers, behave):
        """Replace the kernel by behave(i) at the integer grid point i."""
        monkeypatch.setattr(trace, "_workers", lambda points: workers)
        monkeypatch.setattr(trace, "_step_factors", lambda space, lam, kind: lam)

        def kernel(blocks, index, max_repetition, factors):
            return behave(round(factors[0].real - FD_STEP))

        monkeypatch.setattr(trace, "_orbit_point", kernel)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_grid_order(self, k4, monkeypatch, workers):
        cat = enumerate_orbits(directed_bonds(k4), 4)

        def behave(i):
            time.sleep(0.002 * (9 - i))  # later points finish first
            return 0.5 * i

        self._grid_point_kernel(monkeypatch, workers, behave)
        before = threading.active_count()
        got = orbit_term(cat, k4, np.arange(9.0), 0.3, 4, 2)
        assert got.tolist() == [0.5 * i for i in range(9)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_grid_order_is_raised(self, k4, monkeypatch, workers):
        cat = enumerate_orbits(directed_bonds(k4), 4)
        errors = {3: ZeroDivisionError("grid point 3"), 6: ValueError("grid point 6")}

        def behave(i):
            if i == 3:
                time.sleep(0.05)  # point 6 fails first in time
            if i in errors:
                raise errors[i]
            return float(i)

        self._grid_point_kernel(monkeypatch, workers, behave)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError) as info:
            orbit_term(cat, k4, np.arange(9.0), 0.3, 4, 2)
        assert info.value is errors[3]
        assert threading.active_count() == before


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

    @pytest.mark.parametrize("kind", ["standard", "generalized"])
    @pytest.mark.parametrize("one_point_stacks", [False, True], ids=["stacks", "one-point"])
    def test_reference_curves_match_per_point_calls(self, k4, kind, one_point_stacks,
                                                    monkeypatch):
        """Both reference curves, evaluated as stacks, are byte for byte the
        per-point loop of f(lambda + h) / f(lambda - h)."""
        g = build_graph(4, k4.edges, weights=(1.5, 1.0, 0.7, 1.0, 2.0, 1.0))
        if one_point_stacks:
            monkeypatch.setattr(scattering, "_STACK_BYTES", 1)
        cat = enumerate_orbits(directed_bonds(g), 4)
        grid = np.linspace(-1.0, 9.0, 31) + 0.0123
        rep = trace_formula_report(g, grid, epsilon=0.3, max_length=4, max_repetition=2,
                                   kind=kind, catalog=cat)
        lap = build_laplacian(g, kind)
        charpoly = log_derivative_density_per_point(
            lambda lam: char_poly_value(lap, lam), grid, 0.3
        )
        secular = log_derivative_density_per_point(
            lambda lam: secular_function(g, lam, kind), grid, 0.3
        )
        assert rep.reference_charpoly.dtype == charpoly.dtype
        assert rep.reference_charpoly.tobytes() == charpoly.tobytes()
        assert rep.reference_secular.tobytes() == secular.tobytes()

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

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Fixtures: P2, C3, C6, K4, K3,3, Petersen, a frozen random connected graph on
8 vertices, and the weighted P2 variant (w = 5) checked against the
generalized operators.

One assertion is expected to stay red on current understanding, with the
measured numbers printed rather than hidden:

* criterion 9 (residual clause): the orbit side of the trace formula
  converges geometrically but with ratio about 0.86-0.92 per step at
  epsilon = 0.3 (the largest lambda-dependent eigenvalue modulus of U
  below the axis), so the residual of the naive orbit sum at N = 14 is
  still 10-25 percent of the peak density, above the 5 percent target
  (the identity clause and the monotone-trend clause both hold).

Criterion 5 passes through the cycle expansion: det(I - zU) is a
polynomial of degree 2B, so the orbit product expanded in pseudo-orbits
and cut at total length N >= 2B equals det(I - U).  The plain Euler
product over primitive orbits would converge only at O(1/N), because U
keeps lambda-independent eigenvalues at +/-i on every graph with a cycle.
"""

import numpy as np
import pytest

from graphscatter.classical import (
    classical_secular,
    mixing_gap,
    multiset_defect,
    no_backscatter_map,
    no_backscatter_secular_closed_form,
    no_backscatter_spectrum_from_laplacian,
    transition_matrix,
)
from graphscatter.graph import directed_bonds
from graphscatter.laplacian import build_laplacian, laplacian_spectrum
from graphscatter.linalg import determinant, eig_general, matrix_power_trace
from graphscatter.orbits import bulk_amplitudes, enumerate_orbits, trace_power_from_orbits
from graphscatter.scattering import (
    evolution_determinant_closed_form,
    evolution_operator,
    reconstruct_eigenvectors,
    scan_spectrum_deviation,
)
from graphscatter.trace import orbit_term, trace_formula_report
from graphscatter.zeta import (
    functional_equation_defect,
    ihara_zeta_product,
    nonbacktracking_counts_from_determinant,
    secular_ratio_constant,
    spectral_zeta_product,
    stark_matrix,
    stark_zeta,
)
from conftest import fixture_graphs
from reference import multiplicities


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_spectral_equivalence():
    """Zeros of the secular function match the Laplacian spectrum < 1e-7."""
    worst = {}
    for name, g, kind in fixture_graphs():
        worst[name] = scan_spectrum_deviation(g, kind)
    ok = all(v < 1e-7 for v in worst.values())
    report(1, ok, "max zero-vs-eigenvalue deviation per fixture: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
    assert ok


def test_criterion_02_unitarity_and_determinant():
    """Unitarity defect < 1e-10 at 100 real lambdas; det matches closed form < 1e-9."""
    rng = np.random.default_rng(101)
    worst_u, worst_d = 0.0, 0.0
    for name, g, kind in fixture_graphs():
        for lam in rng.uniform(-5.0, 12.0, 100):
            worst_u = max(worst_u, evolution_operator(g, float(lam), kind).unitarity_defect())
        for _ in range(30):
            lam = complex(rng.uniform(-5, 12), rng.uniform(-2, 2))
            closed = evolution_determinant_closed_form(g, lam, kind)
            lu = determinant(evolution_operator(g, lam, kind).matrix)
            worst_d = max(worst_d, abs(lu - closed) / abs(closed))
    ok = worst_u < 1e-10 and worst_d < 1e-9
    report(2, ok, f"max unitarity defect {worst_u:.2e}, max det mismatch {worst_d:.2e}")
    assert ok


def test_criterion_03_identity_ratio():
    """The determinant-identity ratio is lambda-independent; constant reported."""
    rng = np.random.default_rng(102)
    spreads, constants = {}, {}
    for name, g, kind in fixture_graphs():
        vals = np.array([
            secular_ratio_constant(g, complex(rng.uniform(-5, 12), rng.uniform(-2, 2)), kind)
            for _ in range(30)
        ])
        spreads[name] = float(np.std(vals) / abs(np.mean(vals)))
        constants[name] = complex(np.mean(vals))
    ok = all(v < 1e-8 for v in spreads.values())
    consts = ", ".join(
        f"{k}={v.real:+.1f}{v.imag:+.1f}i" for k, v in constants.items()
    )
    report(3, ok, f"max rel spread {max(spreads.values()):.2e}; measured constants "
           f"(2^B i^V, not 1): {consts}")
    assert ok
    # the measured constant is 2^B i^V, not 1
    for name, g, kind in fixture_graphs():
        expected = 2.0 ** g.num_edges * 1j ** g.num_vertices
        assert constants[name] == pytest.approx(expected, rel=1e-8)


def test_criterion_04_orbit_trace_oracle(catalogs_depth8):
    """Orbit sums with repetition exponents equal matrix-power traces < 1e-8."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for name, g, kind in fixture_graphs():
        cat = catalogs_depth8[name]
        for _ in range(20):
            lam = complex(rng.uniform(-4, 10), rng.uniform(-2.5, 0.0))
            u = evolution_operator(g, lam, kind)
            for n in range(2, 9):
                direct = matrix_power_trace(u.matrix, n)
                orbit = trace_power_from_orbits(cat, g, lam, n, kind)
                worst = max(worst, abs(direct - orbit) / max(abs(direct), 1e-12))
    ok = worst < 1e-8
    report(4, ok, f"max relative trace mismatch over n = 2..8: {worst:.2e}")
    assert ok


def test_criterion_05_zeta_product_convergence(
    c3_catalog_16, c6_catalog_16, k4_catalog_16
):
    """Truncated orbit product vs det(I - U) < 1e-5 at N = 16, Im lambda = -1.

    Every fixture has 2B <= 12 < 16, so the cycle-expanded product is exact
    up to rounding (the plain Euler product would sit at percents here).
    """
    lam = complex(2.0, -1.0)
    errors = {}
    from conftest import make_c3, make_c6, make_k4, make_p2, make_p2_weighted

    small = {
        "P2": (make_p2(), "standard", None),
        "P2w": (make_p2_weighted(), "generalized", None),
        "C3": (make_c3(), "standard", c3_catalog_16),
        "C6": (make_c6(), "standard", c6_catalog_16),
        "K4": (make_k4(), "standard", k4_catalog_16),
    }
    for name, (g, kind, cat) in small.items():
        if cat is None:
            cat = enumerate_orbits(directed_bonds(g), 16)
        ev = spectral_zeta_product(cat, g, lam, truncation=16, kind=kind)
        errors[name] = ev.relative_error
    ok = all(v < 1e-5 for v in errors.values())
    report(5, ok, "relative error at N=16, lambda=2-1i: "
           + ", ".join(f"{k}={v:.3e}" for k, v in errors.items())
           + " (cycle expansion, exact once N >= 2B)")
    assert ok, (
        "orbit product converges only harmonically: the evolution operator "
        "has lambda-independent eigenvalues at +/-i on every graph with a "
        f"cycle; measured errors {errors}"
    )


def test_criterion_06_ihara_cross_checks(k4_catalog_16):
    """Product vs determinant < 1e-6 at u = 0.1, N = 12; K4 triangle count by 3 routes."""
    regular = [t for t in fixture_graphs() if t[1].is_regular and t[2] == "standard"]
    worst = 0.0
    for name, g, kind in regular:
        cat = enumerate_orbits(directed_bonds(g), 12, no_backtrack=True)
        ev = ihara_zeta_product(cat, 0.1, 12)
        worst = max(worst, ev.relative_error)

    k4 = next(g for name, g, _ in fixture_graphs() if name == "K4")
    route_enum = k4_catalog_16.count_no_backtrack(3)
    counts = nonbacktracking_counts_from_determinant(k4, 8)
    route_det = int(counts[3])
    y = stark_matrix(directed_bonds(k4), np.ones((12, 12), dtype=complex))
    route_stark = int(round(np.trace(np.linalg.matrix_power(y, 3)).real / 3.0))
    ok = worst < 1e-6 and route_enum == route_det == route_stark == 8
    report(6, ok, f"max product-vs-det error {worst:.2e}; K4 |C(3)| routes: "
           f"enumeration={route_enum}, determinant-series={route_det}, "
           f"edge-matrix-trace={route_stark}")
    assert ok


def test_criterion_07_stark_zeta():
    """det(I - Y) vs truncated product < 1e-6 for random eta with rho(Y) < 0.8."""
    rng = np.random.default_rng(104)
    results = {}
    from conftest import make_c3, make_k4

    for name, g in (("C3", make_c3()), ("K4", make_k4())):
        space = directed_bonds(g)
        nb = space.num_bonds
        eta = rng.uniform(0.0, 1.0, (nb, nb)).astype(complex)
        rho = float(np.max(np.abs(eig_general(stark_matrix(space, eta)).eigenvalues)))
        eta *= rng.uniform(0.2, 0.4) / rho  # keep rho(Y) well under the 0.8 guard
        rho = float(np.max(np.abs(eig_general(stark_matrix(space, eta)).eigenvalues)))
        assert rho < 0.8
        ev = stark_zeta(space, eta, truncation=16)
        results[name] = (ev.relative_error, rho)
    ok = all(err < 1e-6 for err, _ in results.values())
    report(7, ok, ", ".join(f"{k}: err={e:.2e} at rho(Y)={r:.2f}"
                            for k, (e, r) in results.items()))
    assert ok


def test_criterion_08_functional_equation():
    """gamma(1/z) = conj(gamma(conj(z))) within 1e-8, on and off the unit circle."""
    rng = np.random.default_rng(105)
    from conftest import make_k4, make_petersen

    worst = 0.0
    for g in (make_k4(), make_petersen()):
        for i in range(20):
            angle = rng.uniform(-np.pi * 0.98, np.pi * 0.98)
            radius = 1.0 if i < 10 else rng.uniform(0.7, 1.4)
            worst = max(worst, functional_equation_defect(g, radius * np.exp(1j * angle)))
    ok = worst < 1e-8
    report(8, ok, f"max defect over 20 z per graph (K4, Petersen): {worst:.2e}")
    assert ok


def _orbit_sum_sweep(catalog, grid, eps, lengths_set, reps_set, fd=1e-5):
    """Orbit terms for every (N, R) cutoff pair from one amplitude pass per point."""
    keys = [(n, r) for n in lengths_set for r in reps_set]
    sums = {key: np.zeros(len(grid)) for key in keys}
    max_rep = max(reps_set)
    for i, x in enumerate(grid):
        vals = {}
        for sgn in (+1, -1):
            lam = complex(x, -eps) + sgn * fd
            lengths, _, amps = bulk_amplitudes(
                catalog, lam, "standard", max_length=max(lengths_set)
            )
            for n_len in lengths_set:
                sel = amps[lengths <= n_len]
                power = np.ones_like(sel)
                total = 0.0 + 0.0j
                for r in range(1, max_rep + 1):
                    power = power * sel
                    total += power.sum() / r
                    if r in reps_set:
                        vals[(n_len, r, sgn)] = total
        for n_len, n_rep in keys:
            deriv = (vals[(n_len, n_rep, +1)] - vals[(n_len, n_rep, -1)]) / (2 * fd)
            sums[(n_len, n_rep)][i] = -deriv.imag / np.pi
    return sums


def test_criterion_09_trace_formula(c3_catalog_16, k4_catalog_16):
    """Exact-side identity to 1e-8; orbit residual shrinking with cutoffs, < 5% of peak.

    The first two clauses hold; the 5 percent clause is expected red at
    N = 14 (geometric rate only about 0.86-0.92 per step at epsilon = 0.3;
    5 percent would need N near 34 on K4).
    """
    from conftest import make_c3, make_k4

    eps = 0.3
    cases = {
        "C3": (make_c3(), c3_catalog_16, np.linspace(-1.0, 5.0, 49)),
        "K4": (make_k4(), k4_catalog_16, np.linspace(-1.0, 7.0, 49)),
    }
    identity_dev = {}
    residual_tables = {}
    peaks = {}
    for name, (g, cat, grid) in cases.items():
        rep = trace_formula_report(g, grid, epsilon=eps, max_length=6,
                                   max_repetition=2, catalog=cat)
        identity_dev[name] = float(np.max(np.abs(rep.exact_density - rep.reference_charpoly)))
        peaks[name] = rep.peak_density
        sums = _orbit_sum_sweep(cat, grid, eps, (6, 10, 14), (2, 4, 6))
        # the streamlined sweep must agree with the module entry point
        direct = orbit_term(cat, g, grid[:5], eps, 14, 6)
        np.testing.assert_allclose(direct, sums[(14, 6)][:5], atol=1e-10)
        exact, weyl = rep.exact_density, rep.weyl_term
        residual_tables[name] = {
            key: float(np.max(np.abs(exact - weyl - s))) for key, s in sums.items()
        }

    ok_identity = all(v < 1e-8 for v in identity_dev.values())
    # trend check: strictly non-increasing in the orbit length, where the
    # truncation error lives; the repetition direction gets 1 percent slack
    # because its tail is orders of magnitude below the length truncation
    # and fluctuates in sign around it
    ok_monotone = True
    for name, table in residual_tables.items():
        for n_rep in (2, 4, 6):
            seq = [table[(n, n_rep)] for n in (6, 10, 14)]
            ok_monotone &= seq[0] >= seq[1] - 1e-12 and seq[1] >= seq[2] - 1e-12
        for n_len in (6, 10, 14):
            seq = [table[(n_len, r)] for r in (2, 4, 6)]
            ok_monotone &= seq[1] <= seq[0] * 1.01 and seq[2] <= seq[1] * 1.01
        diagonal = [table[(6, 2)], table[(10, 4)], table[(14, 6)]]
        ok_monotone &= diagonal[0] > diagonal[1] > diagonal[2]
    final = {name: residual_tables[name][(14, 6)] / peaks[name]
             for name in residual_tables}
    ok_small = all(v < 0.05 for v in final.values())
    report(9, ok_identity and ok_monotone and ok_small,
           f"identity dev {max(identity_dev.values()):.2e}; monotone trend: "
           f"{ok_monotone}; residual at (N=14, R=6) as fraction of peak: "
           + ", ".join(f"{k}={v:.3f}" for k, v in final.items())
           + " (truncation rate ~0.9 per step keeps this above 0.05)")
    assert ok_identity, f"identity deviations {identity_dev}"
    assert ok_monotone, f"residual tables {residual_tables}"
    assert ok_small, (
        f"orbit-side residual at the largest cutoffs: {final} of peak "
        f"(full tables {residual_tables})"
    )


def test_criterion_10_classical_dynamics():
    """Bi-stochasticity, the no-backscatter spectrum, and its secular identity."""
    rng = np.random.default_rng(106)
    from conftest import make_k4, make_petersen

    worst_bis = 0.0
    for name, g, kind in fixture_graphs():
        for lam in rng.uniform(-4.0, 10.0, 50):
            worst_bis = max(worst_bis, transition_matrix(g, float(lam), kind).bistochastic_defect)

    k4, petersen = make_k4(), make_petersen()
    cmap = no_backscatter_map(k4)
    direct = eig_general(cmap.matrix).eigenvalues
    formula = no_backscatter_spectrum_from_laplacian(k4)
    mdefect = multiset_defect(direct, formula)
    second = mixing_gap(cmap).second_modulus
    second_ok = abs(second - 1.0 / np.sqrt(2.0)) < 1e-8

    worst_connect = 0.0
    pair_ok = True
    for g in (k4, petersen):
        cm = no_backscatter_map(g)
        for _ in range(20):
            mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            lhs = classical_secular(cm, mu)
            rhs = no_backscatter_secular_closed_form(g, mu)
            worst_connect = max(worst_connect, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        spec = no_backscatter_spectrum_from_laplacian(g)
        v = g.regular_degree
        pair_ok &= bool(np.min(np.abs(spec - 1.0)) < 1e-8)
        pair_ok &= bool(np.min(np.abs(spec - 1.0 / (v - 1.0))) < 1e-8)

    ok = (worst_bis < 1e-10 and mdefect < 1e-8 and second_ok
          and worst_connect < 1e-8 and pair_ok)
    report(10, ok, f"bistochastic defect {worst_bis:.2e}; K4 multiset defect "
           f"{mdefect:.2e}; second modulus {second:.8f}; secular identity "
           f"{worst_connect:.2e}; unit pair present: {pair_ok}")
    assert ok


def test_criterion_11_eigenvector_reconstruction():
    """Bond-amplitude-reconstructed vectors satisfy the eigen equation < 1e-7."""
    worst = 0.0
    counts_ok = True
    for name, g, kind in fixture_graphs():
        lap = build_laplacian(g, kind)
        for lam, mult in multiplicities(laplacian_spectrum(lap).eigenvalues):
            psi = reconstruct_eigenvectors(g, float(lam), kind)
            counts_ok &= psi.shape[1] == mult
            res = lap.matrix @ psi - float(lam) * psi
            for col in range(psi.shape[1]):
                rel = np.linalg.norm(res[:, col]) / np.linalg.norm(psi[:, col])
                worst = max(worst, rel)
    ok = worst < 1e-7 and counts_ok
    report(11, ok, f"max relative eigen-residual {worst:.2e}; "
           f"basis sizes match multiplicities: {counts_ok}")
    assert ok

"""Cross-validation identity suite: every closed form against its oracle.

Each check pits two independent computations of the same quantity against
each other at randomized (seeded, reproducible) sample points.  A run
returns one named result per check with the measured defects, so a failure
always says which identity broke and by how much.  The unitarity, det U,
ratio and trace-power checks take their sample points as stacks (cut by
`scattering._stacks`): one U or I - U assembly and one batched LAPACK or
BLAS call per stack, each measure bit for bit the per-point loop's.  The
vertex reduction check sets det(I - U) as the library computes it, 2^B
times a V x V determinant, against the LU determinant of the dense
np.eye(2B) - U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classical import (
    classical_secular,
    multiset_defect,
    no_backscatter_map,
    no_backscatter_secular_closed_form,
    no_backscatter_spectrum_from_laplacian,
)
from .graph import Graph, directed_bonds
from .linalg import determinant, eig_general, matrix_power_trace
from .orbits import _trace_powers, bulk_amplitudes, enumerate_orbits
from .scattering import (
    _det_identity_minus_u,
    _stacks,
    evolution_determinant_closed_form,
    evolution_operator,
    scan_spectrum_deviation,
)
from .zeta import (
    functional_equation_defect,
    ihara_zeta_product,
    secular_ratio_constant,
)

UNITARITY_TOL = 1e-10
DET_CLOSED_TOL = 1e-9
VERTEX_TOL = 1e-9
RATIO_STD_TOL = 1e-8
TRACE_ORACLE_TOL = 1e-8
IHARA_TOL = 1e-6
FUNCTIONAL_EQ_TOL = 1e-8
CONNECT_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    measure: float
    tolerance: float
    detail: dict = field(default_factory=dict)


def _real_lams(rng, count):
    return rng.uniform(-4.0, 10.0, count)


def _complex_lams(rng, count, im_low=-2.0, im_high=2.0):
    return rng.uniform(-4.0, 10.0, count) + 1j * rng.uniform(im_low, im_high, count)


def run_identity_suite(
    g: Graph,
    seed: int = 0,
    kind: str = "standard",
    corrupt_sigma: bool = False,
) -> list[CheckResult]:
    """Run every applicable identity check on one graph.

    ``corrupt_sigma`` is a fault-injection hook for testing the suite
    itself: it perturbs one evolution-operator entry of every U so the
    unitarity check must fail by name.
    """
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def build_u(lams: np.ndarray):
        op = evolution_operator(g, lams, kind)
        if corrupt_sigma:  # the first nonzero entry of row 0 of each U
            row = op.matrix[:, 0]
            row[np.arange(len(row)), np.argmax(np.abs(row) > 0, axis=1)] *= 1.0 + 1e-6
        return op

    # unitarity on the real axis
    stacks = _stacks(_real_lams(rng, 100), 2 * g.num_edges)
    worst = max([0.0] + [build_u(lams).unitarity_defect() for lams in stacks])
    results.append(CheckResult("unitarity", worst < UNITARITY_TOL, worst, UNITARITY_TOL))

    # determinant of U against the closed form, and det(I - U) against its V x V form
    worst = worst_vertex = 0.0
    for lams in _stacks(_complex_lams(rng, 30), 2 * g.num_edges):
        u = build_u(lams).matrix
        d_lu = determinant(u).tolist()
        d_cf = evolution_determinant_closed_form(g, lams, kind).tolist()
        worst = max([worst] + [abs(lu - cf) / abs(cf) for lu, cf in zip(d_lu, d_cf)])
        d_dense = determinant(np.eye(u.shape[-1]) - u).tolist()
        d_vertex = _det_identity_minus_u(g, lams, kind).tolist()
        worst_vertex = max([worst_vertex] + [abs(v - d) / abs(d)
                                             for v, d in zip(d_vertex, d_dense)])
    results.append(CheckResult("det_closed_form", worst < DET_CLOSED_TOL, worst, DET_CLOSED_TOL))
    results.append(
        CheckResult("vertex_reduction", worst_vertex < VERTEX_TOL, worst_vertex, VERTEX_TOL)
    )

    # lambda-independence of the determinant identity ratio
    ratios = np.concatenate(
        [secular_ratio_constant(g, lams, kind)
         for lams in _stacks(_complex_lams(rng, 30), g.num_vertices)]
    )
    spread = float(np.std(ratios) / abs(np.mean(ratios)))
    results.append(
        CheckResult(
            "identity_ratio_constant",
            spread < RATIO_STD_TOL,
            spread,
            RATIO_STD_TOL,
            detail={
                "mean": complex(np.mean(ratios)),
                "closed_form": complex(2.0 ** g.num_edges * 1j ** g.num_vertices),
            },
        )
    )

    # zeros of the secular function against the Laplacian spectrum
    dev = scan_spectrum_deviation(g, kind)
    results.append(CheckResult("secular_zeros_match_spectrum", dev < 1e-7, dev, 1e-7))

    # orbit trace oracle: tr U^n for n = 2..8 from one amplitude pass per lambda
    catalog = enumerate_orbits(directed_bonds(g), 8)
    worst = 0.0
    for lams in _stacks(_complex_lams(rng, 5, im_low=-2.0, im_high=0.0), 2 * g.num_edges):
        u = build_u(lams).matrix
        t_direct = [matrix_power_trace(u, n).tolist() for n in range(2, 9)]
        for i, lam in enumerate(lams.tolist()):
            lengths, _, amps = bulk_amplitudes(catalog, lam, kind)
            t_orbit = _trace_powers(lengths, amps, 8)
            for n in range(2, 9):
                direct = t_direct[n - 2][i]
                worst = max(worst, abs(direct - complex(t_orbit[n])) / max(abs(direct), 1e-12))
    results.append(CheckResult("trace_power_oracle", worst < TRACE_ORACLE_TOL, worst, TRACE_ORACLE_TOL))

    # regular-graph checks
    if g.is_regular and not corrupt_sigma and kind == "standard":
        nb_cat = enumerate_orbits(directed_bonds(g), 12, no_backtrack=True)
        ih = ihara_zeta_product(nb_cat, 0.1, 12)
        results.append(
            CheckResult("ihara_product_vs_det", ih.relative_error < IHARA_TOL,
                        ih.relative_error, IHARA_TOL)
        )
        worst = 0.0
        for _ in range(20):
            z = rng.uniform(0.7, 1.4) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            worst = max(worst, functional_equation_defect(g, z))
        results.append(
            CheckResult("functional_equation", worst < FUNCTIONAL_EQ_TOL, worst, FUNCTIONAL_EQ_TOL)
        )
        if g.regular_degree > 2:
            cmap = no_backscatter_map(g)
            worst = 0.0
            for _ in range(20):
                mu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                lhs = classical_secular(cmap, mu)
                rhs = no_backscatter_secular_closed_form(g, mu)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
            results.append(CheckResult("no_backscatter_secular", worst < CONNECT_TOL, worst, CONNECT_TOL))
            direct = eig_general(cmap.matrix).eigenvalues
            formula = no_backscatter_spectrum_from_laplacian(g)
            d = multiset_defect(direct, formula)
            results.append(CheckResult("no_backscatter_spectrum", d < CONNECT_TOL, d, CONNECT_TOL))

    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def first_failure(results: list[CheckResult]) -> CheckResult | None:
    for r in results:
        if not r.passed:
            return r
    return None

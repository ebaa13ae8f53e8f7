"""Spectral analysis of discrete graph Laplacians through bond scattering.

Builds the unitary evolution operator on directed bonds, derives secular
and zeta functions from determinants and from periodic-orbit products,
evaluates the spectral trace formula, and studies the induced classical
Markov dynamics, cross-validating every identity along the way.
"""

from .classical import (
    ClassicalMap,
    classical_secular,
    mixing_gap,
    multiset_defect,
    no_backscatter_map,
    no_backscatter_secular_closed_form,
    no_backscatter_spectrum_from_laplacian,
    transition_matrix,
)
from .graph import (
    DirectedBondSpace,
    Graph,
    VertexDegrees,
    build_graph,
    cycle_rank,
    directed_bonds,
    graph_to_json,
    load_graph,
    parse_graph_edgelist,
    parse_graph_json,
)
from .laplacian import (
    LaplacianOperator,
    build_laplacian,
    char_poly_value,
    laplacian_spectrum,
)
from .linalg import (
    SpectralResult,
    determinant,
    eig_general,
    eig_symmetric,
)
from .orbits import (
    OrbitCatalog,
    PrimitiveOrbit,
    bulk_amplitudes,
    enumerate_orbits,
    trace_power_from_orbits,
)
from .scattering import (
    EvolutionOperator,
    evolution_determinant_closed_form,
    evolution_operator,
    reconstruct_eigenvectors,
    scattering_phases,
    secular_function,
    secular_zero_count,
    secular_zero_scan,
)
from .trace import (
    DensityEvaluation,
    density_summary,
    orbit_term,
    smoothed_density,
    trace_formula_report,
    weyl_term,
    write_density_csv,
)
from .verify import CheckResult, all_passed, run_identity_suite
from .zeta import (
    ZetaEvaluation,
    functional_equation_defect,
    ihara_zeta_det,
    ihara_zeta_product,
    nonbacktracking_counts_from_determinant,
    nonbacktracking_matrix,
    regular_zeta_z,
    secular_ratio_constant,
    spectral_zeta_det,
    spectral_zeta_product,
    stark_matrix,
    stark_zeta,
)

__version__ = "0.1.0"

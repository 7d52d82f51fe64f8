"""Qutrit SIC-POVM geometry and its consequences: post-Peierls
compatibility certificates, mutually unbiased bases, discrete Wigner
functions, and an exact chromatic-number contextuality check."""

from .qmath import (
    DEFAULT_TOL,
    SEARCH_TOL,
    Check,
    basis_ket,
    overlap_squared,
    projector,
    random_density_matrix,
    random_ket,
    trace_product,
    validate_density_matrix,
    validate_orthonormal_basis,
)
from .sicgen import (
    NotSicError,
    SicSet,
    generate_sic_orbit,
    hesse_kets,
    hesse_sic,
    is_sic,
    reconstruct_from_probabilities,
    sic_probabilities,
    wh_displacement,
)
from .compat import (
    CompatVerdict,
    StateSet,
    WitnessSearchConfig,
    WitnessSearchResult,
    cfs_example_kets,
    cfs_example_states,
    pp_functional,
    qutrit_triple_criterion,
    saturation_cubic_roots,
    saturation_profile,
    witness_search,
)
from .mub import (
    MubSet,
    build_mub_set,
    covering_table,
    covering_witness,
    mub_from_triple,
    verify_mub_set,
)
from .purity import (
    DistributionIndices,
    PurityCheck,
    TripleProductTable,
    distribution_indices,
    enumerate_min_entropy_pure_states,
    qbic_check_general,
    qbic_check_hesse,
    quadratic_purity_check,
    triple_product,
    triple_product_table,
)
from .wigner import (
    PhasePointOperators,
    line_marginals,
    negativity,
    phase_point_operators,
    wigner_from_line_probs,
    wigner_from_sic_probabilities,
    wigner_of_density,
)
from .contextuality import (
    CabelloReport,
    Coloring,
    OrthoGraph,
    build_orthogonality_graph,
    cabello_criterion,
    chromatic_number,
    hesse_mub_graph,
)

__version__ = "0.1.0"

"""Qutrit SIC-POVM geometry and its consequences: post-Peierls
compatibility certificates, mutually unbiased bases, discrete Wigner
functions, and an exact chromatic-number contextuality check."""

from .qmath import (
    DEFAULT_TOL,
    SEARCH_TOL,
    ValidationReport,
    basis_ket,
    born_probabilities,
    normalize_ket,
    overlap_squared,
    projector,
    random_density_matrix,
    random_ket,
    trace_product,
    validate_density_matrix,
    validate_orthonormal_basis,
    validate_povm,
)
from .sicgen import (
    GramCheck,
    NotSicError,
    SicSet,
    builtin_sic,
    generate_sic_orbit,
    hesse_kets,
    hesse_sic,
    hs_inner_from_probabilities,
    is_sic,
    reconstruct_from_probabilities,
    sic_probabilities,
    wh_displacement,
)
from .compat import (
    CompatVerdict,
    PairVerdict,
    StateSet,
    WitnessSearchConfig,
    WitnessSearchResult,
    cfs_example_kets,
    cfs_example_states,
    pairwise_pp_check,
    pp_functional,
    qutrit_triple_criterion,
    saturation_cubic_roots,
    saturation_profile,
    witness_search,
)
from .mub import (
    MubReport,
    MubSet,
    SteinerSystem,
    build_mub_set,
    covering_table,
    covering_witness,
    mub_from_triple,
    steiner_s9,
    verify_mub_set,
)
from .purity import (
    DistributionIndices,
    PurityCheck,
    TripleProductTable,
    collinear_in_grid,
    distribution_indices,
    enumerate_min_entropy_pure_states,
    qbic_check_general,
    qbic_check_hesse,
    quadratic_purity_check,
    random_fixed_purity_vector,
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

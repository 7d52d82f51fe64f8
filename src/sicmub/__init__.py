"""Qutrit SIC-POVM geometry and its consequences: post-Peierls
compatibility certificates, mutually unbiased bases, discrete Wigner
functions, and an exact chromatic-number contextuality check.

``import sicmub`` is lazy (PEP 562): it imports none of the modules
below.  The first use of a public name, ``sicmub.hesse_sic`` or ``from
sicmub import hesse_sic``, imports the module that defines it (and what
that module imports), so a caller pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "qmath": (
        "DEFAULT_TOL", "SEARCH_TOL", "Check", "basis_ket", "overlap_squared", "projector", "random_density_matrix",
        "random_ket", "trace_product", "validate_density_matrix", "validate_orthonormal_basis",
    ),
    "sicgen": (
        "NotSicError", "SicSet", "generate_sic_orbit", "hesse_kets", "hesse_sic", "is_sic",
        "reconstruct_from_probabilities", "sic_probabilities", "wh_displacement",
    ),
    "compat": (
        "CompatVerdict", "StateSet", "WitnessSearchConfig", "WitnessSearchResult", "cfs_example_kets",
        "cfs_example_states", "pp_functional", "qutrit_triple_criterion", "saturation_cubic_roots",
        "saturation_profile", "verify_certificate", "witness_search",
    ),
    "mub": ("MubSet", "build_mub_set", "covering_table", "covering_witness", "mub_from_triple", "verify_mub_set"),
    "purity": (
        "DistributionIndices", "PurityCheck", "TripleProductTable", "distribution_indices",
        "enumerate_min_entropy_pure_states", "qbic_check_general", "qbic_check_hesse", "quadratic_purity_check",
        "triple_product", "triple_product_table",
    ),
    "wigner": (
        "PhasePointOperators", "line_marginals", "negativity", "phase_point_operators", "wigner_from_line_probs",
        "wigner_from_sic_probabilities", "wigner_of_density",
    ),
    "contextuality": (
        "CabelloReport", "Coloring", "OrthoGraph", "build_orthogonality_graph", "cabello_criterion", "chromatic_number",
        "hesse_mub_graph",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines ``name`` and bind the name here, so
    a second lookup does not reach this function."""
    if name in _EXPORTS:  # a submodule, e.g. ``sicmub.compat``
        return _import_module(f".{name}", __name__)
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

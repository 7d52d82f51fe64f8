"""The public names of ``sicmub``: each resolves, lazily, to its module's object."""

import importlib

import pytest

import sicmub

#: Every public name of the package, by the module that defines it.
PUBLIC = {
    "qmath": (
        "DEFAULT_TOL", "SEARCH_TOL", "Check", "basis_ket", "overlap_squared", "projector",
        "random_density_matrix", "random_ket", "trace_product", "validate_density_matrix",
        "validate_orthonormal_basis",
    ),
    "sicgen": (
        "NotSicError", "SicSet", "generate_sic_orbit", "hesse_kets", "hesse_sic", "is_sic",
        "reconstruct_from_probabilities", "sic_probabilities", "wh_displacement",
    ),
    "compat": (
        "CompatVerdict", "StateSet", "WitnessSearchConfig", "WitnessSearchResult", "cfs_example_kets",
        "cfs_example_states", "pp_functional", "qutrit_triple_criterion", "saturation_cubic_roots",
        "saturation_profile", "witness_search",
    ),
    "mub": ("MubSet", "build_mub_set", "covering_table", "covering_witness", "mub_from_triple", "verify_mub_set"),
    "purity": (
        "DistributionIndices", "PurityCheck", "TripleProductTable", "distribution_indices",
        "enumerate_min_entropy_pure_states", "qbic_check_general", "qbic_check_hesse",
        "quadratic_purity_check", "triple_product", "triple_product_table",
    ),
    "wigner": (
        "PhasePointOperators", "line_marginals", "negativity", "phase_point_operators",
        "wigner_from_line_probs", "wigner_from_sic_probabilities", "wigner_of_density",
    ),
    "contextuality": (
        "CabelloReport", "Coloring", "OrthoGraph", "build_orthogonality_graph", "cabello_criterion",
        "chromatic_number", "hesse_mub_graph",
    ),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_a_public_name_is_its_modules_object(module, name):
    assert getattr(sicmub, name) is getattr(importlib.import_module(f"sicmub.{module}"), name)
    assert name in vars(sicmub)  # bound on first use, so later lookups skip __getattr__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sicmub import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"sicmub.{module}"), name)
    assert sorted(sicmub.__all__) == sorted(name for _, name in NAMES)


def test_dir_lists_every_public_name():
    assert {name for _, name in NAMES} | {"__version__"} <= set(dir(sicmub))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(sicmub, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        sicmub.nope
    with pytest.raises(ImportError):
        exec("from sicmub import nope", {})

"""The public names of ``sicmub``: each resolves, lazily, to its module's object, and
each public callable takes the parameters its table row lists."""

import importlib
import inspect

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


#: Every public callable's parameters, a setting written ``name=default``.
#: A setting is something a caller can vary, so adding or removing one is
#: an edit to this table.
PARAMETERS = {
    "Check": "passed, residuals",
    "basis_ket": "dim, j",
    "overlap_squared": "a, b",
    "projector": "psi",
    "random_density_matrix": "dim, rng",
    "random_ket": "dim, rng",
    "trace_product": "a, b",
    "validate_density_matrix": "rho, tol=1e-10",
    "validate_orthonormal_basis": "kets, tol=1e-10",
    "NotSicError": "residual",
    "SicSet": "dim, projectors, tol=1e-08",
    "generate_sic_orbit": "fiducial, tol=1e-10",
    "hesse_kets": "",
    "hesse_sic": "",
    "is_sic": "s, tol=1e-10",
    "reconstruct_from_probabilities": "p, s",
    "sic_probabilities": "rho, s, tol=1e-10",
    "wh_displacement": "d, a, b",
    "CompatVerdict": "verdict, saturated, overlaps, overlap_sum, boundary_lhs, boundary_rhs, witness=None",
    "StateSet": "dim, rhos, tol=1e-08",
    "WitnessSearchConfig": "restarts=32, seed=0, success_threshold=1e-10, stop_at_success=True",
    "WitnessSearchResult": "basis, value, success, best_restart, history",
    "cfs_example_kets": "",
    "cfs_example_states": "",
    "pp_functional": "states, effects",
    "qutrit_triple_criterion": "a, b, c, tol=1e-08, norm_tol=None",
    "saturation_cubic_roots": "",
    "saturation_profile": "x",
    "witness_search": "states, cfg=None",
    "MubSet": "projectors, prob_vectors",
    "build_mub_set": "s",
    "covering_table": "m, s, tol=1e-10",
    "covering_witness": "triple, m, s, tol=1e-10",
    "mub_from_triple": "triple, s",
    "verify_mub_set": "m, tol=1e-10",
    "DistributionIndices": "effective_number, shannon_entropy_nats, zero_count, zero_bound, zero_bound_satisfied",
    "PurityCheck": "passed, value, target",
    "TripleProductTable": "dim, values",
    "distribution_indices": "p, zero_tol=1e-09",
    "enumerate_min_entropy_pure_states": "tol=1e-10",
    "qbic_check_general": "p, table, tol=1e-10",
    "qbic_check_hesse": "p, tol=1e-10",
    "quadratic_purity_check": "p, tol=1e-10",
    "triple_product": "s, j, k, l",
    "triple_product_table": "s",
    "PhasePointOperators": "ops",
    "line_marginals": "w",
    "negativity": "w",
    "phase_point_operators": "m",
    "wigner_from_line_probs": "q",
    "wigner_from_sic_probabilities": "p",
    "wigner_of_density": "rho, a",
    "CabelloReport": "contextual, chromatic_number, coloring",
    "Coloring": "assignment",
    "OrthoGraph": "labels, adjacency",
    "build_orthogonality_graph": "states, labels, tol=1e-09",
    "cabello_criterion": "g, d",
    "chromatic_number": "g",
    "hesse_mub_graph": "tol=1e-09",
}


def parameter_list(obj) -> str:
    params = inspect.signature(obj).parameters.values()
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params)


def test_every_public_callables_parameters_are_the_table():
    callables = {name: getattr(sicmub, name) for name in sicmub.__all__ if callable(getattr(sicmub, name))}
    assert {name: parameter_list(obj) for name, obj in callables.items()} == PARAMETERS
    defaulted = [
        p for obj in callables.values() for p in inspect.signature(obj).parameters.values() if p.default is not p.empty
    ]
    assert len(defaulted) == 25

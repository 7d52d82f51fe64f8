"""Every tolerance a caller passes must be finite and non-negative.

A NaN tolerance makes every ``residual <= tol`` comparison False, so it
once read as a failed check (``validate_density_matrix(..., tol=nan)``
returned ``passed=False``) or as a fault of the input
(``sic_probabilities`` reported a negative probability).  This module
runs each function and field of README's tolerance list with a NaN, a
negative and an infinite tolerance on input that is otherwise valid.
"""

import math

import numpy as np
import pytest

from sicmub import (
    SicSet,
    StateSet,
    build_orthogonality_graph,
    covering_table,
    covering_witness,
    distribution_indices,
    enumerate_min_entropy_pure_states,
    generate_sic_orbit,
    hesse_kets,
    hesse_mub_graph,
    is_sic,
    qbic_check_general,
    qbic_check_hesse,
    quadratic_purity_check,
    qutrit_triple_criterion,
    sic_probabilities,
    triple_product_table,
    validate_density_matrix,
    validate_orthonormal_basis,
    verify_mub_set,
)
from sicmub.contextuality import HESSE_MUB_LABELS

UNIFORM = np.full(9, 1.0 / 9.0)

#: Each call takes the tolerance under test; every other argument is valid.
CALLS = {
    "validate_density_matrix": lambda sic, mubs, tol: validate_density_matrix(np.eye(3) / 3, tol=tol),
    "validate_orthonormal_basis": lambda sic, mubs, tol: validate_orthonormal_basis(np.eye(3), tol=tol),
    "is_sic": lambda sic, mubs, tol: is_sic(sic, tol=tol),
    "generate_sic_orbit": lambda sic, mubs, tol: generate_sic_orbit(hesse_kets()[0], tol=tol),
    "sic_probabilities": lambda sic, mubs, tol: sic_probabilities(np.eye(3) / 3, sic, tol=tol),
    "verify_mub_set": lambda sic, mubs, tol: verify_mub_set(mubs, tol=tol),
    "covering_witness": lambda sic, mubs, tol: covering_witness((0, 1, 2), mubs, sic, tol=tol),
    "covering_table": lambda sic, mubs, tol: covering_table(mubs, sic, tol=tol),
    "quadratic_purity_check": lambda sic, mubs, tol: quadratic_purity_check(UNIFORM, tol=tol),
    "qbic_check_general": lambda sic, mubs, tol: qbic_check_general(UNIFORM, triple_product_table(sic), tol=tol),
    "qbic_check_hesse": lambda sic, mubs, tol: qbic_check_hesse(UNIFORM, tol=tol),
    "enumerate_min_entropy_pure_states": lambda sic, mubs, tol: enumerate_min_entropy_pure_states(tol=tol),
    "qutrit_triple_criterion": lambda sic, mubs, tol: qutrit_triple_criterion(*hesse_kets()[:3], tol=tol),
    "qutrit_triple_criterion-norm_tol": lambda sic, mubs, tol: qutrit_triple_criterion(*hesse_kets()[:3], norm_tol=tol),
    "build_orthogonality_graph": lambda sic, mubs, tol: build_orthogonality_graph(sic.projectors, HESSE_MUB_LABELS[:9], tol=tol),
    "hesse_mub_graph": lambda sic, mubs, tol: hesse_mub_graph(tol=tol),
    "SicSet.tol": lambda sic, mubs, tol: SicSet(dim=3, projectors=sic.projectors, tol=tol),
    "StateSet.tol": lambda sic, mubs, tol: StateSet(dim=3, rhos=sic.projectors[:3], tol=tol),
    "distribution_indices-zero_tol": lambda sic, mubs, tol: distribution_indices(UNIFORM, zero_tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_malformed_tolerance_raises_before_any_verdict(sic, mubs, call, tol):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and non-negative, got (nan|-1\.0|inf)$"):
        call(sic, mubs, tol)


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_zero_tolerance_is_a_tolerance(sic, mubs, call):
    # 0 is the strictest tolerance, not a malformed one: each call runs to a
    # verdict or to a ValueError about its input, never about the tolerance
    try:
        call(sic, mubs, 0.0)
    except ValueError as err:
        assert "tolerance must be" not in str(err)

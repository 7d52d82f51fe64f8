import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sicmub import (
    TripleProductTable,
    distribution_indices,
    enumerate_min_entropy_pure_states,
    hesse_sic,
    qbic_check_general,
    qbic_check_hesse,
    quadratic_purity_check,
    random_density_matrix,
    mub_from_triple,
    random_ket,
    reconstruct_from_probabilities,
    sic_probabilities,
    triple_product,
    triple_product_table,
)
from sicmub.mub import LINES
from sicmub.purity import _as_prob_vector, _qbic_hesse_check, _qbic_hesse_values, _quadratic_check, _quadratic_values

#: Vectors of nine non-negative floats scaled to sum to 1.
probability_vectors = arrays(float, 9, elements=st.floats(0.0, 1.0)).filter(lambda a: a.sum() > 0).map(lambda a: a / a.sum())


def sic_state_distribution(k):
    p = np.full(9, 1.0 / 12.0)
    p[k] = 1.0 / 3.0
    return p


def line_distribution(triple):
    p = np.full(9, 1.0 / 6.0)
    p[list(triple)] = 0.0
    return p


def _shell_vector(rng):
    """A probability vector with ``sum p**2 = 1/6``: a uniform simplex draw
    rescaled radially about the uniform distribution (the cross term
    vanishes, so the scale is closed-form), redrawn until nonnegative."""
    centroid = 1.0 / 9.0
    while True:
        deviation = rng.dirichlet(np.ones(9)) - centroid
        q = centroid + math.sqrt((1.0 / 6.0 - centroid) / np.dot(deviation, deviation)) * deviation
        if q.min() >= 0.0:
            return q


class TestQuadraticCheck:
    def test_sic_state_distribution_is_pure(self):
        check = quadratic_purity_check(sic_state_distribution(0), tol=1e-10)
        assert check.passed
        # 1/9 + 8/144 = 1/6
        assert check.value == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_line_distribution_is_pure(self):
        assert quadratic_purity_check(line_distribution((0, 1, 2)), tol=1e-10).passed

    def test_uniform_fails(self):
        check = quadratic_purity_check(np.full(9, 1.0 / 9.0), tol=1e-10)
        assert not check.passed
        assert check.value == pytest.approx(1.0 / 9.0, abs=1e-14)


class TestTripleProducts:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_table_rejected(self, sic, bad):
        # a NaN table once made qbic_check_general fail every vector
        values = np.array(triple_product_table(sic).values)
        values[1, 2, 3] = bad
        with pytest.raises(ValueError, match="^triple product entries must be finite, got NaN or infinity$"):
            TripleProductTable(dim=3, values=values)

    def test_collinear_value(self, sic):
        assert triple_product(sic, 0, 1, 2) == pytest.approx(-0.125, abs=1e-14)

    def test_noncollinear_value(self, sic):
        assert triple_product(sic, 0, 1, 4) == pytest.approx(1.0 / 16.0, abs=1e-14)

    def test_repeated_index_value(self, sic):
        # tr(P_j P_j P_k) = tr(P_j P_k) = 1/4 for j != k
        assert triple_product(sic, 3, 3, 5) == pytest.approx(0.25, abs=1e-14)

    def test_all_equal_gives_unity(self, sic):
        assert triple_product(sic, 6, 6, 6) == pytest.approx(1.0, abs=1e-14)

    def test_out_of_range_rejected(self, sic):
        with pytest.raises(IndexError):
            triple_product(sic, 0, 1, 9)

    def test_table_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected table of shape \(9, 9, 9\), got \(9, 9\)"):
            TripleProductTable(dim=3, values=np.zeros((9, 9)))

    def test_table_matches_pointwise_and_is_symmetric(self, sic):
        table = triple_product_table(sic)
        values = np.asarray(table.values)
        rng = np.random.default_rng(2)
        for _ in range(30):
            j, k, l = rng.integers(0, 9, size=3)
            assert values[j, k, l] == pytest.approx(triple_product(sic, j, k, l), abs=1e-13)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            np.testing.assert_allclose(values, values.transpose(perm), atol=1e-13)

    def test_constant_on_collinear_and_noncollinear_classes(self, sic):
        lines = LINES.tolist()
        collinear = [triple_product(sic, *t) for t in lines]
        noncollinear = [triple_product(sic, *t) for t in combinations(range(9), 3) if list(t) not in lines]
        assert len(collinear) == 12 and len(noncollinear) == 72
        assert max(collinear) - min(collinear) < 1e-12
        assert max(noncollinear) - min(noncollinear) < 1e-12
        assert collinear[0] == pytest.approx(-0.125, abs=1e-13)
        assert noncollinear[0] == pytest.approx(1.0 / 16.0, abs=1e-13)


class TestCollinearity:
    def test_row_is_a_line(self):
        assert [0, 1, 2] in LINES.tolist()

    def test_diagonal_is_a_line(self):
        assert [0, 4, 8] in LINES.tolist()

    def test_bent_triple_is_not(self, sic):
        assert [0, 1, 3] not in LINES.tolist()
        with pytest.raises(ValueError, match="not a line"):
            mub_from_triple((0, 1, 3), sic)

    def test_duplicates_rejected(self, sic):
        with pytest.raises(ValueError, match="distinct"):
            mub_from_triple((1, 1, 2), sic)


class TestQbicChecks:
    def test_sic_state_hits_general_target(self, sic):
        table = triple_product_table(sic)
        check = qbic_check_general(sic_state_distribution(0), table, tol=1e-10)
        assert check.passed
        assert check.target == pytest.approx(5.0 / 32.0)

    def test_line_state_hits_general_target(self, sic):
        table = triple_product_table(sic)
        assert qbic_check_general(line_distribution((0, 1, 2)), table, tol=1e-10).passed

    def test_uniform_fails_general(self, sic):
        # independent oracle: sum_ijk C p p p = Re tr[(sum_i p_i P_i)^3],
        # and sum of all projectors is 3I, so uniform gives tr((I/3)^3)=1/9
        mixed = np.einsum("i,iab->ab", np.full(9, 1.0 / 9.0), np.asarray(sic.projectors))
        oracle = float(np.trace(mixed @ mixed @ mixed).real)
        assert oracle == pytest.approx(1.0 / 9.0, abs=1e-14)
        check = qbic_check_general(np.full(9, 1.0 / 9.0), triple_product_table(sic), tol=1e-10)
        assert not check.passed
        assert check.value == pytest.approx(oracle, abs=1e-12)

    def test_line_state_hesse_form(self):
        # sum p^3 = 6/216 = 1/36 and the two parallel lines give 2/216 = 1/108
        check = qbic_check_hesse(line_distribution((0, 1, 2)), tol=1e-10)
        assert check.passed
        p = line_distribution((0, 1, 2))
        assert np.sum(p**3) == pytest.approx(1.0 / 36.0, abs=1e-15)
        line_sum = sum(p[i] * p[j] * p[k] for i, j, k in LINES.tolist())
        assert line_sum == pytest.approx(1.0 / 108.0, abs=1e-15)

    def test_hesse_form_equals_the_line_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(9))
            line_sum = sum(p[i] * p[j] * p[k] for i, j, k in LINES.tolist())
            assert qbic_check_hesse(p).value == float(np.sum(p**3) - 3.0 * line_sum)

    def test_sic_state_hesse_form(self):
        assert qbic_check_hesse(sic_state_distribution(0), tol=1e-10).passed

    def test_noncollinear_zero_pattern_fails_with_known_value(self):
        # zeros at (0,1,3): exactly 3 lines survive -> 1/36 - 3/72 = -1/72
        check = qbic_check_hesse(line_distribution((0, 1, 3)), tol=1e-10)
        assert not check.passed
        assert check.value == pytest.approx(-1.0 / 72.0, abs=1e-12)

    @pytest.mark.parametrize(
        "check, match",
        [
            (lambda p, sic: qbic_check_hesse(p), "applies to qutrits"),
            (lambda p, sic: qbic_check_general(p, triple_product_table(sic)), "probability vector has length 4, table expects 9"),
        ],
        ids=["hesse", "general"],
    )
    def test_wrong_length_rejected(self, sic, check, match):
        with pytest.raises(ValueError, match=match):
            check(np.full(4, 0.25), sic)


class TestDistributionIndices:
    def test_pure_state_effective_number_is_six(self, sic):
        rng = np.random.default_rng(31)
        for _ in range(20):
            v = random_ket(3, rng)
            p = sic_probabilities(np.outer(v, v.conj()), sic)
            indices = distribution_indices(p)
            assert indices.effective_number == pytest.approx(6.0, abs=1e-8)

    def test_line_state_entropy_and_zero_count(self):
        indices = distribution_indices(line_distribution((0, 1, 2)))
        assert indices.shannon_entropy_nats == pytest.approx(math.log(6.0), abs=1e-12)
        assert indices.zero_count == 3
        assert indices.zero_bound == pytest.approx(3.0, abs=1e-12)
        assert indices.zero_bound_satisfied

    def test_uniform_effective_number_is_nine(self):
        assert distribution_indices(np.full(9, 1.0 / 9.0)).effective_number == pytest.approx(9.0)

    def test_point_mass_entropy_is_positive_zero(self):
        entropy = distribution_indices(np.eye(9)[0]).shannon_entropy_nats
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0

    @pytest.mark.parametrize("p, zero_tol", [(np.zeros(9), 1.0), (np.full(9, 1e-170), 1.0), (np.full(9, -0.0), 2.0)])
    def test_no_weight_is_rejected(self, p, zero_tol):
        # each sums to 1 within zero_tol, but its squares sum to 0 (1e-170 squared underflows)
        with pytest.raises(ValueError, match="no weight"):
            distribution_indices(p, zero_tol=zero_tol)


def enumerate_reference(tol):
    """The per-candidate loop: each three-zero vector built on its own and put
    through the single-vector checks; the reference for the stacked enumeration."""
    survivors = []
    for triple in combinations(range(9), 3):
        p = np.full(9, 1.0 / 6.0)
        p[list(triple)] = 0.0
        if _quadratic_check(p, tol).passed and _qbic_hesse_check(p, tol).passed:
            survivors.append((triple, p))
    return survivors


class TestMinEntropyEnumeration:
    @pytest.mark.parametrize("tol, count", [(1e-12, 12), (1e-9, 12), (1e-6, 12), (1e300, 84)])
    def test_stacked_enumeration_is_the_per_candidate_loop(self, tol, count):
        survivors, expected = enumerate_min_entropy_pure_states(tol), enumerate_reference(tol)
        assert len(expected) == count
        assert [t for t, _ in survivors] == [t for t, _ in expected]
        assert [p.tobytes() for _, p in survivors] == [p.tobytes() for _, p in expected]

    def test_exactly_the_twelve_lines_survive(self):
        survivors = enumerate_min_entropy_pure_states()
        assert len(survivors) == 12
        assert {t for t, _ in survivors} == set(map(tuple, LINES.tolist()))

    def test_includes_first_row(self):
        assert (0, 1, 2) in {t for t, _ in enumerate_min_entropy_pure_states()}

    def test_excludes_bent_triple(self):
        assert (0, 1, 3) not in {t for t, _ in enumerate_min_entropy_pure_states()}

    def test_zero_bound_holds_for_survivors(self):
        for _, p in enumerate_min_entropy_pure_states():
            indices = distribution_indices(p)
            assert indices.zero_count <= indices.zero_bound + 1e-9


class TestValueKernels:
    """The purity values along a trailing axis: one formula for one vector and for a stack."""

    @given(p=probability_vectors)
    @example(p=np.full(9, -0.0))
    def test_single_vector_values_keep_the_dot_and_left_to_right_bits(self, p):
        # tol 2 admits the all -0.0 vector, whose line sum is -0.0 left to right but 0.0 from Python's sum
        assert quadratic_purity_check(p, tol=2.0).value.hex() == float(np.dot(p, p)).hex()
        line_sum = sum(p[LINES].prod(axis=1).tolist())
        assert qbic_check_hesse(p, tol=2.0).value.hex() == float(np.sum(p**3) - 3.0 * line_sum).hex()

    @given(vectors=st.lists(probability_vectors, min_size=1, max_size=90))
    def test_a_stack_gives_each_rows_single_vector_value(self, vectors):
        stack = np.array(vectors)
        quadratic, hesse = _quadratic_values(stack), _qbic_hesse_values(stack)
        assert quadratic.shape == hesse.shape == (len(vectors),)
        for p, q, h in zip(stack, quadratic.tolist(), hesse.tolist()):
            assert q.hex() == quadratic_purity_check(p).value.hex()
            assert h.hex() == qbic_check_hesse(p).value.hex()


class TestQbicEquivalence:
    def test_forms_agree_on_the_quadratic_shell(self, sic):
        table = triple_product_table(sic)
        rng = np.random.default_rng(77)
        agree = 0
        for _ in range(1000):
            p = _shell_vector(rng)
            general = qbic_check_general(p, table, tol=1e-10)
            hesse_form = qbic_check_hesse(p, tol=1e-10)
            assert general.passed == hesse_form.passed
            # exact algebra on the shell: general - 5/32 = (3/8) * hesse value
            assert general.value - general.target == pytest.approx(0.375 * hesse_form.value, abs=1e-12)
            agree += 1
        assert agree == 1000

    def test_sampler_hits_the_shell_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = _shell_vector(rng)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p.min() >= 0.0
            assert np.dot(p, p) == pytest.approx(1.0 / 6.0, abs=1e-12)


class TestPurityRankOneEquivalence:
    def test_both_checks_iff_rank_one_reconstruction(self, sic):
        table = triple_product_table(sic)
        rng = np.random.default_rng(404)
        samples = []
        for _ in range(70):
            v = random_ket(3, rng)
            samples.append(sic_probabilities(np.outer(v, v.conj()), sic))
        for _ in range(70):
            samples.append(sic_probabilities(random_density_matrix(3, rng), sic))
        for _ in range(60):
            samples.append(_shell_vector(rng))
        assert len(samples) == 200
        for p in samples:
            both = (
                quadratic_purity_check(p, tol=1e-8).passed
                and qbic_check_general(p, table, tol=1e-8).passed
            )
            top_eigenvalue = np.linalg.eigvalsh(reconstruct_from_probabilities(p, sic))[-1]
            assert both == (abs(top_eigenvalue - 1.0) <= 1e-8)


#: Each check that reads nine probabilities (a SIC state for ``sic_probabilities``), given them.
PROBABILITY_CHECKS = {
    "quadratic_purity_check": quadratic_purity_check,
    "qbic_check_hesse": qbic_check_hesse,
    "distribution_indices": distribution_indices,
    "reconstruct_from_probabilities": lambda v: reconstruct_from_probabilities(v, hesse_sic()),
    "sic_probabilities": lambda v: sic_probabilities(np.reshape(v, (3, 3)), hesse_sic()),
}


@pytest.mark.parametrize("check", PROBABILITY_CHECKS.values(), ids=PROBABILITY_CHECKS.keys())
@pytest.mark.parametrize("values", [[math.nan] * 9, [math.inf, -math.inf] + [1.0 / 9.0] * 7], ids=["nan", "both-infs"])
def test_non_finite_input_never_reaches_a_verdict(check, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any sum: no RuntimeWarning on the way
        with pytest.raises(ValueError):
            check(values)


#: Each check that reads nine probabilities at a tolerance, given both.
TOLERANT_CHECKS = {
    "quadratic_purity_check": lambda v, tol: quadratic_purity_check(v, tol=tol),
    "qbic_check_hesse": lambda v, tol: qbic_check_hesse(v, tol=tol),
    "qbic_check_general": lambda v, tol: qbic_check_general(v, triple_product_table(hesse_sic()), tol=tol),
    "distribution_indices": lambda v, tol: distribution_indices(v, zero_tol=tol),
}


@pytest.mark.parametrize("check", TOLERANT_CHECKS.values(), ids=TOLERANT_CHECKS.keys())
def test_an_entry_below_minus_tol_is_not_a_probability(check):
    # [1.5, -0.5, 0, ...] sums to 1: it once read as an impure state and gave a negative entropy
    with pytest.raises(ValueError, match=r"^probability vector entries must be at least -0\.001, got -0\.5$"):
        check([1.5, -0.5] + [0.0] * 7, 1e-3)
    with pytest.raises(ValueError, match="at least -0.001, got -0.0010000000000000002$"):
        check([np.nextafter(-1e-3, -1.0), 1.001] + [0.0] * 7, 1e-3)
    check([-1e-3, 1.001] + [0.0] * 7, 1e-3)  # at -tol itself: still a probability
    with pytest.raises(ValueError, match="^probability vector entries must be finite, got NaN or infinity$"):
        check([-math.inf, 1.0] + [0.0] * 7, 1e-3)


@pytest.mark.parametrize("check", TOLERANT_CHECKS.values(), ids=TOLERANT_CHECKS.keys())
def test_entries_whose_sum_overflows_are_rejected_before_the_sum(check):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from an overflowing sum
        with pytest.raises(ValueError, match=r"^probability vector must sum to 1 within 1e-10, got an entry of 1e\+308$"):
            check([1e308] * 9, 1e-10)
        with pytest.raises(ValueError, match="^probability vector entries must be finite, got NaN or infinity$"):
            check([1e308] * 8 + [math.inf], 1e-10)
        # a large entry whose sum is finite still reads as a wrong sum
        with pytest.raises(ValueError, match=r"^probability vector must sum to 1 within 1e-10, got 5\.0$"):
            check([5.0] + [0.0] * 8, 1e-10)


def test_the_overflow_guard_passes_every_vector_within_tol_of_sum_one():
    # the guard caps entries at half the float range over their count, far above 1 + n * tol
    vec = [1e299] + [-1e298] * 8
    assert _as_prob_vector(vec, 1e300).tolist() == vec

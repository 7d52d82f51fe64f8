import math
from itertools import combinations

import numpy as np
import pytest

from sicmub import (
    distribution_indices,
    enumerate_min_entropy_pure_states,
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

    def test_wrong_length_rejected(self, sic):
        with pytest.raises(ValueError):
            qbic_check_hesse(np.full(4, 0.25))


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


class TestMinEntropyEnumeration:
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

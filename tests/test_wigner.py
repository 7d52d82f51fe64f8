import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sicmub import (
    MubSet,
    PhasePointOperators,
    basis_ket,
    line_marginals,
    negativity,
    phase_point_operators,
    projector,
    random_density_matrix,
    sic_probabilities,
    trace_product,
    wigner_from_line_probs,
    wigner_from_sic_probabilities,
    wigner_of_density,
)
from sicmub.mub import LINES


@pytest.fixture(scope="module")
def ops(mubs):
    return phase_point_operators(mubs)


@st.composite
def ginibre_states(draw):
    """Mixed qutrit state ``G G† / tr(G G†)`` from a drawn complex ``G``."""
    parts = draw(arrays(float, (2, 3, 3), elements=st.floats(-1.0, 1.0)))
    g = parts[0] + 1j * parts[1]
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-6)
    return m / trace


class TestPhasePointOperators:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_operator_rejected(self, ops, bad):
        arr = np.array(ops.ops)
        arr[4, 0, 2] = bad
        with pytest.raises(ValueError, match="^phase-point operator entries must be finite, got NaN or infinity$"):
            PhasePointOperators(ops=arr)

    def test_unit_traces(self, ops):
        for a in np.asarray(ops.ops):
            assert np.trace(a).real == pytest.approx(1.0, abs=1e-12)

    def test_orthogonality_scale(self, ops):
        arr = np.asarray(ops.ops)
        assert trace_product(arr[0], arr[1]) == pytest.approx(0.0, abs=1e-12)
        assert trace_product(arr[0], arr[0]) == pytest.approx(3.0, abs=1e-12)

    def test_line_average_recovers_mub_projector(self, ops, mubs):
        arr = np.asarray(ops.ops)
        average = (arr[0] + arr[1] + arr[2]) / 3.0
        np.testing.assert_allclose(average, mubs.projectors[0, 0], atol=1e-12)  # row 0 of LINES: (0, 1, 2)

    def test_equals_the_sum_over_lines_through_each_point(self, ops, mubs):
        line_projectors = mubs.projectors.reshape(12, 3, 3)
        for j in range(9):
            total = sum(line_projectors[row] for row, line in enumerate(LINES) if j in line) - np.eye(3)
            np.testing.assert_allclose(np.asarray(ops.ops)[j], total, rtol=0, atol=1e-15)

    def test_all_line_averages(self, ops, mubs):
        arr = np.asarray(ops.ops)
        line_projectors = mubs.projectors.reshape(12, 3, 3)
        for row, line in enumerate(LINES):
            average = arr[line].sum(axis=0) / 3.0
            np.testing.assert_allclose(average, line_projectors[row], atol=1e-12)

    def test_properties_are_checked_at_default_tol(self, mubs):
        # one projector moved by a Hermitian, traceless eps: the lines through
        # its points then average off their projectors by eps / 3
        def moved(eps):
            proj = np.array(mubs.projectors)
            proj[0, 0] += eps * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
            return MubSet(projectors=proj, prob_vectors=mubs.prob_vectors)

        with pytest.raises(ValueError, match="lines=3.333e-10"):
            phase_point_operators(moved(1e-9))
        assert np.asarray(phase_point_operators(moved(1e-12)).ops).shape == (9, 3, 3)

    def test_operator_stack_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"expected 9 operators of shape \(3, 3\), got \(8, 3, 3\)"):
            PhasePointOperators(ops=np.zeros((8, 3, 3)))


class TestWignerMaps:
    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda ops: wigner_of_density(np.eye(2) / 2.0, ops), "expected a 3x3 density matrix"),
            (lambda ops: wigner_from_sic_probabilities(np.full(8, 1.0 / 8.0)), "expected 9 SIC probabilities, got 8"),
            (lambda ops: line_marginals(np.zeros(10)), "expected 9 Wigner values, got 10"),
        ],
        ids=["wigner_of_density", "wigner_from_sic_probabilities", "line_marginals"],
    )
    def test_input_of_the_wrong_shape_rejected(self, ops, call, match):
        with pytest.raises(ValueError, match=match):
            call(ops)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda ops, bad: wigner_of_density(np.where(np.eye(3) == 1, bad, 0.0), ops),
            lambda ops, bad: wigner_from_sic_probabilities([bad] + [1.0 / 8.0] * 8),
            lambda ops, bad: negativity([bad] * 9),
        ],
        ids=["wigner_of_density", "wigner_from_sic_probabilities", "negativity"],
    )
    def test_non_finite_input_rejected(self, ops, call, bad):
        # a NaN Wigner vector has no entry below 0, so it would read as no negativity
        with pytest.raises(ValueError, match="entries must be finite, got NaN or infinity"):
            call(ops, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("position", range(9))
    def test_non_finite_wigner_entry_has_no_line_marginals(self, bad, position):
        # a NaN entry once passed through to the four lines through its point
        w = np.full(9, 1.0 / 9.0)
        w[position] = bad
        with pytest.raises(ValueError, match="^Wigner entries must be finite, got NaN or infinity$"):
            line_marginals(w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("line", [tuple(line) for line in LINES.tolist()], ids=lambda line: "".join(map(str, line)))
    def test_non_finite_line_probability_has_no_wigner_function(self, bad, line):
        # a NaN striation sum once passed the normalization check and gave a NaN W
        q = {tuple(row): 1.0 / 3.0 for row in LINES.tolist()}
        q[line] = bad
        with pytest.raises(ValueError, match="^line probability entries must be finite, got NaN or infinity$"):
            wigner_from_line_probs(q)

    def test_sic_state_wigner(self, sic, projectors, ops):
        w = wigner_of_density(projectors[0], ops)
        expected = np.full(9, 1.0 / 6.0)
        expected[0] = -1.0 / 3.0
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_affine_map_on_sic_basis_distribution(self):
        p = np.full(9, 1.0 / 12.0)
        p[4] = 1.0 / 3.0
        w = wigner_from_sic_probabilities(p)
        expected = np.full(9, 1.0 / 6.0)
        expected[4] = -1.0 / 3.0
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_affine_map_on_line_distribution(self):
        p = np.full(9, 1.0 / 6.0)
        p[[0, 1, 2]] = 0.0
        w = wigner_from_sic_probabilities(p)
        expected = np.zeros(9)
        expected[[0, 1, 2]] = 1.0 / 3.0
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_uniform_is_a_fixed_point(self):
        np.testing.assert_allclose(
            wigner_from_sic_probabilities(np.full(9, 1.0 / 9.0)), np.full(9, 1.0 / 9.0), atol=1e-15
        )

    def test_maximally_mixed_state(self, ops):
        np.testing.assert_allclose(wigner_of_density(np.eye(3) / 3.0, ops), np.full(9, 1.0 / 9.0), atol=1e-12)

    def test_computational_zero_state(self, ops):
        w = wigner_of_density(projector(basis_ket(3, 0)), ops)
        expected = np.zeros(9)
        expected[[0, 3, 6]] = 1.0 / 3.0
        np.testing.assert_allclose(w, expected, atol=1e-12)

    @settings(deadline=None)
    @given(rho=ginibre_states())
    def test_commuting_triangle_on_random_states(self, sic, mubs, ops, rho):
        # Wootters, Ann. Phys. 176, 1 (1987): phase-point operators, SIC
        # probabilities and MUB line probabilities carry the same W
        w = wigner_of_density(rho, ops)
        np.testing.assert_allclose(w, wigner_from_sic_probabilities(sic_probabilities(rho, sic)), atol=1e-10)
        q = line_marginals(w)
        assert len(q) == 12
        line_projectors = mubs.projectors.reshape(12, 3, 3)
        for row, line in enumerate(LINES.tolist()):
            assert q[tuple(line)] == pytest.approx(trace_product(rho, line_projectors[row]), abs=1e-10)
        np.testing.assert_allclose(wigner_from_line_probs(q), w, atol=1e-10)


class TestLineMarginals:
    def test_computational_zero_state_marginal(self, ops):
        w = wigner_of_density(projector(basis_ket(3, 0)), ops)
        q = line_marginals(w)
        assert q[(0, 3, 6)] == pytest.approx(1.0, abs=1e-12)

    def test_equals_the_sum_along_each_line(self):
        w = np.random.default_rng(17).standard_normal(9)
        assert line_marginals(w) == {tuple(line): float(w[line].sum()) for line in LINES.tolist()}

    def test_uniform_gives_third_everywhere(self):
        q = line_marginals(np.full(9, 1.0 / 9.0))
        assert all(abs(v - 1.0 / 3.0) < 1e-12 for v in q.values())

    def test_sic_state_marginal_vanishes_on_its_row(self, projectors, ops):
        w = wigner_of_density(projectors[0], ops)
        q = line_marginals(w)
        assert q[(0, 1, 2)] == pytest.approx(0.0, abs=1e-12)

    def test_marginals_match_born_probabilities(self, sic, mubs, ops):
        rng = np.random.default_rng(31415)
        line_projectors = mubs.projectors.reshape(12, 3, 3)
        for _ in range(50):
            rho = random_density_matrix(3, rng)
            q = line_marginals(wigner_of_density(rho, ops))
            for row, line in enumerate(LINES.tolist()):
                assert q[tuple(line)] == pytest.approx(trace_product(rho, line_projectors[row]), abs=1e-10)

    def test_striation_sums_are_one_for_states(self, ops):
        rng = np.random.default_rng(123)
        rho = random_density_matrix(3, rng)
        q = line_marginals(wigner_of_density(rho, ops))
        for striation in LINES.reshape(4, 3, 3).tolist():
            assert sum(q[tuple(line)] for line in striation) == pytest.approx(1.0, abs=1e-12)


class TestLineInversion:
    def test_round_trip_from_sic_state(self, projectors, ops):
        w = wigner_of_density(projectors[0], ops)
        np.testing.assert_allclose(wigner_from_line_probs(line_marginals(w)), w, atol=1e-12)

    def test_uniform_line_probabilities(self):
        q = {tuple(line): 1.0 / 3.0 for line in LINES.tolist()}
        np.testing.assert_allclose(wigner_from_line_probs(q), np.full(9, 1.0 / 9.0), atol=1e-14)

    def test_delta_at_one_point(self):
        # all four lines through 0 certain: a delta at the corner point,
        # not reachable by any quantum state
        q = {tuple(line): (1.0 if 0 in line else 0.0) for line in LINES.tolist()}
        w = wigner_from_line_probs(q)
        assert w[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(np.delete(w, 0), np.zeros(8), atol=1e-14)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_on_random_states(self, ops):
        rng = np.random.default_rng(999)
        for _ in range(100):
            w = wigner_of_density(random_density_matrix(3, rng), ops)
            np.testing.assert_allclose(wigner_from_line_probs(line_marginals(w)), w, atol=1e-10)

    def test_inconsistent_striation_sum_rejected(self):
        q = {tuple(line): 1.0 / 3.0 for line in LINES.tolist()}
        q[(0, 1, 2)] = 0.5
        with pytest.raises(ValueError, match="striation"):
            wigner_from_line_probs(q)

    def test_striation_sums_are_checked_at_line_normalization_tol(self):
        q = {tuple(line): 1.0 / 3.0 for line in LINES.tolist()}
        q[(0, 1, 2)] += 2e-9
        with pytest.raises(ValueError, match="striation 1 probabilities sum to 1.000000002"):
            wigner_from_line_probs(q)
        q[(0, 1, 2)] = 1.0 / 3.0 + 5e-10
        assert wigner_from_line_probs(q).shape == (9,)

    def test_missing_line_rejected(self):
        q = {tuple(line): 1.0 / 3.0 for line in LINES.tolist()[:-1]}
        with pytest.raises(ValueError, match="12 lines"):
            wigner_from_line_probs(q)

    def test_line_named_twice_rejected(self):
        # 13 keys: (2, 1, 0) names line (0, 1, 2) again, and taking its 1/3 over the 0.9 gives the uniform W
        q = {tuple(line): 1.0 / 3.0 for line in LINES.tolist()}
        q[(0, 1, 2)] = 0.9
        q[(2, 1, 0)] = q[(3, 4, 5)]
        with pytest.raises(ValueError, match="12 lines"):
            wigner_from_line_probs(q)


class TestNegativity:
    def test_sic_state_attains_the_cap(self, projectors, ops):
        assert negativity(wigner_of_density(projectors[0], ops)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mub_states_are_nonnegative(self, mubs, ops):
        for rho in mubs.projectors.reshape(12, 3, 3):
            assert negativity(wigner_of_density(rho, ops)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_is_nonnegative(self, ops):
        assert negativity(wigner_of_density(np.eye(3) / 3.0, ops)) == 0.0

    def test_stabilizer_state_has_positive_zero_negativity(self, sic):
        w = wigner_from_sic_probabilities(sic_probabilities(projector(basis_ket(3, 0)), sic))
        assert (w >= 0.0).all()
        assert math.copysign(1.0, negativity(w)) == 1.0

    def test_entry_floor_and_cap_on_random_pure_states(self, sic):
        rng = np.random.default_rng(6022)
        kets = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        rhos = np.einsum("na,nb->nab", kets, kets.conj())
        probs = np.einsum("nab,iba->ni", rhos, np.asarray(sic.projectors)).real / 3.0
        w = 1.0 / 3.0 - 2.0 * probs
        assert w.min() >= -1.0 / 3.0 - 1e-10
        neg = np.where(w < 0, -w, 0.0).sum(axis=1)
        assert neg.max() <= 1.0 / 3.0 + 1e-9

    def test_mub_supports_intersect_in_one_point(self, sic, mubs, ops):
        for s1 in range(4):
            for s2 in range(s1 + 1, 4):
                for rho1 in mubs.projectors[s1]:
                    for rho2 in mubs.projectors[s2]:
                        w1 = wigner_of_density(rho1, ops)
                        w2 = wigner_of_density(rho2, ops)
                        support1 = set(np.flatnonzero(np.abs(w1) > 1e-10))
                        support2 = set(np.flatnonzero(np.abs(w2) > 1e-10))
                        assert len(support1 & support2) == 1

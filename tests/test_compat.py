import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicmub import (
    SEARCH_TOL,
    StateSet,
    WitnessSearchConfig,
    basis_ket,
    cfs_example_kets,
    cfs_example_states,
    overlap_squared,
    pp_functional,
    projector,
    qutrit_triple_criterion,
    random_ket,
    saturation_cubic_roots,
    saturation_profile,
    validate_orthonormal_basis,
    witness_search,
)
from sicmub.compat import (
    _SATURATION_CUBIC,
    _column_probs,
    _generator_exp,
    _haar_unitary,
    _matched_residual,
    _pair_coefficients,
    _pair_generators,
    _pair_products,
    _rotate_pair,
    _state_factors,
)


def computational_effects():
    return np.array([projector(basis_ket(3, j)) for j in range(3)])


class TestPpFunctional:
    def test_cfs_triple_vanishes_in_computational_basis(self):
        assert pp_functional(cfs_example_states(), computational_effects()) == pytest.approx(0.0, abs=1e-14)

    def test_first_hesse_row_vanishes_in_computational_basis(self, kets):
        states = StateSet.from_kets(kets[[0, 1, 2]])
        assert pp_functional(states, computational_effects()) == pytest.approx(0.0, abs=1e-14)

    def test_repeated_state_gives_one(self):
        rho = projector(basis_ket(3, 0))
        states = StateSet(dim=3, rhos=np.array([rho, rho]))
        assert pp_functional(states, computational_effects()) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        states = cfs_example_states()
        with pytest.raises(ValueError, match="mismatch"):
            pp_functional(states, np.array([np.eye(2)]))

    def test_invariant_under_permutations(self, kets):
        rng = np.random.default_rng(17)
        states = StateSet.from_kets(kets[[0, 3, 7]])
        effects = np.asarray(computational_effects())
        base = pp_functional(states, effects)
        for _ in range(10):
            sp = rng.permutation(3)
            ep = rng.permutation(3)
            shuffled = StateSet(dim=3, rhos=np.asarray(states.rhos)[sp])
            assert pp_functional(shuffled, effects[ep]) == pytest.approx(base, abs=1e-14)


class TestTripleCriterion:
    def test_hesse_triple_is_saturated_incompatible(self, kets):
        verdict = qutrit_triple_criterion(kets[0], kets[1], kets[4])
        assert verdict.incompatible
        assert verdict.saturated
        assert verdict.overlap_sum == pytest.approx(0.75, abs=1e-12)
        assert verdict.boundary_lhs == pytest.approx(1.0 / 16.0, abs=1e-12)
        assert verdict.boundary_rhs == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_large_overlap_sum_is_compatible(self):
        # overlaps 1/2, 1/4, 1/2 sum to 1.25, violating the first inequality
        a = basis_ket(3, 0)
        b = (basis_ket(3, 0) + basis_ket(3, 1)) / math.sqrt(2.0)
        c = (basis_ket(3, 0) + basis_ket(3, 2)) / math.sqrt(2.0)
        verdict = qutrit_triple_criterion(a, b, c)
        assert not verdict.incompatible
        assert verdict.overlap_sum == pytest.approx(1.25, abs=1e-12)

    def test_orthogonal_triple_shortcut(self):
        verdict = qutrit_triple_criterion(basis_ket(3, 0), basis_ket(3, 1), basis_ket(3, 2))
        assert verdict.incompatible
        assert verdict.witness is not None
        assert validate_orthonormal_basis(verdict.witness, tol=1e-10).passed
        # the attached witness basis certifies: the functional vanishes on it
        states = StateSet.from_kets(np.array([basis_ket(3, 0), basis_ket(3, 1), basis_ket(3, 2)]))
        effects = np.array([np.outer(v, v.conj()) for v in np.asarray(verdict.witness)])
        assert pp_functional(states, effects) == pytest.approx(0.0, abs=1e-12)

    def test_nearly_orthogonal_pair_gets_an_orthonormal_witness(self):
        # |<a|b>|^2 = 9e-10 <= tol short-circuits; the witness must span a, b and |2>
        a = basis_ket(3, 0)
        b = np.array([3e-5, math.sqrt(1.0 - 9e-10), 0.0], dtype=complex)
        c = np.array([0.6, 0.0, 0.8], dtype=complex)
        witness = np.asarray(qutrit_triple_criterion(a, b, c).witness)
        assert validate_orthonormal_basis(witness, tol=1e-10).passed
        assert overlap_squared(witness[2], basis_ket(3, 2)) == pytest.approx(1.0, abs=1e-12)
        effects = np.einsum("ka,kb->kab", witness, witness.conj())
        assert pp_functional(StateSet.from_kets(np.array([a, b, c])), effects) <= SEARCH_TOL

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tilt=st.floats(0.0, math.sqrt(SEARCH_TOL)))
    def test_witness_of_a_tilted_orthogonal_pair_is_orthonormal(self, seed, tilt):
        # b is orthogonal to a tilted by an angle whose squared sine stays within tol
        rng = np.random.default_rng(seed)
        a, b, c = (random_ket(3, rng) for _ in range(3))
        b -= np.vdot(a, b) * a
        b = math.cos(tilt) * b / np.linalg.norm(b) + math.sin(tilt) * a
        verdict = qutrit_triple_criterion(a, b, c)
        assert verdict.incompatible
        witness = np.asarray(verdict.witness)
        assert validate_orthonormal_basis(witness, tol=1e-10).passed
        effects = np.einsum("ka,kb->kab", witness, witness.conj())
        assert pp_functional(StateSet.from_kets(np.array([a, b, c])), effects) <= SEARCH_TOL

    def test_ket_norms_are_checked_at_tol(self):
        kets = cfs_example_kets() * math.sqrt(1.0 + 1e-7)
        assert qutrit_triple_criterion(*kets, tol=1e-6).incompatible
        with pytest.raises(ValueError, match="unit kets"):
            qutrit_triple_criterion(*kets)

    def test_identical_states_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            qutrit_triple_criterion(basis_ket(3, 0), basis_ket(3, 0), basis_ket(3, 1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="qutrit"):
            qutrit_triple_criterion([1, 0], [0, 1], [1, 0])

    def test_unitary_invariance(self, kets):
        rng = np.random.default_rng(99)
        for _ in range(20):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(g)
            base = qutrit_triple_criterion(kets[0], kets[1], kets[4])
            rotated = qutrit_triple_criterion(q @ kets[0], q @ kets[1], q @ kets[4])
            assert rotated.overlap_sum == pytest.approx(base.overlap_sum, abs=1e-12)
            assert rotated.boundary_lhs == pytest.approx(base.boundary_lhs, abs=1e-12)
            assert rotated.boundary_rhs == pytest.approx(base.boundary_rhs, abs=1e-12)

    def test_equal_overlap_triples_saturate_on_the_cubic_zero(self):
        # the one-angle family cos(t)|1> + sin(t)|2> (cyclic) has all three
        # squared overlaps equal to x = sin^2 t cos^2 t <= 1/4
        angles = list(np.linspace(0.08, 1.49, 40)) + [np.pi / 4.0]
        for theta in angles:
            c, s = math.cos(theta), math.sin(theta)
            a = np.array([0.0, c, s], dtype=complex)
            b = np.array([s, 0.0, c], dtype=complex)
            cc = np.array([c, s, 0.0], dtype=complex)
            verdict = qutrit_triple_criterion(a, b, cc)
            x = (s * c) ** 2
            expect_saturated = abs(saturation_profile(x)) <= 1e-9 and x < 1.0
            assert verdict.saturated == expect_saturated, f"theta={theta}"


class TestSaturationCubic:
    def test_quarter_is_a_root(self):
        assert saturation_profile(0.25) == pytest.approx(0.0, abs=1e-15)

    def test_one_is_a_root(self):
        assert saturation_profile(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_zero(self):
        assert saturation_profile(0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_roots_with_multiplicities(self):
        roots = saturation_cubic_roots()
        assert len(roots) == 2
        (r1, m1), (r2, m2) = roots
        assert abs(r1 - 0.25) < 1e-12 and m1 == 1
        assert abs(r2 - 1.0) < 1e-12 and m2 == 2

    def test_roots_rest_on_the_exact_factorisation(self):
        # 4x^3 - 9x^2 + 6x - 1 = (4x - 1)(x - 1)^2, coefficient for coefficient
        assert np.polymul((4.0, -1.0), np.polymul((1.0, -1.0), (1.0, -1.0))).tolist() == list(_SATURATION_CUBIC)
        # the roots, repeated by multiplicity, rebuild the cubic exactly
        roots = [r for r, m in saturation_cubic_roots() for _ in range(m)]
        assert (4.0 * np.poly(roots)).tolist() == list(_SATURATION_CUBIC)
        for x in np.linspace(-1.0, 2.0, 31):
            assert saturation_profile(x) == pytest.approx((4.0 * x - 1.0) * (x - 1.0) ** 2, abs=1e-12)


class TestCfsExample:
    def test_pairwise_overlaps_are_quarter(self):
        kets = cfs_example_kets()
        for i in range(3):
            j = (i + 1) % 3
            assert abs(np.vdot(kets[i], kets[j])) ** 2 == pytest.approx(0.25, abs=1e-14)

    def test_criterion_says_saturated_incompatible(self):
        kets = cfs_example_kets()
        verdict = qutrit_triple_criterion(kets[0], kets[1], kets[2])
        assert verdict.incompatible
        assert verdict.saturated

    def test_functional_vanishes_in_computational_basis(self):
        assert pp_functional(cfs_example_states(), computational_effects()) == pytest.approx(0.0, abs=1e-14)


class TestWitnessSearch:
    def test_hesse_triple_reaches_threshold_and_matches_mub_basis(self, kets, mubs):
        states = StateSet.from_kets(kets[[0, 1, 4]])
        result = witness_search(states, WitnessSearchConfig(restarts=32, seed=7))
        assert result.success
        assert result.value < 1e-10
        basis = np.asarray(result.basis)
        # every outcome annihilates exactly one of the three states,
        # and each state is annihilated by exactly one outcome
        overlap = np.array([[abs(np.vdot(b, kets[j])) ** 2 for j in (0, 1, 4)] for b in basis])
        killed = overlap < 1e-8
        assert (killed.sum(axis=0) == 1).all() and (killed.sum(axis=1) == 1).all()
        # the witness set is a curve through the striation-4 basis; the
        # found basis sits on it close to the MUB states
        target = np.asarray(mubs.projectors)[3]
        for b in basis:
            residuals = [float(np.max(np.abs(np.outer(b, b.conj()) - t))) for t in target]
            assert min(residuals) < 1e-3

    def test_three_identical_states_floor_is_one_ninth(self):
        rho = projector(basis_ket(3, 0))
        states = StateSet(dim=3, rhos=np.array([rho, rho, rho]))
        result = witness_search(states, WitnessSearchConfig(restarts=6, seed=3, stop_at_success=False))
        assert result.value == pytest.approx(1.0 / 9.0, abs=1e-6)
        assert not result.success

    def test_orthogonal_pair_certified_in_one_restart(self):
        states = StateSet.from_kets(np.array([basis_ket(3, 0), basis_ket(3, 1)]))
        result = witness_search(states, WitnessSearchConfig(restarts=1, seed=0, success_threshold=1e-12))
        assert result.success
        assert result.value < 1e-12
        assert len(result.history) == 1

    def test_deterministic_given_seed(self, kets):
        states = StateSet.from_kets(kets[[0, 2, 6]])
        cfg = WitnessSearchConfig(restarts=8, seed=5)
        r1 = witness_search(states, cfg)
        r2 = witness_search(states, cfg)
        assert r1.value == r2.value
        assert r1.best_restart == r2.best_restart
        np.testing.assert_array_equal(np.asarray(r1.basis), np.asarray(r2.basis))

    def test_returned_basis_is_orthonormal(self, kets):
        from sicmub import validate_orthonormal_basis

        states = StateSet.from_kets(kets[[1, 5, 8]])
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=12))
        assert validate_orthonormal_basis(result.basis, tol=1e-10).passed

    def test_maximally_mixed_states_sit_at_one_ninth(self):
        states = StateSet(dim=3, rhos=np.array([np.eye(3) / 3.0] * 3))
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=1, stop_at_success=False))
        # every outcome has probability 1/3 for every state, whatever the basis
        assert result.value == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert len(result.history) == 4
        for record in result.history:
            assert record.start_value == pytest.approx(1.0 / 9.0, abs=1e-15)
            assert record.final_value == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert not result.success

    def test_value_on_rank_two_states_is_the_functional_of_the_basis(self):
        rng = np.random.default_rng(41)
        kets = np.array([random_ket(3, rng) for _ in range(6)])
        rhos = np.einsum("na,nb->nab", kets, kets.conj())
        states = StateSet(dim=3, rhos=(rhos[0::2] + rhos[1::2]) / 2.0)
        result = witness_search(states, WitnessSearchConfig(restarts=3, seed=4, stop_at_success=False))
        effects = np.array([np.outer(b, b.conj()) for b in np.asarray(result.basis)])
        assert result.value == pytest.approx(pp_functional(states, effects), abs=1e-15)
        assert result.value == result.history[result.best_restart].final_value

    def test_probe_counts_are_deterministic_and_bounded(self, kets):
        states = StateSet.from_kets(kets[[0, 2, 7]])
        cfg = WitnessSearchConfig(restarts=3, seed=9, stop_at_success=False)
        first, second = witness_search(states, cfg), witness_search(states, cfg)
        assert [r.probes for r in first.history] == [r.probes for r in second.history]
        for record in first.history:
            # two probes per move plus at most one vertex probe, six moves per cycle
            assert 12 * (record.cycles - 1) < record.probes <= 18 * record.cycles

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1e-10])
    def test_config_rejects_non_positive_or_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="success_threshold"):
            WitnessSearchConfig(success_threshold=threshold)


class TestPairGenerators:
    def test_table_order_and_squares(self):
        table = _pair_generators(3)
        assert [(j, k) for j, k, _ in table] == [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]
        for j, k, g in table:
            np.testing.assert_array_equal(g, g.conj().T)
            np.testing.assert_array_equal(g @ g, np.diag([1.0 if i in (j, k) else 0.0 for i in range(3)]))
        # symmetric |j><k| + |k><j| first, then antisymmetric i|k><j| - i|j><k|
        assert table[0][2][0, 1] == 1.0 and table[1][2][1, 0] == 1j and table[1][2][0, 1] == -1j

    @settings(deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), angle=st.floats(-7.0, 7.0))
    def test_pair_update_is_the_generator_exponential(self, d, seed, angle):
        u = _haar_unitary(np.random.default_rng(seed), d)
        for j, k, g in _pair_generators(d):
            w, v = np.linalg.eigh(angle * g)
            expected = u @ (v * np.exp(1j * w)) @ v.conj().T
            moved = u.copy()
            moved[:, j], moved[:, k] = _rotate_pair(u[:, j].tolist(), u[:, k].tolist(), 1j * g[k, j], angle)
            np.testing.assert_allclose(moved, expected, atol=1e-12)
            np.testing.assert_allclose(u @ _generator_exp(g[None], np.array([angle])), expected, atol=1e-12)

    @settings(deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        angles=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),
    )
    def test_closed_form_probe_is_the_functional_of_the_rotated_basis(self, ranks, seed, angles):
        rng = np.random.default_rng(seed)
        rhos = []
        for rank in ranks:
            kets = np.array([random_ket(3, rng) for _ in range(rank)])
            weights = rng.dirichlet(np.ones(rank))
            rhos.append(np.einsum("r,ra,rb->ab", weights, kets, kets.conj()))
        rhos = np.array(rhos)
        u = _haar_unitary(rng, 3)
        factors = _state_factors(rhos)
        assert [w.shape[1] for w in factors] == ranks
        owners = [n for n, w in enumerate(factors) for _ in range(w.shape[1])]
        amps = (np.concatenate(factors, axis=1).conj().T @ u).T
        products = _column_probs(rhos, u).prod(axis=0)
        for j, k, g in _pair_generators(3):
            coeffs = _pair_coefficients(amps[j].tolist(), amps[k].tolist(), 1j * g[k, j], owners, len(ranks))
            rest = products.sum() - products[j] - products[k]
            for angle in angles:
                expected = _column_probs(rhos, u @ _generator_exp(g[None], np.array([angle]))).prod(axis=0).sum()
                assert rest + sum(_pair_products(coeffs, angle)) == pytest.approx(expected, abs=1e-12)

    def test_polish_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(31)
        gens = np.array([g for _, _, g in _pair_generators(3)])
        eps = 1e-6
        for _ in range(10):
            kets = np.array([random_ket(3, rng) for _ in range(4)])
            rhos = np.einsum("na,nb->nab", kets, kets.conj())
            # two pure states and one rank-2 mixture, so the factors differ in width
            rhos = np.array([rhos[0], rhos[1], (rhos[2] + rhos[3]) / 2.0])
            u = _haar_unitary(rng, 3)
            factors = _state_factors(rhos)
            match = _column_probs(rhos, u).argmin(axis=0)
            _, jac = _matched_residual(factors, match, u, gens)
            for g in range(len(gens)):
                step = np.zeros(len(gens))
                step[g] = eps
                plus, _ = _matched_residual(factors, match, u @ _generator_exp(gens, step), gens)
                minus, _ = _matched_residual(factors, match, u @ _generator_exp(gens, -step), gens)
                np.testing.assert_allclose(jac[:, g], (plus - minus) / (2.0 * eps), atol=1e-6)


class TestCriterionWitnessAgreement:
    """One-sided consistency of the exact criterion and the numerical search.

    The PP floor of a compatible triple tends to zero continuously as the
    triple approaches the saturation boundary, so no fixed positive
    threshold separates the classes for arbitrary samples; away from the
    boundary (criterion margin > 0.05) the floor stays above 1e-4.
    """

    def test_agreement_on_200_random_triples(self):
        rng = np.random.default_rng(2)
        incompatible, compatible = [], []
        for _ in range(200):
            triple = np.array([random_ket(3, rng) for _ in range(3)])
            verdict = qutrit_triple_criterion(triple[0], triple[1], triple[2])
            if verdict.incompatible:
                incompatible.append(triple)
            else:
                margin = verdict.boundary_rhs - verdict.boundary_lhs if verdict.overlap_sum < 1.0 else verdict.overlap_sum - 1.0
                compatible.append((margin, triple))
        assert len(incompatible) >= 50 and len(compatible) >= 50

        for triple in incompatible:
            result = witness_search(
                StateSet.from_kets(triple),
                WitnessSearchConfig(restarts=64, seed=2024, success_threshold=1e-8),
            )
            assert result.value < 1e-8

        for margin, triple in compatible:
            result = witness_search(
                StateSet.from_kets(triple),
                WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False),
            )
            # the search never falsely certifies a compatible triple
            assert result.value > 1e-8
            if margin > 0.05:
                assert result.value > 1e-4

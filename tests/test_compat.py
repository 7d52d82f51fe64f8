import math
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sicmub import (
    SEARCH_TOL,
    StateSet,
    WitnessSearchConfig,
    basis_ket,
    cfs_example_kets,
    cfs_example_states,
    hesse_kets,
    overlap_squared,
    pp_functional,
    projector,
    qutrit_triple_criterion,
    random_ket,
    saturation_cubic_roots,
    saturation_profile,
    validate_orthonormal_basis,
    verify_certificate,
    witness_search,
)
import sicmub.compat as compat
from sicmub.compat import (
    _POLISH_MAX_STEP,
    _SATURATION_CUBIC,
    _RestartCounts,
    _column_probs,
    _damped_update,
    _descend,
    _functional_derivatives,
    _matched_residual,
    _newton_steps,
    _pair_coefficients,
    _pair_minimum,
    _pair_products,
    _rotate_pair,
    _search_tables,
    _state_factors,
)


def computational_effects():
    return np.array([projector(basis_ket(3, j)) for j in range(3)])


def haar_unitary(rng, d):
    """A Haar-random basis drawn from one generator, with its own QR: the
    reference for the search's starts."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases)).conj()


def random_mixtures(rng, ranks, d=3):
    """One random density matrix of each given rank, a Dirichlet mixture of random kets."""
    rhos = []
    for rank in ranks:
        kets = np.array([random_ket(d, rng) for _ in range(rank)])
        rhos.append(np.einsum("r,ra,rb->ab", rng.dirichlet(np.ones(rank)), kets, kets.conj()))
    return np.array(rhos)


def _generator_exp(gens, delta):
    """``exp(i sum_g delta_g G_g)`` for a stack of Hermitian generators: the
    reference exponential for the search's moves and updates."""
    w, v = np.linalg.eigh(np.tensordot(delta, gens, axes=1))
    return (v * np.exp(1j * w)) @ v.conj().T


def functional_derivatives_reference(rhos, u, gens, probs):
    """Gradient and Hessian of the PP functional as full einsum contractions with
    the generators and masked products over the other states: the reference
    for the gathers of ``_functional_derivatives``, which must match it bit for bit."""
    a = np.einsum("...dm,nde,...ek->...nmk", u.conj(), rhos, u)
    ga = np.einsum("gmk,...nkl->...ngml", gens, a)
    b = -1j * (ga - ga.conj().swapaxes(-1, -2))
    first = np.einsum("...ngmm->...ngm", b).real
    second = np.einsum("gmk,...nhkm->...nghm", gens, b).imag
    second = second + second.swapaxes(-3, -2)
    n = probs.shape[-2]
    others = ~np.eye(n, dtype=bool)
    rest1 = np.where(others[:, :, None], probs[..., None, :, :], 1.0).prod(axis=-2)
    keep2 = others[:, None, :] & others[None, :, :] & others[:, :, None]
    rest2 = np.where(keep2[..., None], probs[..., None, None, :, :], 1.0).prod(axis=-2) * others[..., None]
    grad = np.einsum("...ngm,...nm->...g", first, rest1)
    hess = np.einsum("...nghm,...nm->...gh", second, rest1)
    hess = hess + np.einsum("...agm,...bhm,...abm->...gh", first, first, rest2)
    return grad, hess


def newton_step_reference(grad, hess, value):
    """One row's damped Newton step and the decrease it promises, solved on its own."""
    w, v = np.linalg.eigh(hess)
    magnitude = np.abs(w)
    delta = -v @ ((v.T @ grad) / np.maximum(magnitude, compat._NEWTON_CURVATURE_FLOOR * max(magnitude.max(), value)))
    return delta, -float(grad @ delta)


def compatible_triple(rng):
    """The first random pure triple compatible with margin > 0.05, as in the agreement test."""
    while True:
        triple = np.array([random_ket(3, rng) for _ in range(3)])
        verdict = qutrit_triple_criterion(triple[0], triple[1], triple[2])
        margin = verdict.boundary_rhs - verdict.boundary_lhs
        if not verdict.incompatible and verdict.overlap_sum < 1.0 and margin > 0.05:
            return triple


def polish_runs(states, cfg):
    """The search's result and, per restart the polish ran on, the value it
    starts from and the value after each accepted polish update."""
    finish, update, residual = compat._finish, compat._damped_update, compat._matched_residual
    runs, active, polishing = [], [], []

    def recording_finish(rhos, factors, us, values, gens, gather, stop_value, counts):
        active.extend([value] for value in values if value > stop_value)
        runs.extend(active)
        try:
            return finish(rhos, factors, us, values, gens, gather, stop_value, counts)
        finally:
            active.clear()

    def recording_residual(factors, match, u, gens):
        polishing.append(u)
        return residual(factors, match, u, gens)

    def recording_update(rhos, us, gens, deltas, values):
        updates = update(rhos, us, gens, deltas, values)
        if active:
            # the update takes the rows in restart order, each from its run's last value;
            # the polish rows are those whose residuals were taken in this iteration
            running = iter(active)
            for u, value, accepted in zip(us, values, updates):
                if any(np.array_equal(u, polished) for polished in polishing):
                    run = next(run for run in running if run[-1] == value)
                    if accepted is not None:
                        run.append(accepted[2])
            polishing.clear()
        return updates

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compat, "_finish", recording_finish)
        mp.setattr(compat, "_matched_residual", recording_residual)
        mp.setattr(compat, "_damped_update", recording_update)
        result = witness_search(states, cfg)
    return result, runs


def pp_floor(states, result):
    """The PP functional of the search's basis, recomputed from the states."""
    effects = np.array([np.outer(b, b.conj()) for b in np.asarray(result.basis)])
    return pp_functional(states, effects)


class TestStateSet:
    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError, match="dimension at least 2, got dim 1"):
            StateSet(dim=1, rhos=np.ones((2, 1, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        rhos = np.array(cfs_example_states().rhos)
        rhos[1, 0, 2] = bad
        with pytest.raises(ValueError, match="finite, got NaN or infinity"):
            StateSet(dim=3, rhos=rhos)

    def test_first_invalid_state_is_named_with_its_residuals(self):
        rhos = np.array(cfs_example_states().rhos)
        rhos[1] = np.diag([1.0, 0.5, -0.5])  # unit trace, not positive semidefinite
        rhos[2] = np.diag([1.0, 1.0, 0.0])  # trace 2
        with pytest.raises(ValueError) as info:
            StateSet(dim=3, rhos=rhos)
        assert str(info.value) == (
            "state 1 is not a valid density matrix: "
            "{'max_hermiticity_residual': 0.0, 'trace_residual': 0.0, 'min_eigenvalue': -0.5}"
        )

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (2, 3, 3, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"expected states of shape \(N, 3, 3\)"):
            StateSet(dim=3, rhos=np.zeros(shape))


class TestPpFunctional:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_effect_rejected(self, bad):
        # a NaN or +inf effect once gave a NaN functional
        effects = computational_effects()
        effects[0, 0, 0] = bad
        with pytest.raises(ValueError, match="^measurement entries must be finite, got NaN or infinity$"):
            pp_functional(cfs_example_states(), effects)

    def test_cfs_triple_vanishes_in_computational_basis(self):
        assert pp_functional(cfs_example_states(), computational_effects()) == pytest.approx(0.0, abs=1e-14)

    def test_first_hesse_row_vanishes_in_computational_basis(self, kets):
        states = StateSet.from_kets(kets[[0, 1, 2]])
        assert pp_functional(states, computational_effects()) == pytest.approx(0.0, abs=1e-14)

    def test_repeated_state_gives_one(self):
        rho = projector(basis_ket(3, 0))
        states = StateSet(dim=3, rhos=np.array([rho, rho]))
        assert pp_functional(states, computational_effects()) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "effects, match",
        [(np.array([np.eye(2)]), "mismatch"), (np.eye(3), r"measurement must have shape \(k, d, d\)")],
        ids=["sizes", "not-a-stack"],
    )
    def test_dimension_mismatch(self, effects, match):
        with pytest.raises(ValueError, match=match):
            pp_functional(cfs_example_states(), effects)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_non_finite_kets_rejected(self, which, bad):
        kets = cfs_example_kets()
        kets[which, 1] = bad
        with pytest.raises(ValueError, match="finite"):
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
        # at the default threshold the polish stops once it certifies, and the certificate checks out
        cfg = WitnessSearchConfig(restarts=32, seed=7)
        default = witness_search(states, cfg)
        assert default.success
        check, matching = verify_certificate(states, default.basis, cfg.success_threshold)
        assert check.passed and sorted(matching) == [0, 1, 2], (check, matching)
        # the polish goes on to 1e-20 only when asked to; the MUB distance below needs that depth,
        # since the functional rises only like the fourth power of the distance from the witness
        result = witness_search(states, WitnessSearchConfig(restarts=32, seed=7, success_threshold=1e-20))
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
            # one evaluation per exact move (three states), six moves per cycle
            assert record.probes == 6 * record.cycles

    def test_hesse_triples_certify_on_restart_zero_without_newton(self, kets):
        cfg = WitnessSearchConfig(restarts=64, seed=2024, success_threshold=1e-8)
        for triple in combinations(range(9), 3):
            result = witness_search(StateSet.from_kets(kets[list(triple)]), cfg)
            assert result.success and result.best_restart == 0 and len(result.history) == 1, triple
            (record,) = result.history
            assert record.newton_iters == 0 and record.phase in ("polish", "descent"), (triple, record)
            assert record.cycles <= 12, (triple, record)
            # one evaluation per exact move; a move that reaches the threshold ends the last cycle early
            assert 6 * (record.cycles - 1) < record.probes <= 6 * record.cycles

    def test_cfs_example_certifies_through_the_polish(self):
        states = cfs_example_states()
        default = witness_search(states)
        record = default.history[default.best_restart]
        assert default.success and record.phase == "polish" and record.newton_iters == 0, record
        check, matching = verify_certificate(states, default.basis, WitnessSearchConfig().success_threshold)
        assert check.passed and sorted(matching) == [0, 1, 2], (check, matching)
        result = witness_search(states, WitnessSearchConfig(success_threshold=1e-20))
        record = result.history[result.best_restart]
        assert result.success and record.phase == "polish" and record.newton_iters == 0, record
        assert record.final_value < 1e-20

    def test_early_stop_leaves_a_compatible_search_unchanged(self):
        # no restart of a compatible triple reaches the threshold, so stopping at success changes nothing
        states = StateSet.from_kets(compatible_triple(np.random.default_rng(8)))
        early, full = (
            witness_search(states, WitnessSearchConfig(restarts=4, seed=2024, stop_at_success=stop))
            for stop in (True, False)
        )
        assert len(early.history) == 4 and early.history == full.history
        assert (early.value, early.best_restart, early.success) == (full.value, full.best_restart, False)
        np.testing.assert_array_equal(np.asarray(early.basis), np.asarray(full.basis))

    def test_four_states_take_the_root_finding_moves(self):
        # cfs-example plus any fourth state keeps the cfs witness: every outcome still has a zero factor
        rng = np.random.default_rng(23)
        states = StateSet.from_kets(np.vstack([cfs_example_kets(), random_ket(3, rng)[None]]))
        result = witness_search(states, WitnessSearchConfig(restarts=8, seed=3))
        assert result.success and result.value < 1e-10
        assert validate_orthonormal_basis(result.basis, tol=1e-10).passed
        assert pp_floor(states, result) == pytest.approx(result.value, abs=1e-15)
        for record in result.history:
            # at most 2 * (4 // 2) critical points tried per move, six moves per cycle
            assert 6 * (record.cycles - 1) < record.probes <= 24 * record.cycles

    def test_four_identical_states_floor_is_one_twenty_seventh(self):
        rho = projector(basis_ket(3, 0))
        states = StateSet(dim=3, rhos=np.array([rho] * 4))
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=3, stop_at_success=False))
        # sum_m p_m**4 with sum_m p_m = 1 is lowest at p = 1/3
        assert result.value == pytest.approx(1.0 / 27.0, abs=1e-9)
        assert not result.success

    def test_dimension_four_certifies_an_embedded_triple_and_floors_a_pair(self):
        kets = np.hstack([cfs_example_kets(), np.zeros((3, 1))])
        states = StateSet.from_kets(kets)
        result = witness_search(states, WitnessSearchConfig(restarts=8, seed=3))
        assert result.success and np.asarray(result.basis).shape == (4, 4)
        assert validate_orthonormal_basis(result.basis, tol=1e-10).passed
        assert pp_floor(states, result) < 1e-10
        twice = StateSet.from_kets(np.array([basis_ket(4, 0)] * 2))
        result = witness_search(twice, WitnessSearchConfig(restarts=3, seed=3, stop_at_success=False))
        # sum_m p_m**2 is lowest at p = 1/4; twelve one-evaluation moves per cycle
        assert result.value == pytest.approx(0.25, abs=1e-9)
        assert all(record.probes == 12 * record.cycles for record in result.history)

    @settings(deadline=None, max_examples=30)
    @given(
        d=st.integers(3, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 2),
        m=st.integers(4, 7),
    )
    def test_a_restart_record_does_not_depend_on_the_restarts_beside_it(self, d, data, seed, k, m):
        # without early stop all restarts run the polish and Newton as stacks; restart r's record must not see the others.
        # Mixtures of high rank give every restart about the same value, so a coupled rule would act alike on
        # each; three or four pure states, plus at most one mixture, leave restarts in one stack at values
        # far apart, and several restarts beside the first one or two make such a stack likely.
        ranks = [1] * data.draw(st.integers(3, 4)) + data.draw(st.lists(st.integers(2, d), max_size=1))
        states = StateSet(dim=d, rhos=random_mixtures(np.random.default_rng(seed), ranks, d))
        short, full = (
            witness_search(states, WitnessSearchConfig(restarts=n, seed=seed, stop_at_success=False)) for n in (k, k + m)
        )
        assert short.history == full.history[:k]

    def test_newton_ends_every_restart_at_a_minimum(self):
        states = StateSet.from_kets(compatible_triple(np.random.default_rng(8)))
        rhos = np.asarray(states.rhos)
        _, gens, gather = _search_tables(3)
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=2024, stop_at_success=False))
        for record in result.history:
            assert record.phase == "newton" and record.newton_iters > 0, record
        # the winner's gradient vanishes and its Hessian is positive definite: a strict local minimum
        u = np.asarray(result.basis).T
        grad, hess = _functional_derivatives(rhos, u, gens, gather, _column_probs(rhos, u))
        assert np.linalg.norm(grad) < 1e-10 and np.linalg.eigvalsh(hess).min() > 1e-4

    def test_ties_at_a_flat_floor_go_to_the_lowest_restart(self):
        rng = np.random.default_rng(0)
        cfg = WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False)
        inexact_ties = 0
        for _ in range(6):
            rhos = []
            for _ in range(3):
                kets = np.array([random_ket(3, rng) for _ in range(2)])
                rhos.append(np.einsum("r,ra,rb->ab", rng.dirichlet(np.ones(2)), kets, kets.conj()))
            result = witness_search(StateSet(dim=3, rhos=np.array(rhos)), cfg)
            values = [r.final_value for r in result.history]
            floor = min(values)
            tied = [i for i, v in enumerate(values) if v <= floor + 1e-12 * abs(floor)]
            assert result.best_restart == tied[0]
            assert result.value == values[tied[0]]
            inexact_ties += values[tied[0]] != floor
        # rounding, not the search, would pick the winner under a strict minimum
        assert inexact_ties >= 2

    @pytest.mark.parametrize("excess, phase", [(4e-5, 0.0), (1e-4, 0.3)])
    def test_ties_within_rounding_at_a_small_floor_go_to_the_lowest_restart(self, excess, phase):
        # equal overlaps just above the saturated 1/4: compatible, margin 9e-5 and 2.3e-4,
        # floors 6e-10 and 4.6e-9, where a relative 1e-12 is far below the functional's rounding
        c = math.sqrt(0.25 + excess) * np.exp(1j * phase)
        gram = np.array([[1, c, c.conjugate()], [c.conjugate(), 1, c], [c, c.conjugate(), 1]])
        w, v = np.linalg.eigh(gram)
        kets = (v * np.sqrt(w)) @ v.conj().T  # rows: unit kets, each pair at |<a|b>|**2 = 1/4 + excess
        assert not qutrit_triple_criterion(*kets).incompatible
        result = witness_search(StateSet.from_kets(kets), WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False))
        values = [r.final_value for r in result.history]
        floor = min(values)
        # every restart ends on the one floor, yet rounding spreads them beyond the relative tie
        assert floor * (1 + 1e-12) < max(values) <= floor + 1e-15
        assert result.best_restart == 0 and result.value == values[0]

    def test_per_phase_totals_of_twelve_exhaust_searches(self):
        # the counts of every phase repeat exactly, so they pin what each phase does on these searches
        cfg = WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False)
        totals = dict.fromkeys(["cycles", "probes", "polish_iters", "polish_accepted", "newton_iters"], 0)
        for seed in range(12):
            result = witness_search(StateSet.from_kets(compatible_triple(np.random.default_rng(seed))), cfg)
            assert result.best_restart == 0, seed
            for record in result.history:
                for key in totals:
                    totals[key] += getattr(record, key)
        assert totals == {"cycles": 344, "probes": 2064, "polish_iters": 104, "polish_accepted": 96, "newton_iters": 529}

    def test_a_finisher_that_accepts_no_update_leaves_the_descents_value(self):
        # a rank-2 and a pure qubit state, where neither finisher accepts an update; recomputing the
        # functional from a contiguous copy of the descent's basis can round it an ulp lower
        rng = np.random.default_rng(1003)
        d, n = rng.integers(2, 5), rng.integers(2, 5)
        ranks = [int(rng.integers(1, 3)) for _ in range(n)]
        assert (d, ranks) == (2, [2, 1])
        states = StateSet(dim=2, rhos=random_mixtures(rng, ranks, 2))
        cfg = WitnessSearchConfig(restarts=1, seed=3)
        rhos = np.asarray(states.rhos)
        moves, _, _ = _search_tables(2)
        start = haar_unitary(np.random.default_rng([cfg.seed, 0]), 2)
        descent, _, _ = _descend(rhos, _state_factors(rhos), start, moves, cfg.success_threshold, _RestartCounts())
        (record,) = witness_search(states, cfg).history
        assert (record.polish_iters, record.polish_accepted, record.newton_iters) == (1, 0, 1), record
        assert record.phase == "descent" and record.final_value == descent, record

    def test_polish_is_abandoned_on_compatible_triples(self):
        # without a zero to converge to, the polish stops after its first update that cuts less than 4x;
        # over these twelve triples no restart took more than 3 polish iterations (17 without the rule)
        cfg = WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False)
        for seed in range(12):
            result = witness_search(StateSet.from_kets(compatible_triple(np.random.default_rng(seed))), cfg)
            assert all(1 <= record.polish_iters <= 3 for record in result.history), (seed, result.history)

    def test_every_polish_update_but_the_last_cuts_the_value_fourfold(self, kets):
        certify = WitnessSearchConfig(restarts=64, seed=2024, success_threshold=1e-8)
        exhaust = WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False)
        searches = [(cfs_example_states(), WitnessSearchConfig())]
        searches += [(StateSet.from_kets(kets[list(t)]), certify) for t in ((0, 1, 4), (0, 2, 7), (3, 5, 6))]
        searches += [(StateSet.from_kets(compatible_triple(np.random.default_rng(s))), exhaust) for s in (0, 4, 11)]
        long_runs = 0
        for states, cfg in searches:
            result, runs = polish_runs(states, cfg)
            polished = [record for record in result.history if record.polish_iters > 0]
            assert len(runs) == len(polished)
            for record, values in zip(polished, runs):
                assert record.polish_accepted == len(values) - 1, (record, values)
                cuts = [after / before for before, after in zip(values, values[1:])]
                assert all(cut <= 0.25 for cut in cuts[:-1]), (record, values)
                if cuts and 0.25 < cuts[-1] and values[-1] >= 1e-26:
                    # abandoned: the update that fell short was the polish's last iteration
                    assert record.polish_iters == record.polish_accepted, (record, values)
                long_runs += len(cuts) >= 3
        # the saturated inputs converge quadratically, so the rule lets their polish run on
        assert long_runs >= 4

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1e-10])
    def test_config_rejects_non_positive_or_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="success_threshold"):
            WitnessSearchConfig(success_threshold=threshold)

    @pytest.mark.parametrize("field, value", [("restarts", 0), ("seed", -1)])
    def test_config_rejects_non_positive_restarts_and_negative_seeds(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must"):
            WitnessSearchConfig(**{field: value})


def certifiable_set(rng, d, n, mixed):
    """``n`` random states in dimension ``d``, pure or of random rank, with a
    planted certificate: outcome m of a Haar basis is assigned to state
    ``m % n``, and each state's kets avoid the outcomes assigned to it."""
    u = haar_unitary(rng, d)
    rhos = []
    for a in range(n):
        free = u[:, [m for m in range(d) if m % n != a]]
        rank = int(rng.integers(1, free.shape[1] + 1)) if mixed else 1
        kets = (free @ (rng.standard_normal((free.shape[1], rank)) + 1j * rng.standard_normal((free.shape[1], rank)))).T
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        rhos.append(np.einsum("r,ra,rb->ab", rng.dirichlet(np.ones(rank)), kets, kets.conj()))
    return np.array(rhos)


class TestVerifyCertificate:
    def test_cfs_witness_passes_with_a_bijective_matching(self):
        check, matching = verify_certificate(cfs_example_states(), np.eye(3), 1e-12)
        assert check.passed and matching == (0, 1, 2)
        assert check.residuals == {"orthonormality_residual": 0.0, "pp_functional": 0.0, "max_matched_probability": 0.0}

    def test_a_haar_basis_fails_on_the_functional(self):
        basis = haar_unitary(np.random.default_rng(3), 3).T
        check, matching = verify_certificate(cfs_example_states(), basis, 1e-8)
        assert not check.passed
        assert check.residuals["orthonormality_residual"] <= 1e-8 and check.residuals["pp_functional"] > 1e-3
        assert check.residuals["max_matched_probability"] > 1e-3 and len(matching) == 3

    def test_a_non_orthonormal_basis_fails_on_its_residual(self):
        basis = np.eye(3, dtype=complex)
        basis[1, 0] = 1e-6  # outcome 1 still gets probability zero from state 1, so the functional vanishes
        check, _ = verify_certificate(cfs_example_states(), basis, 1e-8)
        assert not check.passed
        assert check.residuals["pp_functional"] <= 1e-8
        assert check.residuals["orthonormality_residual"] == pytest.approx(1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_basis_rejected(self, bad):
        basis = np.eye(3, dtype=complex)
        basis[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            verify_certificate(cfs_example_states(), basis, 1e-8)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3), (3,)])
    def test_dimension_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_certificate(cfs_example_states(), np.ones(shape), 1e-8)

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, math.inf])
    def test_nan_negative_or_infinite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            verify_certificate(cfs_example_states(), np.eye(3), tol)

    @settings(deadline=None, max_examples=100)
    @given(
        d=st.integers(2, 4),
        n=st.integers(2, 5),
        mixed=st.booleans(),
        planted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        threshold=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
    )
    def test_every_successful_early_stop_search_passes_at_its_threshold(self, d, n, mixed, planted, seed, threshold):
        rng = np.random.default_rng(seed)
        if planted:
            rhos = certifiable_set(rng, d, n, mixed)
        else:
            rhos = random_mixtures(rng, [int(rng.integers(1, d + 1)) if mixed else 1 for _ in range(n)], d)
        states = StateSet(dim=d, rhos=rhos)
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=seed, success_threshold=threshold))
        if result.success:
            check, matching = verify_certificate(states, result.basis, threshold)
            assert check.passed, (check, matching)
            assert check.residuals["pp_functional"] == pytest.approx(result.value, abs=1e-15)


class TestPairGenerators:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_table_order_and_squares(self, d):
        moves, gens, _ = _search_tables(d)
        assert len(moves) == len(gens) == d * (d - 1)
        assert [(j, k) for j, k, _ in moves] == [(j, k) for j in range(d) for k in range(j + 1, d) for _ in range(2)]
        for (j, k, c), g in zip(moves, gens):
            np.testing.assert_array_equal(g, g.conj().T)
            np.testing.assert_array_equal(g @ g, np.diag([1.0 if i in (j, k) else 0.0 for i in range(d)]))
            # each move's coefficient is written beside its generator, not read off it
            assert c == 1j * g[k, j]
        # symmetric |j><k| + |k><j| first, then antisymmetric i|k><j| - i|j><k|
        for sym, anti, (j, k, _) in zip(gens[::2], gens[1::2], moves[::2]):
            assert sym[j, k] == sym[k, j] == 1.0 and anti[k, j] == 1j and anti[j, k] == -1j

    @settings(deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), angle=st.floats(-7.0, 7.0))
    def test_pair_update_is_the_generator_exponential(self, d, seed, angle):
        u = haar_unitary(np.random.default_rng(seed), d)
        for (j, k, _), g in zip(*_search_tables(d)[:2]):
            w, v = np.linalg.eigh(angle * g)
            expected = u @ (v * np.exp(1j * w)) @ v.conj().T
            moved = u.copy()
            moved[:, j], moved[:, k] = _rotate_pair(u[:, j].tolist(), u[:, k].tolist(), 1j * g[k, j], angle)
            np.testing.assert_allclose(moved, expected, atol=1e-12)
            np.testing.assert_allclose(u @ _generator_exp(g[None], np.array([angle])), expected, atol=1e-12)

    @settings(deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), length=st.floats(1e-3, 3.0))
    @example(d=3, seed=0, length=0.1)
    @example(d=3, seed=0, length=2.0)
    def test_each_halving_is_the_generator_exponential_of_the_capped_step(self, d, seed, length):
        rng = np.random.default_rng(seed)
        rhos = random_mixtures(rng, [1, 2, d], d)
        u = haar_unitary(rng, d)
        _, gens, _ = _search_tables(d)
        direction = rng.standard_normal(len(gens))
        delta = length * direction / np.linalg.norm(direction)
        capped = delta * min(1.0, _POLISH_MAX_STEP / length)
        candidates = []

        def recording(rhos_arg, bases):
            candidates.extend(bases)
            return _column_probs(rhos_arg, bases)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compat, "_column_probs", recording)
            # no candidate beats -inf, so all six halvings are tried and none is taken
            assert _damped_update(rhos, u[None], gens, [delta], [-math.inf]) == [None]
        assert len(candidates) == 6
        for k, candidate in enumerate(candidates):
            np.testing.assert_allclose(candidate, u @ _generator_exp(gens, capped / 2**k), atol=1e-12)
        ((basis, probs, value),) = _damped_update(rhos, u[None], gens, [delta], [math.inf])
        np.testing.assert_array_equal(basis, candidates[0])
        np.testing.assert_array_equal(probs, _column_probs(rhos, basis))
        assert value == probs.prod(axis=0).sum()

    @settings(deadline=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_stacked_update_is_each_restarts_own_update(self, d, seed):
        rng = np.random.default_rng(seed)
        rhos = random_mixtures(rng, [1, 2, d], d)
        _, gens, _ = _search_tables(d)
        us = np.array([haar_unitary(rng, d) for _ in range(5)])
        deltas = [length * rng.standard_normal(len(gens)) for length in (0.05, 0.3, 1.0, 3.0, 0.7)]
        current = [float(_column_probs(rhos, u).prod(axis=0).sum()) for u in us]
        # taken at once, never, or after as many halvings as the landscape asks for
        values = [math.inf, current[1], -math.inf, current[3], current[4]]
        stacked = _damped_update(rhos, us, gens, deltas, values)
        assert stacked[0] is not None and stacked[2] is None
        for r, update in enumerate(stacked):
            (alone,) = _damped_update(rhos, us[r : r + 1], gens, [deltas[r]], [values[r]])
            assert (update is None) == (alone is None)
            if update is not None:
                np.testing.assert_array_equal(update[0], alone[0])
                np.testing.assert_array_equal(update[1], alone[1])
                assert update[2] == alone[2]

    @settings(deadline=None, max_examples=30)
    @given(
        d=st.integers(2, 4), data=st.data(), seed=st.integers(0, 2**32 - 1), stop_value=st.sampled_from([0.0, 1e-10])
    )
    def test_stacked_finish_is_each_restarts_own_finish(self, d, data, seed, stop_value):
        ranks = data.draw(st.lists(st.integers(1, d), min_size=2, max_size=4))
        rng = np.random.default_rng(seed)
        rhos = random_mixtures(rng, ranks, d)
        factors = _state_factors(rhos)
        moves, gens, gather = _search_tables(d)
        # five descended bases, as the search hands them to the finisher
        values, bases, _ = zip(
            *(_descend(rhos, factors, haar_unitary(rng, d), moves, stop_value, _RestartCounts()) for _ in range(5))
        )
        us = np.array(bases)
        counts = [_RestartCounts() for _ in us]
        stacked = compat._finish(rhos, factors, us, list(values), gens, gather, stop_value, counts)
        for r, (value, basis, phase) in enumerate(stacked):
            alone_counts = _RestartCounts()
            ((alone_value, alone_basis, alone_phase),) = compat._finish(
                rhos, factors, us[r : r + 1], [values[r]], gens, gather, stop_value, [alone_counts]
            )
            assert value == alone_value and phase == alone_phase and counts[r] == alone_counts
            np.testing.assert_array_equal(basis, alone_basis)

    @pytest.mark.parametrize("case", ["one Newton row leaves on the gain test", "every Newton row leaves on it", "none above"])
    def test_finish_branches_are_each_restarts_own_finish(self, case):
        rng = np.random.default_rng(1)
        kets = compatible_triple(rng)
        rhos = np.einsum("na,nb->nab", kets, kets.conj())
        factors = _state_factors(rhos)
        moves, gens, gather = _search_tables(3)
        descended = [_descend(rhos, factors, haar_unitary(rng, 3), moves, 0.0, _RestartCounts())[:2] for _ in range(2)]
        values, us = zip(*descended)
        # both restarts finished: Newton left each at a floor, where its next step promises no gain
        finished = compat._finish(rhos, factors, us, list(values), gens, gather, 0.0, [_RestartCounts(), _RestartCounts()])
        floors = [final[:2] for final in finished]
        entries, stop_value = {
            "one Newton row leaves on the gain test": ([floors[0], descended[1]], 0.0),
            "every Newton row leaves on it": (floors, 0.0),
            "none above": (descended, max(values)),
        }[case]
        values, us = (list(column) for column in zip(*entries))
        events, steps, update = [], compat._newton_steps, compat._damped_update

        def recording_steps(grads, hesses, values):
            deltas, gains = steps(grads, hesses, values)
            events.append(("gaining", (gains > compat._NEWTON_MIN_GAIN * values).tolist()))
            return deltas, gains

        def recording_update(rhos, us, gens, deltas, values):
            events.append(("update", len(us)))
            return update(rhos, us, gens, deltas, values)

        counts = [_RestartCounts() for _ in us]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compat, "_newton_steps", recording_steps)
            mp.setattr(compat, "_damped_update", recording_update)
            stacked = compat._finish(rhos, factors, us, values, gens, gather, stop_value, counts)
        if case == "one Newton row leaves on the gain test":
            # the row that leaves is not in the update that follows
            at = events.index(("gaining", [False, True]))
            assert events[at + 1] == ("update", 1)
        elif case == "every Newton row leaves on it":
            assert events[-1] == ("gaining", [False, False])
        else:
            assert events == [] and all(c == _RestartCounts() for c in counts)
            assert all(final[0] == v and final[1] is u and final[2] is None for final, v, u in zip(stacked, values, us))
        for r, (value, basis, phase) in enumerate(stacked):
            alone_counts = _RestartCounts()
            ((alone_value, alone_basis, alone_phase),) = compat._finish(
                rhos, factors, us[r : r + 1], values[r : r + 1], gens, gather, stop_value, [alone_counts]
            )
            assert value == alone_value and phase == alone_phase and counts[r] == alone_counts
            np.testing.assert_array_equal(basis, alone_basis)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cached_start_is_the_generators_own_draw(self, d):
        for seed in (0, 7, 2024):
            for r in range(4):
                start = compat._haar_start(seed, r, d)
                assert start.tobytes() == haar_unitary(np.random.default_rng([seed, r]), d).tobytes()

    def test_cached_start_is_read_only(self):
        start = compat._haar_start(2024, 0, 3)
        with pytest.raises(ValueError, match="read-only"):
            start[0, 0] = 0.0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cached_gather_is_the_generators_nonzero_entries(self, d):
        _, gens, gather = _search_tables(d)
        gi, mi, ki, coef = gather
        assert [a.tolist() for a in (gi, mi, ki)] == [a.tolist() for a in np.nonzero(gens)]
        assert coef.tobytes() == gens[gi, mi, ki].tobytes()
        for table in gather:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_a_search_gives_the_same_result_cold_and_warm(self):
        searches = [
            (cfs_example_states(), WitnessSearchConfig(restarts=4, seed=11)),
            (
                StateSet.from_kets(compatible_triple(np.random.default_rng(3))),
                WitnessSearchConfig(restarts=8, seed=11, stop_at_success=False),
            ),
        ]
        compat._haar_start.cache_clear()
        cold = [witness_search(states, cfg) for states, cfg in searches]
        for seed in range(5):
            for d in (2, 3, 4):
                for r in range(8):
                    compat._haar_start(seed, r, d)
        hits = compat._haar_start.cache_info().hits
        warm = [witness_search(states, cfg) for states, cfg in searches]
        # the early-stop search takes restart 0 from the cache, the other search all eight
        assert compat._haar_start.cache_info().hits == hits + 1 + 8
        for a, b in zip(cold, warm):
            assert (a.history, a.value, a.best_restart) == (b.history, b.value, b.best_restart)
            assert a.basis.tobytes() == b.basis.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_factors_are_each_states_own_factors(self, d):
        rng = np.random.default_rng(50 + d)
        rhos = random_mixtures(rng, list(range(1, d + 1)) * 2, d)
        factors = _state_factors(rhos)
        assert [w.shape[1] for w in factors] == list(range(1, d + 1)) * 2
        for rho, factor in zip(rhos, factors):
            w, v = np.linalg.eigh(rho)
            keep = w > 1e-12
            np.testing.assert_array_equal(factor, v[:, keep] * np.sqrt(w[keep]))

    @settings(deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 3), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        angles=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=3),
    )
    def test_closed_form_probe_is_the_functional_of_the_rotated_basis(self, ranks, seed, angles):
        rng = np.random.default_rng(seed)
        rhos = random_mixtures(rng, ranks)
        u = haar_unitary(rng, 3)
        factors = _state_factors(rhos)
        assert [w.shape[1] for w in factors] == ranks
        owners = [n for n, w in enumerate(factors) for _ in range(w.shape[1])]
        amps = (np.concatenate(factors, axis=1).conj().T @ u).T
        products = _column_probs(rhos, u).prod(axis=0)
        for (j, k, _), g in zip(*_search_tables(3)[:2]):
            coeffs = _pair_coefficients(amps[j].tolist(), amps[k].tolist(), 1j * g[k, j], owners, len(ranks))
            rest = products.sum() - products[j] - products[k]
            for angle in angles:
                expected = _column_probs(rhos, u @ _generator_exp(g[None], np.array([angle]))).prod(axis=0).sum()
                assert rest + sum(_pair_products(coeffs, angle)) == pytest.approx(expected, abs=1e-12)

    @settings(deadline=None)
    @given(ranks=st.lists(st.integers(1, 3), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_move_reaches_the_minimum_of_its_rotation(self, ranks, seed):
        rng = np.random.default_rng(seed)
        rhos = random_mixtures(rng, ranks)
        u = haar_unitary(rng, 3)
        factors = _state_factors(rhos)
        owners = [n for n, w in enumerate(factors) for _ in range(w.shape[1])]
        amps = (np.concatenate(factors, axis=1).conj().T @ u).T
        products = _column_probs(rhos, u).prod(axis=0)
        grid = np.linspace(-np.pi / 4.0, np.pi / 4.0, 2001)
        for (j, k, _), g in zip(*_search_tables(3)[:2]):
            coeffs = _pair_coefficients(amps[j].tolist(), amps[k].tolist(), 1j * g[k, j], owners, len(ranks))
            rest = products.sum() - products[j] - products[k]
            angle, pair, evaluations = _pair_minimum(coeffs)
            assert pair == _pair_products(coeffs, angle)
            # one closed-form angle up to three states, else the derivative's roots in exp(4it)
            assert evaluations == (1 if len(ranks) <= 3 else 2 * (len(ranks) // 2))
            alpha, beta, gamma = np.array(coeffs).T[:, :, None]
            h = beta * np.cos(2.0 * grid) + gamma * np.sin(2.0 * grid)
            on_grid = rest + (alpha + h).prod(axis=0) + (alpha - h).prod(axis=0)
            assert rest + pair[0] + pair[1] <= on_grid.min() + 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_newton_derivatives_match_central_differences(self, d):
        rng = np.random.default_rng(37 + d)
        _, gens, gather = _search_tables(d)
        eps = 1e-4
        steps = np.eye(len(gens)) * eps
        for _ in range(4):
            # four states of ranks 1, 1, 2 and d, so the two-state products of the Hessian see every rank
            rhos = random_mixtures(rng, [1, 1, 2, d], d)
            u = haar_unitary(rng, d)

            def functional(delta):
                return _column_probs(rhos, u @ _generator_exp(gens, delta)).prod(axis=0).sum()

            grad, hess = _functional_derivatives(rhos, u, gens, gather, _column_probs(rhos, u))
            np.testing.assert_allclose(hess, hess.T, atol=1e-15)
            for g, step in enumerate(steps):
                assert grad[g] == pytest.approx((functional(step) - functional(-step)) / (2.0 * eps), abs=1e-8)
                for h, other in enumerate(steps):
                    second = functional(step + other) - functional(step - other) - functional(other - step)
                    second += functional(-step - other)
                    assert hess[g, h] == pytest.approx(second / (4.0 * eps**2), abs=1e-6)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_derivatives_are_the_einsum_references_bit_for_bit(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        _, gens, gather = _search_tables(d)
        # all pure, then mixed states of every rank 1..d, on one basis and on stacks of 1, 3 and 8
        for ranks in [[1] * n] + [[1 + (a + shift) % d for a in range(n)] for shift in range(d)]:
            rhos = random_mixtures(rng, ranks, d)
            for u in [haar_unitary(rng, d)] + [np.array([haar_unitary(rng, d) for _ in range(r)]) for r in (1, 3, 8)]:
                probs = _column_probs(rhos, u)
                grad, hess = _functional_derivatives(rhos, u, gens, gather, probs)
                expected_grad, expected_hess = functional_derivatives_reference(rhos, u, gens, probs)
                assert grad.tobytes() == expected_grad.tobytes() and grad.shape == expected_grad.shape
                assert hess.tobytes() == expected_hess.tobytes() and hess.shape == expected_hess.shape

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_newton_steps_are_each_rows_own_solve(self, d):
        rng = np.random.default_rng(53 + d)
        _, gens, gather = _search_tables(d)
        for n in (2, 3, 4, 5):
            rhos = random_mixtures(rng, [1 + a % d for a in range(n)], d)
            us = np.array([haar_unitary(rng, d) for _ in range(8)])
            probs = _column_probs(rhos, us)
            grads, hesses = _functional_derivatives(rhos, us, gens, gather, probs)
            values = probs.prod(axis=1).sum(axis=1)
            # a row whose value outweighs every curvature, and a row whose gradient is too small to promise a gain
            values[1] = 1e9
            grads[2] *= 1e-12
            for stack in (slice(None), slice(0, 1), slice(2, 5)):
                steps, gains = _newton_steps(grads[stack], hesses[stack], values[stack])
                expected = [newton_step_reference(*row) for row in zip(grads[stack], hesses[stack], values[stack])]
                assert steps.tobytes() == np.array([step for step, _ in expected]).tobytes()
                assert gains.tobytes() == np.array([gain for _, gain in expected]).tobytes()
            # the last stack starts at the row of the tiny gradient, whose step promises too little
            assert (gains > compat._NEWTON_MIN_GAIN * values[2:5]).tolist() == [False, True, True]

    def test_polish_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(31)
        _, gens, _ = _search_tables(3)
        eps = 1e-6
        for _ in range(10):
            kets = np.array([random_ket(3, rng) for _ in range(4)])
            rhos = np.einsum("na,nb->nab", kets, kets.conj())
            # two pure states and one rank-2 mixture, so the factors differ in width
            rhos = np.array([rhos[0], rhos[1], (rhos[2] + rhos[3]) / 2.0])
            u = haar_unitary(rng, 3)
            factors = _state_factors(rhos)
            match = _column_probs(rhos, u).argmin(axis=0)
            _, jac = _matched_residual(factors, match, u, gens)
            for g in range(len(gens)):
                step = np.zeros(len(gens))
                step[g] = eps
                plus, _ = _matched_residual(factors, match, u @ _generator_exp(gens, step), gens)
                minus, _ = _matched_residual(factors, match, u @ _generator_exp(gens, -step), gens)
                np.testing.assert_allclose(jac[:, g], (plus - minus) / (2.0 * eps), atol=1e-6)


def bits(values):
    """Each complex or float entry as the hex forms of its parts: equal exactly when the bits are, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


#: The pure-triple path against the helper chain: (d, ranks) of a seeded random set, the
#: search's value, and its totals of cycles and probes, as the helper chain alone gives them.
PATH_CASES = {
    "rank-2 state in a triple": (3, [1, 2, 1], "0x1.98988c3f9f41ap-7", 9, 54),
    "two pure states": (3, [1, 1], "0x1.308a31f1a9330p-6", 9, 54),
    "four pure states": (3, [1, 1, 1, 1], "-0x1.07a384e6f6a09p-58", 13, 312),
    "pure qubit triple": (2, [1, 1, 1], "0x1.5592c7134659ep-5", 9, 18),
    "pure ququart triple": (4, [1, 1, 1], "-0x1.4c3558ab018c0p-65", 123, 1474),
}


def straight_line_move(amps, col_products, move, value):
    """One move of ``_pure_triple_cycle``, in place; returns the angles its ``math.cos``
    calls received (``2t``, then ``t`` if the move rotates), the value and the probes."""
    cosines = []

    def recording_cos(t):
        cosines.append(t)
        return math.cos(t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compat, "math", SimpleNamespace(atan2=math.atan2, cos=recording_cos, sin=math.sin))
        moved, probes = compat._pure_triple_cycle(amps, col_products, [move], value, 0.0)
    return cosines, moved, probes


class TestPureTripleCycle:
    """The descent's straight-line move for three one-column factors is the helper chain,
    ``_pair_coefficients``, ``_pair_minimum`` and ``_rotate_pair``, bit for bit."""

    @settings(deadline=None, max_examples=200)
    @given(
        source=st.sampled_from(["random", "hesse", "cfs"]),
        triple=st.sampled_from(list(combinations(range(9), 3))),
        move=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
        rotated=st.booleans(),
        start=st.sampled_from(["identity", "haar"]),
    )
    @example(source="cfs", triple=(0, 1, 2), move=1, seed=0, rotated=False, start="identity")
    @example(source="hesse", triple=(0, 3, 6), move=0, seed=0, rotated=False, start="identity")
    def test_straight_line_move_is_the_helper_chain_bit_for_bit(self, source, triple, move, seed, rotated, start):
        rng = np.random.default_rng(seed)
        if source == "random":
            d = 2 + seed % 3
            kets = np.array([random_ket(d, rng) for _ in range(3)])
        else:
            # exact zero entries: from the identity start their amplitudes carry signed zeros
            d = 3
            kets = cfs_example_kets() if source == "cfs" else hesse_kets()[list(triple)]
        if rotated:
            kets = kets @ haar_unitary(rng, d).T
        u = np.eye(d, dtype=complex) if start == "identity" else haar_unitary(rng, d)
        moves = _search_tables(d)[0]
        j, k, c = moves[move % len(moves)]
        # the descent's amplitude rows, from the kets as one-column factors
        amps = (np.concatenate([kets.T, np.eye(d)], axis=1).conj().T @ u).T.tolist()

        coeffs = _pair_coefficients(amps[j], amps[k], c, [0, 1, 2], 3)
        angle, (plus, minus), evaluations = _pair_minimum(coeffs)
        rotated_j, rotated_k = _rotate_pair(amps[j], amps[k], c, angle)

        # every column's product starts at 4, so the move lowers the value and rotates its columns
        col_products = [4.0] * d
        value = 4.0 * d
        cosines, moved, probes = straight_line_move(amps, col_products, (j, k, c), value)
        assert [t.hex() for t in cosines] == [(2.0 * angle).hex(), angle.hex()]
        assert bits([col_products[j], col_products[k], moved]) == bits([plus, minus, value - 4.0 - 4.0 + plus + minus])
        assert bits(amps[j]) == bits(rotated_j) and bits(amps[k]) == bits(rotated_k)
        assert probes == evaluations == 1

    def test_a_negative_zero_term_keeps_the_helpers_angle(self):
        # Hesse triple (0, 3, 6) from the identity start: the first move's gamma terms are all zero,
        # the third -0.0; the helper's 0.0 start makes it +0.0, and without it atan2 turns the angle
        # from pi/4 to -pi/4
        amps = (np.concatenate([hesse_kets()[[0, 3, 6]].T, np.eye(3)], axis=1).conj().T).T.tolist()
        j, k, c = _search_tables(3)[0][0]
        terms = [(c * a.conjugate() * b).real for a, b in zip(amps[j][:3], amps[k][:3])]
        assert terms == [0.0] * 3 and [math.copysign(1.0, t) for t in terms] == [1.0, 1.0, -1.0]
        coeffs = _pair_coefficients(amps[j], amps[k], c, [0, 1, 2], 3)
        unsigned = [(alpha, beta, t) for (alpha, beta, _), t in zip(coeffs, terms)]
        assert (_pair_minimum(coeffs)[0], _pair_minimum(unsigned)[0]) == (math.pi / 4.0, -math.pi / 4.0)
        cosines, _, _ = straight_line_move(amps, [4.0] * 3, (j, k, c), 12.0)
        assert cosines[-1] == math.pi / 4.0

    @pytest.mark.parametrize("case", PATH_CASES, ids=list(PATH_CASES))
    def test_each_set_takes_its_path_with_unchanged_results(self, monkeypatch, case):
        d, ranks, value, cycles, probes = PATH_CASES[case]
        pure_triple = ranks == [1, 1, 1]
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            monkeypatch.setattr(compat, name, wrapper)

        for name in ("_pair_coefficients", "_pair_minimum", "_pair_products", "_rotate_pair", "_pure_triple_cycle"):
            counted(name, getattr(compat, name))
        states = StateSet(dim=d, rhos=random_mixtures(np.random.default_rng(40 + list(PATH_CASES).index(case)), ranks, d))
        result = witness_search(states, WitnessSearchConfig(restarts=4, seed=11, stop_at_success=False))
        assert result.value.hex() == value
        assert (sum(r.cycles for r in result.history), sum(r.probes for r in result.history)) == (cycles, probes)
        if pure_triple:
            # one call per cycle, and no helper at all
            assert calls == Counter({"_pure_triple_cycle": cycles})
        else:
            assert calls["_pure_triple_cycle"] == 0
            assert calls["_pair_coefficients"] == calls["_pair_minimum"] > 0
            assert 0 < calls["_rotate_pair"] <= calls["_pair_minimum"]
            if len(ranks) <= 3:
                assert calls["_pair_minimum"] == probes  # one closed-form angle per move


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

        totals = dict.fromkeys(["cycles", "probes", "polish_iters", "polish_accepted", "newton_iters"], 0)
        phases = Counter()
        for triple in incompatible:
            result = witness_search(
                StateSet.from_kets(triple),
                WitnessSearchConfig(restarts=64, seed=2024, success_threshold=1e-8),
            )
            assert result.value < 1e-8
            for record in result.history:
                phases[record.phase] += 1
                for key in totals:
                    totals[key] += getattr(record, key)
        # the early-stop counts repeat exactly too, polish-to-Newton hand-overs under the threshold included
        assert len(incompatible) == 91
        assert totals == {"cycles": 1224, "probes": 7241, "polish_iters": 76, "polish_accepted": 70, "newton_iters": 110}
        assert phases == {"descent": 45, "polish": 24, "newton": 22}

        for margin, triple in compatible:
            result = witness_search(
                StateSet.from_kets(triple),
                WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False),
            )
            # the search never falsely certifies a compatible triple
            assert result.value > 1e-8
            if margin > 0.05:
                assert result.value > 1e-4

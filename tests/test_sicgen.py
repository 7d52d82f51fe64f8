import numpy as np
import pytest

from sicmub import (
    NotSicError,
    SicSet,
    generate_sic_orbit,
    hesse_kets,
    is_sic,
    random_density_matrix,
    random_ket,
    reconstruct_from_probabilities,
    sic_probabilities,
    trace_product,
    wh_displacement,
)

OMEGA = np.exp(2j * np.pi / 3)


class TestDisplacements:
    def test_zero_label_is_identity(self):
        np.testing.assert_allclose(wh_displacement(3, 0, 0), np.eye(3), atol=1e-15)

    def test_pure_shift_is_cyclic_permutation(self):
        x = wh_displacement(3, 1, 0)
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            shifted = x @ e
            assert shifted[(j + 1) % 3] == pytest.approx(1.0)

    def test_mixed_label_phase(self):
        # tau = -exp(i pi/3) = exp(4 pi i/3) = omega**2, so (1,1) -> omega**2 X Z
        x = wh_displacement(3, 1, 0)
        z = wh_displacement(3, 0, 1)
        np.testing.assert_allclose(wh_displacement(3, 1, 1), OMEGA**2 * (x @ z), atol=1e-14)

    def test_displacements_are_unitary(self):
        for a in range(3):
            for b in range(3):
                d = wh_displacement(3, a, b)
                np.testing.assert_allclose(d @ d.conj().T, np.eye(3), atol=1e-14)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            wh_displacement(3, 3, 0)


class TestOrbit:
    def test_orbit_of_standard_fiducial_reproduces_printed_set(self, sic):
        orbit = generate_sic_orbit(hesse_kets()[0])
        np.testing.assert_allclose(orbit.projectors, sic.projectors, rtol=0, atol=1e-12)
        assert is_sic(orbit, tol=1e-12).passed

    def test_basis_ket_is_not_a_fiducial(self):
        with pytest.raises(NotSicError) as excinfo:
            generate_sic_orbit(np.array([1.0, 0.0, 0.0]))
        assert excinfo.value.residual > 0.1

    def test_identity_label_returns_fiducial_projector(self):
        fid = random_ket(3, np.random.default_rng(5))
        try:
            orbit = generate_sic_orbit(fid)
        except NotSicError:
            orbit = None
        # whether or not the orbit is a SIC, the first displacement is the identity
        kets = np.array([wh_displacement(3, a, b) @ fid for b in range(3) for a in range(3)])
        np.testing.assert_allclose(np.outer(kets[0], kets[0].conj()), np.outer(fid, fid.conj()), atol=1e-14)
        if orbit is not None:
            np.testing.assert_allclose(np.asarray(orbit.projectors)[0], np.outer(fid, fid.conj()), atol=1e-14)


class TestHesseSic:
    def test_satisfies_overlap_condition(self, sic):
        check = is_sic(sic, tol=1e-12)
        assert check.passed
        assert check.residuals["max_gram_residual"] < 1e-12

    def test_first_and_fourth_ket_overlap(self, kets):
        # <psi0|psi3> = (omega + conj(omega))/2 = -1/2
        inner = np.vdot(kets[0], kets[3])
        assert inner == pytest.approx(-0.5, abs=1e-14)
        assert abs(inner) ** 2 == pytest.approx(0.25, abs=1e-14)

    def test_second_projector_is_shift_conjugate_of_first(self, projectors):
        x = wh_displacement(3, 1, 0)
        np.testing.assert_allclose(projectors[1], x @ projectors[0] @ x.conj().T, atol=1e-14)


class TestIsSic:
    def test_corrupted_set_fails(self, projectors):
        bad = np.array(projectors)
        bad[0] = np.diag([1.0, 0.0, 0.0])
        check = is_sic(SicSet(dim=3, projectors=bad), tol=1e-10)
        assert not check.passed

    def test_global_phase_is_invisible(self, kets):
        phased = np.array(kets)
        phased[2] = phased[2] * np.exp(1j * np.pi / 7)
        proj = np.einsum("ia,ib->iab", phased, phased.conj())
        assert is_sic(SicSet(dim=3, projectors=proj), tol=1e-12).passed


class TestProbabilityRepresentation:
    def test_sic_state_distribution(self, sic, projectors):
        p = sic_probabilities(projectors[0], sic)
        expected = np.full(9, 1.0 / 12.0)
        expected[0] = 1.0 / 3.0
        np.testing.assert_allclose(p, expected, atol=1e-14)

    def test_maximally_mixed_is_uniform(self, sic):
        np.testing.assert_allclose(sic_probabilities(np.eye(3) / 3.0, sic), np.full(9, 1.0 / 9.0), atol=1e-14)

    def test_mub_state_distribution(self, sic, mubs):
        p = sic_probabilities(mubs.projectors[0, 0], sic)  # row 0 of LINES: (0, 1, 2)
        expected = np.full(9, 1.0 / 6.0)
        expected[[0, 1, 2]] = 0.0
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_reconstruction_round_trip_on_sic_state(self, sic, projectors):
        p = sic_probabilities(projectors[0], sic)
        np.testing.assert_allclose(reconstruct_from_probabilities(p, sic), projectors[0], atol=1e-12)

    def test_reconstruction_of_line_vector_is_balanced_superposition(self, sic):
        p = np.full(9, 1.0 / 6.0)
        p[[0, 1, 2]] = 0.0
        v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        np.testing.assert_allclose(reconstruct_from_probabilities(p, sic), np.outer(v, v.conj()), atol=1e-12)

    def test_uniform_reconstructs_maximally_mixed(self, sic):
        np.testing.assert_allclose(
            reconstruct_from_probabilities(np.full(9, 1.0 / 9.0), sic), np.eye(3) / 3.0, atol=1e-14
        )

    # tr(rho sigma) = d (d + 1) p.q - 1 = 12 p.q - 1 for qutrits

    def test_inner_product_of_sic_state_with_itself(self, sic, projectors):
        p = sic_probabilities(projectors[0], sic)
        assert 12.0 * np.dot(p, p) - 1.0 == pytest.approx(1.0, abs=1e-12)

    def test_inner_product_of_parallel_lines_vanishes(self, sic, mubs):
        # rows 0 and 1 of LINES: (0, 1, 2) and (3, 4, 5)
        p, q = (sic_probabilities(rho, sic) for rho in mubs.projectors[0, :2])
        assert 12.0 * np.dot(p, q) - 1.0 == pytest.approx(0.0, abs=1e-12)

    def test_inner_product_across_striations_is_third(self, sic, mubs):
        # rows 0 and 3 of LINES: (0, 1, 2) and (0, 3, 6)
        p = sic_probabilities(mubs.projectors[0, 0], sic)
        q = sic_probabilities(mubs.projectors[1, 0], sic)
        assert 12.0 * np.dot(p, q) - 1.0 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_trace_is_checked_at_the_given_tol(self, sic):
        excess = np.eye(3) / 3.0 * (1.0 + 5e-10)
        with pytest.raises(ValueError, match="unit trace"):
            sic_probabilities(excess, sic, tol=1e-10)
        np.testing.assert_allclose(sic_probabilities(excess, sic, tol=1e-9), np.full(9, 1.0 / 9.0), atol=1e-12)


class TestRepresentationProperties:
    def test_round_trip_on_random_states(self, sic):
        rng = np.random.default_rng(123)
        for _ in range(100):
            rho = random_density_matrix(3, rng)
            p = sic_probabilities(rho, sic)
            np.testing.assert_allclose(reconstruct_from_probabilities(p, sic), rho, atol=1e-10)

    def test_stacked_reconstruction_matches_rows(self, sic):
        rng = np.random.default_rng(77)
        stack = np.array(
            [[sic_probabilities(random_density_matrix(3, rng), sic) for _ in range(3)] for _ in range(4)]
        )
        rhos = reconstruct_from_probabilities(stack, sic)
        assert rhos.shape == (4, 3, 3, 3)
        for s, k in np.ndindex(4, 3):
            np.testing.assert_allclose(rhos[s, k], reconstruct_from_probabilities(stack[s, k], sic), rtol=0, atol=1e-15)

    def test_stack_with_one_unnormalized_row_rejected(self, sic):
        stack = np.full((4, 3, 9), 1.0 / 9.0)
        stack[2, 1, 5] += 1e-6
        with pytest.raises(ValueError, match="sum to 1"):
            reconstruct_from_probabilities(stack, sic)

    def test_affine_map_matches_trace_product(self, sic):
        rng = np.random.default_rng(321)
        for _ in range(100):
            rho = random_density_matrix(3, rng)
            sigma = random_density_matrix(3, rng)
            p = sic_probabilities(rho, sic)
            q = sic_probabilities(sigma, sic)
            assert 12.0 * np.dot(p, q) - 1.0 == pytest.approx(trace_product(rho, sigma), abs=1e-10)

    def test_orbit_covariance_permutes_projectors(self, projectors):
        for a in range(3):
            for b in range(3):
                d = wh_displacement(3, a, b)
                conjugated = np.einsum("ab,ibc,dc->iad", d, projectors, d.conj())
                matches = []
                for c in conjugated:
                    residuals = [float(np.max(np.abs(c - p))) for p in projectors]
                    matches.append(int(np.argmin(residuals)))
                    assert min(residuals) < 1e-10
                assert sorted(matches) == list(range(9))

    def test_probability_entries_capped_at_one_third(self, sic):
        rng = np.random.default_rng(555)
        kets = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        rhos = np.einsum("na,nb->nab", kets, kets.conj())
        probs = np.einsum("nab,iba->ni", rhos, np.asarray(sic.projectors)).real / 3.0
        assert probs.max() <= 1.0 / 3.0 + 1e-10


class TestSicSetValidation:
    def test_rejects_nonprojector_entries(self):
        bad = np.tile(np.eye(3, dtype=complex)[None] / 3.0, (9, 1, 1))
        with pytest.raises(ValueError, match="idempotent"):
            SicSet(dim=3, projectors=bad)

    def test_rejects_wrong_count(self, projectors):
        with pytest.raises(ValueError, match="expected 9"):
            SicSet(dim=3, projectors=np.asarray(projectors)[:8])

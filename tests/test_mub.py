import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sicmub import (
    MubSet,
    SicSet,
    StateSet,
    basis_ket,
    build_mub_set,
    covering_table,
    covering_witness,
    generate_sic_orbit,
    mub_from_triple,
    pp_functional,
    projector,
    qbic_check_hesse,
    quadratic_purity_check,
    trace_product,
    verify_mub_set,
)
from sicmub.mub import LINES, POINT_LINES

GOLDEN = Path(__file__).parent / "data" / "covering_table.json"


def verify_mub_set_reference(m, tol):
    """``verify_mub_set`` in its masked form: the Gram matrix of every pair of
    states as one flat matrix, read through a Kronecker mask of the
    same-basis blocks.  Returns the verdict and the residuals."""
    p = np.asarray(m.projectors)
    n_striations, n_states = p.shape[:2]
    gram = np.einsum("siab,tjba->sitj", p, p).real.reshape(n_striations * n_states, -1)
    same_basis = np.kron(np.eye(n_striations, dtype=bool), np.ones((n_states, n_states), dtype=bool))
    residuals = {
        "max_within_basis_residual": float(np.max(np.abs(gram - np.eye(len(gram)))[same_basis])),
        "max_completeness_residual": float(np.max(np.abs(p.sum(axis=1) - np.eye(p.shape[-1])))),
        "max_cross_basis_residual": float(np.max(np.abs(gram - 1.0 / 3.0)[~same_basis], initial=0.0)),
    }
    return all(value <= tol for value in residuals.values()), residuals


class TestSteinerSystem:
    """The rows of LINES are the Steiner triple system S(9) on the 3x3 grid."""

    def test_first_striation_is_the_rows(self):
        assert LINES[:3].tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_pair_zero_five_only_in_057(self):
        assert [row for row in LINES.tolist() if 0 in row and 5 in row] == [[0, 5, 7]]

    def test_every_index_lies_on_four_lines(self):
        np.testing.assert_array_equal(np.bincount(LINES.ravel()), np.full(9, 4))

    def test_design_properties_exact(self):
        assert LINES.shape == (12, 3)
        # each unordered pair occurs exactly once
        pairs = [pair for row in LINES.tolist() for pair in combinations(sorted(row), 2)]
        assert len(pairs) == len(set(pairs)) == 36

    def test_striation_lookup(self):
        # row // 3 + 1 is the striation number; (0, 1, 3) is on no line
        rows = LINES.tolist()
        assert rows.index([0, 5, 7]) // 3 + 1 == 4
        assert rows.index([2, 5, 8]) // 3 + 1 == 2
        assert [0, 1, 3] not in rows


class TestLineTable:
    def test_rows_are_the_triples_in_striation_order(self):
        # point 3r + c at row r, column c; striation s holds the lines on which
        # r, c, c - r or c + r is constant, in the order 0, 1, 2 of that constant
        r, c = np.divmod(LINES, 3)
        for s, key in enumerate((r, c, (c - r) % 3, (c + r) % 3)):
            block = key[3 * s : 3 * s + 3]
            np.testing.assert_array_equal(block, np.repeat(np.arange(3), 3).reshape(3, 3))

    def test_point_lines_index_the_lines_through_each_point(self):
        for i in range(9):
            assert POINT_LINES[i].tolist() == [row for row in range(12) if i in LINES[row]]

    def test_one_line_per_striation_through_each_point(self):
        np.testing.assert_array_equal(POINT_LINES // 3, np.tile(np.arange(4), (9, 1)))

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            LINES[0, 0] = 5
        with pytest.raises(ValueError):
            POINT_LINES[0, 0] = 5


class TestMubFromTriple:
    def test_row_line_gives_balanced_superposition(self, sic):
        p, rho = mub_from_triple((0, 1, 2), sic)
        v = np.ones(3) / np.sqrt(3.0)
        np.testing.assert_allclose(rho, np.outer(v, v.conj()), atol=1e-12)
        expected = np.full(9, 1.0 / 6.0)
        expected[[0, 1, 2]] = 0.0
        np.testing.assert_allclose(p, expected)

    def test_first_column_gives_computational_zero(self, sic):
        _, rho = mub_from_triple((0, 3, 6), sic)
        np.testing.assert_allclose(rho, projector(basis_ket(3, 0)), atol=1e-12)

    def test_middle_column_gives_computational_one(self, sic):
        _, rho = mub_from_triple((1, 4, 7), sic)
        np.testing.assert_allclose(rho, projector(basis_ket(3, 1)), atol=1e-12)

    def test_non_line_triple_rejected(self, sic):
        with pytest.raises(ValueError, match="not a line"):
            mub_from_triple((0, 1, 3), sic)

    def test_repeated_index_rejected(self, sic):
        with pytest.raises(ValueError, match="distinct"):
            mub_from_triple((0, 0, 1), sic)


class TestBuildAndVerify:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("field", ["projectors", "prob_vectors"])
    def test_non_finite_entries_rejected(self, mubs, field, bad):
        # a NaN set once failed verify_mub_set with NaN residuals and left every triple uncovered
        fields = {"projectors": np.array(mubs.projectors), "prob_vectors": np.array(mubs.prob_vectors)}
        fields[field][2, 1, 0] = bad
        with pytest.raises(ValueError, match="^MUB (projector|probability) entries must be finite, got NaN or infinity$"):
            MubSet(**fields)

    def test_construction_verifies_at_tight_tolerance(self, mubs):
        report = verify_mub_set(mubs, tol=1e-10)
        assert report.passed
        assert report.residuals["max_within_basis_residual"] < 1e-12
        assert report.residuals["max_cross_basis_residual"] < 1e-12

    @settings(deadline=None)
    @given(
        n_striations=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        scale=st.one_of(st.none(), st.floats(-16.0, -2.0)),
        tol=st.sampled_from([1e-16, 1e-10, 1e-6, 1e-3]),
    )
    @example(n_striations=4, seed=0, scale=None, tol=1e-10)
    def test_verify_is_the_masked_reference_bit_for_bit(self, mubs, n_striations, seed, scale, tol):
        # the Hesse MUBs (scale None) or a random choice of their striations with every entry perturbed
        rng = np.random.default_rng(seed)
        picked = np.arange(n_striations) if scale is None else rng.permutation(4)[:n_striations]
        proj = np.asarray(mubs.projectors)[picked]
        if scale is not None:
            proj = proj + 10.0**scale * (rng.standard_normal(proj.shape) + 1j * rng.standard_normal(proj.shape))
        m = MubSet(projectors=proj, prob_vectors=np.asarray(mubs.prob_vectors)[picked])
        report = verify_mub_set(m, tol=tol)
        passed, residuals = verify_mub_set_reference(m, tol)
        assert report.passed == passed
        assert list(report.residuals) == list(residuals)
        assert [v.hex() for v in report.residuals.values()] == [v.hex() for v in residuals.values()]

    def test_four_bases_of_three_states(self, mubs):
        assert np.asarray(mubs.projectors).shape == (4, 3, 3, 3)

    def test_striation_two_is_the_computational_basis(self, mubs):
        computational = np.array([projector(basis_ket(3, j)) for j in range(3)])
        np.testing.assert_allclose(np.asarray(mubs.projectors)[1], computational, atol=1e-12)

    def test_each_mub_state_annihilates_exactly_its_line(self, sic, mubs):
        for triple, rho in zip(LINES.tolist(), mubs.projectors.reshape(12, 3, 3)):
            for i in range(9):
                value = trace_product(rho, np.asarray(sic.projectors)[i])
                if i in triple:
                    assert abs(value) < 1e-12
                else:
                    assert value > 0.1

    def test_duplicated_basis_fails_cross_condition(self, mubs):
        proj = np.array(mubs.projectors)
        proj[1] = proj[0]
        vectors = np.array(mubs.prob_vectors)
        vectors[1] = vectors[0]
        broken = MubSet(projectors=proj, prob_vectors=vectors)
        report = verify_mub_set(broken, tol=1e-10)
        assert not report.passed
        assert report.residuals["max_cross_basis_residual"] > 0.5

    def test_small_rotation_fails_at_moderate_tolerance(self, mubs):
        h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
        w, v = np.linalg.eigh(1e-3 * h)
        u = (v * np.exp(1j * w)) @ v.conj().T
        proj = np.array(mubs.projectors)
        proj[0, 0] = u @ proj[0, 0] @ u.conj().T
        broken = MubSet(projectors=proj, prob_vectors=np.array(mubs.prob_vectors))
        assert not verify_mub_set(broken, tol=1e-6).passed

    def test_non_qutrit_sic_rejected(self):
        # the qubit SIC: four Bloch vectors on a regular tetrahedron
        bloch = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        qubit = SicSet(dim=2, projectors=(np.eye(2) + np.einsum("nk,kab->nab", bloch, paulis)) / 2.0)
        with pytest.raises(ValueError, match="qutrit"):
            build_mub_set(qubit)

    def test_another_sic_of_the_hesse_family_is_rejected(self):
        # (0, 1, -e^{i phi})/sqrt(2) is a SIC fiducial for every phi, but the
        # line vectors reconstruct to rank-1 projectors only for the Hesse SIC
        other = generate_sic_orbit(np.array([0.0, 1.0, -np.exp(1j * np.pi / 3.0)]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match=r"reconstruction of \(0, 1, 2\) is not a rank-1 projector"):
            build_mub_set(other)

    def test_computational_basis_is_checked_at_default_tol(self, sic):
        # conjugating the SIC by exp(i eps H) keeps every MUB check but turns
        # striation 2 away from the computational basis by about eps
        def turned(eps):
            w, v = np.linalg.eigh(eps * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1j], [0.0, -1j, 0.0]]))
            u = (v * np.exp(1j * w)) @ v.conj().T
            return SicSet(dim=3, projectors=u @ np.asarray(sic.projectors) @ u.conj().T)

        with pytest.raises(ValueError, match="striation 2 does not match the computational basis: residual 1.000e-09"):
            build_mub_set(turned(1e-9))
        assert verify_mub_set(build_mub_set(turned(1e-12))).passed

    def test_matches_one_line_construction(self, sic, mubs):
        for row, line in enumerate(LINES.tolist()):
            p, rho = mub_from_triple(line, sic)
            np.testing.assert_array_equal(np.asarray(mubs.prob_vectors).reshape(12, 9)[row], p)
            np.testing.assert_allclose(np.asarray(mubs.projectors).reshape(12, 3, 3)[row], rho, rtol=0, atol=1e-15)

    def test_mub_vectors_pass_both_purity_checks(self, mubs):
        for block in np.asarray(mubs.prob_vectors):
            for p in block:
                assert quadratic_purity_check(p, tol=1e-10).passed
                assert qbic_check_hesse(p, tol=1e-10).passed


class TestCoveringWitness:
    def test_example_triple_witnessed_by_last_striation(self, sic, mubs):
        assert covering_witness((0, 1, 4), mubs, sic) == [4]

    def test_collinear_triple_witnessed_by_computational_striation(self, sic, mubs):
        witnesses = covering_witness((0, 1, 2), mubs, sic)
        assert 2 in witnesses

    def test_all_84_triples_are_covered(self, sic, mubs):
        table = covering_table(mubs, sic)
        assert len(table) == 84
        assert all(w for _, w in table)

    def test_witness_outcomes_annihilate_one_state_each(self, sic, mubs):
        rng = np.random.default_rng(4)
        triples = [tuple(sorted(rng.choice(9, size=3, replace=False))) for _ in range(15)]
        for triple in triples:
            for striation in covering_witness(triple, mubs, sic):
                basis = mubs.projectors[striation - 1]
                probs = np.array(
                    [[trace_product(np.asarray(sic.projectors)[i], b) for b in basis] for i in triple]
                )
                killed = probs < 1e-10
                assert (killed.sum(axis=0) >= 1).all()
                assert (killed.sum(axis=1) == 1).all() and (killed.sum(axis=0) == 1).all()

    def test_agrees_with_golden_table(self, sic, mubs):
        golden = json.loads(GOLDEN.read_text())
        computed = {tuple(t): w for t, w in covering_table(mubs, sic)}
        assert len(golden["entries"]) == 84
        for entry in golden["entries"]:
            assert computed[tuple(entry["triple"])] == entry["striations"]

    def test_bad_triple_rejected(self, sic, mubs):
        with pytest.raises(ValueError):
            covering_witness((0, 0, 1), mubs, sic)
        with pytest.raises(ValueError):
            covering_witness((0, 1, 9), mubs, sic)

    # each would truncate to a valid triple of indices under int()
    @pytest.mark.parametrize(
        "triple",
        [(0.9, 1, 4), (0.2, 1, 2), (0.5, 1, 2), (np.float64(0.0), 1, 2), (True, 2, 3)],
        ids=["0.9,1,4", "0.2,1,2", "0.5,1,2", "np.float64", "bool"],
    )
    def test_non_integer_index_rejected(self, sic, mubs, triple):
        with pytest.raises(ValueError, match="need three distinct SIC indices"):
            covering_witness(triple, mubs, sic)
        with pytest.raises(ValueError, match="need three distinct SIC indices"):
            mub_from_triple(triple, sic)

    def test_numpy_integer_indices_accepted(self, sic, mubs):
        assert covering_witness(np.array([0, 1, 4]), mubs, sic) == [4]
        np.testing.assert_array_equal(mub_from_triple(np.array([2, 1, 0]), sic)[0], mub_from_triple((0, 1, 2), sic)[0])

    def test_functional_really_vanishes_for_reported_witnesses(self, sic, mubs):
        states = StateSet(dim=3, rhos=np.asarray(sic.projectors)[[0, 1, 4]])
        assert pp_functional(states, mubs.projectors[3]) == pytest.approx(0.0, abs=1e-12)

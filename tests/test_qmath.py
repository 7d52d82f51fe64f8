import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicmub import (
    basis_ket,
    overlap_squared,
    projector,
    random_density_matrix,
    random_ket,
    trace_product,
    validate_density_matrix,
    validate_orthonormal_basis,
)
from sicmub.qmath import density_checks, projector_residuals


class TestTraceProduct:
    def test_hesse_pair_gives_quarter(self, projectors):
        assert trace_product(projectors[0], projectors[1]) == pytest.approx(0.25, abs=1e-14)

    def test_density_with_identity_gives_one(self):
        rng = np.random.default_rng(11)
        rho = random_density_matrix(3, rng)
        assert trace_product(rho, np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_same_striation_mub_projectors_orthogonal(self, mubs):
        # rows 0 and 1 of LINES: (0, 1, 2) and (3, 4, 5)
        p012, p345 = mubs.projectors[0, :2]
        assert trace_product(p012, p345) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize(
        "a, b, match",
        [(np.eye(3), np.eye(2), "mismatch"), (np.ones((2, 3)), np.eye(3), "must be a square matrix")],
        ids=["sizes", "not-square"],
    )
    def test_dimension_mismatch_raises(self, a, b, match):
        with pytest.raises(ValueError, match=match):
            trace_product(a, b)

    def test_large_imaginary_part_raises(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary"):
            trace_product(m, np.array([[0, 0], [1j, 0]]))

    def test_imaginary_part_is_checked_at_search_tol(self):
        # SEARCH_TOL = 1e-8 bounds the imaginary part
        with pytest.raises(ValueError, match="imaginary residual 2.000e-08"):
            trace_product(np.diag([1.0, 0.0]), np.diag([1.0 + 2e-8j, 0.0]))
        assert trace_product(np.diag([1.0, 0.0]), np.diag([1.0 + 5e-9j, 0.0])) == 1.0


class TestValidation:
    def test_wellformed_projector_passes(self, projectors):
        report = validate_density_matrix(projectors[0], tol=1e-10)
        assert report.passed
        assert report.residuals["max_hermiticity_residual"] < 1e-12
        assert report.residuals["trace_residual"] < 1e-12
        assert report.residuals["min_eigenvalue"] > -1e-12

    def test_trace_excess_reported(self):
        report = validate_density_matrix(np.eye(3) * 1.1 / 3.0, tol=1e-10)
        assert not report.passed
        assert report.residuals["trace_residual"] == pytest.approx(0.1, abs=1e-12)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        assert validate_orthonormal_basis(q.T, tol=1e-10).passed
        assert not validate_orthonormal_basis(q.T[:2], tol=1e-10).passed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_basis_rejected(self, bad):
        # a NaN ket once gave passed=False with a NaN residual
        kets = np.eye(3, dtype=complex)
        kets[1, 2] = bad
        with pytest.raises(ValueError, match="^basis entries must be finite, got NaN or infinity$"):
            validate_orthonormal_basis(kets)

    def test_completeness_residual_only_for_an_incomplete_basis(self):
        complete = validate_orthonormal_basis(np.eye(3), tol=1e-10)
        assert list(complete.residuals) == ["orthonormality_residual"]
        partial = validate_orthonormal_basis(np.eye(3)[:2], tol=1e-10)
        assert not partial.passed
        assert partial.residuals["completeness_residual"] == 1.0

    @pytest.mark.parametrize("kets", [np.ones(3), np.ones((2, 3, 3))], ids=["one-ket", "stack"])
    def test_basis_of_the_wrong_rank_rejected(self, kets):
        with pytest.raises(ValueError, match=r"basis must have shape \(k, d\)"):
            validate_orthonormal_basis(kets)

    def test_completeness_residual_of_an_overcomplete_set_is_positive(self):
        # four kets in d = 3: one too many, so the residual is |3 - 4|
        check = validate_orthonormal_basis(np.eye(4)[:, :3], tol=1e-10)
        assert not check.passed
        assert check.residuals["completeness_residual"] == 1.0

    @settings(deadline=None)
    @given(
        dim=st.integers(2, 4),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        kick=st.floats(0.0, 1e-3),
        tol=st.floats(-14.0, -2.0).map(lambda e: 10.0**e),
    )
    def test_verdict_is_the_three_residual_comparisons(self, dim, rank, seed, kick, tol):
        # a Ginibre state of rank <= dim, kicked off Hermiticity, unit trace and positivity
        rng = np.random.default_rng(seed)
        shape = (dim, min(rank, dim))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rho = g @ g.conj().T / np.linalg.norm(g) ** 2
        rho = rho + kick * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        check = validate_density_matrix(rho, tol)
        r = check.residuals
        assert list(r) == ["max_hermiticity_residual", "trace_residual", "min_eigenvalue"]
        assert check.passed == (r["max_hermiticity_residual"] <= tol and r["trace_residual"] <= tol and r["min_eigenvalue"] >= -tol)


def single_state_residuals(m):
    """The single-matrix density residuals as written before the stacked rule."""
    herm = float(np.max(np.abs(m - m.conj().T)))
    trace_res = float(abs(np.trace(m) - 1.0))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    return {"max_hermiticity_residual": herm, "trace_residual": trace_res, "min_eigenvalue": min_eig}


class TestDensityChecks:
    @settings(deadline=None)
    @given(
        dim=st.integers(2, 4),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        kick=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]),
        tol=st.floats(-14.0, -2.0).map(lambda e: 10.0**e),
    )
    def test_each_state_of_a_stack_gets_its_single_check(self, dim, n, seed, kick, tol):
        # kicked Ginibre states of every rank, some valid and some not, plus one arbitrary complex matrix
        rng = np.random.default_rng(seed)
        stack = []
        for rank in rng.integers(1, dim + 1, size=n):
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            rho = g @ g.conj().T / np.linalg.norm(g) ** 2
            stack.append(rho + kick * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))))
        stack.append(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        checks = density_checks(np.array(stack), tol)
        assert len(checks) == len(stack)
        for check, rho in zip(checks, stack):
            assert check == validate_density_matrix(rho, tol)
            assert repr(check.residuals) == repr(single_state_residuals(rho))  # bit for bit, as Python floats

    def test_empty_stack_gives_no_checks(self):
        assert density_checks(np.zeros((0, 3, 3))) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected_before_the_solver(self, bad):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[0, 2] = bad
        with pytest.raises(ValueError, match="state entries must be finite, got NaN or infinity"):
            validate_density_matrix(rho)
        with pytest.raises(ValueError, match="state entries must be finite, got NaN or infinity"):
            density_checks(np.array([np.eye(3) / 3.0, rho]))


class TestProjectorResiduals:
    @settings(deadline=None)
    @given(dim=st.integers(2, 5), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_projectors_of_random_kets_pass_the_rank_one_rule(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        stack = np.array([projector(random_ket(dim, rng)) for _ in range(n)])
        assert max(projector_residuals(stack)) <= 1e-14


class TestKetHelpers:
    def test_cauchy_schwarz_for_random_kets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            u = random_ket(3, rng)
            v = random_ket(3, rng)
            assert overlap_squared(u, v) <= 1.0 + 1e-12

    def test_projector_from_unit_ket_is_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = projector(random_ket(4, rng))
            assert trace_product(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_projector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            projector([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("j", [-1, 3])
    def test_basis_index_out_of_range(self, j):
        with pytest.raises(ValueError, match=f"basis index {j} out of range for dimension 3"):
            basis_ket(3, j)

    @pytest.mark.parametrize("j", [True, False, 1.5, 1.0, np.float64(0.0)])
    def test_basis_index_must_be_an_integer(self, j):
        with pytest.raises(ValueError, match="basis index"):
            basis_ket(3, j)

    def test_numpy_integer_basis_index_accepted(self):
        np.testing.assert_array_equal(basis_ket(3, np.int64(2)), [0, 0, 1])

    def test_overlap_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            overlap_squared(np.ones(3), np.ones(2))

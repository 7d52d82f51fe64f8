import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicmub import (
    overlap_squared,
    projector,
    random_density_matrix,
    random_ket,
    trace_product,
    validate_density_matrix,
    validate_orthonormal_basis,
)


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

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(3), np.eye(2))

    def test_large_imaginary_part_raises(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary"):
            trace_product(m, np.array([[0, 0], [1j, 0]]))


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

    def test_completeness_residual_only_for_an_incomplete_basis(self):
        complete = validate_orthonormal_basis(np.eye(3), tol=1e-10)
        assert list(complete.residuals) == ["max_hermiticity_residual", "orthonormality_residual"]
        partial = validate_orthonormal_basis(np.eye(3)[:2], tol=1e-10)
        assert not partial.passed
        assert partial.residuals["completeness_residual"] == 1.0

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

"""Complex linear algebra for small-dimension quantum systems.

Conventions used throughout the package:

* kets are 1-D complex ``numpy`` arrays,
* operators are square complex arrays acting on the same space,
* a measurement is an array of effect matrices with shape ``(k, d, d)``,
* an orthonormal basis is an array of kets with shape ``(d, d)``,
  axis 0 indexing the basis vectors.

Every function here is pure and treats its arguments as read-only.
Arrays stored on container objects elsewhere in the package are frozen
with ``writeable = False`` so values can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Tolerance used to validate exactly constructed objects.
DEFAULT_TOL = 1e-10
#: Tolerance used for quantities produced by numerical search.
SEARCH_TOL = 1e-8


def frozen_array(values, dtype=complex) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def basis_ket(dim: int, j: int) -> np.ndarray:
    """Computational-basis ket ``|j>`` in dimension ``dim``."""
    if not 0 <= j < dim:
        raise ValueError(f"basis index {j} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[j] = 1.0
    return v


def _as_ket(v, *, tol: float = SEARCH_TOL) -> np.ndarray:
    """Coerce to a 1-D complex array and require unit norm within ``tol``."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > tol:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return vec


def projector(psi) -> np.ndarray:
    """Rank-1 projector ``|psi><psi|`` of a unit ket."""
    vec = _as_ket(psi)
    return np.outer(vec, vec.conj())


def overlap_squared(a, b) -> float:
    """Squared inner product ``|<a|b>|**2`` of two kets."""
    u = np.asarray(a, dtype=complex).reshape(-1)
    v = np.asarray(b, dtype=complex).reshape(-1)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return float(abs(np.vdot(u, v)) ** 2)


def _as_square(m, name: str = "operator") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def trace_product(a, b, *, imag_tol: float = SEARCH_TOL) -> float:
    """Real Hilbert-Schmidt inner product ``Re tr(a b)``.

    For Hermitian inputs the trace is real up to rounding; an imaginary
    part larger than ``imag_tol`` indicates non-Hermitian input and
    raises ``ValueError``.
    """
    am = _as_square(a)
    bm = _as_square(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    t = complex(np.trace(am @ bm))
    if abs(t.imag) > imag_tol:
        raise ValueError(f"trace product has imaginary residual {abs(t.imag):.3e}")
    return float(t.real)


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit ket (normalized complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix ``G G† / tr(G G†)``, Ginibre ``G``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


@dataclass(frozen=True)
class Check:
    """Verdict of a validator and the residuals it computed, by name.

    ``residuals`` holds exactly the residuals the validator computed, in an
    order fixed per validator; reports print the dict as it is.
    """

    passed: bool
    residuals: dict[str, float]


def _hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def _min_eigenvalue(m: np.ndarray) -> float:
    # Symmetric solver on the Hermitian part; robust for near-Hermitian input.
    h = (m + m.conj().T) / 2.0
    return float(np.linalg.eigvalsh(h)[0])


def validate_density_matrix(rho, tol: float = DEFAULT_TOL) -> Check:
    """Check a density matrix: Hermiticity, unit trace, positivity.

    Passes iff ``max_hermiticity_residual`` and ``trace_residual`` are at
    most ``tol`` and ``min_eigenvalue`` is at least ``-tol``.
    """
    m = _as_square(rho, "state")
    herm = _hermiticity_residual(m)
    trace_res = float(abs(np.trace(m) - 1.0))
    min_eig = _min_eigenvalue(m)
    passed = herm <= tol and trace_res <= tol and min_eig >= -tol
    return Check(
        passed=passed,
        residuals={"max_hermiticity_residual": herm, "trace_residual": trace_res, "min_eigenvalue": min_eig},
    )


def validate_orthonormal_basis(kets, tol: float = DEFAULT_TOL) -> Check:
    """Check a complete orthonormal basis given as rows of kets.

    Passes iff there are as many kets as entries and the Gram matrix is
    the identity within ``tol`` (``orthonormality_residual``).  A set of
    ``k != d`` kets of dimension ``d`` never passes; only its residuals
    carry ``completeness_residual = d - k``.
    """
    arr = np.asarray(kets, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"basis must have shape (k, d), got {arr.shape}")
    gram = arr.conj() @ arr.T
    ortho = float(np.max(np.abs(gram - np.eye(arr.shape[0]))))
    complete = arr.shape[0] == arr.shape[1]
    residuals = {"max_hermiticity_residual": float(np.max(np.abs(gram - gram.conj().T)))}
    if not complete:
        residuals["completeness_residual"] = float(arr.shape[1] - arr.shape[0])
    residuals["orthonormality_residual"] = ortho
    return Check(passed=complete and ortho <= tol, residuals=residuals)

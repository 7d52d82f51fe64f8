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

import math
import operator
from dataclasses import dataclass

import numpy as np

#: Tolerance used to validate exactly constructed objects.
DEFAULT_TOL = 1e-10
#: Tolerance used for quantities produced by numerical search, and for
#: structure checks on inputs that carry rounding.
SEARCH_TOL = 1e-8


def frozen_array(values, dtype=complex) -> np.ndarray:
    """Copy ``values`` into a read-only ndarray."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself; raises ``ValueError`` naming ``what`` if any entry is
    NaN or infinite, before a sum or a solver can turn it into a value."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # half the cost of ``.all()`` on a 3x3 or a 9-vector
        raise ValueError(f"{what} entries must be finite, got NaN or infinity")
    return arr


def require_tolerance(tol: float) -> float:
    """``tol`` itself; raises ``ValueError`` unless it is finite and at least 0,
    so a NaN or negative tolerance never reads as a failed check."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def basis_ket(dim: int, j: int) -> np.ndarray:
    """Computational-basis ket ``|j>`` in dimension ``dim``.  ``j`` must be
    an integer (``operator.index``) and not a bool, so no float or bool is
    taken as an index; anything else raises ``ValueError``."""
    try:
        k = -1 if isinstance(j, bool) else operator.index(j)  # a bool as -1, out of range
    except TypeError:
        k = -1
    if not 0 <= k < dim:
        raise ValueError(f"basis index {j} out of range for dimension {dim}")
    return np.eye(dim, dtype=complex)[k]


def projector(psi) -> np.ndarray:
    """Rank-1 projector ``|psi><psi|`` of a ket of unit norm within ``SEARCH_TOL``."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > SEARCH_TOL:
        raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
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


def trace_product(a, b) -> float:
    """Real Hilbert-Schmidt inner product ``Re tr(a b)``.

    For Hermitian inputs the trace is real up to rounding; an imaginary
    part larger than ``SEARCH_TOL`` indicates non-Hermitian input and
    raises ``ValueError``.
    """
    am = _as_square(a)
    bm = _as_square(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape[0]} vs {bm.shape[0]}")
    t = complex(np.trace(am @ bm))
    if abs(t.imag) > SEARCH_TOL:
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


def validate_density_matrix(rho, tol: float = DEFAULT_TOL) -> Check:
    """Check a density matrix: Hermiticity, unit trace, positivity.

    Passes iff ``max_hermiticity_residual`` and ``trace_residual`` are at
    most ``tol`` and ``min_eigenvalue`` is at least ``-tol``.  A matrix
    with a NaN or infinite entry raises ``ValueError``, as does a ``tol``
    that is NaN, negative or infinite.
    """
    return density_checks(_as_square(rho, "state")[None], tol)[0]


def density_checks(rhos, tol: float = DEFAULT_TOL) -> list[Check]:
    """The density-matrix rule of :func:`validate_density_matrix` over a
    stack ``(n, d, d)``: one ``Check`` per state, the same, bit for bit, as
    for that state alone.  Raises ``ValueError`` if any entry is NaN or
    infinite, before any residual is computed, and unless ``tol`` is finite
    and non-negative.
    """
    require_tolerance(tol)
    arr = require_finite(np.asarray(rhos, dtype=complex), "state")
    adjoint = arr.conj().transpose(0, 2, 1)
    herms = np.abs(arr - adjoint).max(axis=(1, 2)).tolist()
    # Python's complex abs per state: numpy's vectorised abs can differ in the last bit
    traces = [abs(trace - 1.0) for trace in arr.trace(axis1=1, axis2=2).tolist()]
    # Symmetric solver on the Hermitian part; robust for near-Hermitian input.
    min_eigs = np.linalg.eigvalsh((arr + adjoint) / 2.0)[:, 0].tolist()
    return [
        Check(
            passed=herm <= tol and trace_res <= tol and min_eig >= -tol,
            residuals={"max_hermiticity_residual": herm, "trace_residual": trace_res, "min_eigenvalue": min_eig},
        )
        for herm, trace_res, min_eig in zip(herms, traces, min_eigs)
    ]


def projector_residuals(ops) -> tuple[float, float, float]:
    """The rank-1 projector rule over a stack ``(n, d, d)``: the largest
    entry of ``|A - A†|``, of ``|tr A - 1|`` and of ``|A A - A|`` over the
    stack, each 0.0 for an empty stack.  A caller accepts the stack iff all
    three are at most its tolerance (a NaN residual fails that test).
    """
    p = np.asarray(ops, dtype=complex)
    deviations = (p - p.conj().transpose(0, 2, 1), np.einsum("iaa->i", p) - 1, np.einsum("iab,ibc->iac", p, p) - p)
    return tuple(float(np.abs(dev).max(initial=0.0)) for dev in deviations)


def validate_orthonormal_basis(kets, tol: float = DEFAULT_TOL) -> Check:
    """Check a complete orthonormal basis given as rows of kets.

    Passes iff there are as many kets as entries and the Gram matrix is
    the identity within ``tol`` (``orthonormality_residual``).  A set of
    ``k != d`` kets of dimension ``d`` never passes; only its residuals
    carry ``completeness_residual = |d - k|``.
    """
    require_tolerance(tol)
    arr = np.asarray(kets, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"basis must have shape (k, d), got {arr.shape}")
    ortho = float(np.max(np.abs(arr.conj() @ arr.T - np.eye(arr.shape[0]))))
    complete = arr.shape[0] == arr.shape[1]
    residuals = {} if complete else {"completeness_residual": float(abs(arr.shape[1] - arr.shape[0]))}
    residuals["orthonormality_residual"] = ortho
    return Check(passed=complete and ortho <= tol, residuals=residuals)

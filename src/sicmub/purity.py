"""Pure-state conditions in the SIC probability representation.

A probability vector over the nine Hesse SIC outcomes describes a pure
state iff it satisfies two polynomial constraints: the quadratic
``sum_i p(i)**2 = 2/(d(d+1))`` (= 1/6 for qutrits) and a cubic built
from the triple products ``C_jkl = Re tr(P_j P_k P_l)``.  For the Hesse
SIC the triple products follow the 3x3-grid geometry (collinear -1/8,
noncollinear 1/16), which collapses the cubic to

    sum_i p(i)**3 - 3 * sum_{lines (ijk)} p(i) p(j) p(k) = 0.

Both forms are implemented; their equivalence on the quadratic shell is
exercised by the test suite rather than assumed anywhere in the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mub import LINES, TRIPLE_VECTORS, TRIPLES
from .qmath import DEFAULT_TOL, frozen_array, require_finite, require_tolerance
from .sicgen import SicSet


@dataclass(frozen=True)
class PurityCheck:
    """Verdict of a purity condition with the computed value and its
    deviation from the pure-state target."""

    passed: bool
    value: float
    target: float

    @property
    def residual(self) -> float:
        return abs(self.value - self.target)


@dataclass(frozen=True, eq=False)
class TripleProductTable:
    """All ``d**6`` triple products ``C_jkl = Re tr(P_j P_k P_l)`` of a SIC.

    Symmetric under every permutation of the indices; diagonal values
    are fixed by the SIC conditions (``C_jjj = 1``, ``C_jjk = 1/(d+1)``).
    A NaN or infinite entry raises ``ValueError``.
    """

    dim: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        n = self.dim * self.dim
        if arr.shape != (n, n, n):
            raise ValueError(f"expected table of shape ({n}, {n}, {n}), got {arr.shape}")
        object.__setattr__(self, "values", frozen_array(require_finite(arr, "triple product"), dtype=float))


def triple_product(s: SicSet, j: int, k: int, l: int) -> float:
    """``Re tr(P_j P_k P_l)`` for one index triple."""
    n = s.dim * s.dim
    for idx in (j, k, l):
        if not 0 <= idx < n:
            raise IndexError(f"SIC index {idx} out of range 0-{n - 1}")
    p = s.projectors
    return float(np.trace(p[j] @ p[k] @ p[l]).real)


def triple_product_table(s: SicSet) -> TripleProductTable:
    """Compute every triple product of a SIC in one pass."""
    p = np.asarray(s.projectors)
    values = np.einsum("iab,jbc,kca->ijk", p, p, p).real
    return TripleProductTable(dim=s.dim, values=values)


def quadratic_purity_check(p, tol: float = DEFAULT_TOL) -> PurityCheck:
    """Quadratic purity condition ``sum p**2 = 2/(d(d+1))``."""
    return _quadratic_check(_as_prob_vector(p, tol), tol)


def _quadratic_check(vec: np.ndarray, tol: float) -> PurityCheck:
    value = float(_quadratic_values(vec))
    target = _quadratic_target(vec.shape[-1])
    return PurityCheck(passed=abs(value - target) <= tol, value=value, target=target)


def _quadratic_values(vecs: np.ndarray) -> np.ndarray:
    """``sum p**2`` along the trailing axis, one value per vector, each with
    the bits of ``np.dot(p, p)``."""
    return (vecs[..., None, :] @ vecs[..., None])[..., 0, 0]


def _quadratic_target(n: int) -> float:
    d = math.isqrt(n)
    return 2.0 / (d * (d + 1.0))


def qbic_check_general(p, table: TripleProductTable, tol: float = DEFAULT_TOL) -> PurityCheck:
    """Cubic purity condition via the full triple-product sum.

    Contracts all ``d**6`` index combinations (729 terms for qutrits;
    clarity over cleverness) against the target ``(d+7)/(d+1)**3``.
    """
    vec = _as_prob_vector(p, tol)
    n = table.dim * table.dim
    if vec.shape[0] != n:
        raise ValueError(f"probability vector has length {vec.shape[0]}, table expects {n}")
    value = float(np.einsum("ijk,i,j,k->", table.values, vec, vec, vec))
    target = (table.dim + 7.0) / (table.dim + 1.0) ** 3
    return PurityCheck(passed=abs(value - target) <= tol, value=value, target=target)


def qbic_check_hesse(p, tol: float = DEFAULT_TOL) -> PurityCheck:
    """Cubic purity condition in its Hesse grid form.

    ``sum_i p(i)**3 - 3 * sum_{lines} p(i) p(j) p(k)`` must vanish for
    pure states (qutrit only).
    """
    return _qbic_hesse_check(_as_prob_vector(p, tol), tol)


def _qbic_hesse_check(vec: np.ndarray, tol: float) -> PurityCheck:
    if vec.shape[0] != 9:
        raise ValueError(f"the grid form applies to qutrits (9 outcomes), got {vec.shape[0]}")
    value = float(_qbic_hesse_values(vec))
    return PurityCheck(passed=abs(value) <= tol, value=value, target=0.0)


def _qbic_hesse_values(vecs: np.ndarray) -> np.ndarray:
    """The grid-form cubic of one vector ``(9,)`` or of each row of a stack ``(n, 9)``."""
    # the line products summed left to right, as the formula reads (numpy's pairwise sum would move the last bit)
    line_sum = np.add.accumulate(np.multiply.reduce(vecs.T[LINES], axis=1), axis=0)[-1]
    return np.add.reduce(vecs**3, axis=-1) - 3.0 * line_sum


@dataclass(frozen=True)
class DistributionIndices:
    """Spread summaries of a SIC probability vector.

    ``effective_number`` is the inverse participation ratio
    ``1 / sum p**2``; the entropy is in nats; ``zero_count`` counts
    entries below the zero tolerance.  ``zero_bound`` is the
    Cauchy-Schwarz cap ``d**2 - effective_number`` on the number of
    zeros, with ``zero_bound_satisfied`` flagging compliance.
    """

    effective_number: float
    shannon_entropy_nats: float
    zero_count: int
    zero_bound: float
    zero_bound_satisfied: bool


def distribution_indices(p, zero_tol: float = 1e-9) -> DistributionIndices:
    """Effective number, Shannon entropy (nats), and zero count of ``p``: its
    entries must sum to 1 within ``zero_tol``, none may be below
    ``-zero_tol``, and their squares must not sum to 0."""
    vec = _as_prob_vector(p, zero_tol)
    d_sq = vec.shape[0]
    weight = float(vec.dot(vec))
    if weight == 0.0:
        raise ValueError(f"probability vector has no weight: its squares sum to {weight!r}")
    effective = 1.0 / weight
    positive = vec[vec > 0]
    entropy = 0.0 - float((positive * np.log(positive)).sum())  # unlike -x, 0.0 - x gives +0.0 for a point mass
    zeros = int(np.count_nonzero(vec < zero_tol))
    bound = d_sq - effective
    return DistributionIndices(
        effective_number=effective,
        shannon_entropy_nats=entropy,
        zero_count=zeros,
        zero_bound=bound,
        zero_bound_satisfied=zeros <= bound + 1e-9,
    )


def enumerate_min_entropy_pure_states(tol: float = DEFAULT_TOL) -> list[tuple[tuple[int, int, int], np.ndarray]]:
    """Pure states of minimal Shannon entropy among three-zero vectors.

    Tests all C(9,3) = 84 vectors with three zeros and 1/6 elsewhere as
    one stack, keeping those passing both purity conditions at ``tol``
    (each vector's values are those of the single-vector checks, bit for
    bit).  Exactly the 12 Steiner lines survive; the survivors are
    returned with their zero triples in lexicographic order.  The
    candidates sum to 1 only up to rounding, so their sum is not held to
    ``tol``.
    """
    require_tolerance(tol)
    p = TRIPLE_VECTORS
    keep = (abs(_quadratic_values(p) - _quadratic_target(9)) <= tol) & (abs(_qbic_hesse_values(p)) <= tol)
    return [(tuple(triple), vec) for triple, vec in zip(TRIPLES[keep].tolist(), p[keep])]


def _as_prob_vector(p, tol: float) -> np.ndarray:
    """``p`` as a flat float array; raises unless ``tol`` is finite and
    non-negative and the entries are finite, none below ``-tol``, and sum to
    1 within ``tol``."""
    require_tolerance(tol)
    vec = np.asarray(p, dtype=float).reshape(-1)
    # one count on the passing path: NaN and -inf fail it and +inf fails the
    # sum; either failure first names a non-finite entry as such
    if np.count_nonzero(vec >= -tol) != vec.size:
        require_finite(vec, "probability vector")
        raise ValueError(f"probability vector entries must be at least {-tol!r}, got {float(vec.min())!r}")
    total = float(np.add.reduce(vec))
    if not abs(total - 1.0) <= tol:
        require_finite(vec, "probability vector")
        raise ValueError(f"probability vector must sum to 1 within {tol!r}, got {total!r}")
    return vec

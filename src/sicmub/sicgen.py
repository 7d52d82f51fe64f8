"""Weyl-Heisenberg displacements, the Hesse SIC, and the probability
representation a SIC induces on quantum states.

A SIC in dimension ``d`` is a set of ``d**2`` rank-1 projectors with
constant pairwise overlap::

    tr(P_k P_l) = (d * delta_kl + 1) / (d + 1)

Dividing the projectors by ``d`` yields an informationally complete
POVM, so every state is faithfully encoded by its outcome probability
vector ``p(i) = tr(rho P_i) / d``.

Index convention: the orbit of a fiducial ket under the displacement
operators is ordered ``i = d*b + a``, where ``a`` is the cyclic-shift
exponent and ``b`` the phase exponent.  For d = 3 this lays the nine
labels out row by row on a 3x3 grid; every line/striation construction
elsewhere in the package refers to that layout.  The convention is
fixed by requiring that the orbit of the fiducial ``(0, 1, -1)/sqrt(2)``
reproduce the printed ordering of the built-in Hesse SIC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import DEFAULT_TOL, SEARCH_TOL, Check, frozen_array, projector_residuals, require_finite, require_tolerance


class NotSicError(ValueError):
    """Raised when a candidate projector set violates the SIC overlap
    condition; carries the worst Gram residual in ``residual``."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"projector set is not a SIC: max Gram residual {residual:.3e}")


def wh_displacement(d: int, a: int, b: int) -> np.ndarray:
    """Weyl-Heisenberg displacement ``tau**(a*b) X**a Z**b``.

    ``X`` cyclically shifts the computational basis, ``Z`` multiplies
    ``|j>`` by ``omega**j`` with ``omega = exp(2i pi/d)``, and the phase
    is ``tau = -exp(i pi/d)``.  The result is unitary.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"label ({a}, {b}) out of range for dimension {d}")
    omega = np.exp(2j * np.pi / d)
    tau = -np.exp(1j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), a, axis=0)  # X**a
    phases = omega ** (b * np.arange(d))                  # diagonal of Z**b
    return tau ** (a * b) * shift * phases[np.newaxis, :]


@dataclass(frozen=True, eq=False)
class SicSet:
    """``d**2`` rank-1 projectors, Hermitian, trace-1 and idempotent within
    ``tol``; :func:`is_sic` tests the SIC overlap condition.

    Equality of SIC sets is meaningful only at the projector level
    (global ket phases cancel), so compare ``projectors``.
    """

    dim: int
    projectors: np.ndarray
    tol: float = SEARCH_TOL

    def __post_init__(self):
        require_tolerance(self.tol)
        p = np.asarray(self.projectors, dtype=complex)
        d = self.dim
        if p.shape != (d * d, d, d):
            raise ValueError(f"expected {d * d} projectors of shape ({d}, {d}), got {p.shape}")
        herm, trace, idem = projector_residuals(p)
        if not (herm <= self.tol and trace <= self.tol and idem <= self.tol):
            raise ValueError(
                "projectors must be Hermitian, trace-1 and idempotent: residuals "
                f"herm={herm:.3e}, trace={trace:.3e}, idem={idem:.3e}"
            )
        object.__setattr__(self, "projectors", frozen_array(p))


@lru_cache(maxsize=8)
def _gram_target(d: int) -> np.ndarray:
    """The SIC overlaps ``(d*delta + 1)/(d + 1)`` of dimension ``d``, built
    once per dimension and read-only."""
    return frozen_array((d * np.eye(d * d) + 1.0) / (d + 1.0), dtype=float)


def _gram_residual(projectors: np.ndarray, d: int) -> float:
    gram = np.einsum("iab,jba->ij", projectors, projectors).real
    return float(np.max(np.abs(gram - _gram_target(d))))


def is_sic(s: SicSet, tol: float = DEFAULT_TOL) -> Check:
    """Test every pairwise overlap against ``(d*delta + 1)/(d + 1)``.

    Passes iff the worst deviation, ``max_gram_residual``, is at most ``tol``.
    """
    require_tolerance(tol)
    residual = _gram_residual(np.asarray(s.projectors), s.dim)
    return Check(passed=residual <= tol, residuals={"max_gram_residual": residual})


def generate_sic_orbit(fiducial, tol: float = DEFAULT_TOL) -> SicSet:
    """Apply all ``d**2`` displacements to a fiducial ket and validate.

    The resulting projectors are ordered ``i = d*b + a``.  If the orbit
    violates the SIC overlap condition beyond ``tol`` the fiducial is
    not a SIC fiducial and :class:`NotSicError` is raised with the
    observed residual.
    """
    require_tolerance(tol)
    fid = np.asarray(fiducial, dtype=complex).reshape(-1)
    d = fid.shape[0]
    norm = np.linalg.norm(fid)
    if abs(norm - 1.0) > SEARCH_TOL:
        raise ValueError(f"fiducial must be normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    kets = np.empty((d * d, d), dtype=complex)
    for b in range(d):
        for a in range(d):
            kets[d * b + a] = wh_displacement(d, a, b) @ fid
    projectors = np.einsum("ia,ib->iab", kets, kets.conj())
    residual = _gram_residual(projectors, d)
    if residual > tol:
        raise NotSicError(residual)
    return SicSet(dim=d, projectors=projectors)


_W = np.exp(2j * np.pi / 3)
_CW = np.conj(_W)

#: The nine Hesse kets, read-only; :func:`hesse_kets` hands out copies.
_HESSE_KETS: np.ndarray = frozen_array(
    np.array(
        [
            [0, 1, -1],
            [-1, 0, 1],
            [1, -1, 0],
            [0, _W, -_CW],
            [-1, 0, _CW],
            [1, -_W, 0],
            [0, _CW, -_W],
            [-1, 0, _W],
            [1, -_CW, 0],
        ],
        dtype=complex,
    )
    / math.sqrt(2.0)
)


def hesse_kets() -> np.ndarray:
    """The nine qutrit kets of the Hesse SIC, indexed 0-8, as a new
    writable array.

    Index 0 is the fiducial ``(0, 1, -1)/sqrt(2)``; the rest follow the
    ``i = 3b + a`` orbit layout (each printed ket may differ from the
    literal orbit vector by a global phase, which projectors ignore).
    """
    return _HESSE_KETS.copy()


def hesse_sic() -> SicSet:
    """The Hesse SIC: the standard qutrit SIC, fiducial first, built and
    validated anew on every call."""
    kets = _HESSE_KETS
    return SicSet(dim=3, projectors=np.einsum("ia,ib->iab", kets, kets.conj()))


def sic_probabilities(rho, s: SicSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """SIC representation ``p(i) = tr(rho P_i) / d`` of a density matrix
    with finite entries."""
    require_tolerance(tol)
    rm = require_finite(np.asarray(rho, dtype=complex), "density matrix")
    d = s.dim
    if rm.shape != (d, d):
        raise ValueError(f"dimension mismatch: state {rm.shape} vs SIC dimension {d}")
    raw = np.einsum("ab,iba->i", rm, s.projectors).real / d
    low = raw.min()
    if not low >= -tol:
        raise ValueError(f"negative SIC probability {low:.3e}: input is not positive semidefinite")
    if not abs(raw.sum() - 1.0) <= tol:
        raise ValueError(f"SIC probabilities sum to {raw.sum()!r}: input is not unit trace")
    return raw.clip(0.0, 1.0)


def reconstruct_from_probabilities(p, s: SicSet) -> np.ndarray:
    """Invert the SIC representation: ``sum_i [(d+1) p(i) - 1/d] P_i``,
    for one vector or a stack ``(..., d**2)`` of them.

    The result is Hermitian with unit trace by construction.  Positivity
    is *not* guaranteed; probability vectors that do not describe a
    quantum state reconstruct to a non-positive operator, which callers
    detect with :func:`sicmub.qmath.validate_density_matrix`.  Every entry
    must be finite and each vector must sum to 1 within ``SEARCH_TOL``.
    """
    vec = require_finite(np.asarray(p, dtype=float), "probability")
    d = s.dim
    if vec.shape[-1:] != (d * d,):
        raise ValueError(f"expected {d * d} probabilities on the last axis, got shape {vec.shape}")
    sums = vec.sum(axis=-1).ravel()
    worst = int(abs(sums - 1.0).argmax())
    if not abs(sums[worst] - 1.0) <= SEARCH_TOL:
        raise ValueError(f"probabilities must sum to 1, got {float(sums[worst])!r}")
    coeffs = (d + 1.0) * vec - 1.0 / d
    return np.einsum("...i,iab->...ab", coeffs, s.projectors)


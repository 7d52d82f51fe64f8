"""Discrete Wigner function for qutrits, built on the Hesse MUBs.

The phase-space point operators live on the same 3x3 grid as the SIC
indices: ``A_j`` is the sum of the four MUB projectors whose line passes
through ``j``, minus the identity.  They satisfy ``tr A_j = 1``,
``tr A_j A_k = 3 delta_jk``, and averaging the three operators of a
line recovers that line's MUB projector.  The Wigner function of a
state is ``W(j) = tr(rho A_j)/3``; equivalently, entirely inside the
probability picture, ``W(i) = 1/3 - 2 p(i)`` where ``p`` is the SIC
representation.  Summing ``W`` along a line gives the Born probability
of the corresponding MUB outcome, and those 12 line probabilities
determine ``W`` right back.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .mub import LINES, POINT_LINES, MubSet, Triple
from .qmath import DEFAULT_TOL, frozen_array, require_finite

#: Per-striation normalization tolerance for line-probability input.
LINE_NORMALIZATION_TOL = 1e-9

#: The rows of :data:`LINES` as the tuple keys of line-probability dicts.
_LINE_KEYS: tuple[Triple, ...] = tuple(map(tuple, LINES.tolist()))
_LINE_KEY_SET = frozenset(_LINE_KEYS)
_line_values = itemgetter(*_LINE_KEYS)

#: The qutrit identity, which each ``A_j`` subtracts, and the target ``3 delta_jk`` of their Gram matrix.
_IDENTITY: np.ndarray = frozen_array(np.eye(3), dtype=float)
_GRAM_TARGET: np.ndarray = frozen_array(3.0 * np.eye(9), dtype=float)


@dataclass(frozen=True, eq=False)
class PhasePointOperators:
    """The nine grid operators ``A_j``, indexed like the SIC outcomes."""

    ops: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.ops, dtype=complex)
        if arr.shape != (9, 3, 3):
            raise ValueError(f"expected 9 operators of shape (3, 3), got {arr.shape}")
        object.__setattr__(self, "ops", frozen_array(arr))


def phase_point_operators(m: MubSet) -> PhasePointOperators:
    """Build ``A_j = sum_{lines through j} P_line - I`` and verify.

    All three defining properties (unit trace, orthogonality
    ``tr A_j A_k = 3 delta_jk``, line averages equal the MUB projectors)
    are checked within ``DEFAULT_TOL``; violations raise with the residuals.
    """
    line_projectors = np.asarray(m.projectors).reshape(12, 3, 3)
    ops = line_projectors[POINT_LINES].sum(axis=1) - _IDENTITY

    trace_residual = float(np.max(np.abs(np.einsum("jaa->j", ops) - 1.0)))
    gram = np.einsum("jab,kba->jk", ops, ops).real
    gram_residual = float(np.max(np.abs(gram - _GRAM_TARGET)))
    line_residual = float(np.max(np.abs(ops[LINES].sum(axis=1) / 3.0 - line_projectors)))
    if max(trace_residual, gram_residual, line_residual) > DEFAULT_TOL:
        raise ValueError(
            "phase-point operator properties violated: residuals "
            f"trace={trace_residual:.3e}, orthogonality={gram_residual:.3e}, lines={line_residual:.3e}"
        )
    return PhasePointOperators(ops=ops)


def wigner_of_density(rho, a: PhasePointOperators) -> np.ndarray:
    """Wigner function ``W(j) = tr(rho A_j)/3`` of a density matrix with
    finite entries."""
    rm = require_finite(np.asarray(rho, dtype=complex), "density matrix")
    if rm.shape != (3, 3):
        raise ValueError(f"expected a 3x3 density matrix, got shape {rm.shape}")
    return np.einsum("ab,jba->j", rm, a.ops).real / 3.0


def wigner_from_sic_probabilities(p) -> np.ndarray:
    """Entrywise map ``W(i) = 1/3 - 2 p(i)`` from the SIC representation,
    whose entries must be finite."""
    vec = require_finite(np.asarray(p, dtype=float).reshape(-1), "SIC probability")
    if vec.shape[0] != 9:
        raise ValueError(f"expected 9 SIC probabilities, got {vec.shape[0]}")
    return 1.0 / 3.0 - 2.0 * vec


def line_marginals(w) -> dict[Triple, float]:
    """Sum the Wigner function along each of the 12 grid lines.

    For ``w`` coming from a state, the value at line ``(ijk)`` is the
    Born probability of that MUB outcome, and each striation's three
    values sum to the total mass of ``w``, whose entries must be finite.
    """
    vec = require_finite(np.asarray(w, dtype=float).reshape(-1), "Wigner")
    if vec.shape[0] != 9:
        raise ValueError(f"expected 9 Wigner values, got {vec.shape[0]}")
    return dict(zip(_LINE_KEYS, vec[LINES].sum(axis=1).tolist()))


def wigner_from_line_probs(q: dict[Triple, float]) -> np.ndarray:
    """Recover the Wigner function from the 12 line probabilities.

    ``W(i) = (sum of q over the four lines through i - 1)/3``; exact
    inverse of :func:`line_marginals` on consistent input.  ``q`` must
    name each of the 12 lines exactly once, its points in any order, with
    finite probabilities, and each striation's three probabilities must
    sum to 1 within ``LINE_NORMALIZATION_TOL``.
    """
    lookup = {line if line in _LINE_KEY_SET else tuple(sorted(line)): float(value) for line, value in q.items()}
    if len(q) != 12 or lookup.keys() != _LINE_KEY_SET:  # all 12 lines and 12 keys: no line named twice, no other key
        missing = sorted(_LINE_KEY_SET - lookup.keys())
        raise ValueError(f"need exactly the 12 lines of S(9), each once; missing {missing}, got {list(q)}")
    vec = require_finite(np.array(_line_values(lookup)), "line probability")
    totals = vec.reshape(4, 3).sum(axis=1)
    deviations = abs(totals - 1.0)
    if deviations.max() > LINE_NORMALIZATION_TOL:
        bad = int((deviations > LINE_NORMALIZATION_TOL).argmax())
        raise ValueError(f"striation {bad + 1} probabilities sum to {float(totals[bad])!r}, expected 1")
    return (vec[POINT_LINES].sum(axis=1) - 1.0) / 3.0


def negativity(w) -> float:
    """Total magnitude of the negative Wigner entries.

    Zero exactly when the quasi-probability is a true probability; for
    Wigner functions of valid qutrit states it never exceeds 1/3, a cap
    attained by the SIC states themselves.  Raises ``ValueError`` on a NaN
    or infinite entry, which would otherwise read as no negativity.
    """
    vec = require_finite(np.asarray(w, dtype=float).reshape(-1), "Wigner")
    return 0.0 - float(vec[vec < 0].sum())  # unlike -x, 0.0 - x gives +0.0 when nothing is negative

"""The line table of the 3x3 grid (the Steiner triple system S(9)) and
the mutually unbiased bases it generates from the Hesse SIC.

Writing the nine SIC indices row by row on a 3x3 grid, the horizontal,
vertical, and (cyclic) diagonal lines form the 12 triples of S(9),
grouped into four striations of three parallel lines.  The probability
vector that is zero on one triple and uniformly 1/6 elsewhere is the
SIC representation of a pure state orthogonal to those three SIC
states; each striation's three states form an orthonormal basis, and
the four bases are mutually unbiased (all cross-basis Hilbert-Schmidt
overlaps equal 1/3).

Striations are numbered 1..4 in the fixed order rows, columns,
diagonals, anti-diagonals.  A MUB state is identified by its zero
triple (states are carried as projectors and probability vectors, never
as phase-dependent kets).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qmath import DEFAULT_TOL, Check, basis_ket, frozen_array, projector
from .sicgen import SicSet, reconstruct_from_probabilities

Triple = tuple[int, int, int]

#: The 12 lines, striation-major: row ``3*s + k`` is line ``k`` of striation ``s+1``.
LINES: np.ndarray = frozen_array(
    [
        [0, 1, 2], [3, 4, 5], [6, 7, 8],  # rows
        [0, 3, 6], [1, 4, 7], [2, 5, 8],  # columns
        [0, 4, 8], [1, 5, 6], [2, 3, 7],  # diagonals
        [0, 5, 7], [1, 3, 8], [2, 4, 6],  # anti-diagonals
    ],
    dtype=int,
)

#: The rows of :data:`LINES` as sorted tuples, for membership tests.
_LINE_SET = frozenset(map(tuple, LINES.tolist()))

#: ``POINT_LINES[j]``: the four rows of :data:`LINES` through point ``j``, in striation order.
POINT_LINES: np.ndarray = frozen_array(np.argsort(LINES, axis=None, kind="stable").reshape(9, 4) // 3, dtype=int)


def _line_states(lines: np.ndarray, s: SicSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Probability vectors and projectors of the MUB states of a stack of
    lines ``(n, 3)``: each vector is zero on its line and 1/6 elsewhere,
    and each reconstruction must be a rank-1 projector within ``tol``."""
    if s.dim != 3:
        raise ValueError("MUB construction is defined for the qutrit SIC")
    p = np.full((len(lines), 9), 1.0 / 6.0)
    np.put_along_axis(p, lines, 0.0, axis=1)
    rho = reconstruct_from_probabilities(p, s)
    residuals = np.max(np.abs(rho @ rho - rho), axis=(1, 2))
    if residuals.max() > tol:
        worst = residuals.argmax()
        raise ValueError(f"reconstruction of {tuple(lines[worst].tolist())} is not a rank-1 projector: residual {residuals[worst]:.3e}")
    return p, rho


def mub_from_triple(triple, s: SicSet, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """MUB state for a Steiner line: probability vector and projector.

    The vector is zero on the line's three indices and 1/6 elsewhere;
    its reconstruction must come out a rank-1 projector within ``tol``
    (it does exactly for the lines of S(9), and for no other triples,
    which is why non-line triples are rejected up front).
    """
    key = tuple(sorted(int(i) for i in triple))
    if len(set(key)) != 3:
        raise ValueError(f"triple must consist of three distinct indices, got {triple}")
    if key not in _LINE_SET:
        raise ValueError(f"{key} is not a line of S(9); the uniform-1/6 vector would not be a state")
    p, rho = _line_states(np.array([key]), s, tol)
    return p[0], rho[0]


@dataclass(frozen=True, eq=False)
class MubSet:
    """Four mutually unbiased qutrit bases indexed by striation.

    ``projectors[s, k]`` and ``prob_vectors[s, k]`` describe the state of
    striation ``s+1`` whose zero triple is row ``3*s + k`` of :data:`LINES`.
    """

    projectors: np.ndarray
    prob_vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "projectors", frozen_array(self.projectors))
        object.__setattr__(self, "prob_vectors", frozen_array(self.prob_vectors, dtype=float))


def verify_mub_set(m: MubSet, tol: float = DEFAULT_TOL) -> Check:
    """Check orthonormality within each basis, completeness of each
    basis, and cross-basis overlap 1/3 for all 54 cross pairs.

    Passes iff ``max_within_basis_residual``, ``max_completeness_residual``
    and ``max_cross_basis_residual`` are all at most ``tol``.
    """
    p = np.asarray(m.projectors)
    n_striations, n_states = p.shape[:2]
    gram = np.einsum("siab,tjba->sitj", p, p).real.reshape(n_striations * n_states, -1)
    same_basis = np.kron(np.eye(n_striations, dtype=bool), np.ones((n_states, n_states), dtype=bool))
    within = float(np.max(np.abs(gram - np.eye(len(gram)))[same_basis]))
    cross = float(np.max(np.abs(gram - 1.0 / 3.0)[~same_basis], initial=0.0))
    completeness = float(np.max(np.abs(p.sum(axis=1) - np.eye(p.shape[-1]))))
    return Check(
        passed=within <= tol and completeness <= tol and cross <= tol,
        residuals={
            "max_within_basis_residual": within,
            "max_completeness_residual": completeness,
            "max_cross_basis_residual": cross,
        },
    )


def build_mub_set(s: SicSet, tol: float = DEFAULT_TOL) -> MubSet:
    """Build all 12 MUB states from the Hesse SIC and validate them.

    Raises ``ValueError`` with residuals if any validation fails,
    including the identification of striation 2 (columns) with the
    computational basis.
    """
    prob_vectors, projectors = _line_states(LINES, s, tol)
    mubs = MubSet(projectors=projectors.reshape(4, 3, 3, 3), prob_vectors=prob_vectors.reshape(4, 3, 9))
    check = verify_mub_set(mubs, tol=tol)
    if not check.passed:
        raise ValueError(f"MUB validation failed: {check.residuals}")
    computational = np.array([projector(basis_ket(3, j)) for j in range(3)])
    comp_residual = float(np.max(np.abs(mubs.projectors[1] - computational)))
    if comp_residual > tol:
        raise ValueError(f"striation 2 does not match the computational basis: residual {comp_residual:.3e}")
    return mubs


def _sic_mub_overlaps(m: MubSet, s: SicSet) -> np.ndarray:
    """``overlaps[i, t, k] = tr(P_i M_tk)``: SIC projector i against state k
    of striation t+1.  The PP functional of SIC states ``T`` measured in
    striation t+1 is ``overlaps[T, t].prod(axis=0).sum()``."""
    return np.einsum("iab,tkba->itk", np.asarray(s.projectors), np.asarray(m.projectors)).real


def _witnessing(values: np.ndarray, tol: float) -> list[int]:
    return [number for number, value in enumerate(values, start=1) if value <= tol]


def covering_witness(triple, m: MubSet, s: SicSet, tol: float = 1e-10) -> list[int]:
    """Striations whose basis certifies PP incompatibility of a SIC triple.

    Returns every 1-based striation number for which the PP functional
    of the three SIC states, measured in that striation's basis,
    vanishes within ``tol`` (ascending order; nonempty for all 84
    triples of distinct indices).
    """
    key = tuple(int(i) for i in triple)
    if len(set(key)) != 3 or not all(0 <= i <= 8 for i in key):
        raise ValueError(f"need three distinct SIC indices in 0-8, got {triple}")
    return _witnessing(_sic_mub_overlaps(m, s)[list(key)].prod(axis=0).sum(-1), tol)


def covering_table(m: MubSet, s: SicSet, tol: float = 1e-10) -> list[tuple[Triple, list[int]]]:
    """Witnessing striations for all C(9,3) = 84 SIC triples."""
    triples = list(combinations(range(9), 3))
    values = _sic_mub_overlaps(m, s)[np.array(triples)].prod(axis=1).sum(-1)
    return [(t, _witnessing(v, tol)) for t, v in zip(triples, values)]

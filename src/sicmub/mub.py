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

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .qmath import DEFAULT_TOL, Check, basis_ket, frozen_array, projector, require_finite, require_tolerance
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

#: Each row of :data:`LINES` as a sorted tuple, mapped to its row index.
_LINE_ROWS = {line: row for row, line in enumerate(map(tuple, LINES.tolist()))}

#: The C(9,3) = 84 triples of distinct SIC indices, each ascending, in lexicographic order.
TRIPLES: np.ndarray = frozen_array(list(combinations(range(9), 3)), dtype=int)

#: The rows of :data:`TRIPLES` as tuples, the keys of :func:`covering_table`.
_TRIPLE_KEYS: tuple[Triple, ...] = tuple(map(tuple, TRIPLES.tolist()))

#: ``POINT_LINES[j]``: the four rows of :data:`LINES` through point ``j``, in striation order.
POINT_LINES: np.ndarray = frozen_array(np.argsort(LINES, axis=None, kind="stable").reshape(9, 4) // 3, dtype=int)


def three_zero_vectors(triples: np.ndarray) -> np.ndarray:
    """One vector of length 9 per row of ``triples`` ``(n, 3)``: zero on the
    row's three indices and 1/6 elsewhere."""
    p = np.full((len(triples), 9), 1.0 / 6.0)
    np.put_along_axis(p, triples, 0.0, axis=1)
    return p


#: ``three_zero_vectors(LINES)``: row ``r`` is the probability vector of the MUB state of line ``r``.
LINE_VECTORS: np.ndarray = frozen_array(three_zero_vectors(LINES), dtype=float)

#: ``three_zero_vectors(TRIPLES)``: the 84 minimal-entropy candidates, in the order of :data:`TRIPLES`.
TRIPLE_VECTORS: np.ndarray = frozen_array(three_zero_vectors(TRIPLES), dtype=float)

#: The computational-basis projectors ``|j><j|``, ``j = 0, 1, 2``, which striation 2 must match.
COMPUTATIONAL_PROJECTORS: np.ndarray = frozen_array([projector(basis_ket(3, j)) for j in range(3)])


def _line_states(rows, s: SicSet) -> tuple[np.ndarray, np.ndarray]:
    """Probability vectors and projectors of the MUB states of the rows
    ``rows`` of :data:`LINES`: each vector is zero on its line and 1/6
    elsewhere, and each reconstruction must be a rank-1 projector within
    ``DEFAULT_TOL``."""
    if s.dim != 3:
        raise ValueError("MUB construction is defined for the qutrit SIC")
    p = LINE_VECTORS[rows]
    rho = reconstruct_from_probabilities(p, s)
    residuals = np.max(np.abs(rho @ rho - rho), axis=(1, 2))
    if residuals.max() > DEFAULT_TOL:
        worst = residuals.argmax()
        raise ValueError(f"reconstruction of {tuple(LINES[rows][worst].tolist())} is not a rank-1 projector: residual {residuals[worst]:.3e}")
    return p, rho


def _sic_indices(triple) -> Triple:
    """``triple``'s three distinct SIC indices in 0-8.  Each must be an
    integer (``operator.index``) and not a bool, so no float is truncated
    into an index; anything else raises ``ValueError``."""
    try:
        key = tuple(-1 if isinstance(i, bool) else operator.index(i) for i in triple)  # a bool as -1, out of range
    except TypeError:
        key = ()
    if len(key) != 3 or len(set(key)) != 3 or not all(0 <= i <= 8 for i in key):
        raise ValueError(f"need three distinct SIC indices in 0-8, got {triple}")
    return key


def mub_from_triple(triple, s: SicSet) -> tuple[np.ndarray, np.ndarray]:
    """MUB state for a Steiner line: probability vector and projector.

    The vector is zero on the line's three indices and 1/6 elsewhere;
    its reconstruction must come out a rank-1 projector within ``DEFAULT_TOL``
    (it does exactly for the lines of S(9), and for no other triples,
    which is why non-line triples are rejected up front).
    """
    key = tuple(sorted(_sic_indices(triple)))
    if key not in _LINE_ROWS:
        raise ValueError(f"{key} is not a line of S(9); the uniform-1/6 vector would not be a state")
    p, rho = _line_states([_LINE_ROWS[key]], s)
    return p[0], rho[0]


@dataclass(frozen=True, eq=False)
class MubSet:
    """Four mutually unbiased qutrit bases indexed by striation.

    ``projectors[s, k]`` and ``prob_vectors[s, k]`` describe the state of
    striation ``s+1`` whose zero triple is row ``3*s + k`` of :data:`LINES`.
    A NaN or infinite entry in either array raises ``ValueError``.
    """

    projectors: np.ndarray
    prob_vectors: np.ndarray

    def __post_init__(self):
        projectors = require_finite(np.asarray(self.projectors, dtype=complex), "MUB projector")
        prob_vectors = require_finite(np.asarray(self.prob_vectors, dtype=float), "MUB probability")
        object.__setattr__(self, "projectors", frozen_array(projectors))
        object.__setattr__(self, "prob_vectors", frozen_array(prob_vectors, dtype=float))


@lru_cache(maxsize=8)
def _verify_targets(n_striations: int, n_states: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`verify_mub_set` compares against, built once per size and
    read-only: the (s, t) masks of same-basis and of cross-basis pairs, and
    the identities of ``n_states`` and of ``d`` entries."""
    same_basis = np.eye(n_striations, dtype=bool)
    return (
        frozen_array(same_basis, dtype=bool),
        frozen_array(~same_basis, dtype=bool),
        frozen_array(np.eye(n_states), dtype=float),
        frozen_array(np.eye(d), dtype=float),
    )


def verify_mub_set(m: MubSet, tol: float = DEFAULT_TOL) -> Check:
    """Check orthonormality within each basis, completeness of each
    basis, and cross-basis overlap 1/3 for all 54 cross pairs.

    Passes iff ``max_within_basis_residual``, ``max_completeness_residual``
    and ``max_cross_basis_residual`` are all at most ``tol``.
    """
    require_tolerance(tol)
    p = np.asarray(m.projectors)
    n_striations, n_states = p.shape[:2]
    same_basis, cross_basis, state_identity, identity = _verify_targets(n_striations, n_states, p.shape[-1])
    gram = np.einsum("siab,tjba->sitj", p, p).real.swapaxes(1, 2)  # indexed (s, t, i, j)
    within = float(np.max(np.abs(gram[same_basis] - state_identity)))
    cross = float(np.max(np.abs(gram[cross_basis] - 1.0 / 3.0), initial=0.0))
    completeness = float(np.max(np.abs(p.sum(axis=1) - identity)))
    return Check(
        passed=within <= tol and completeness <= tol and cross <= tol,
        residuals={
            "max_within_basis_residual": within,
            "max_completeness_residual": completeness,
            "max_cross_basis_residual": cross,
        },
    )


def build_mub_set(s: SicSet) -> MubSet:
    """Build all 12 MUB states from the Hesse SIC and validate them
    within ``DEFAULT_TOL``.

    Raises ``ValueError`` with residuals if any validation fails,
    including the identification of striation 2 (columns) with the
    computational basis.
    """
    prob_vectors, projectors = _line_states(slice(None), s)
    mubs = MubSet(projectors=projectors.reshape(4, 3, 3, 3), prob_vectors=prob_vectors.reshape(4, 3, 9))
    check = verify_mub_set(mubs)
    if not check.passed:
        raise ValueError(f"MUB validation failed: {check.residuals}")
    comp_residual = float(np.max(np.abs(mubs.projectors[1] - COMPUTATIONAL_PROJECTORS)))
    if comp_residual > DEFAULT_TOL:
        raise ValueError(f"striation 2 does not match the computational basis: residual {comp_residual:.3e}")
    return mubs


def _witnesses(triples: np.ndarray, m: MubSet, s: SicSet, tol: float) -> list[list[int]]:
    """For each row of ``triples`` ``(n, 3)``, the 1-based striations in whose
    basis the PP functional of those three SIC states is at most ``tol``,
    ascending.  ``overlaps[i, t, k] = tr(P_i M_tk)`` is SIC projector i
    against state k of striation t+1, so the functional of SIC states ``T``
    in striation t+1 is ``overlaps[T, t].prod(axis=0).sum()``."""
    require_tolerance(tol)
    overlaps = np.einsum("iab,tkba->itk", np.asarray(s.projectors), np.asarray(m.projectors)).real
    rows, cols = np.nonzero(overlaps[triples].prod(axis=1).sum(-1) <= tol)
    lists: list[list[int]] = [[] for _ in range(len(triples))]
    for row, number in zip(rows.tolist(), (cols + 1).tolist()):
        lists[row].append(number)
    return lists


def covering_witness(triple, m: MubSet, s: SicSet, tol: float = DEFAULT_TOL) -> list[int]:
    """Striations whose basis certifies PP incompatibility of a SIC triple.

    Returns every 1-based striation number for which the PP functional
    of the three SIC states, measured in that striation's basis,
    vanishes within ``tol`` (ascending order; nonempty for all 84
    triples of distinct indices).
    """
    return _witnesses(np.array([_sic_indices(triple)]), m, s, tol)[0]


def covering_table(m: MubSet, s: SicSet, tol: float = DEFAULT_TOL) -> list[tuple[Triple, list[int]]]:
    """Witnessing striations for all C(9,3) = 84 SIC triples."""
    return list(zip(_TRIPLE_KEYS, _witnesses(TRIPLES, m, s, tol)))

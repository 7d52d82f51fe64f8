"""Orthogonality graphs, exact chromatic numbers, and the chromatic
test for state-independent contextuality.

A set of rank-1 projectors defines a graph with one vertex per state
and an edge wherever two states are orthogonal.  If the graph cannot be
properly colored with as many colors as the Hilbert-space dimension,
the set passes the chromatic-number precondition for state-independent
contextuality.  The 21 vertices formed by the nine Hesse SIC states
and their twelve MUB states give a 48-edge graph with chromatic
number 4 > 3.

The chromatic number is computed exactly by one backtracking
k-colorability search, run for k = 1, 2, ... until it finds a coloring:
the search is exhaustive, so every smaller k has been refuted.  The
solver accepts at most 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .mub import LINES, build_mub_set
from .qmath import SEARCH_TOL, frozen_array, projector_residuals
from .sicgen import hesse_sic

#: Default overlap tolerance for declaring two states orthogonal.
ORTHOGONALITY_TOL = 1e-9

#: Vertex-count cap for the exact coloring solver.
MAX_VERTICES = 64

#: The labels of :func:`hesse_mub_graph`: the SIC indices, then each MUB state's zero triple.
HESSE_MUB_LABELS: tuple[str, ...] = tuple([str(i) for i in range(9)] + ["".join(map(str, line)) for line in LINES.tolist()])


@dataclass(frozen=True, eq=False)
class OrthoGraph:
    """Undirected orthogonality graph: vertex labels plus a symmetric
    boolean adjacency matrix with an empty diagonal."""

    labels: tuple[str, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        n = len(self.labels)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} does not match {n} labels")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "adjacency", frozen_array(adj, dtype=bool))

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: one color index per vertex, the colors
    used being 0..k-1."""

    assignment: tuple[int, ...]


@dataclass(frozen=True)
class CabelloReport:
    """Chromatic-number contextuality verdict for one graph."""

    contextual: bool
    chromatic_number: int
    coloring: Coloring


def build_orthogonality_graph(states, labels, tol: float = ORTHOGONALITY_TOL) -> OrthoGraph:
    """Edge iff two rank-1 states have Hilbert-Schmidt overlap <= tol.

    Every state must be a rank-1 projector by the rule ``SicSet`` applies:
    Hermitian, trace 1 and idempotent, each within ``SEARCH_TOL``
    (:func:`sicmub.qmath.projector_residuals`).  An empty ``(0, d, d)``
    stack gives the empty graph.
    """
    arr = np.asarray(states, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"states must have shape (n, d, d), got {arr.shape}")
    if arr.shape[0] != len(labels):
        raise ValueError(f"{arr.shape[0]} states but {len(labels)} labels")
    gram = np.einsum("iab,jba->ij", arr, arr)
    imag = np.abs(gram.imag).max(initial=0.0)
    if imag > SEARCH_TOL:
        raise ValueError(f"trace product has imaginary residual {imag:.3e}")
    herm, trace, idem = projector_residuals(arr)
    if not (herm <= SEARCH_TOL and trace <= SEARCH_TOL and idem <= SEARCH_TOL):
        raise ValueError(f"states must be rank-1 projectors: residuals herm={herm:.3e}, trace={trace:.3e}, idem={idem:.3e}")
    # decide each pair once (i < j) and mirror, so rounding cannot break symmetry
    adjacency = np.triu(gram.real <= tol, k=1)
    adjacency |= adjacency.T
    return OrthoGraph(labels=tuple(labels), adjacency=adjacency)


def hesse_mub_graph(tol: float = ORTHOGONALITY_TOL) -> OrthoGraph:
    """The built-in 21-vertex graph of the Hesse SIC and its MUBs.

    SIC vertices are labeled "0".."8"; MUB vertices carry their zero
    triple as a three-digit label ("012", ..., "246") in striation
    order (:data:`HESSE_MUB_LABELS`).  The 21 states are built and checked
    anew on every call.
    """
    sic = hesse_sic()
    mubs = build_mub_set(sic)
    states = np.concatenate([sic.projectors, mubs.projectors.reshape(12, 3, 3)])
    return build_orthogonality_graph(states, HESSE_MUB_LABELS, tol=tol)


def _dsatur_ranks(degrees: list[int]) -> list[int]:
    """Each vertex's tie-break rank in 0..n-1 for :func:`_k_colorable`: a
    higher degree ranks higher, then a lower index."""
    ranks = [0] * len(degrees)
    for rank, v in enumerate(sorted(range(len(degrees)), key=lambda u: (degrees[u], -u))):
        ranks[v] = rank
    return ranks


def _k_colorable(neighbors: list[list[int]], ranks: list[int], k: int) -> list[int] | None:
    """Backtracking k-colorability with DSATUR-style vertex selection
    and first-fresh-color symmetry pruning, on a graph given by each
    vertex's neighbour list and its :func:`_dsatur_ranks` rank.

    Each vertex carries two ints: ``masks[v]``, bit ``c`` set iff a colored
    neighbour has color ``c``, and the DSATUR key ``saturation * (n + 1) +
    rank``.  The largest key is the uncolored vertex of most distinct
    neighbour colors, then highest degree, then lowest index; a colored
    vertex's key is -1, so the largest key is -1 once every vertex is
    colored.
    """
    n = len(neighbors)
    step = n + 1
    keys = list(ranks)
    masks = [0] * n
    colors = [-1] * n

    def backtrack(num_used: int) -> bool:
        key = max(keys)
        if key < 0:
            return True
        if key // step >= k:
            return False
        v = keys.index(key)
        keys[v] = -1
        taken = masks[v]
        for color in range(min(k, num_used + 1)):
            bit = 1 << color
            if taken & bit:
                continue
            colors[v] = color
            touched = [u for u in neighbors[v] if keys[u] >= 0 and not masks[u] & bit]
            for u in touched:
                masks[u] |= bit
                keys[u] += step
            if backtrack(max(num_used, color + 1)):
                return True
            for u in touched:
                masks[u] ^= bit
                keys[u] -= step
        keys[v] = key
        return False

    return colors if backtrack(0) else None


def chromatic_number(g: OrthoGraph) -> tuple[int, Coloring]:
    """Exact chromatic number with an optimal proper coloring.

    Runs the backtracking k-colorability search for k = 1, 2, ... on
    neighbour lists and ranks built once, and returns the first
    coloring found.  The search is exhaustive, so each
    failed k is a proof that the graph needs more colors, and the
    returned k is the chromatic number.  Graphs above 64 vertices are
    rejected, as the exhaustive search stops being practical there.
    """
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph has {g.n} vertices; exact solver is capped at {MAX_VERTICES}")
    if g.n == 0:
        return 0, Coloring(assignment=())
    adjacency = np.asarray(g.adjacency)
    rows, cols = np.nonzero(adjacency)  # row-major, so each vertex's neighbours are one run of ``cols``
    degrees = adjacency.sum(axis=1).tolist()
    targets = cols.tolist()
    neighbors = [targets[end - degree : end] for degree, end in zip(degrees, accumulate(degrees))]
    ranks = _dsatur_ranks(degrees)
    k = 1
    while (colors := _k_colorable(neighbors, ranks, k)) is None:
        k += 1
    arr = np.asarray(colors)
    if np.any(arr[rows] == arr[cols]):
        raise RuntimeError("coloring solver produced an improper coloring")
    return k, Coloring(assignment=tuple(colors))


def cabello_criterion(g: OrthoGraph, d: int) -> CabelloReport:
    """Chromatic-number contextuality test: true iff chi(graph) > d."""
    chi, coloring = chromatic_number(g)
    return CabelloReport(contextual=chi > d, chromatic_number=chi, coloring=coloring)

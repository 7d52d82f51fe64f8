"""Orthogonality graphs, exact chromatic numbers, and the chromatic
test for state-independent contextuality.

A set of rank-1 projectors defines a graph with one vertex per state
and an edge wherever two states are orthogonal.  If the graph cannot be
properly colored with as many colors as the Hilbert-space dimension,
the set passes the chromatic-number precondition for state-independent
contextuality.  The 21 vertices formed by the nine Hesse SIC states
and their twelve MUB states give a 48-edge graph with chromatic
number 4 > 3.

The chromatic number is computed exactly: a greedy clique supplies a
lower bound, DSATUR an upper bound, and a backtracking k-colorability
search closes the gap.  Exactness is guaranteed (and enforced) only up
to 64 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mub import LINES, build_mub_set
from .qmath import SEARCH_TOL, frozen_array
from .sicgen import hesse_sic

#: Default overlap tolerance for declaring two states orthogonal.
ORTHOGONALITY_TOL = 1e-9

#: Vertex-count cap for the exact coloring solver.
MAX_VERTICES = 64


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
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.adjacency[i, j]]

    def degree(self, vertex: int) -> int:
        return int(self.adjacency[vertex].sum())


@dataclass(frozen=True)
class Coloring:
    """Proper vertex coloring: color indices 0..num_colors-1 per vertex."""

    assignment: tuple[int, ...]
    num_colors: int


@dataclass(frozen=True)
class CabelloReport:
    """Chromatic-number contextuality verdict for one graph."""

    contextual: bool
    chromatic_number: int
    dim: int
    coloring: Coloring


def build_orthogonality_graph(states, labels, tol: float = ORTHOGONALITY_TOL) -> OrthoGraph:
    """Edge iff two rank-1 states have Hilbert-Schmidt overlap <= tol."""
    arr = np.asarray(states, dtype=complex)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"states must have shape (n, d, d), got {arr.shape}")
    if arr.shape[0] != len(labels):
        raise ValueError(f"{arr.shape[0]} states but {len(labels)} labels")
    idem = np.max(np.abs(np.einsum("iab,ibc->iac", arr, arr) - arr))
    if idem > 1e-8:
        raise ValueError(f"states must be rank-1 projectors: idempotency residual {idem:.3e}")
    gram = np.einsum("iab,jba->ij", arr, arr)
    imag = np.max(np.abs(gram.imag))
    if imag > SEARCH_TOL:
        raise ValueError(f"trace product has imaginary residual {imag:.3e}")
    # decide each pair once (i < j) and mirror, so rounding cannot break symmetry
    adjacency = np.triu(gram.real <= tol, k=1)
    adjacency |= adjacency.T
    return OrthoGraph(labels=tuple(labels), adjacency=adjacency)


def hesse_mub_graph(tol: float = ORTHOGONALITY_TOL) -> OrthoGraph:
    """The built-in 21-vertex graph of the Hesse SIC and its MUBs.

    SIC vertices are labeled "0".."8"; MUB vertices carry their zero
    triple as a three-digit label ("012", ..., "246") in striation
    order.
    """
    sic = hesse_sic()
    mubs = build_mub_set(sic)
    states = np.concatenate([sic.projectors, mubs.projectors.reshape(12, 3, 3)])
    labels = [str(i) for i in range(9)] + ["".join(map(str, line)) for line in LINES.tolist()]
    return build_orthogonality_graph(states, labels, tol=tol)


def _greedy_clique(adjacency: np.ndarray) -> list[int]:
    """Heuristic clique (chromatic lower bound), grown greedily from
    each vertex in degree order."""
    n = adjacency.shape[0]
    degrees = adjacency.sum(axis=1)
    best: list[int] = []
    for start in sorted(range(n), key=lambda v: (-degrees[v], v)):
        clique = [start]
        candidates = set(np.flatnonzero(adjacency[start]))
        while candidates:
            pick = max(candidates, key=lambda v: (sum(adjacency[v, u] for u in candidates), -v))
            clique.append(pick)
            candidates &= set(np.flatnonzero(adjacency[pick]))
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur(adjacency: np.ndarray) -> list[int]:
    """DSATUR greedy coloring (chromatic upper bound); ties broken by
    lowest vertex index for reproducible colorings."""
    n = adjacency.shape[0]
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    degrees = adjacency.sum(axis=1)
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=lambda u: (len(neighbor_colors[u]), degrees[u], -u))
        color = 0
        while color in neighbor_colors[v]:
            color += 1
        colors[v] = color
        uncolored.remove(v)
        for u in np.flatnonzero(adjacency[v]):
            if colors[u] == -1:
                neighbor_colors[u].add(color)
    return colors


def _k_colorable(adjacency: np.ndarray, k: int) -> list[int] | None:
    """Backtracking k-colorability with DSATUR-style vertex selection
    and first-fresh-color symmetry pruning."""
    n = adjacency.shape[0]
    colors = [-1] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    degrees = adjacency.sum(axis=1)
    neighbors = [np.flatnonzero(adjacency[v]) for v in range(n)]

    def backtrack(num_used: int) -> bool:
        uncolored = [v for v in range(n) if colors[v] == -1]
        if not uncolored:
            return True
        v = max(uncolored, key=lambda u: (len(neighbor_colors[u]), degrees[u], -u))
        if len(neighbor_colors[v]) >= k:
            return False
        limit = min(k, num_used + 1)
        for color in range(limit):
            if color in neighbor_colors[v]:
                continue
            colors[v] = color
            touched = []
            for u in neighbors[v]:
                if colors[u] == -1 and color not in neighbor_colors[u]:
                    neighbor_colors[u].add(color)
                    touched.append(u)
            if backtrack(max(num_used, color + 1)):
                return True
            colors[v] = -1
            for u in touched:
                neighbor_colors[u].remove(color)
        return False

    return list(colors) if backtrack(0) else None


def _check_proper(adjacency: np.ndarray, colors: list[int]) -> None:
    rows, cols = np.nonzero(adjacency)
    arr = np.asarray(colors)
    if np.any(arr[rows] == arr[cols]):
        raise RuntimeError("coloring solver produced an improper coloring")


def chromatic_number(g: OrthoGraph) -> tuple[int, Coloring]:
    """Exact chromatic number with an optimal proper coloring.

    Clique lower bound, DSATUR upper bound, and backtracking search for
    every k in between.  Graphs above 64 vertices are rejected, as the
    exactness guarantee stops being practical there.
    """
    if g.n > MAX_VERTICES:
        raise ValueError(f"graph has {g.n} vertices; exact solver is capped at {MAX_VERTICES}")
    if g.n == 0:
        return 0, Coloring(assignment=(), num_colors=0)
    adjacency = np.asarray(g.adjacency)
    lower = max(1, len(_greedy_clique(adjacency)))
    upper_colors = _dsatur(adjacency)
    upper = max(upper_colors) + 1
    best = upper_colors
    best_k = upper
    for k in range(lower, upper):
        solution = _k_colorable(adjacency, k)
        if solution is not None:
            best, best_k = solution, max(solution) + 1
            break
    _check_proper(adjacency, best)
    return best_k, Coloring(assignment=tuple(best), num_colors=best_k)


def cabello_criterion(g: OrthoGraph, d: int) -> CabelloReport:
    """Chromatic-number contextuality test: true iff chi(graph) > d."""
    chi, coloring = chromatic_number(g)
    return CabelloReport(contextual=chi > d, chromatic_number=chi, dim=d, coloring=coloring)

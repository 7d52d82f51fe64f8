"""Seeded inputs and the reference arithmetic the checks use.

Nothing here imports sicmub: the inputs are generated and the outputs
are checked with plain numpy, so a defect in the library cannot make
its own output look right.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

_W = np.exp(2j * np.pi / 3)

#: The nine Hesse SIC kets in the grid order i = 3b + a (fiducial (0, 1, -1)/sqrt2).
HESSE_KETS = np.array(
    [
        [0, 1, -1],
        [-1, 0, 1],
        [1, -1, 0],
        [0, _W, -_W.conjugate()],
        [-1, 0, _W.conjugate()],
        [1, -_W, 0],
        [0, _W.conjugate(), -_W],
        [-1, 0, _W],
        [1, -_W.conjugate(), 0],
    ],
    dtype=complex,
) / math.sqrt(2.0)

#: The pairwise-compatible, jointly incompatible triple (id ``cfs-example``).
CFS_KETS = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex) / math.sqrt(2.0)

#: The twelve lines of the 3x3 grid, striations 1-4 (rows, columns, diagonals, anti-diagonals).
GRID_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6),
)

HESSE_TRIPLES = tuple(combinations(range(9), 3))


def random_ket(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank Ginibre state ``G G† / tr(G G†)``."""
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    return m / np.trace(m).real


def projectors(kets) -> np.ndarray:
    k = np.asarray(kets)
    return np.einsum("na,nb->nab", k, k.conj())


def _classify(kets: np.ndarray):
    """Vectorised :func:`triple_class` over triples stacked on the leading axes."""
    x = np.abs(np.einsum("...ia,...ia->...i", kets.conj(), np.roll(kets, -1, axis=-2))) ** 2
    s = x.sum(axis=-1)
    gap = (s - 1.0) ** 2 - 4.0 * x.prod(axis=-1)
    return (s < 1.0) & (gap >= 0.0), np.where(s < 1.0, -gap, s - 1.0), gap


def triple_class(kets) -> tuple[bool, float, float]:
    """Closed-form PP-ODOP class of three pure qutrit states.

    Returns ``(incompatible, margin, gap)``: incompatible iff the overlap
    sum is below 1 and ``(S - 1)**2 >= 4 x1 x2 x3``.  ``margin`` is the
    distance into the compatible region as the agreement test measures
    it; ``gap`` is ``(S - 1)**2 - 4 x1 x2 x3``.
    """
    incompatible, margin, gap = _classify(np.asarray(kets, dtype=complex))
    return bool(incompatible), float(margin), float(gap)


def random_triples(rng: np.random.Generator, n: int, incompatible: bool) -> list[tuple[np.ndarray, float]]:
    """``n`` random pure triples of one class, stratified by margin, with their margins.

    Search time depends strongly on the margin (correlation -0.7 with its
    log on compatible triples), so a plain draw lets each seed's mix of
    near-boundary triples move the run's figures.  Candidates are drawn
    until each of ``n`` equal-count margin bins holds about twenty; the
    first candidate in each bin is kept, and the bins are visited in a
    stride order so that every prefix of the list spans the margin range.
    """
    kets, margins = [], []
    while sum(len(m) for m in margins) < 20 * n:
        v = rng.standard_normal((4096, 3, 3)) + 1j * rng.standard_normal((4096, 3, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        inc, margin, _ = _classify(v)
        keep = inc == incompatible
        kets.append(v[keep])
        margins.append(margin[keep])
    kets, margins = np.concatenate(kets), np.concatenate(margins)
    edges = np.quantile(margins, np.linspace(0.0, 1.0, n + 1)[1:-1])
    bins = np.searchsorted(edges, margins, side="right")
    first = [int(np.flatnonzero(bins == b)[0]) for b in range(n)]
    stride = next(k for k in range(int(0.618 * n), n) if math.gcd(k, n) == 1)
    return [(kets[first[(i * stride) % n]], float(margins[first[(i * stride) % n]])) for i in range(n)]


def pp_value(kets, basis) -> float:
    """PP functional ``sum_i prod_a |<b_i|psi_a>|**2`` of pure states in a basis (rows)."""
    amp = np.asarray(basis).conj() @ np.asarray(kets).T
    return float((np.abs(amp) ** 2).prod(axis=1).sum())


def orthonormality_residual(basis) -> float:
    b = np.asarray(basis)
    return float(np.max(np.abs(b.conj() @ b.T - np.eye(b.shape[0]))))


def sic_probs(rho) -> np.ndarray:
    """``p(i) = <psi_i|rho|psi_i> / 3`` over the Hesse kets."""
    return np.einsum("ia,ab,ib->i", HESSE_KETS.conj(), rho, HESSE_KETS).real / 3.0

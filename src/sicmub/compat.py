"""Post-Peierls compatibility of quantum state assignments.

A set of states is post-Peierls (PP) incompatible when some measurement
has, for every outcome, at least one state assigning it probability
zero, i.e. the product-sum functional

    F = sum_i  prod_a  tr(rho_a E_i)

vanishes.  Restricting the measurements to von Neumann bases (rank-1
orthogonal projectors, "ODOP") gives PP-ODOP compatibility.  For three
qutrit pure states there is an exact algebraic criterion on the three
squared overlaps; for arbitrary inputs a seeded derivative-free search
over bases provides a constructive certificate.

The ternary criterion implemented here uses the non-strict inequality
``(x1 + x2 + x3 - 1)**2 >= 4 x1 x2 x3``: equality (saturation) counts
as incompatible.  With the strict form, the standard pairwise-compatible
but jointly incompatible triple (built-in id ``cfs-example``) would be
misclassified as compatible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import SEARCH_TOL, frozen_array, overlap_squared, validate_density_matrix

#: Absolute tie tolerance for flagging saturation of the ternary criterion.
SATURATION_TOL = 1e-9

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True, eq=False)
class StateSet:
    """Two or more density matrices on a common space."""

    dim: int
    rhos: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rhos, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"expected states of shape (N, {self.dim}, {self.dim}), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("a StateSet needs at least two states")
        for i, rho in enumerate(arr):
            report = validate_density_matrix(rho, tol=SEARCH_TOL)
            if not report.passed:
                raise ValueError(f"state {i} is not a valid density matrix: {report.residuals()}")
        object.__setattr__(self, "rhos", frozen_array(arr))

    @classmethod
    def from_kets(cls, kets) -> "StateSet":
        arr = np.asarray(kets, dtype=complex)
        rhos = np.einsum("na,nb->nab", arr, arr.conj())
        return cls(dim=arr.shape[1], rhos=rhos)

    def __len__(self) -> int:
        return self.rhos.shape[0]


@dataclass(frozen=True)
class CompatVerdict:
    """Verdict of the ternary PP-ODOP criterion.

    ``overlap_sum`` is ``x1 + x2 + x3``; ``boundary_lhs`` and
    ``boundary_rhs`` are the two sides ``(overlap_sum - 1)**2`` and
    ``4 x1 x2 x3`` of the boundary inequality.  ``saturated`` flags
    equality of those within the tie tolerance (and implies
    incompatibility).  ``witness`` carries an explicit measurement basis
    when one is known by construction.
    """

    verdict: str
    saturated: bool
    overlaps: tuple[float, float, float]
    overlap_sum: float
    boundary_lhs: float
    boundary_rhs: float
    witness: np.ndarray | None = None

    @property
    def incompatible(self) -> bool:
        return self.verdict == INCOMPATIBLE


@dataclass(frozen=True)
class PairVerdict:
    """Verdict of the pairwise PP check (orthogonality test)."""

    verdict: str
    overlap_sq: float
    witness: np.ndarray | None = None

    @property
    def incompatible(self) -> bool:
        return self.verdict == INCOMPATIBLE


def pp_functional(states: StateSet, effects) -> float:
    """The PP product-sum ``sum_i prod_a tr(rho_a E_i)``.

    Nonnegative for valid inputs; a value of zero (within tolerance)
    certifies PP incompatibility for this particular measurement.
    """
    eff = np.asarray(effects, dtype=complex)
    if eff.ndim != 3 or eff.shape[1] != eff.shape[2]:
        raise ValueError(f"measurement must have shape (k, d, d), got {eff.shape}")
    if eff.shape[1] != states.dim:
        raise ValueError(f"dimension mismatch: states {states.dim} vs measurement {eff.shape[1]}")
    probs = np.einsum("nab,kba->nk", states.rhos, eff).real
    return float(probs.prod(axis=0).sum())


def _complete_to_basis(kets: list[np.ndarray], dim: int) -> np.ndarray:
    """Extend orthonormal kets to a full basis (rows) via QR."""
    given = np.array(kets, dtype=complex)
    q, _ = np.linalg.qr(np.concatenate([given.T, np.eye(dim, dtype=complex)], axis=1))
    basis = [v for v in given]
    for col in q.T:
        if len(basis) == dim:
            break
        comp = col.copy()
        for v in basis:
            comp -= np.vdot(v, comp) * v
        norm = np.linalg.norm(comp)
        if norm > 1e-7:
            basis.append(comp / norm)
    return np.array(basis)


def qutrit_triple_criterion(
    a,
    b,
    c,
    tol: float = SEARCH_TOL,
    saturation_tol: float = SATURATION_TOL,
) -> CompatVerdict:
    """Exact PP-ODOP verdict for three qutrit pure states.

    With squared overlaps ``x1 = |<a|b>|**2``, ``x2 = |<b|c>|**2``,
    ``x3 = |<c|a>|**2`` the triple is incompatible iff

        x1 + x2 + x3 < 1   and   (x1 + x2 + x3 - 1)**2 >= 4 x1 x2 x3,

    the comparison applied within ``tol``.  An orthogonal pair (any
    ``x_i <= tol``) short-circuits to incompatible: the inequalities are
    derived for strictly nonzero overlaps, and a basis containing the
    orthogonal pair witnesses the incompatibility directly (it is
    attached as ``witness``).

    Raises ``ValueError`` for non-qutrit input or states identical as
    projectors.
    """
    kets = [np.asarray(v, dtype=complex).reshape(-1) for v in (a, b, c)]
    for v in kets:
        if v.shape[0] != 3:
            raise ValueError(f"criterion applies to qutrits only, got dimension {v.shape[0]}")
        if abs(np.linalg.norm(v) - 1.0) > SEARCH_TOL:
            raise ValueError("states must be unit kets")
    x1 = overlap_squared(kets[0], kets[1])
    x2 = overlap_squared(kets[1], kets[2])
    x3 = overlap_squared(kets[2], kets[0])
    for name, x in (("1st/2nd", x1), ("2nd/3rd", x2), ("3rd/1st", x3)):
        if 1.0 - x <= tol:
            raise ValueError(f"{name} states are identical as projectors (|overlap|^2 = {x!r})")
    overlaps = (x1, x2, x3)
    overlap_sum = x1 + x2 + x3
    boundary_lhs = (overlap_sum - 1.0) ** 2
    boundary_rhs = 4.0 * x1 * x2 * x3
    saturated_eq = abs(boundary_lhs - boundary_rhs) <= saturation_tol

    witness = None
    ortho_pairs = [(i, j) for (i, j, x) in ((0, 1, x1), (1, 2, x2), (2, 0, x3)) if x <= tol]
    if ortho_pairs:
        i, j = ortho_pairs[0]
        witness = _complete_to_basis([kets[i], kets[j]], 3)
        incompatible = True
    else:
        incompatible = overlap_sum < 1.0 and boundary_lhs >= boundary_rhs - tol

    return CompatVerdict(
        verdict=INCOMPATIBLE if incompatible else COMPATIBLE,
        saturated=bool(incompatible and saturated_eq),
        overlaps=overlaps,
        overlap_sum=overlap_sum,
        boundary_lhs=boundary_lhs,
        boundary_rhs=boundary_rhs,
        witness=None if witness is None else frozen_array(witness),
    )


def pairwise_pp_check(a, b, tol: float = SEARCH_TOL) -> PairVerdict:
    """Two pure states are PP incompatible iff they are orthogonal.

    Any basis containing both states witnesses the incompatible case;
    one is attached to the verdict.
    """
    u = np.asarray(a, dtype=complex).reshape(-1)
    v = np.asarray(b, dtype=complex).reshape(-1)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    x = overlap_squared(u, v)
    if 1.0 - x <= tol:
        raise ValueError(f"states are identical as projectors (|overlap|^2 = {x!r})")
    if x <= tol:
        return PairVerdict(
            verdict=INCOMPATIBLE,
            overlap_sq=x,
            witness=frozen_array(_complete_to_basis([u, v], u.shape[0])),
        )
    return PairVerdict(verdict=COMPATIBLE, overlap_sq=x)


def saturation_profile(x: float) -> float:
    """The boundary cubic ``4x**3 - 9x**2 + 6x - 1`` of the equal-overlap
    saturation condition; its real roots are 1/4 and a double root at 1."""
    return ((4.0 * x - 9.0) * x + 6.0) * x - 1.0


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float, tol: float = 1e-12) -> list[tuple[float, int]]:
    """Real roots of ``c3 x**3 + c2 x**2 + c1 x + c0`` with multiplicities.

    Classifies via the discriminant of the monic cubic so repeated roots
    are resolved by closed-form rational expressions instead of an
    ill-conditioned generic eigenvalue solve.  Returns ``(root, mult)``
    pairs sorted by root.
    """
    if c3 == 0:
        raise ValueError("leading coefficient must be nonzero")
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    disc = 18.0 * b * c * d - 4.0 * b**3 * d + b**2 * c**2 - 4.0 * c**3 - 27.0 * d**2
    scale = max(1.0, abs(b), abs(c), abs(d)) ** 4
    delta0 = b * b - 3.0 * c
    if abs(disc) <= tol * scale:
        if abs(delta0) <= tol * max(1.0, abs(b), abs(c)) ** 2:
            return [(-b / 3.0, 3)]
        double = (9.0 * d - b * c) / (2.0 * delta0)
        simple = (4.0 * b * c - 9.0 * d - b**3) / delta0
        roots = [(simple, 1), (double, 2)]
    elif disc > 0:
        # Three distinct real roots: trigonometric form of the depressed cubic.
        p = c - b * b / 3.0
        q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m))))
        roots = [(m * math.cos((phi - 2.0 * math.pi * k) / 3.0) - b / 3.0, 1) for k in range(3)]
    else:
        # One real root: Cardano.
        p = c - b * b / 3.0
        q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
        rad = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        u = math.copysign(abs(-q / 2.0 + rad) ** (1.0 / 3.0), -q / 2.0 + rad)
        v = math.copysign(abs(-q / 2.0 - rad) ** (1.0 / 3.0), -q / 2.0 - rad)
        roots = [(u + v - b / 3.0, 1)]
    return sorted(roots)


def saturation_cubic_roots(tol: float = 1e-12) -> list[tuple[float, int]]:
    """Roots of the saturation cubic: ``[(0.25, 1), (1.0, 2)]``."""
    return real_cubic_roots(4.0, -9.0, 6.0, -1.0, tol=tol)


def cfs_example_kets() -> np.ndarray:
    """The pairwise-compatible, jointly PP-ODOP-incompatible qutrit
    triple ``(|1>+|2>)/sqrt2, (|2>+|0>)/sqrt2, (|0>+|1>)/sqrt2``."""
    return np.array(
        [
            [0, 1, 1],
            [1, 0, 1],
            [1, 1, 0],
        ],
        dtype=complex,
    ) / math.sqrt(2.0)


def cfs_example_states() -> StateSet:
    """Density-matrix form of :func:`cfs_example_kets` (built-in id
    ``cfs-example``)."""
    return StateSet.from_kets(cfs_example_kets())


@dataclass(frozen=True)
class WitnessSearchConfig:
    """Settings for the seeded random-restart witness search.

    Each restart draws a Haar-random basis and refines it by cycling
    over the elementary Hermitian-generator rotations of the unitary
    group (pair mixing only; pure phase generators do not move a basis
    of projectors), probing each rotation angle with a three-point
    quadratic fit at the current step.  The step shrinks by
    ``step_shrink`` after any cycle that fails to improve the value by
    a relative 1e-3, and the restart stops below ``min_step``, at
    ``max_iters`` cycles, or once the functional drops below
    ``success_threshold``.  With ``stop_at_success`` the restart loop
    itself exits on the first success; the reported winner (lowest
    value, ties to the lowest restart index) is deterministic for a
    given ``seed`` either way.
    """

    restarts: int = 32
    max_iters: int = 200
    seed: int = 0
    success_threshold: float = 1e-10
    initial_step: float = 0.5
    step_shrink: float = 0.5
    min_step: float = 1e-9
    stop_at_success: bool = True

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")
        if not (math.isfinite(self.success_threshold) and self.success_threshold > 0):
            raise ValueError(f"success_threshold must be finite and positive, got {self.success_threshold!r}")
        if not (0 < self.step_shrink < 1):
            raise ValueError("step_shrink must lie in (0, 1)")


#: A cycle improving the value by less than this relative amount counts
#: as failed and triggers a step shrink.
_CYCLE_IMPROVEMENT_REL = 1e-3

#: Gauss-Newton polish limits: iteration cap, finite-difference step,
#: and the trust cap on one update's parameter norm.
_POLISH_ITERS = 40
_POLISH_FD_EPS = 1e-7
_POLISH_MAX_STEP = 0.5


@dataclass(frozen=True)
class RestartRecord:
    restart: int
    start_value: float
    final_value: float
    cycles: int


@dataclass(frozen=True)
class WitnessSearchResult:
    """Best basis found, its functional value, and per-restart history."""

    basis: np.ndarray
    value: float
    success: bool
    best_restart: int
    history: tuple[RestartRecord, ...]
    config: WitnessSearchConfig


def _functional_on_basis(rhos: np.ndarray, basis: np.ndarray) -> float:
    probs = np.einsum("id,nde,ie->ni", basis.conj(), rhos, basis).real
    return float(probs.prod(axis=0).sum())


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases)).conj()


def _rotated_pair(u: np.ndarray, j: int, k: int, flavor: int, angle: float) -> np.ndarray:
    """Columns j, k of ``u`` after the elementary rotation exp(i t G).

    ``flavor`` 0 uses the symmetric generator ``|j><k| + |k><j|``,
    flavor 1 the antisymmetric ``i|k><j| - i|j><k|``; either only mixes
    the two columns.
    """
    ct, st = math.cos(angle), math.sin(angle)
    uj, uk = u[:, j], u[:, k]
    if flavor == 0:
        return np.stack([ct * uj + 1j * st * uk, 1j * st * uj + ct * uk], axis=1)
    return np.stack([ct * uj - st * uk, st * uj + ct * uk], axis=1)


def _descend(rhos: np.ndarray, u: np.ndarray, cfg: WitnessSearchConfig, stop_value: float):
    """Refine a basis in place; returns (value, basis, start_value, cycles)."""
    d = u.shape[0]
    coords = [(j, k, flavor) for j in range(d) for k in range(j + 1, d) for flavor in (0, 1)]

    def column_probs(cols: np.ndarray) -> np.ndarray:
        return np.einsum("nde,dm,em->nm", rhos, cols.conj(), cols).real

    probs = column_probs(u)
    outcome_products = probs.prod(axis=0)
    value = float(outcome_products.sum())
    start_value = value
    step = cfg.initial_step
    cycles = 0
    while cycles < cfg.max_iters and step >= cfg.min_step and value > stop_value:
        cycle_start = value
        for j, k, flavor in coords:
            def probe(angle: float):
                cols = _rotated_pair(u, j, k, flavor, angle)
                new_probs = column_probs(cols)
                new_value = value - outcome_products[j] - outcome_products[k] + new_probs.prod(axis=0).sum()
                return float(new_value), cols, new_probs

            f_minus, cols_minus, probs_minus = probe(-step)
            f_plus, cols_plus, probs_plus = probe(step)
            best = (value, 0.0, None, None)
            if f_minus < best[0]:
                best = (f_minus, -step, cols_minus, probs_minus)
            if f_plus < best[0]:
                best = (f_plus, step, cols_plus, probs_plus)
            curvature = f_minus - 2.0 * value + f_plus
            if curvature > 0.0:
                vertex = 0.5 * step * (f_minus - f_plus) / curvature
                vertex = min(max(vertex, -2.0 * step), 2.0 * step)
                f_vertex, cols_vertex, probs_vertex = probe(vertex)
                if f_vertex < best[0]:
                    best = (f_vertex, vertex, cols_vertex, probs_vertex)
            if best[1] != 0.0:
                value, _, cols, new_probs = best
                u[:, j], u[:, k] = cols[:, 0], cols[:, 1]
                probs[:, j], probs[:, k] = new_probs[:, 0], new_probs[:, 1]
                outcome_products[j] = probs[:, j].prod()
                outcome_products[k] = probs[:, k].prod()
            if value <= stop_value:
                break
        cycles += 1
        if cycle_start - value <= _CYCLE_IMPROVEMENT_REL * cycle_start:
            step *= cfg.step_shrink
    return value, u, start_value, cycles


def _state_factors(rhos: np.ndarray, tol: float = 1e-12) -> list[np.ndarray]:
    """Factor each state as ``rho = W W†`` (columns of W span the support)."""
    factors = []
    for rho in rhos:
        w, v = np.linalg.eigh(rho)
        keep = w > tol
        factors.append(v[:, keep] * np.sqrt(w[keep]))
    return factors


def _generator_move(u: np.ndarray, delta: np.ndarray, d: int) -> np.ndarray:
    """Rotate ``u`` by ``exp(iH)`` with H the pair-mixing generator
    combination weighted by ``delta`` (ordering matches _descend's)."""
    h = np.zeros((d, d), dtype=complex)
    g = 0
    for j in range(d):
        for k in range(j + 1, d):
            h[j, k] += delta[g] - 1j * delta[g + 1]
            h[k, j] += delta[g] + 1j * delta[g + 1]
            g += 2
    w, v = np.linalg.eigh(h)
    return u @ ((v * np.exp(1j * w)) @ v.conj().T)


def _gauss_newton_polish(rhos: np.ndarray, u: np.ndarray, value: float):
    """Drive the matched-orthogonality residuals to zero.

    At a vanishing PP functional every outcome ket is orthogonal to the
    support of (at least) one state.  The coordinate descent locates
    the right matching but crawls when the zero is degenerate (the
    saturated case), so finish the job on the root system instead: the
    residuals ``W_a(i)† e_i`` are linear in the basis and Gauss-Newton
    keeps converging where the functional itself is quartic-flat.
    Every update is accepted only if the functional improves, so the
    polish can never worsen the incumbent.
    """
    d = u.shape[0]
    n_params = d * (d - 1)
    factors = _state_factors(rhos)

    def residual(basis_u: np.ndarray) -> np.ndarray:
        probs = np.einsum("nde,dm,em->nm", rhos, basis_u.conj(), basis_u).real
        match = probs.argmin(axis=0)
        parts = [factors[match[i]].conj().T @ basis_u[:, i] for i in range(d)]
        stacked = np.concatenate(parts)
        return np.concatenate([stacked.real, stacked.imag])

    best_u, best_value = u, value
    current = u
    for _ in range(_POLISH_ITERS):
        r0 = residual(current)
        jac = np.empty((r0.shape[0], n_params))
        for g in range(n_params):
            dv = np.zeros(n_params)
            dv[g] = _POLISH_FD_EPS
            jac[:, g] = (residual(_generator_move(current, dv, d)) - r0) / _POLISH_FD_EPS
        delta, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
        norm = float(np.linalg.norm(delta))
        if norm > _POLISH_MAX_STEP:
            delta *= _POLISH_MAX_STEP / norm
        accepted = False
        for _ in range(6):
            candidate = _generator_move(current, delta, d)
            candidate_value = _functional_on_basis(rhos, candidate.T)
            if candidate_value < best_value:
                current, best_u, best_value = candidate, candidate, candidate_value
                accepted = True
                break
            delta = delta / 2.0
        if not accepted or best_value < 1e-26:
            break
    return best_value, best_u


def witness_search(states: StateSet, cfg: WitnessSearchConfig | None = None) -> WitnessSearchResult:
    """Minimize the PP functional over von Neumann bases.

    Each restart runs the coordinate descent of the config and, if the
    threshold was not reached, a Gauss-Newton polish of the matched
    orthogonality residuals (which handles the quartic-flat landscapes
    of exactly saturated triples).  Failure to reach
    ``success_threshold`` is a result (``success`` is False), not an
    error: the search can only ever *confirm* incompatibility.  Results
    are deterministic for a fixed config; restarts are independent, so
    the winner does not depend on evaluation order.  The returned basis
    has its kets as rows.
    """
    if cfg is None:
        cfg = WitnessSearchConfig()
    d = states.dim
    rhos = np.asarray(states.rhos)
    stop_value = cfg.success_threshold if cfg.stop_at_success else 0.0
    best_value = math.inf
    best_u = None
    best_restart = -1
    history: list[RestartRecord] = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        u = _haar_unitary(rng, d)
        value, u, start_value, cycles = _descend(rhos, u, cfg, stop_value)
        if value > stop_value:
            value, u = _gauss_newton_polish(rhos, u, value)
        history.append(RestartRecord(restart=restart, start_value=start_value, final_value=value, cycles=cycles))
        if value < best_value:
            best_value = value
            best_u = u.copy()
            best_restart = restart
        if cfg.stop_at_success and best_value < cfg.success_threshold:
            break
    return WitnessSearchResult(
        basis=frozen_array(best_u.T),
        value=best_value,
        success=best_value < cfg.success_threshold,
        best_restart=best_restart,
        history=tuple(history),
        config=cfg,
    )

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
from dataclasses import asdict, dataclass

import numpy as np

from .qmath import SEARCH_TOL, frozen_array, overlap_squared, validate_density_matrix

#: Absolute tie tolerance for flagging saturation of the ternary criterion.
SATURATION_TOL = 1e-9

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True, eq=False)
class StateSet:
    """Two or more density matrices on a common space, each validated within ``tol``."""

    dim: int
    rhos: np.ndarray
    tol: float = SEARCH_TOL

    def __post_init__(self):
        arr = np.asarray(self.rhos, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"expected states of shape (N, {self.dim}, {self.dim}), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("a StateSet needs at least two states")
        for i, rho in enumerate(arr):
            report = validate_density_matrix(rho, tol=self.tol)
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
    derived for strictly nonzero overlaps, and an orthonormal basis whose
    first two kets span the pair witnesses the incompatibility directly
    (it is attached as ``witness``).

    Raises ``ValueError`` for non-qutrit input, kets whose norm is off 1
    by more than ``tol``, or states identical as projectors.
    """
    kets = [np.asarray(v, dtype=complex).reshape(-1) for v in (a, b, c)]
    for v in kets:
        if v.shape[0] != 3:
            raise ValueError(f"criterion applies to qutrits only, got dimension {v.shape[0]}")
        if abs(np.linalg.norm(v) - 1.0) > tol:
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
        witness = np.linalg.qr(np.column_stack([kets[i], kets[j], np.eye(3)]))[0].T
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


#: Coefficients, highest degree first, of ``4x**3 - 9x**2 + 6x - 1 = (4x - 1)(x - 1)**2``.
_SATURATION_CUBIC = (4.0, -9.0, 6.0, -1.0)


def saturation_profile(x: float) -> float:
    """The boundary cubic ``4x**3 - 9x**2 + 6x - 1`` of the equal-overlap
    saturation condition; its real roots are 1/4 and a double root at 1."""
    c3, c2, c1, c0 = _SATURATION_CUBIC
    return ((c3 * x + c2) * x + c1) * x + c0


def saturation_cubic_roots() -> list[tuple[float, int]]:
    """Roots with multiplicities, ``[(0.25, 1), (1.0, 2)]``: the cubic divided by
    ``(x - 1)**2`` leaves no remainder and the linear quotient ``4x - 1``."""
    quotient, remainder = np.polydiv(_SATURATION_CUBIC, (1.0, -2.0, 1.0))
    if remainder.any():
        raise ArithmeticError(f"(x - 1)**2 does not divide the saturation cubic: remainder {remainder}")
    return [(float(-quotient[1] / quotient[0]), 1), (1.0, 2)]


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
    a relative 1e-3.  The descent stops below ``min_step``, at
    ``max_iters`` cycles, or, with ``stop_at_success``, once the
    functional reaches ``success_threshold``; a Gauss-Newton polish then
    finishes any restart that has not reached it.  With
    ``stop_at_success`` the descent also hands a copy of its basis to
    the polish after cycles 1, 2, 4, 8, ...: a polish that reaches the
    threshold ends the restart, any other is dropped, and the restart
    loop itself exits on the first success.  Without it every restart
    runs its full descent and polish.  The reported winner (lowest
    value, ties within a relative 1e-12 to the lowest restart index) is
    deterministic for a given ``seed`` either way.
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

#: Gauss-Newton polish limits: iteration cap and trust cap on one update's norm.
_POLISH_ITERS = 40
_POLISH_MAX_STEP = 0.5

#: Final values within this relative distance of the lowest one tie for the
#: winner.  Restarts that end on one flat floor (mixed states) differ by
#: rounding, up to 2e-14 relative on 12 random mixed triples.
_TIE_REL = 1e-12


@dataclass
class _RestartCounts:
    """The running counts of one restart, as :class:`RestartRecord` reports them."""

    cycles: int = 0
    probes: int = 0
    polish_iters: int = 0
    polish_accepted: int = 0


@dataclass(frozen=True)
class RestartRecord:
    """One restart: the functional of its start and final basis, the descent's
    ``cycles`` and ``probes``, the Gauss-Newton ``polish_iters`` and
    ``polish_accepted`` updates summed over every polish run (failed trials
    included), and ``phase``, the phase that produced ``final_value``:
    ``"polish"``, ``"descent"``, or ``"none"`` when neither improved on
    ``start_value``."""

    restart: int
    start_value: float
    final_value: float
    cycles: int
    probes: int
    polish_iters: int
    polish_accepted: int
    phase: str


@dataclass(frozen=True)
class WitnessSearchResult:
    """Best basis found, its functional value, and per-restart history."""

    basis: np.ndarray
    value: float
    success: bool
    best_restart: int
    history: tuple[RestartRecord, ...]
    config: WitnessSearchConfig


def _pair_generators(d: int) -> list[tuple[int, int, np.ndarray]]:
    """The pair-mixing generators ``(j, k, G)`` the search moves along.

    For each ``j < k``: the symmetric ``|j><k| + |k><j|``, then the
    antisymmetric ``i|k><j| - i|j><k|``.  ``G**2`` projects onto span{j, k},
    so ``u @ exp(i t G)`` changes only columns j, k, by :func:`_rotate_pair`.
    """
    table = []
    for j in range(d):
        for k in range(j + 1, d):
            sym, anti = np.zeros((2, d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti[k, j], anti[j, k] = 1j, -1j
            table += [(j, k, sym), (j, k, anti)]
    return table


def _rotate_pair(x: list[complex], y: list[complex], c: complex, angle: float):
    """Columns j, k of ``u @ exp(i t G)`` (or their amplitudes) from columns
    ``x``, ``y`` of ``u``, where ``c = i G[k, j]``: ``G**2`` projects onto
    span{j, k}, so ``exp(i t G)`` acts there as ``cos t + i sin t G``."""
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    forward, back = sin_t * c, sin_t * c.conjugate()
    return [cos_t * a + forward * b for a, b in zip(x, y)], [cos_t * b - back * a for a, b in zip(x, y)]


def _pair_coefficients(x: list[complex], y: list[complex], c: complex, owners: list[int], n_states: int):
    """Per state, ``(alpha, beta, gamma)`` with ``p_j(t) = alpha + h(t)``,
    ``p_k(t) = alpha - h(t)`` and ``h(t) = beta cos 2t + gamma sin 2t`` along
    :func:`_rotate_pair`, from the amplitudes ``x``, ``y`` of columns j, k
    on the factor columns.  ``owners`` names the state of each factor column;
    entries of ``x``, ``y`` past ``len(owners)`` are not read."""
    s, q, g = [0.0] * n_states, [0.0] * n_states, [0.0] * n_states
    for n, a, b in zip(owners, x, y):
        s[n] += a.real * a.real + a.imag * a.imag
        q[n] += b.real * b.real + b.imag * b.imag
        g[n] += (c * a.conjugate() * b).real
    return [(0.5 * (sn + qn), 0.5 * (sn - qn), gn) for sn, qn, gn in zip(s, q, g)]


def _pair_products(coeffs: list[tuple[float, float, float]], angle: float) -> tuple[float, float]:
    """The outcome products ``prod_n p_nj``, ``prod_n p_nk`` after rotating by ``angle``."""
    cos_2t, sin_2t = math.cos(2.0 * angle), math.sin(2.0 * angle)
    plus = minus = 1.0
    for alpha, beta, gamma in coeffs:
        h = beta * cos_2t + gamma * sin_2t
        plus *= alpha + h
        minus *= alpha - h
    return plus, minus


def _generator_exp(gens: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``exp(i sum_g delta_g G_g)`` for a stack of Hermitian generators."""
    w, v = np.linalg.eigh(np.tensordot(delta, gens, axes=1))
    return (v * np.exp(1j * w)) @ v.conj().T


def _column_probs(rhos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``<u_m| rho_n |u_m>`` per state n and column m; the PP functional is ``.prod(axis=0).sum()``."""
    return np.einsum("nde,dm,em->nm", rhos, u.conj(), u).real


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases)).conj()


def _descend(
    rhos: np.ndarray,
    factors: list[np.ndarray],
    u: np.ndarray,
    cfg: WitnessSearchConfig,
    stop_value: float,
    counts: _RestartCounts,
):
    """Refine a basis; returns (value, basis, start_value, polished).

    A probe is scalar arithmetic: :func:`_pair_coefficients` reads each
    state's ``(alpha, beta, gamma)`` off the amplitudes ``<w|u_j>``,
    ``<w|u_k>`` of its factor columns once per move, and
    :func:`_pair_products` evaluates the rotation at any angle from them.
    Only an accepted move rotates columns j, k of the basis and their
    amplitudes.  ``start_value`` and ``value`` are the functional of the
    start and the returned basis, computed from ``rhos``.

    When the restart can stop at success (``stop_value > 0``), a copy of
    the basis is offered to :func:`_gauss_newton_polish` after cycles 1,
    2, 4, 8, ... whenever the descent goes on.  A polish that reaches
    ``stop_value`` ends the restart with its basis (``polished`` is True);
    any other is dropped, and the descent continues from its own amplitudes.
    """
    d = u.shape[0]
    owners = [n for n, w in enumerate(factors) for _ in range(w.shape[1])]
    # column m holds the amplitudes <w|u_m>, then the entries of u_m: one rotation moves both
    amps = (np.concatenate(factors + [np.eye(d)], axis=1).conj().T @ u).T.tolist()
    moves = [(j, k, 1j * complex(g[k, j])) for j, k, g in _pair_generators(d)]
    col_products = _column_probs(rhos, u).prod(axis=0).tolist()
    value = start_value = float(sum(col_products))
    step = cfg.initial_step
    while counts.cycles < cfg.max_iters and step >= cfg.min_step and value > stop_value:
        if stop_value > 0.0 and counts.cycles and counts.cycles & (counts.cycles - 1) == 0:
            polished_value, polished = _gauss_newton_polish(rhos, factors, np.array(amps)[:, len(owners) :].T, counts)
            if polished_value <= stop_value:
                return polished_value, polished, start_value, True
        cycle_start = value
        for j, k, c in moves:
            coeffs = _pair_coefficients(amps[j], amps[k], c, owners, len(factors))
            rest = value - col_products[j] - col_products[k]

            def probe(angle: float):
                pair = _pair_products(coeffs, angle)
                return rest + pair[0] + pair[1], angle, pair

            best = (value, 0.0, None)
            minus, plus = probe(-step), probe(step)
            counts.probes += 2
            if minus[0] < best[0]:
                best = minus
            if plus[0] < best[0]:
                best = plus
            curvature = minus[0] - 2.0 * value + plus[0]
            if curvature > 0.0:
                angle = 0.5 * step * (minus[0] - plus[0]) / curvature
                vertex = probe(min(max(angle, -2.0 * step), 2.0 * step))
                counts.probes += 1
                if vertex[0] < best[0]:
                    best = vertex
            if best[1] != 0.0:
                value, angle, (col_products[j], col_products[k]) = best
                amps[j], amps[k] = _rotate_pair(amps[j], amps[k], c, angle)
            if value <= stop_value:
                break
        counts.cycles += 1
        if cycle_start - value <= _CYCLE_IMPROVEMENT_REL * cycle_start:
            step *= cfg.step_shrink
    u = np.array(amps)[:, len(owners) :].T
    return float(_column_probs(rhos, u).prod(axis=0).sum()), u, start_value, False


def _state_factors(rhos: np.ndarray, tol: float = 1e-12) -> list[np.ndarray]:
    """Factor each state as ``rho = W W†`` (columns of W span the support)."""
    factors = []
    for rho in rhos:
        w, v = np.linalg.eigh(rho)
        keep = w > tol
        factors.append(v[:, keep] * np.sqrt(w[keep]))
    return factors


def _matched_residual(factors: list[np.ndarray], match: np.ndarray, u: np.ndarray, gens: np.ndarray):
    """The residuals ``W_match[i]† u_i`` over the columns of ``u`` (real and
    imaginary parts) and their exact Jacobian in ``delta`` for the move
    ``u @ exp(i sum_g delta_g G_g)`` at 0, the matching held fixed.  The
    residuals are linear in ``u``, so column g is those of the tangent ``i u G_g``."""
    points = np.concatenate([u[None], 1j * u @ gens])
    parts = np.concatenate([points[:, :, i] @ factors[m].conj() for i, m in enumerate(match)], axis=-1)
    flat = np.concatenate([parts.real, parts.imag], axis=-1)
    return flat[0], flat[1:].T


def _gauss_newton_polish(rhos: np.ndarray, factors: list[np.ndarray], u: np.ndarray, counts: _RestartCounts):
    """Drive the matched-orthogonality residuals to zero; returns (value, basis).

    At a vanishing PP functional every outcome ket is orthogonal to the
    support of (at least) one state.  The coordinate descent locates
    the right matching but crawls when the zero is degenerate (the
    saturated case), so finish the job on the root system instead: the
    residuals ``W_a(i)† e_i`` are linear in the basis and Gauss-Newton
    keeps converging where the functional itself is quartic-flat.
    Every update is accepted only if the functional improves, so the
    polish can never worsen the functional of ``u``.  Adds its
    iterations and accepted updates to ``counts``.
    """
    gens = np.array([g for _, _, g in _pair_generators(u.shape[0])])
    probs = _column_probs(rhos, u)
    value = float(probs.prod(axis=0).sum())
    for _ in range(_POLISH_ITERS):
        counts.polish_iters += 1
        match = probs.argmin(axis=0)
        r0, jac = _matched_residual(factors, match, u, gens)
        delta, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
        norm = float(np.linalg.norm(delta))
        if norm > _POLISH_MAX_STEP:
            delta *= _POLISH_MAX_STEP / norm
        for _ in range(6):
            candidate = u @ _generator_exp(gens, delta)
            candidate_probs = _column_probs(rhos, candidate)
            candidate_value = float(candidate_probs.prod(axis=0).sum())
            if candidate_value < value:
                break
            delta = delta / 2.0
        else:
            break
        counts.polish_accepted += 1
        u, probs, value = candidate, candidate_probs, candidate_value
        if value < 1e-26:
            break
    return value, u


def witness_search(states: StateSet, cfg: WitnessSearchConfig | None = None) -> WitnessSearchResult:
    """Minimize the PP functional over von Neumann bases.

    Each restart runs the coordinate descent of the config and, if the
    threshold was not reached, a Gauss-Newton polish of the matched
    orthogonality residuals (which handles the quartic-flat landscapes
    of exactly saturated triples).  Failure to reach
    ``success_threshold`` is a result (``success`` is False), not an
    error: the search can only ever *confirm* incompatibility.  Results
    are deterministic for a fixed config; restarts are independent, so
    the winner does not depend on evaluation order.  The winner is the
    lowest-index restart whose final value lies within a relative 1e-12
    of the lowest one and on the same side of ``success_threshold``, so
    rounding at a flat floor cannot pick it.  The returned basis has its
    kets as rows.
    """
    if cfg is None:
        cfg = WitnessSearchConfig()
    d = states.dim
    rhos = np.asarray(states.rhos)
    factors = _state_factors(rhos)
    stop_value = cfg.success_threshold if cfg.stop_at_success else 0.0
    bases: list[np.ndarray] = []
    history: list[RestartRecord] = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        counts = _RestartCounts()
        value, u, start_value, polished = _descend(rhos, factors, _haar_unitary(rng, d), cfg, stop_value, counts)
        if value > stop_value:
            accepted = counts.polish_accepted
            value, u = _gauss_newton_polish(rhos, factors, u, counts)
            polished = counts.polish_accepted > accepted
        phase = "polish" if polished else "descent" if value < start_value else "none"
        history.append(
            RestartRecord(restart=restart, start_value=start_value, final_value=value, phase=phase, **asdict(counts))
        )
        bases.append(u)
        if cfg.stop_at_success and value < cfg.success_threshold:
            break
    floor = min(r.final_value for r in history)
    success = floor < cfg.success_threshold
    tied = floor + _TIE_REL * abs(floor)
    best = next(r for r in history if r.final_value <= tied and (r.final_value < cfg.success_threshold) == success)
    return WitnessSearchResult(
        basis=frozen_array(bases[best.restart].T),
        value=best.final_value,
        success=success,
        best_restart=best.restart,
        history=tuple(history),
        config=cfg,
    )

"""Post-Peierls compatibility of quantum state assignments.

A set of states is post-Peierls (PP) incompatible when some measurement
has, for every outcome, at least one state assigning it probability
zero, i.e. the product-sum functional

    F = sum_i  prod_a  tr(rho_a E_i)

vanishes.  Restricting the measurements to von Neumann bases (rank-1
orthogonal projectors, "ODOP") gives PP-ODOP compatibility.  For three
qutrit pure states there is an exact algebraic criterion on the three
squared overlaps; for arbitrary inputs a seeded search over bases
provides a constructive certificate.  The search's descent moves to the
exact minimum along each pair rotation: for N states the functional
there is a trigonometric polynomial of degree N // 2 in 4t.  For three
pure states, the only input of ``compat search --states cfs-example``
and of the benchmark's searches, each move runs as straight-line float
code whose operations are the helpers' in the same order, so every
search is bit for bit the one the helpers give.  A
Gauss-Newton polish of the matched orthogonality residuals then
certifies zeros.  Like the other phases it stops at the stop value; it is
also abandoned after the first accepted update that cuts the value by
less than 4x, where a positive floor makes it converge only linearly, and
a damped Newton finisher closes positive floors.
Both finishers halve a rejected step with one eigendecomposition of its
generator.  Each Haar start is drawn once per seed, restart and
dimension and shared by every search that asks for it.  Without early
stop the finisher runs all restarts as one stack, one phase at a time:
the polish, then Newton on the restarts still above the stop value.  The
arithmetic is per restart, so each restart's record and the winner are
those of restarts run one by one.  :func:`verify_certificate` checks a
returned basis without the search: it recomputes the functional and reads
off which state gives each outcome its smallest probability.

The ternary criterion implemented here uses the non-strict inequality
``(x1 + x2 + x3 - 1)**2 >= 4 x1 x2 x3``: equality (saturation) counts
as incompatible.  With the strict form, the standard pairwise-compatible
but jointly incompatible triple (built-in id ``cfs-example``) would be
misclassified as compatible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qmath import (
    SEARCH_TOL,
    Check,
    density_checks,
    frozen_array,
    overlap_squared,
    require_finite,
    require_tolerance,
    validate_orthonormal_basis,
)

#: Absolute tie tolerance for flagging saturation of the ternary criterion.
SATURATION_TOL = 1e-9

COMPATIBLE = "compatible"
INCOMPATIBLE = "incompatible"


@dataclass(frozen=True, eq=False)
class StateSet:
    """Two or more density matrices on a common space of dimension at least 2,
    with finite entries, each validated within ``tol``."""

    dim: int
    rhos: np.ndarray
    tol: float = SEARCH_TOL

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"states need dimension at least 2, got dim {self.dim}")
        arr = np.asarray(self.rhos, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"expected states of shape (N, {self.dim}, {self.dim}), got {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("a StateSet needs at least two states")
        for i, check in enumerate(density_checks(arr, tol=self.tol)):
            if not check.passed:
                raise ValueError(f"state {i} is not a valid density matrix: {check.residuals}")
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
    certifies PP incompatibility for this particular measurement.  An
    effect with a NaN or infinite entry raises ``ValueError``.
    """
    eff = require_finite(np.asarray(effects, dtype=complex), "measurement")
    if eff.ndim != 3 or eff.shape[1] != eff.shape[2]:
        raise ValueError(f"measurement must have shape (k, d, d), got {eff.shape}")
    if eff.shape[1] != states.dim:
        raise ValueError(f"dimension mismatch: states {states.dim} vs measurement {eff.shape[1]}")
    probs = np.einsum("nab,kba->nk", states.rhos, eff).real
    return float(probs.prod(axis=0).sum())


def verify_certificate(states: StateSet, basis, tol: float) -> tuple[Check, tuple[int, ...]]:
    """Check a PP incompatibility certificate: a basis, kets as rows, in
    which every outcome gets probability zero, within ``tol``, from some state.

    Returns a ``Check`` and the matching: per outcome, the index of the
    state that gives it the smallest probability.  The residuals are the
    basis's ``orthonormality_residual`` (:func:`validate_orthonormal_basis`),
    the ``pp_functional`` recomputed from the states, and
    ``max_matched_probability``, the largest of the matched probabilities.
    Passes iff the first two are at most ``tol``.  Needs no search: any
    basis can be checked, whoever found it.  Raises ``ValueError`` unless
    the basis has shape ``(d, d)`` for the states' dimension ``d`` and
    finite entries, and unless ``tol`` is finite and non-negative.
    """
    kets = np.asarray(basis, dtype=complex)
    if kets.shape != (states.dim, states.dim):
        raise ValueError(f"dimension mismatch: states {states.dim} need a basis of shape {(states.dim,) * 2}, got {kets.shape}")
    orthonormal = validate_orthonormal_basis(kets, tol)
    probs = np.einsum("ma,nab,mb->nm", kets.conj(), states.rhos, kets).real  # <k_m| rho_n |k_m>
    value = float(probs.prod(axis=0).sum())
    residuals = {**orthonormal.residuals, "pp_functional": value, "max_matched_probability": float(probs.min(axis=0).max())}
    return Check(passed=orthonormal.passed and value <= tol, residuals=residuals), tuple(probs.argmin(axis=0).tolist())


def qutrit_triple_criterion(a, b, c, tol: float = SEARCH_TOL, *, norm_tol: float | None = None) -> CompatVerdict:
    """Exact PP-ODOP verdict for three qutrit pure states.

    With squared overlaps ``x1 = |<a|b>|**2``, ``x2 = |<b|c>|**2``,
    ``x3 = |<c|a>|**2`` the triple is incompatible iff

        x1 + x2 + x3 < 1   and   (x1 + x2 + x3 - 1)**2 >= 4 x1 x2 x3,

    the comparison applied within ``tol``.  An orthogonal pair (any
    ``x_i <= tol``) short-circuits to incompatible: the inequalities are
    derived for strictly nonzero overlaps, and an orthonormal basis whose
    first two kets span the pair witnesses the incompatibility directly
    (it is attached as ``witness``).  ``saturated`` marks an incompatible
    triple whose two boundary sides agree within ``SATURATION_TOL``.

    Raises ``ValueError`` for non-qutrit or non-finite input, a NaN,
    negative or infinite ``tol`` or ``norm_tol``, kets whose norm is off 1
    by more than ``norm_tol`` (default ``tol``), or states identical as
    projectors.
    """
    require_tolerance(tol)
    norm_tol = tol if norm_tol is None else require_tolerance(norm_tol)
    kets = [np.asarray(v, dtype=complex).reshape(-1) for v in (a, b, c)]
    for v in kets:
        if v.shape[0] != 3:
            raise ValueError(f"criterion applies to qutrits only, got dimension {v.shape[0]}")
        require_finite(v, "ket")
        # np.linalg.norm of a complex vector, without its dispatch
        if abs(math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) - 1.0) > norm_tol:
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
    saturated_eq = abs(boundary_lhs - boundary_rhs) <= SATURATION_TOL

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

    ``restarts`` caps the Haar-random restarts, and restart ``r`` draws
    its start basis from the generator seeded ``[seed, r]``.  A restart
    whose functional ends below ``success_threshold`` certifies
    incompatibility.  With ``stop_at_success`` the restart loop exits on
    the first success, and each phase of a restart, the descent, the
    polish and Newton, stops once its value is at or below the threshold.
    Without it every restart runs its whole pipeline, and the polish runs
    on to 1e-26 or its other stop rules.
    :func:`witness_search` describes the pipeline and how the winner is
    picked.
    """

    restarts: int = 32
    seed: int = 0
    success_threshold: float = 1e-10
    stop_at_success: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if not (math.isfinite(self.success_threshold) and self.success_threshold > 0):
            raise ValueError(f"success_threshold must be finite and positive, got {self.success_threshold!r}")


#: The descent hands over to the finishers after the first cycle that
#: improves the value by less than this relative amount.
_CYCLE_IMPROVEMENT_REL = 0.2

#: The descent also hands over after this many cycles.  It is a termination
#: guard, not a setting: the benchmark's certify and exhaust searches take at
#: most 43 cycles, and at most 121 with early stop off on random, Hesse and
#: 2-5-state sets in d = 2-4.
_DESCENT_CYCLES = 200

#: A state's factor keeps the eigenvectors of eigenvalues above this.
_SUPPORT_TOL = 1e-12

#: Iteration cap of each finisher phase and trust cap on one update's norm,
#: for the Gauss-Newton polish and Newton alike.
_POLISH_ITERS = 40
_POLISH_MAX_STEP = 0.5

#: The Newton finisher divides by no Hessian eigenvalue smaller in magnitude
#: than this fraction of the largest one (or of the value, if that is larger),
#: and stops once a step promises a relative decrease below ``_NEWTON_MIN_GAIN``:
#: what is left there is rounding.
_NEWTON_CURVATURE_FLOOR = 1e-8
_NEWTON_MIN_GAIN = 1e-14

#: Final values within ``_TIE_REL * floor + _TIE_ABS`` of the lowest one, the
#: floor, tie for the winner.  Restarts that end on one flat floor (mixed
#: states) differ by rounding, up to 2e-14 relative on 12 random mixed triples.
#: Near the boundary the functional's absolute rounding dominates instead:
#: on 96 random compatible triples restarts on one floor of 2e-9 to 3e-5 end
#: up to 5.8e-17 apart, far outside the relative term.  ``_TIE_ABS`` covers
#: that spread 17 times over and stays far below any success threshold.
_TIE_REL = 1e-12
_TIE_ABS = 1e-15


@dataclass
class _RestartCounts:
    """The running counts of one restart, as :class:`RestartRecord` reports them."""

    cycles: int = 0
    probes: int = 0
    newton_iters: int = 0
    polish_iters: int = 0
    polish_accepted: int = 0


@dataclass(frozen=True)
class RestartRecord:
    """One restart: the functional of its start and final basis, the descent's
    ``cycles`` and ``probes`` (functional evaluations), the Gauss-Newton
    ``polish_iters`` and ``polish_accepted`` updates, the Newton finisher's
    ``newton_iters``, and ``phase``, the last phase that lowered the value:
    ``"descent"``, ``"polish"``, ``"newton"``, or ``"none"`` when none
    improved on ``start_value``."""

    restart: int
    start_value: float
    final_value: float
    cycles: int
    probes: int
    newton_iters: int
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


@lru_cache(maxsize=8)
def _search_tables(d: int) -> tuple[tuple[tuple[int, int, complex], ...], np.ndarray, tuple[np.ndarray, ...]]:
    """The pair-mixing generators ``G`` the search moves along, built once per
    dimension: the descent's moves ``(j, k, i G[k, j])``, the stack of the ``G``
    and its gather ``(gi, mi, ki, coef)``, the index triple of every nonzero
    entry in ``np.nonzero`` order and the entry itself, each written with its
    generator.  The arrays are read-only: every search of that dimension shares them.

    For each ``j < k``: the symmetric ``|j><k| + |k><j|``, then the
    antisymmetric ``i|k><j| - i|j><k|``.  ``G**2`` projects onto span{j, k},
    so ``u @ exp(i t G)`` changes only columns j, k, by :func:`_rotate_pair`.
    """
    moves, gens, gather = [], [], []
    for j in range(d):
        for k in range(j + 1, d):
            for upper, lower in ((1.0, 1.0), (-1j, 1j)):
                g = np.zeros((d, d), dtype=complex)
                g[j, k], g[k, j] = upper, lower
                moves.append((j, k, 1j * complex(lower)))
                gather += [(len(gens), j, k, g[j, k]), (len(gens), k, j, g[k, j])]
                gens.append(g)
    gi, mi, ki, coef = zip(*gather)
    return tuple(moves), frozen_array(gens), (*(frozen_array(a, np.intp) for a in (gi, mi, ki)), frozen_array(coef))


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


def _pair_minimum(coeffs: list[tuple[float, float, float]]) -> tuple[float, tuple[float, float], int]:
    """The angle minimising ``sum(_pair_products(coeffs, angle))``, the products
    there, and the number of angles evaluated.

    The odd powers of ``h`` cancel, so the sum is a trigonometric polynomial
    of degree ``len(coeffs) // 2`` in ``4t``.  Up to three states it is
    ``a cos 4t + b sin 4t`` plus a constant, where ``a + ib`` sums ``z_m z_n``
    (``z = beta + i gamma``) times the other state's ``alpha`` over pairs of
    states, so the minimum is at ``4t = atan2(-b, -a)``.  For more states the
    lowest root of the derivative's polynomial in ``exp(4it)`` wins.
    """
    n = len(coeffs)
    if n <= 3:
        alphas = [alpha for alpha, _, _ in coeffs] + [1.0] * (3 - n)
        zs = [complex(beta, gamma) for _, beta, gamma in coeffs] + [0.0] * (3 - n)
        a = alphas[2] * zs[0] * zs[1] + alphas[1] * zs[0] * zs[2] + alphas[0] * zs[1] * zs[2]
        angle = 0.25 * math.atan2(-a.imag, -a.real)
        return angle, _pair_products(coeffs, angle), 1
    # prod(alpha + h) as a Laurent polynomial in w = exp(2it), h = (conj(z) w + z / w) / 2
    laurent = np.ones(1, dtype=complex)
    for alpha, beta, gamma in coeffs:
        laurent = np.convolve(laurent, [0.5 * complex(beta, gamma), alpha, 0.5 * complex(beta, -gamma)])
    # the even powers w**(2m), m = -n//2 .. n//2, differentiated in 4t and shifted to a polynomial
    half = n // 2
    derivative = (np.arange(-half, half + 1) * laurent[n % 2 :: 2])[::-1]
    roots = np.roots(derivative) if derivative.any() else np.ones(1)
    angles = (0.25 * np.angle(roots)).tolist()
    pairs = [_pair_products(coeffs, angle) for angle in angles]
    best = min(range(len(angles)), key=lambda i: pairs[i][0] + pairs[i][1])
    return angles[best], pairs[best], len(angles)


def _column_probs(rhos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``<u_m| rho_n |u_m>`` per state n and column m, for a basis ``u`` or a
    stack of bases (leading axis r); the PP functional of one basis is
    ``.prod(axis=0).sum()``."""
    return np.einsum("nde,...dm,...em->...nm", rhos, u.conj(), u).real


@lru_cache(maxsize=1024)
def _haar_start(seed: int, restart: int, d: int) -> np.ndarray:
    """The Haar-random start basis of ``restart`` in a search seeded ``seed`` in
    dimension ``d``: the QR of a Gaussian matrix, real then imaginary part drawn
    by the generator seeded ``[seed, restart]``, with the phases of R divided
    out.  It depends on nothing else, so it is drawn once and shared,
    read-only, by every search that asks for it."""
    rng = np.random.default_rng([seed, restart])
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    phases = np.diagonal(r)
    return frozen_array(q * (phases / np.abs(phases)).conj())


def _pure_triple_cycle(
    amps: list[list[complex]], col_products: list[float], moves: list[tuple[int, int, complex]], value: float, stop_value: float
) -> tuple[float, int]:
    """One descent cycle over ``moves`` for three pure states, each with one
    factor column: the value after it and the moves it evaluated, one
    functional evaluation each.

    Each move is :func:`_pair_coefficients`, :func:`_pair_minimum` and
    :func:`_rotate_pair` unrolled into straight-line code, with no call and
    no per-state list: the same float and complex operations in the same
    order, with ``math.atan2``, ``math.cos`` and ``math.sin``, so every bit
    is the helpers'.  Like :func:`_descend`'s loop it updates ``amps`` and
    ``col_products`` in place and stops at ``stop_value``.
    """
    probes = 0
    for j, k, c in moves:
        x, y = amps[j], amps[k]
        a0, a1, a2, b0, b1, b2 = x[0], x[1], x[2], y[0], y[1], y[2]
        # each sum keeps the helper's 0.0 start, which turns a -0.0 into 0.0 (atan2 reads the sign)
        s0 = 0.0 + (a0.real * a0.real + a0.imag * a0.imag)
        s1 = 0.0 + (a1.real * a1.real + a1.imag * a1.imag)
        s2 = 0.0 + (a2.real * a2.real + a2.imag * a2.imag)
        q0 = 0.0 + (b0.real * b0.real + b0.imag * b0.imag)
        q1 = 0.0 + (b1.real * b1.real + b1.imag * b1.imag)
        q2 = 0.0 + (b2.real * b2.real + b2.imag * b2.imag)
        gamma0 = 0.0 + (c * a0.conjugate() * b0).real
        gamma1 = 0.0 + (c * a1.conjugate() * b1).real
        gamma2 = 0.0 + (c * a2.conjugate() * b2).real
        alpha0, beta0 = 0.5 * (s0 + q0), 0.5 * (s0 - q0)
        alpha1, beta1 = 0.5 * (s1 + q1), 0.5 * (s1 - q1)
        alpha2, beta2 = 0.5 * (s2 + q2), 0.5 * (s2 - q2)
        z0, z1, z2 = complex(beta0, gamma0), complex(beta1, gamma1), complex(beta2, gamma2)
        acc = alpha2 * z0 * z1 + alpha1 * z0 * z2 + alpha0 * z1 * z2
        angle = 0.25 * math.atan2(-acc.imag, -acc.real)
        cos_2t, sin_2t = math.cos(2.0 * angle), math.sin(2.0 * angle)
        h0 = beta0 * cos_2t + gamma0 * sin_2t
        h1 = beta1 * cos_2t + gamma1 * sin_2t
        h2 = beta2 * cos_2t + gamma2 * sin_2t
        # _pair_products starts each product at 1.0, and 1.0 * x is x exactly
        plus = (alpha0 + h0) * (alpha1 + h1) * (alpha2 + h2)
        minus = (alpha0 - h0) * (alpha1 - h1) * (alpha2 - h2)
        probes += 1
        moved = value - col_products[j] - col_products[k] + plus + minus
        if moved < value:
            value, col_products[j], col_products[k] = moved, plus, minus
            cos_t, sin_t = math.cos(angle), math.sin(angle)
            forward, back = sin_t * c, sin_t * c.conjugate()
            amps[j] = [cos_t * a + forward * b for a, b in zip(x, y)]
            amps[k] = [cos_t * b - back * a for a, b in zip(x, y)]
        if value <= stop_value:
            break
    return value, probes


def _descend(
    rhos: np.ndarray,
    factors: list[np.ndarray],
    u: np.ndarray,
    moves: list[tuple[int, int, complex]],
    stop_value: float,
    counts: _RestartCounts,
):
    """Refine a basis by exact pair rotations; returns (value, basis, start_value).

    Each move reads every state's ``(alpha, beta, gamma)`` off the
    amplitudes ``<w|u_j>``, ``<w|u_k>`` of its factor columns with
    :func:`_pair_coefficients` and jumps to the minimum of the functional
    along the rotation, :func:`_pair_minimum`, a trigonometric polynomial of
    degree ``N // 2`` in ``4t`` for ``N`` states.  ``counts.probes`` adds the
    functional evaluations that took.  A move that lowers the value rotates
    columns j, k of the basis and their amplitudes with :func:`_rotate_pair`;
    any other leaves them.  When ``factors`` are three states of one column
    each (three pure states, in any dimension) every cycle runs in
    :func:`_pure_triple_cycle` instead: the same moves as straight-line float
    code, with the helpers' arithmetic, bit for bit.  Every other set of
    states runs the helpers.
    The descent ends after ``_DESCENT_CYCLES`` cycles, at ``stop_value``, or
    after the first cycle that improves the value by less than the relative
    ``_CYCLE_IMPROVEMENT_REL``, and hands over to the finishers.
    ``start_value`` and ``value`` are the functional of the start and the
    returned basis, computed from ``rhos``.
    """
    d = u.shape[0]
    owners = [n for n, w in enumerate(factors) for _ in range(w.shape[1])]
    # column m holds the amplitudes <w|u_m>, then the entries of u_m: one rotation moves both
    amps = (np.concatenate(factors + [np.eye(d)], axis=1).conj().T @ u).T.tolist()
    col_products = _column_probs(rhos, u).prod(axis=0).tolist()
    value = start_value = float(sum(col_products))
    pure_triple = [w.shape[1] for w in factors] == [1, 1, 1]
    while counts.cycles < _DESCENT_CYCLES and value > stop_value:
        cycle_start = value
        if pure_triple:
            value, probes = _pure_triple_cycle(amps, col_products, moves, value, stop_value)
            counts.probes += probes
        else:
            for j, k, c in moves:
                coeffs = _pair_coefficients(amps[j], amps[k], c, owners, len(factors))
                angle, pair, evaluations = _pair_minimum(coeffs)
                counts.probes += evaluations
                moved = value - col_products[j] - col_products[k] + pair[0] + pair[1]
                if moved < value:
                    value, (col_products[j], col_products[k]) = moved, pair
                    amps[j], amps[k] = _rotate_pair(amps[j], amps[k], c, angle)
                if value <= stop_value:
                    break
        counts.cycles += 1
        if cycle_start - value <= _CYCLE_IMPROVEMENT_REL * cycle_start:
            break
    u = np.array(amps)[:, len(owners) :].T
    return float(_column_probs(rhos, u).prod(axis=0).sum()), u, start_value


def _state_factors(rhos: np.ndarray) -> list[np.ndarray]:
    """Factor each state as ``rho = W W†`` (columns of W span the support),
    from one eigendecomposition of the stack of states."""
    factors = []
    for w, v in zip(*np.linalg.eigh(rhos)):
        keep = w > _SUPPORT_TOL
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


@lru_cache(maxsize=8)
def _leave_out_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``n`` states, read-only index tables of the others: row ``a`` of the
    first lists every state but ``a``, entry ``(a, b)`` of the second every
    state but ``a`` and ``b``, each in increasing order (for ``a == b``, the
    first ``n - 2`` of the first's row, masked by the third), and the third
    is the mask ``a != b``."""
    left1 = [[b for b in range(n) if b != a] for a in range(n)]
    left2 = [[[c for c in row if c != b][: n - 2] for b in range(n)] for row in left1]
    return frozen_array(left1, np.intp), frozen_array(left2, np.intp), frozen_array(~np.eye(n, dtype=bool), bool)


def _functional_derivatives(
    rhos: np.ndarray, u: np.ndarray, gens: np.ndarray, gather: tuple[np.ndarray, ...], probs: np.ndarray
):
    """Gradient and Hessian of the PP functional of ``u @ exp(i sum_g delta_g G_g)``
    in ``delta`` at 0; ``gather`` lists the nonzero entries of ``gens``, as
    :func:`_search_tables` builds them, and ``probs`` is :func:`_column_probs`
    of ``u``.  For a stack of bases ``u`` (leading axis r) they are stacked alike.

    With ``A_n = u† rho_n u`` the probabilities are the diagonal of
    ``exp(-iX) A_n exp(iX)`` = ``A_n - i[X, A_n] - [X, [X, A_n]] / 2 + ...``,
    so their first derivatives are the diagonal of ``B_g = -i[G_g, A_n]``
    and their second ones that of ``-i([G_g, B_h] + [G_h, B_g]) / 2``.  The
    diagonal of ``-i[G, B]`` is ``2 Im (G B)_mm`` for Hermitian ``G``, ``B``.
    Each pair generator has one entry, 1 or ±i, in each of its rows j and k,
    so row m of ``G_g A`` is that entry times one row of ``A``: the products
    with the generators are row gathers, as exact as the sums they replace,
    whose other terms are exact zeros.  The products of the other states'
    probabilities are gathered the same way, from :func:`_leave_out_tables`.
    """
    a = np.einsum("...dm,nde,...ek->...nmk", u.conj(), rhos, u)
    gi, mi, ki, coef = gather
    ga = np.zeros(a.shape[:-2] + gens.shape, dtype=complex)
    ga[..., gi, mi, :] = coef[:, None] * a[..., ki, :]
    b = -1j * (ga - ga.conj().swapaxes(-1, -2))
    first = np.einsum("...ngmm->...ngm", b).real
    second = np.zeros(b.shape[:-2] + gens.shape[:2], dtype=complex)  # (..., n, g, h, m), filled as (..., n, h, g, m)
    second.swapaxes(-3, -2)[..., gi, mi] = coef * b[..., ki, mi]
    second = second.imag + second.imag.swapaxes(-3, -2)
    # products over the other states (one or two left out) of each column's probabilities
    left1, left2, others = _leave_out_tables(probs.shape[-2])
    rest1 = probs[..., left1, :].prod(axis=-2)
    rest2 = probs[..., left2, :].prod(axis=-2) * others[..., None]
    grad = np.einsum("...ngm,...nm->...g", first, rest1)
    hess = np.einsum("...nghm,...nm->...gh", second, rest1)
    hess = hess + np.einsum("...agm,...bhm,...abm->...gh", first, first, rest2)
    return grad, hess


def _damped_update(rhos: np.ndarray, us: np.ndarray, gens: np.ndarray, deltas: list[np.ndarray], values: list[float]):
    """Per restart r of a stack, the update ``us[r] @ exp(i sum_g deltas[r]_g G_g)``
    with ``deltas[r]`` capped at ``_POLISH_MAX_STEP`` and halved up to six
    times until the functional falls below ``values[r]``; returns one
    (basis, column probabilities, value) or None per restart.

    One eigendecomposition ``(w, v)`` of each capped step's generator serves
    every halving: the candidate for ``delta / 2**k`` is
    ``(u v) diag(exp(i w / 2**k)) v†``, so a halving only rescales ``w``.
    Each halving runs on the restarts that have no accepted candidate yet.
    The step norm is taken per restart, so every restart's arithmetic is
    that of a stack of one."""
    capped = np.array(deltas)
    for delta in capped:
        norm = math.sqrt(delta.dot(delta))  # np.linalg.norm of a real vector, without its dispatch
        if norm > _POLISH_MAX_STEP:
            delta *= _POLISH_MAX_STEP / norm
    g, d, _ = gens.shape
    w, v = np.linalg.eigh((capped @ gens.reshape(g, d * d)).reshape(-1, d, d))
    w, uv, vh = w[:, None, :], us @ v, v.conj().swapaxes(-1, -2)
    updates = [None] * len(us)
    pending = list(range(len(us)))
    for _ in range(6):
        candidates = (uv * np.exp(1j * w)) @ vh
        probs = _column_probs(rhos, candidates)
        rejected = []
        for i, value in enumerate(probs.prod(axis=1).sum(axis=1).tolist()):
            if value < values[i]:
                updates[pending[i]] = candidates[i], probs[i], value
            else:
                rejected.append(i)
        if not rejected:
            break
        if len(rejected) < len(pending):
            pending, values = [pending[i] for i in rejected], [values[i] for i in rejected]
            uv, vh, w = uv[rejected], vh[rejected], w[rejected]
        w = w / 2.0
    return updates


def _newton_steps(grads: np.ndarray, hesses: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a stack of gradients, Hessians and functional ``values``, the
    Newton step ``-H^-1 g`` with each Hessian eigenvalue replaced by its
    magnitude and floored at ``_NEWTON_CURVATURE_FLOOR`` times the larger of
    the largest magnitude and the value, and the decrease ``-g . step`` it
    promises.  The solves are stacked, but each stacked product runs the
    row's own matrix-vector or dot product, so every row's arithmetic is
    that of a stack of one."""
    w, v = np.linalg.eigh(hesses)
    magnitude = np.abs(w)
    scales = np.maximum(magnitude, _NEWTON_CURVATURE_FLOOR * np.maximum(magnitude.max(axis=1), values)[:, None])
    steps = (-v @ ((v.swapaxes(-1, -2) @ grads[..., None])[..., 0] / scales)[..., None])[..., 0]
    return steps, -(grads[:, None, :] @ steps[..., None])[:, 0, 0]


def _finish(
    rhos: np.ndarray,
    factors: list[np.ndarray],
    us: Sequence[np.ndarray],
    values: list[float],
    gens: np.ndarray,
    gather: tuple[np.ndarray, ...],
    stop_value: float,
    counts: list[_RestartCounts],
):
    """Finish the restarts' bases ``us``, whose functionals are ``values``, as
    one stack; returns each restart's final (value, basis, phase), the phase
    that made its last accepted update, or None if none was accepted.

    The stack runs one phase at a time: first the Gauss-Newton polish on
    every restart above ``stop_value``, until each leaves it by its own
    rule, then damped Newton on every restart still above ``stop_value``.
    At a vanishing PP functional every outcome ket is orthogonal to the
    support of (at least) one state.  The coordinate descent locates the
    right matching but crawls when the zero is degenerate (the saturated
    case), so the polish finishes the job on the root system instead: the
    residuals ``W_a(i)† e_i`` are linear in the basis and Gauss-Newton keeps
    converging where the functional itself is quartic-flat.  Where the
    residuals have a zero, Gauss-Newton converges quadratically; where they
    do not (a positive floor) it converges only linearly, so a restart's
    polish ends after its first accepted update that cuts the value by less
    than 4x.  It also ends at ``stop_value``, below 1e-26, at
    ``_POLISH_ITERS`` iterations, or when no halving improves.

    Newton steps by ``-H^-1 g`` from :func:`_functional_derivatives`, with
    each Hessian eigenvalue replaced by its magnitude (so saddles are left
    downhill) and floored at ``_NEWTON_CURVATURE_FLOOR`` times the largest.
    A restart whose step promises a relative decrease below
    ``_NEWTON_MIN_GAIN`` leaves before the update; Newton also ends when no
    halving improves, at ``stop_value``, or at ``_POLISH_ITERS`` iterations.

    Each iteration takes the polish's matching and least-squares steps per
    restart, or Newton's solves as one stack, :func:`_newton_steps`, whose
    arithmetic is still per row, then one :func:`_damped_update` of the
    whole stack, so no phase can worsen the functional of a basis and no
    restart's arithmetic depends on the others.  ``gens`` and ``gather``
    are the generator stack and its gather of :func:`_search_tables` for
    the bases' dimension.  Adds each restart's iterations and accepted
    polish updates to its entry of ``counts``.
    """
    finals = [(value, u, None) for value, u in zip(values, us)]
    latest = list(zip(us, _column_probs(rhos, np.array(us)), values))  # each restart's basis, column probabilities and value
    for phase in ("polish", "newton"):
        rows = [r for r, (_, _, value) in enumerate(latest) if value > stop_value]  # the restart of each row of the stack
        while rows:
            us, probs, values = (np.array(stack) for stack in zip(*(latest[r] for r in rows)))
            if phase == "polish":
                deltas = []
                for r, u, p in zip(rows, us, probs):
                    counts[r].polish_iters += 1
                    r0, jac = _matched_residual(factors, p.argmin(axis=0), u, gens)
                    deltas.append(np.linalg.lstsq(jac, -r0, rcond=None)[0])
            else:
                for r in rows:
                    counts[r].newton_iters += 1
                deltas, gains = _newton_steps(*_functional_derivatives(rhos, us, gens, gather, probs), values)
                gaining = gains > _NEWTON_MIN_GAIN * values
                rows, us, values, deltas = [r for r, g in zip(rows, gaining) if g], us[gaining], values[gaining], deltas[gaining]
                if not rows:
                    break
            going = []
            for r, value, update in zip(rows, values, _damped_update(rhos, us, gens, deltas, values)):
                if update is None:
                    continue
                latest[r], finals[r] = update, (update[2], update[0], phase)
                if phase == "polish":
                    counts[r].polish_accepted += 1
                    going_on = 1e-26 <= update[2] <= value / 4.0 and update[2] > stop_value and counts[r].polish_iters < _POLISH_ITERS
                else:
                    going_on = update[2] > stop_value and counts[r].newton_iters < _POLISH_ITERS
                if going_on:
                    going.append(r)
            rows = going
    return finals


def witness_search(states: StateSet, cfg: WitnessSearchConfig | None = None) -> WitnessSearchResult:
    """Minimize the PP functional over von Neumann bases.

    Each restart draws a Haar-random basis and runs one pipeline: the
    exact-move descent over pair rotations, which hands over after the
    first cycle that gains less than a relative 20 %; then, while the
    value is above the stop value (``success_threshold`` with
    ``stop_at_success``, else 0), a Gauss-Newton polish of the matched
    orthogonality residuals (which certifies zeros, even on the
    quartic-flat landscapes of exactly saturated triples) and a damped
    Newton finisher on the functional (which closes positive floors).
    The generator table they all move along is built once per dimension,
    and restart ``r``'s Haar start once per seed, ``r`` and dimension;
    both are read-only and shared by every search that uses them.  Restarts
    run in waves: one restart with ``stop_at_success``, all of them
    without it.  A wave takes each restart's start from that table and
    runs each restart's descent on its own; then the restarts still above
    the stop value run one finisher stack, :func:`_finish`: the polish,
    then Newton on the restarts still above the stop value.  Every
    restart's arithmetic is that of a stack of one, so its record, and the
    winner, do not depend on the wave.
    Failure to reach ``success_threshold`` is a result
    (``success`` is False), not an error: the search can only ever
    *confirm* incompatibility.  Results are deterministic for a fixed
    config; restarts are independent, so the winner does not depend on
    evaluation order.  The winner is the lowest-index restart whose final
    value lies within a relative 1e-12 plus an absolute 1e-15 of the
    lowest one and on the same side of ``success_threshold``, so rounding
    at a flat floor cannot pick it.  The returned basis has its kets as
    rows.
    """
    if cfg is None:
        cfg = WitnessSearchConfig()
    d = states.dim
    rhos = np.asarray(states.rhos)
    factors = _state_factors(rhos)
    moves, gens, gather = _search_tables(d)
    stop_value = cfg.success_threshold if cfg.stop_at_success else 0.0
    wave = 1 if cfg.stop_at_success else cfg.restarts
    bases: list[np.ndarray] = []
    history: list[RestartRecord] = []
    for first in range(0, cfg.restarts, wave):
        restarts = range(first, min(first + wave, cfg.restarts))
        counts = [_RestartCounts() for _ in restarts]
        starts = [_haar_start(cfg.seed, restart, d) for restart in restarts]
        descents = [_descend(rhos, factors, u, moves, stop_value, c) for u, c in zip(starts, counts)]
        values, us, start_values = zip(*descents)
        finals = _finish(rhos, factors, us, list(values), gens, gather, stop_value, counts)
        for restart, start, descended, (value, u, phase), restart_counts in zip(restarts, start_values, values, finals, counts):
            phase = phase or ("descent" if descended < start else "none")
            history.append(RestartRecord(restart=restart, start_value=start, final_value=value, phase=phase, **vars(restart_counts)))
            bases.append(u)
        if cfg.stop_at_success and history[-1].final_value < cfg.success_threshold:
            break
    floor = min(r.final_value for r in history)
    success = floor < cfg.success_threshold
    tied = floor + _TIE_REL * abs(floor) + _TIE_ABS
    best = next(r for r in history if r.final_value <= tied and (r.final_value < cfg.success_threshold) == success)
    return WitnessSearchResult(
        basis=frozen_array(bases[best.restart].T),
        value=best.final_value,
        success=success,
        best_restart=best.restart,
        history=tuple(history),
    )

"""The per-state analyses call ndarray methods where numpy's module-level
wrappers once stood; every output and every error text stays bit for bit.

Each oracle below keeps the expressions its function used before, as they
were written, and the tests compare outputs by their bytes (floats by their
hex form) and errors by their full text.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sicmub import (
    distribution_indices,
    line_marginals,
    qutrit_triple_criterion,
    reconstruct_from_probabilities,
    sic_probabilities,
    validate_density_matrix,
    wigner_from_line_probs,
    wigner_from_sic_probabilities,
)
from sicmub.mub import LINES, POINT_LINES
from sicmub.qmath import SEARCH_TOL
from sicmub.wigner import LINE_NORMALIZATION_TOL

LINE_KEYS = [tuple(line) for line in LINES.tolist()]


def wrapper_density_residuals(rho):
    """``density_checks``' residuals of one state, traced by ``np.trace``."""
    arr = np.asarray(rho, dtype=complex)[None]
    adjoint = arr.conj().transpose(0, 2, 1)
    herms = np.abs(arr - adjoint).max(axis=(1, 2)).tolist()
    traces = [abs(trace - 1.0) for trace in np.trace(arr, axis1=1, axis2=2).tolist()]
    min_eigs = np.linalg.eigvalsh((arr + adjoint) / 2.0)[:, 0].tolist()
    return [herms[0], traces[0], min_eigs[0]]


def wrapper_sic_probabilities(rho, s, tol=1e-10):
    """``sic_probabilities`` taking ``raw.min()`` twice and clipping with ``np.clip``."""
    raw = np.einsum("ab,iba->i", np.asarray(rho, dtype=complex), s.projectors).real / s.dim
    if not raw.min() >= -tol:
        raise ValueError(f"negative SIC probability {raw.min():.3e}: input is not positive semidefinite")
    if not abs(raw.sum() - 1.0) <= tol:
        raise ValueError(f"SIC probabilities sum to {raw.sum()!r}: input is not unit trace")
    return np.clip(raw, 0.0, 1.0)


def wrapper_reconstruct(p, s):
    """``reconstruct_from_probabilities``' sum check through ``np.ravel``,
    ``np.argmax`` and ``np.abs``, then its contraction."""
    vec = np.asarray(p, dtype=float)
    sums = np.ravel(vec.sum(axis=-1))
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if not abs(sums[worst] - 1.0) <= SEARCH_TOL:
        raise ValueError(f"probabilities must sum to 1, got {float(sums[worst])!r}")
    return np.einsum("...i,iab->...ab", (s.dim + 1.0) * vec - 1.0 / s.dim, s.projectors)


def wrapper_distribution_indices(vec, zero_tol=1e-9):
    """``distribution_indices``' fields through ``np.dot``, ``np.sum`` and ``np.count_nonzero``."""
    weight = float(np.dot(vec, vec))
    effective = 1.0 / weight
    positive = vec[vec > 0]
    entropy = 0.0 - float(np.sum(positive * np.log(positive)))
    zeros = int(np.count_nonzero(vec < zero_tol))
    bound = vec.shape[0] - effective
    return [effective.hex(), entropy.hex(), zeros, float(bound).hex(), zeros <= bound + 1e-9]


def sorted_key_wigner_from_line_probs(q):
    """``wigner_from_line_probs`` sorting every key and computing the
    missing-line list and the bad-striation index on every call."""
    lookup = {tuple(sorted(line)): float(value) for line, value in q.items()}
    missing = sorted(set(LINE_KEYS) - lookup.keys())
    if missing or len(q) != 12:
        raise ValueError(f"need exactly the 12 lines of S(9), each once; missing {missing}, got {list(q)}")
    vec = np.array([lookup[key] for key in LINE_KEYS])
    totals = vec.reshape(4, 3).sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > LINE_NORMALIZATION_TOL)
    if bad.size:
        raise ValueError(f"striation {bad[0] + 1} probabilities sum to {float(totals[bad[0]])!r}, expected 1")
    return (vec[POINT_LINES].sum(axis=1) - 1.0) / 3.0


def outcome(call, *args):
    """The bytes of ``call(*args)``, or the text of the ``ValueError`` it raises."""
    try:
        return ("value", np.asarray(call(*args)).tobytes())
    except ValueError as err:
        return ("error", str(err))


unit_floats = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def pure_states(draw):
    parts = draw(arrays(float, (2, 3), elements=unit_floats))
    ket = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(ket)
    assume(norm > 1e-3)
    ket = ket / norm
    return np.outer(ket, ket.conj())


@st.composite
def mixed_states(draw):
    parts = draw(arrays(float, (2, 3, 3), elements=unit_floats))
    g = parts[0] + 1j * parts[1]
    m = g @ g.conj().T
    trace = np.trace(m).real
    assume(trace > 1e-3)
    return m / trace


states = st.one_of(pure_states(), mixed_states())


@st.composite
def probability_vectors(draw):
    """Nine-outcome distributions, some entries exactly 0.0 and some -0.0."""
    weights = draw(arrays(float, 9, elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    zeros = draw(arrays(np.int8, 9, elements=st.integers(0, 2)))  # 1 sets the entry to 0.0, 2 to -0.0
    weights[zeros == 1] = 0.0
    weights[zeros == 2] = -0.0
    total = weights.sum()
    assume(total > 1e-3)
    return weights / total


@settings(max_examples=200, deadline=None)
@given(rho=states)
def test_density_residuals_match_np_trace(rho):
    residuals = validate_density_matrix(rho).residuals
    assert [value.hex() for value in residuals.values()] == [value.hex() for value in wrapper_density_residuals(rho)]


@settings(max_examples=200, deadline=None)
@given(rho=states, shift=st.sampled_from([0.0, 1e-3, -0.4]), scale=st.sampled_from([1.0, 1.0 + 1e-6]))
def test_sic_probabilities_match_np_clip(sic, rho, shift, scale):
    # a shift along diag(1, -1, 0) keeps the trace but can break positivity; a scale breaks the trace
    m = (rho + shift * np.diag([1.0, -1.0, 0.0])) * scale
    assert outcome(sic_probabilities, m, sic) == outcome(wrapper_sic_probabilities, m, sic)


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(probability_vectors(), min_size=1, max_size=4), offset=st.sampled_from([0.0, 1e-9, -3e-8, 0.5]), single=st.booleans())
def test_reconstruction_matches_the_wrapper_sum_check(sic, vectors, offset, single):
    stack = np.array(vectors)
    stack[-1, 0] += offset
    p = stack[0] if single else stack
    assert outcome(reconstruct_from_probabilities, p, sic) == outcome(wrapper_reconstruct, p, sic)


@settings(max_examples=300, deadline=None)
@given(p=probability_vectors())
def test_distribution_indices_match_the_wrapper_expressions(p):
    got = distribution_indices(p)
    fields = [got.effective_number.hex(), got.shannon_entropy_nats.hex(), got.zero_count, got.zero_bound.hex(), got.zero_bound_satisfied]
    assert fields == wrapper_distribution_indices(p)


def test_signed_zeros_count_as_zeros_and_carry_no_entropy():
    p = np.array([0.5, 0.5, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0])
    got = distribution_indices(p)
    assert got.zero_count == 7 and got.shannon_entropy_nats == math.log(2.0)
    assert [got.effective_number.hex(), got.shannon_entropy_nats.hex(), got.zero_count] == wrapper_distribution_indices(p)[:3]


@settings(max_examples=200, deadline=None)
@given(
    rho=states,
    orders=st.lists(st.permutations(range(3)), min_size=12, max_size=12),
    nudge=st.sampled_from([0.0, 5e-10, 2e-9, -0.25]),
    nudged=st.integers(0, 11),
)
def test_line_inversion_matches_sorted_keys(sic, rho, orders, nudge, nudged):
    q = line_marginals(wigner_from_sic_probabilities(sic_probabilities(rho, sic)))
    permuted = {tuple(line[i] for i in order): q[line] for line, order in zip(LINE_KEYS, orders)}
    key = list(permuted)[nudged]
    permuted[key] += nudge
    assert outcome(wigner_from_line_probs, permuted) == outcome(sorted_key_wigner_from_line_probs, permuted)


UNIFORM_LINES = {line: 1.0 / 3.0 for line in LINE_KEYS}


@pytest.mark.parametrize(
    "q",
    [
        {line: value for line, value in UNIFORM_LINES.items() if line != (2, 4, 6)},
        {**UNIFORM_LINES, (2, 1, 0): 1.0 / 3.0},
        {**{line: value for line, value in UNIFORM_LINES.items() if line != (0, 3, 6)}, (6, 0, 3): 1.0 / 3.0, (1, 0, 2): 0.0},
        {**{line: value for line, value in UNIFORM_LINES.items() if line != (1, 4, 7)}, (0, 1, 3): 1.0 / 3.0},
        {**UNIFORM_LINES, (0, 1, 3): 1.0 / 3.0},
        {**UNIFORM_LINES, "012": 1.0 / 3.0},
        {**UNIFORM_LINES, (1, 4, 7): 0.5},
    ],
    ids=["missing-line", "line-named-twice", "line-named-twice-in-other-orders", "non-line-in-place-of-a-line", "extra-non-line", "string-key", "striation-2-off"],
)
def test_key_errors_read_as_before(q):
    assert outcome(wigner_from_line_probs, q)[0] == "error"
    assert outcome(wigner_from_line_probs, q) == outcome(sorted_key_wigner_from_line_probs, q)


def test_float_points_name_their_line():
    # (0.0, 1.0, 2.0) equals the row (0, 1, 2) and is looked up as it
    q = {**{line: value for line, value in UNIFORM_LINES.items() if line != (0, 1, 2)}, (0.0, 1.0, 2.0): 1.0 / 3.0}
    assert outcome(wigner_from_line_probs, q) == outcome(sorted_key_wigner_from_line_probs, q)
    assert outcome(wigner_from_line_probs, q)[0] == "value"


@settings(max_examples=200, deadline=None)
@given(parts=arrays(float, (2, 3), elements=unit_floats), stretch=st.floats(1e-12, 1e-9))
def test_ket_norm_is_np_linalg_norm_to_the_bit(parts, stretch):
    # the norm check passes at norm_tol = |np.linalg.norm(v) - 1| and fails one ulp below
    ket = parts[0] + 1j * parts[1]
    norm = np.linalg.norm(ket)
    assume(norm > 1e-3)
    ket = ket / norm * (1.0 + stretch)
    off = float(abs(np.linalg.norm(ket) - 1.0))
    assume(off > 1e-13)
    others = np.eye(3, dtype=complex)[1:]  # exact unit kets
    try:
        qutrit_triple_criterion(ket, *others, norm_tol=off)
    except ValueError as err:
        assert str(err) != "states must be unit kets"
    with pytest.raises(ValueError, match="^states must be unit kets$"):
        qutrit_triple_criterion(ket, *others, norm_tol=math.nextafter(off, 0.0))

"""The tables that depend on no input are built once, read-only, and equal
bit for bit to the expressions they replaced; what is built from them is
still built and checked anew on every call."""

import math
from itertools import combinations

import numpy as np
import pytest

from sicmub import build_mub_set, hesse_kets, hesse_mub_graph, hesse_sic, mub_from_triple, reconstruct_from_probabilities
from sicmub import contextuality, mub, sicgen, wigner
from sicmub.qmath import basis_ket, projector


def printed_hesse_kets():
    w = np.exp(2j * np.pi / 3)
    cw = np.conj(w)
    kets = np.array(
        [[0, 1, -1], [-1, 0, 1], [1, -1, 0], [0, w, -cw], [-1, 0, cw], [1, -w, 0], [0, cw, -w], [-1, 0, w], [1, -cw, 0]],
        dtype=complex,
    )
    return kets / math.sqrt(2.0)


def sic_gram_target(d):
    return (d * np.eye(d * d) + 1.0) / (d + 1.0)


#: Each table beside the expression it replaced.
TABLES = {
    "mub.LINE_VECTORS": (lambda: mub.LINE_VECTORS, lambda: mub.three_zero_vectors(np.array(mub.LINES))),
    "mub.TRIPLE_VECTORS": (lambda: mub.TRIPLE_VECTORS, lambda: mub.three_zero_vectors(np.array(list(combinations(range(9), 3))))),
    "mub.COMPUTATIONAL_PROJECTORS": (
        lambda: mub.COMPUTATIONAL_PROJECTORS,
        lambda: np.array([projector(basis_ket(3, j)) for j in range(3)]),
    ),
    "mub same-basis mask": (lambda: mub._verify_targets(4, 3, 3)[0], lambda: np.eye(4, dtype=bool)),
    "mub cross-basis mask": (lambda: mub._verify_targets(4, 3, 3)[1], lambda: ~np.eye(4, dtype=bool)),
    "mub state identity": (lambda: mub._verify_targets(4, 3, 3)[2], lambda: np.eye(3)),
    "mub identity": (lambda: mub._verify_targets(4, 3, 3)[3], lambda: np.eye(3)),
    "sicgen._HESSE_KETS": (lambda: sicgen._HESSE_KETS, printed_hesse_kets),
    "sicgen Gram target d=2": (lambda: sicgen._gram_target(2), lambda: sic_gram_target(2)),
    "sicgen Gram target d=3": (lambda: sicgen._gram_target(3), lambda: sic_gram_target(3)),
    "wigner._IDENTITY": (lambda: wigner._IDENTITY, lambda: np.eye(3)),
    "wigner._GRAM_TARGET": (lambda: wigner._GRAM_TARGET, lambda: 3.0 * np.eye(9)),
}


@pytest.mark.parametrize("table, expression", TABLES.values(), ids=TABLES.keys())
def test_table_is_the_expression_it_replaced_bit_for_bit(table, expression):
    built, expected = table(), expression()
    assert (built.dtype, built.shape, built.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


@pytest.mark.parametrize("table", [table for table, _ in TABLES.values()], ids=TABLES.keys())
def test_table_is_read_only(table):
    built = table()
    with pytest.raises(ValueError, match="read-only"):
        built[(0,) * built.ndim] = built[(1,) * built.ndim]


def test_tables_by_size_are_built_once():
    assert sicgen._gram_target(3) is sicgen._gram_target(3)
    assert mub._verify_targets(4, 3, 3) is mub._verify_targets(4, 3, 3)


def test_graph_labels_are_the_sic_indices_then_the_lines():
    expected = [str(i) for i in range(9)] + ["".join(map(str, line)) for line in mub.LINES.tolist()]
    assert contextuality.HESSE_MUB_LABELS == tuple(expected)
    assert hesse_mub_graph().labels == contextuality.HESSE_MUB_LABELS


def test_one_mub_state_is_its_old_one_row_build(sic):
    for line in mub.LINES.tolist():
        p, rho = mub_from_triple(line, sic)
        old_p = mub.three_zero_vectors(np.array([line]))
        assert p.tobytes() == old_p[0].tobytes()
        assert rho.tobytes() == reconstruct_from_probabilities(old_p, sic)[0].tobytes()


def test_mutating_hesse_kets_leaves_the_next_sic_unchanged():
    before = np.array(hesse_sic().projectors)
    kets = hesse_kets()
    kets[:] = 0.0
    assert hesse_kets().tobytes() == printed_hesse_kets().tobytes()
    assert np.array(hesse_sic().projectors).tobytes() == before.tobytes()


def test_what_takes_no_input_is_still_built_on_every_call(sic):
    assert hesse_sic() is not hesse_sic()
    assert build_mub_set(sic) is not build_mub_set(sic)
    assert hesse_mub_graph() is not hesse_mub_graph()
    assert hesse_kets() is not hesse_kets()

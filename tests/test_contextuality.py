from itertools import product

import numpy as np
import pytest

from sicmub import (
    OrthoGraph,
    basis_ket,
    build_mub_set,
    build_orthogonality_graph,
    cabello_criterion,
    chromatic_number,
    hesse_mub_graph,
    hesse_sic,
    projector,
    trace_product,
)


def brute_force_chromatic(adjacency):
    """Independent oracle: try k ascending, enumerate proper colorings
    with the first vertex pinned to color 0."""
    n = adjacency.shape[0]
    if n == 0:
        return 0
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j]]
    for k in range(1, n + 1):
        for rest in product(range(k), repeat=n - 1):
            colors = (0,) + rest
            if all(colors[i] != colors[j] for i, j in edges):
                return k
    return n


def cycle(n):
    adjacency = np.zeros((n, n), dtype=bool)
    for v in range(n):
        adjacency[v, (v + 1) % n] = adjacency[(v + 1) % n, v] = True
    return adjacency


def grotzsch():
    """Mycielskian of C5: 11 vertices, triangle-free, chromatic number 4."""
    adjacency = np.zeros((11, 11), dtype=bool)
    adjacency[:5, :5] = cycle(5)
    for v in range(5):
        for u in ((v + 1) % 5, (v - 1) % 5):
            adjacency[5 + v, u] = adjacency[u, 5 + v] = True
        adjacency[5 + v, 10] = adjacency[10, 5 + v] = True
    return adjacency


#: The coloring ``graph --chromatic`` reports for the built-in graph.
HESSE_COLORING = {
    "0": 1, "1": 2, "2": 3, "3": 2, "4": 0, "5": 3, "6": 1, "7": 3, "8": 0,
    "012": 0, "345": 1, "678": 2,
    "036": 0, "147": 1, "258": 2,
    "048": 2, "156": 0, "237": 1,
    "057": 0, "138": 1, "246": 2,
}


def random_graph(rng, n, p):
    adjacency = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adjacency[i, j] = adjacency[j, i] = True
    return OrthoGraph(labels=tuple(str(v) for v in range(n)), adjacency=adjacency)


class TestGraphConstruction:
    def test_builtin_graph_has_21_vertices_48_edges(self):
        graph = hesse_mub_graph()
        assert graph.n == 21
        assert len(graph.edges()) == 48

    def test_sic_block_has_no_internal_edges(self):
        graph = hesse_mub_graph()
        adjacency = np.asarray(graph.adjacency)
        assert not adjacency[:9, :9].any()

    def test_degrees(self):
        degrees = np.asarray(hesse_mub_graph().adjacency).sum(axis=1)
        np.testing.assert_array_equal(degrees, [4] * 9 + [5] * 12)

    def test_non_rank_one_rejected(self):
        states = np.array([np.eye(3) / 3.0, projector(basis_ket(3, 0))])
        with pytest.raises(ValueError, match="rank-1"):
            build_orthogonality_graph(states, ["a", "b"])

    def test_label_count_mismatch(self):
        states = np.array([projector(basis_ket(3, 0))])
        with pytest.raises(ValueError, match="labels"):
            build_orthogonality_graph(states, ["a", "b"])

    def test_gram_adjacency_matches_pairwise_trace_products(self):
        graph = hesse_mub_graph()
        sic = hesse_sic()
        mubs = build_mub_set(sic)
        states = np.concatenate([np.asarray(sic.projectors), np.asarray(mubs.projectors).reshape(-1, 3, 3)])
        n = len(states)
        reference = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                reference[i, j] = reference[j, i] = trace_product(states[i], states[j]) <= 1e-9
        np.testing.assert_array_equal(np.asarray(graph.adjacency), reference)

    def test_non_hermitian_input_rejected(self):
        a = np.array([[1, 0, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        b = np.array([[0, 0, 0], [0, 1, 1j], [0, 0, 0]], dtype=complex)  # idempotent, not Hermitian
        c = np.array([[0, 0, 0], [0, 0, 0], [0, 1, 1]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary residual"):
            build_orthogonality_graph(np.array([a, b, c]), ["a", "b", "c"])

    def test_tolerance_stability_of_builtin_edge_set(self):
        reference = set(hesse_mub_graph(tol=1e-9).edges())
        for tol in (1e-12, 1e-10, 1e-8, 1e-6):
            assert set(hesse_mub_graph(tol=tol).edges()) == reference


class TestChromaticNumber:
    def test_builtin_graph_needs_four_colors(self):
        chi, coloring = chromatic_number(hesse_mub_graph())
        assert chi == 4
        assert max(coloring.assignment) + 1 == 4

    def test_builtin_coloring_is_pinned(self):
        graph = hesse_mub_graph()
        _, coloring = chromatic_number(graph)
        assert dict(zip(graph.labels, coloring.assignment)) == HESSE_COLORING

    @pytest.mark.parametrize(
        "adjacency, chi", [(cycle(5), 3), (cycle(7), 3), (grotzsch(), 4)], ids=["C5", "C7", "Grotzsch"]
    )
    def test_chromatic_number_above_clique_number(self, adjacency, chi):
        # triangle-free graphs: the search itself must refute k = 2 (and 3 for Grötzsch)
        graph = OrthoGraph(labels=tuple(str(v) for v in range(len(adjacency))), adjacency=adjacency)
        got, coloring = chromatic_number(graph)
        assert got == chi == brute_force_chromatic(adjacency)
        assert max(coloring.assignment) + 1 == chi
        for i, j in graph.edges():
            assert coloring.assignment[i] != coloring.assignment[j]

    def test_triangle(self):
        adjacency = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool)
        chi, _ = chromatic_number(OrthoGraph(labels=("a", "b", "c"), adjacency=adjacency))
        assert chi == 3

    def test_edgeless_graph(self):
        graph = OrthoGraph(labels=tuple(str(i) for i in range(21)), adjacency=np.zeros((21, 21), dtype=bool))
        chi, coloring = chromatic_number(graph)
        assert chi == 1
        assert set(coloring.assignment) == {0}

    def test_colorings_are_proper(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            graph = random_graph(rng, int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)))
            chi, coloring = chromatic_number(graph)
            adjacency = np.asarray(graph.adjacency)
            for i, j in graph.edges():
                assert coloring.assignment[i] != coloring.assignment[j]
            assert max(coloring.assignment) + 1 == chi

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(777)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            p = float(rng.choice([0.2, 0.5, 0.8]))
            graph = random_graph(rng, n, p)
            chi, _ = chromatic_number(graph)
            assert chi == brute_force_chromatic(np.asarray(graph.adjacency))

    def test_vertex_cap(self):
        graph = OrthoGraph(labels=tuple(str(i) for i in range(65)), adjacency=np.zeros((65, 65), dtype=bool))
        with pytest.raises(ValueError, match="capped"):
            chromatic_number(graph)


class TestCabelloCriterion:
    def test_builtin_set_is_contextual_for_qutrits(self):
        report = cabello_criterion(hesse_mub_graph(), 3)
        assert report.contextual
        assert report.chromatic_number == 4

    def test_single_basis_is_not(self):
        states = np.array([projector(basis_ket(3, j)) for j in range(3)])
        graph = build_orthogonality_graph(states, ["0", "1", "2"])
        report = cabello_criterion(graph, 3)
        assert not report.contextual
        assert report.chromatic_number == 3

    def test_empty_graph_is_not(self):
        graph = OrthoGraph(labels=("a", "b"), adjacency=np.zeros((2, 2), dtype=bool))
        assert not cabello_criterion(graph, 3).contextual


class TestOrthoGraphValidation:
    def test_rejects_self_loops(self):
        adjacency = np.eye(2, dtype=bool)
        with pytest.raises(ValueError, match="self-loops"):
            OrthoGraph(labels=("a", "b"), adjacency=adjacency)

    def test_rejects_asymmetry(self):
        adjacency = np.zeros((2, 2), dtype=bool)
        adjacency[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            OrthoGraph(labels=("a", "b"), adjacency=adjacency)

    def test_edge_labels_in_builtin_graph(self):
        graph = hesse_mub_graph()
        labels = set(graph.labels)
        assert {str(i) for i in range(9)} <= labels
        assert {"012", "036", "048", "057"} <= labels

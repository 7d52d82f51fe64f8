"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion is one test that prints a single PASS line (visible with
``pytest -v -s tests/test_acceptance.py``); a failed assertion fails the
corresponding test.
"""

from itertools import combinations, product

import numpy as np

from sicmub import (
    StateSet,
    WitnessSearchConfig,
    basis_ket,
    build_mub_set,
    cabello_criterion,
    cfs_example_kets,
    chromatic_number,
    covering_witness,
    enumerate_min_entropy_pure_states,
    hesse_mub_graph,
    hesse_sic,
    is_sic,
    line_marginals,
    mub_from_triple,
    negativity,
    phase_point_operators,
    projector,
    qbic_check_general,
    qbic_check_hesse,
    quadratic_purity_check,
    qutrit_triple_criterion,
    random_density_matrix,
    random_ket,
    reconstruct_from_probabilities,
    saturation_cubic_roots,
    sic_probabilities,
    trace_product,
    triple_product,
    triple_product_table,
    wigner_from_line_probs,
    wigner_from_sic_probabilities,
    wigner_of_density,
    witness_search,
)
from sicmub.contextuality import OrthoGraph
from sicmub.mub import LINES


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_sic_verification(sic):
    check = is_sic(sic, tol=1e-12)
    assert check.passed and check.residuals["max_gram_residual"] < 1e-12
    _report(1, f"Hesse set satisfies the SIC overlap condition, max residual {check.residuals['max_gram_residual']:.2e} < 1e-12")


def test_criterion_02_all_hesse_triples_saturated(kets):
    worst_gap = 0.0
    for i, j, k in combinations(range(9), 3):
        verdict = qutrit_triple_criterion(kets[i], kets[j], kets[k])
        assert verdict.incompatible, (i, j, k)
        assert verdict.saturated, (i, j, k)
        worst_gap = max(worst_gap, abs(verdict.boundary_lhs - verdict.boundary_rhs))
    assert worst_gap < 1e-9
    cfs = cfs_example_kets()
    verdict = qutrit_triple_criterion(cfs[0], cfs[1], cfs[2])
    assert verdict.incompatible and verdict.saturated
    _report(2, f"all 84 SIC triples and the CFS triple are saturated-incompatible, worst gap {worst_gap:.2e} < 1e-9")


def test_criterion_03_saturation_cubic_roots():
    roots = saturation_cubic_roots()
    assert len(roots) == 2
    (simple, m1), (double, m2) = roots
    assert abs(simple - 0.25) < 1e-12 and m1 == 1
    assert abs(double - 1.0) < 1e-12 and m2 == 2
    _report(3, f"boundary cubic roots {{{simple}, {double} (x{m2})}} within 1e-12")


def test_criterion_04_mub_construction(sic):
    mubs = build_mub_set(sic)
    projectors = np.asarray(mubs.projectors)
    assert LINES.shape == (12, 3)
    worst_rank1 = 0.0
    for line in LINES.tolist():
        _, rho = mub_from_triple(line, sic)
        worst_rank1 = max(worst_rank1, float(np.max(np.abs(rho @ rho - rho))))
    assert worst_rank1 < 1e-10
    worst_within = 0.0
    worst_cross = 0.0
    for s in range(4):
        for t in range(4):
            for a in range(3):
                for b in range(3):
                    value = trace_product(projectors[s, a], projectors[t, b])
                    if s == t and a != b:
                        worst_within = max(worst_within, abs(value))
                    elif s != t:
                        worst_cross = max(worst_cross, abs(value - 1.0 / 3.0))
    assert worst_within < 1e-10 and worst_cross < 1e-10
    computational = np.array([projector(basis_ket(3, j)) for j in range(3)])
    assert np.max(np.abs(projectors[1] - computational)) < 1e-10
    _report(4, f"12 rank-1 MUB states; within-basis {worst_within:.2e}, cross-basis {worst_cross:.2e} from 1/3; striation 2 computational")


def test_criterion_05_covering_theorem(sic):
    mubs = build_mub_set(sic)
    for triple in combinations(range(9), 3):
        witnesses = covering_witness(triple, mubs, sic, tol=1e-10)
        assert witnesses, triple
    assert 4 in covering_witness((0, 1, 4), mubs, sic, tol=1e-10)
    _report(5, "every one of the 84 SIC triples is witnessed by a MUB; (0,1,4) by striation 4")


def test_criterion_06_witness_search():
    rng = np.random.default_rng(20260808)
    triples = []
    while len(triples) < 50:
        candidate = np.array([random_ket(3, rng) for _ in range(3)])
        if qutrit_triple_criterion(candidate[0], candidate[1], candidate[2]).incompatible:
            triples.append(candidate)
    worst = 0.0
    for triple in triples:
        result = witness_search(
            StateSet.from_kets(triple),
            WitnessSearchConfig(restarts=64, seed=11, success_threshold=1e-8),
        )
        assert result.value < 1e-8
        worst = max(worst, result.value)
    rho = projector(basis_ket(3, 0))
    degenerate = StateSet(dim=3, rhos=np.array([rho, rho, rho]))
    floor = witness_search(degenerate, WitnessSearchConfig(restarts=6, seed=3, stop_at_success=False)).value
    assert abs(floor - 1.0 / 9.0) < 1e-6
    _report(6, f"50 incompatible triples certified < 1e-8 (worst {worst:.3e}); triple-|0> floor {floor:.9f} = 1/9 +- 1e-6")


def test_criterion_07_purity_conditions(sic):
    mubs = build_mub_set(sic)
    table = triple_product_table(sic)
    vectors = [sic_probabilities(p, sic) for p in np.asarray(sic.projectors)]
    vectors += [np.asarray(mubs.prob_vectors)[s, k] for s in range(4) for k in range(3)]
    assert len(vectors) == 21
    for p in vectors:
        quad = quadratic_purity_check(p, tol=1e-10)
        cubic = qbic_check_general(p, table, tol=1e-10)
        hesse_form = qbic_check_hesse(p, tol=1e-10)
        assert quad.passed and abs(quad.value - 1.0 / 6.0) < 1e-10
        assert cubic.passed and abs(cubic.value - 5.0 / 32.0) < 1e-10
        assert hesse_form.passed and abs(hesse_form.value) < 1e-10
    bent = np.full(9, 1.0 / 6.0)
    bent[[0, 1, 3]] = 0.0
    counterexample = qbic_check_hesse(bent, tol=1e-10)
    assert not counterexample.passed
    assert abs(counterexample.value - (-1.0 / 72.0)) < 1e-12
    _report(7, "all 21 states pass quadratic (1/6), cubic (5/32) and grid-form (0) conditions; (0,1,3) gives -1/72")


def test_criterion_08_triple_products(sic):
    lines = LINES.tolist()
    # 12 lines with 3 pairs each cover all 36 pairs of points: each pair lies on exactly one line
    assert len(lines) == 12 and len({pair for line in lines for pair in combinations(line, 2)}) == 36
    for triple in combinations(range(9), 3):
        value = triple_product(sic, *triple)
        expected = -0.125 if list(triple) in lines else 0.0625
        assert abs(value - expected) < 1e-12, triple
    _report(8, "collinear triple products all -1/8 and noncollinear all 1/16, within 1e-12")


def test_criterion_09_min_entropy_enumeration():
    survivors = enumerate_min_entropy_pure_states()
    assert len(survivors) == 12
    assert {t for t, _ in survivors} == set(map(tuple, LINES.tolist()))
    _report(9, "minimal-entropy enumeration returns exactly the 12 grid-line states")


def test_criterion_10_wigner(sic):
    mubs = build_mub_set(sic)
    ops = phase_point_operators(mubs)
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(3, rng)
        via_ops = wigner_of_density(rho, ops)
        via_probs = wigner_from_sic_probabilities(sic_probabilities(rho, sic))
        worst = max(worst, float(np.max(np.abs(via_ops - via_probs))))
    assert worst < 1e-10
    w_sic = wigner_of_density(np.asarray(sic.projectors)[0], ops)
    expected = np.full(9, 1.0 / 6.0)
    expected[0] = -1.0 / 3.0
    assert np.max(np.abs(w_sic - expected)) < 1e-12
    kets = rng.standard_normal((1000, 3)) + 1j * rng.standard_normal((1000, 3))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    rhos = np.einsum("na,nb->nab", kets, kets.conj())
    probs = np.einsum("nab,iba->ni", rhos, np.asarray(sic.projectors)).real / 3.0
    w = 1.0 / 3.0 - 2.0 * probs
    negs = np.where(w < 0.0, -w, 0.0).sum(axis=1)
    assert negs.max() <= 1.0 / 3.0 + 1e-9
    sic_negativity = negativity(w_sic)
    assert abs(sic_negativity - 1.0 / 3.0) < 1e-10
    _report(10, f"Wigner maps agree ({worst:.2e}); SIC Wigner = (-1/3, 1/6 x8); negativity cap 1/3 attained ({sic_negativity:.12f})")


def test_criterion_11_contextuality():
    graph = hesse_mub_graph()
    assert graph.n == 21

    # brute-force edge oracle over all 210 pairs
    sic = hesse_sic()
    mubs = build_mub_set(sic)
    states = list(np.asarray(sic.projectors)) + [
        np.asarray(mubs.projectors)[s, k] for s in range(4) for k in range(3)
    ]
    oracle_edges = sum(
        1
        for i in range(21)
        for j in range(i + 1, 21)
        if abs(np.trace(states[i] @ states[j]).real) <= 1e-9
    )
    assert oracle_edges == 48
    assert len(graph.edges()) == 48

    chi, coloring = chromatic_number(graph)
    assert chi == 4
    report = cabello_criterion(graph, 3)
    assert report.contextual

    def brute_chromatic(adjacency):
        n = adjacency.shape[0]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j]]
        for k in range(1, n + 1):
            for rest in product(range(k), repeat=n - 1):
                colors = (0,) + rest
                if all(colors[i] != colors[j] for i, j in edges):
                    return k
        return n

    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = float(rng.choice([0.2, 0.5, 0.8]))
        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    adjacency[i, j] = adjacency[j, i] = True
        small = OrthoGraph(labels=tuple(str(v) for v in range(n)), adjacency=adjacency)
        assert chromatic_number(small)[0] == brute_chromatic(adjacency)
    _report(11, "21-vertex graph has 48 edges (oracle) and exact chromatic number 4 > 3; solver matches brute force on 200 small graphs")


def test_criterion_12_round_trips(sic):
    mubs = build_mub_set(sic)
    ops = phase_point_operators(mubs)
    rng = np.random.default_rng(31337)
    worst_state = 0.0
    worst_wigner = 0.0
    for _ in range(100):
        rho = random_density_matrix(3, rng)
        p = sic_probabilities(rho, sic)
        worst_state = max(worst_state, float(np.max(np.abs(reconstruct_from_probabilities(p, sic) - rho))))
        w = wigner_of_density(rho, ops)
        worst_wigner = max(worst_wigner, float(np.max(np.abs(wigner_from_line_probs(line_marginals(w)) - w))))
    assert worst_state < 1e-10
    assert worst_wigner < 1e-10
    _report(12, f"SIC reconstruction ({worst_state:.2e}) and Wigner line inversion ({worst_wigner:.2e}) are identity maps within 1e-10")

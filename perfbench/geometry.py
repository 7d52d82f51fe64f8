"""The ``geometry`` workload: certification passes and per-state analyses.

It calls every algebraic layer and never the witness search.  Each
round is one from-scratch certification pass followed by a batch of
per-state analyses, so any prefix of the stream has the same mix.
A pass runs the exact chromatic-number search once: even passes call
``chromatic_number``, odd ones ``cabello_criterion``, which runs the
same search inside the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import inputs
from reference import SpeedReference

#: Analyses per round, cycling pure state, mixed state, pure triple.
ANALYSES_PER_ROUND = 48
#: Analysis inputs drawn per kind; the stream cycles through them.
POOL_PER_KIND = 64
ANALYSIS_KINDS = ("pure", "mixed", "triple")


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    data: object = None


def _stripe_probs(mub_projectors: np.ndarray) -> np.ndarray:
    """``probs[a, s, k] = <psi_a|P_sk|psi_a>`` for the nine Hesse kets."""
    return np.einsum("ia,skab,ib->isk", inputs.HESSE_KETS.conj(), mub_projectors, inputs.HESSE_KETS).real


class GeometryWorkload:
    reference = SpeedReference
    #: About 550-700 certification passes per 25 s run, so ten or more lie beyond p97.5.
    tail_percentile = 97.5
    latency_kinds = ("certify",)
    throughput_kinds = ANALYSIS_KINDS
    aliases = {"throughput_per_s": "analyses_per_s", "latency_ms_mean": "certify_ms_mean", "latency_ms_p50": "certify_ms_p50", "latency_ms_tail": "certify_ms_tail"}

    def __init__(self, name: str, seed: int, layers):
        self.layers = layers
        rng = np.random.default_rng(seed)
        self.sic = layers.sicgen.hesse_sic()
        mubs = layers.mub.build_mub_set(self.sic)
        self.ppo = layers.wigner.phase_point_operators(mubs)
        self.tpt = layers.purity.triple_product_table(self.sic)
        pools = {
            "pure": [inputs.projectors([inputs.random_ket(rng)])[0] for _ in range(POOL_PER_KIND)],
            "mixed": [inputs.random_density(rng) for _ in range(POOL_PER_KIND)],
            "triple": [np.array([inputs.random_ket(rng) for _ in range(3)]) for _ in range(POOL_PER_KIND)],
        }
        self.analyses = [
            Op(kind, f"{kind}-{i}", pools[kind][i]) for i in range(POOL_PER_KIND) for kind in ANALYSIS_KINDS
        ]

    def stream(self):
        analyses = itertools.cycle(self.analyses)
        for r in itertools.count():
            yield Op("certify", f"certify-{r}", r % 2)
            yield from itertools.islice(analyses, ANALYSES_PER_ROUND)

    def warm_up(self) -> None:
        self.execute(Op("certify", "warm-up", 0))
        self.execute(Op("certify", "warm-up", 1))
        for op in self.analyses[: len(ANALYSIS_KINDS)]:
            self.execute(op)

    def can_stop(self, done: int) -> bool:
        return True

    def execute(self, op: Op):
        L = self.layers
        if op.kind == "certify":
            sic = L.sicgen.hesse_sic()
            gram = L.sicgen.is_sic(sic)
            mubs = L.mub.build_mub_set(sic)
            mub_report = L.mub.verify_mub_set(mubs)
            table = L.mub.covering_table(mubs, sic)
            ppo = L.wigner.phase_point_operators(mubs)
            tpt = L.purity.triple_product_table(sic)
            survivors = L.purity.enumerate_min_entropy_pure_states()
            graph = L.contextuality.hesse_mub_graph()
            if op.data:
                verdict = L.contextuality.cabello_criterion(graph, 3)
                chi, coloring = verdict.chromatic_number, verdict.coloring
                contextual = verdict.contextual
            else:
                chi, coloring = L.contextuality.chromatic_number(graph)
                contextual = None
            return gram, mubs, mub_report, table, ppo, tpt, survivors, graph, chi, coloring, contextual
        if op.kind == "triple":
            k = op.data
            states = L.compat.StateSet(dim=3, rhos=inputs.projectors(k))
            return states, L.compat.qutrit_triple_criterion(k[0], k[1], k[2])
        rho = op.data
        report = L.qmath.validate_density_matrix(rho)
        p = L.sicgen.sic_probabilities(rho, self.sic)
        back = L.sicgen.reconstruct_from_probabilities(p, self.sic)
        w = L.wigner.wigner_from_sic_probabilities(p)
        w_ops = L.wigner.wigner_of_density(rho, self.ppo)
        lines = L.wigner.line_marginals(w)
        w_lines = L.wigner.wigner_from_line_probs(lines)
        neg = L.wigner.negativity(w)
        quad = L.purity.quadratic_purity_check(p)
        cubic_hesse = L.purity.qbic_check_hesse(p)
        cubic_general = L.purity.qbic_check_general(p, self.tpt)
        indices = L.purity.distribution_indices(p)
        return report, p, back, w, w_ops, lines, w_lines, neg, quad, cubic_hesse, cubic_general, indices

    def check(self, op: Op, out) -> str | None:
        if op.kind == "certify":
            return _check_certify(op, out)
        if op.kind == "triple":
            return _check_triple(op, out)
        return _check_state(op, out)

    def layer_metrics(self, span_stats) -> dict:
        return {}

    def close(self) -> None:
        pass


def _check_certify(op, out) -> str | None:
    gram, mubs, mub_report, table, ppo, tpt, survivors, graph, chi, coloring, contextual = out
    problems = []
    if not gram.passed or not mub_report.passed:
        problems.append("SIC or MUB verification failed")
    mub_p = np.asarray(mubs.projectors)
    probs = _stripe_probs(mub_p)
    covering = dict(table)
    if len(table) != 84 or not all(covering.get(t) for t in inputs.HESSE_TRIPLES):
        problems.append("not every one of the 84 triples is covered")
    for t in inputs.HESSE_TRIPLES:
        own = [s + 1 for s in range(4) if (probs[t[0], s] * probs[t[1], s] * probs[t[2], s]).sum() <= 1e-10]
        if covering.get(t) != own:
            problems.append(f"covering of {t}: {covering.get(t)} vs recomputed {own}")
            break
    if 4 not in covering.get((0, 1, 4), []):
        problems.append("(0,1,4) not covered by striation 4")
    ops = np.asarray(ppo.ops)
    if np.max(np.abs(np.einsum("jaa->j", ops) - 1)) > 1e-10 or np.max(np.abs(np.einsum("jab,kba->jk", ops, ops) - 3 * np.eye(9))) > 1e-10:
        problems.append("phase-point operators fail tr A = 1 or tr A_j A_k = 3 delta")
    g = inputs.HESSE_KETS.conj() @ inputs.HESSE_KETS.T
    own_tpt = np.einsum("jk,kl,lj->jkl", g, g, g).real
    if np.max(np.abs(np.asarray(tpt.values) - own_tpt)) > 1e-10:
        problems.append("triple-product table differs from <j|k><k|l><l|j>")
    if sorted(t for t, _ in survivors) != sorted(inputs.GRID_LINES):
        problems.append(f"{len(survivors)} minimal-entropy states, not the 12 grid lines")
    states = np.concatenate([inputs.projectors(inputs.HESSE_KETS), mub_p.reshape(12, 3, 3)])
    own_adj = np.einsum("iab,jba->ij", states, states).real <= 1e-9
    np.fill_diagonal(own_adj, False)
    adj = np.asarray(graph.adjacency)
    if graph.n != 21 or len(graph.edges()) != 48 or not np.array_equal(adj, own_adj):
        problems.append(f"graph has {graph.n} vertices and {len(graph.edges())} edges, expected 21 and 48")
    colors = np.asarray(coloring.assignment)
    rows, cols = np.nonzero(own_adj)
    if chi != 4 or contextual is False or np.any(colors[rows] == colors[cols]) or colors.max() + 1 != 4:
        problems.append(f"chromatic number {chi}, contextual {contextual}")
    return f"{op.label}: " + "; ".join(problems) if problems else None


def _check_triple(op, out) -> str | None:
    states, verdict = out
    kets = op.data
    incompatible, _, gap = inputs.triple_class(kets)
    overlaps = [abs(np.vdot(kets[i], kets[(i + 1) % 3])) ** 2 for i in range(3)]
    if len(states) != 3 or max(abs(a - b) for a, b in zip(verdict.overlaps, overlaps)) > 1e-12:
        return f"{op.label}: overlaps {verdict.overlaps} vs {overlaps}"
    if abs(gap) > 1e-6 and abs(sum(overlaps) - 1) > 1e-6 and verdict.incompatible != incompatible:
        return f"{op.label}: verdict {verdict.verdict}, closed form says incompatible={incompatible}"
    return None


def _check_state(op, out) -> str | None:
    report, p, back, w, w_ops, lines, w_lines, neg, quad, cubic_hesse, cubic_general, indices = out
    rho = op.data
    problems = []
    own_p = inputs.sic_probs(rho)
    if not report.passed or np.max(np.abs(p - own_p)) > 1e-12:
        problems.append("SIC probabilities or state validation wrong")
    if np.max(np.abs(back - rho)) > 1e-10:
        problems.append("reconstruction does not return the state")
    if np.max(np.abs(w - w_ops)) > 1e-10 or np.max(np.abs(w_lines - w)) > 1e-10:
        problems.append("Wigner cross-check above 1e-10")
    if abs(neg - float(-w_ops[w_ops < 0].sum())) > 1e-10:
        problems.append("negativity wrong")
    pure = op.kind == "pure"
    if pure != quad.passed or (pure and not (cubic_hesse.passed and cubic_general.passed)):
        problems.append(f"purity checks {quad.passed}/{cubic_hesse.passed}/{cubic_general.passed} on a {op.kind} state")
    if abs(indices.effective_number - 1.0 / float(own_p @ own_p)) > 1e-9:
        problems.append("effective number wrong")
    return f"{op.label}: " + "; ".join(problems) if problems else None

"""Witness-search workloads: ``search-certify`` and ``search-exhaust``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import inputs
from reference import SpeedReference
from sicmub.compat import WitnessSearchConfig

#: Percentile of the reported tail.  A 25 s run holds 300-450 searches on
#: search-certify and 50-90 on search-exhaust, so ten or more lie beyond it.
TAIL_PERCENTILE = {"search-certify": 95.0, "search-exhaust": 80.0}
#: Success threshold shared by the certify config and the checks.
THRESHOLD = 1e-8

#: Random incompatible triples per certify cycle, beside the 84 Hesse triples: as many
#: as there are among the agreement test's 200 random triples (tests/test_compat.py, seed 2).
RANDOM_TRIPLES = 91
#: Compatible triples drawn for the exhaust stream; it cycles when a run gets through them.
EXHAUST_POOL = 96
#: The functional's floor on a compatible triple vanishes at the boundary, as about
#: 0.2-1.2 x margin**2 (40 searches at margins 4e-5 to 6e-3).  Each "not certified"
#: check is applied only above the margin where that floor is 19x its threshold.
CHECK_ABOVE_1E8_MARGIN = 1e-3
CHECK_NOT_SUCCESS_MARGIN = 1e-4


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    kets: np.ndarray
    margin: float
    states: object


class SearchWorkload:
    """One witness search per operation, on a fixed interleaved stream.

    ``search-certify`` runs the early-stop config of the agreement test
    on cfs-example, then the 84 Hesse triples and ``RANDOM_TRIPLES``
    random incompatible triples, interleaved evenly so that any prefix
    of the stream has the same mix.  ``search-exhaust`` runs the
    no-early-stop config on random compatible triples.
    """

    reference = SpeedReference
    latency_kinds = ("hesse", "random", "cfs", "compatible")
    throughput_kinds = latency_kinds
    aliases = {"throughput_per_s": "triples_per_s", "latency_ms_mean": "search_ms_mean", "latency_ms_p50": "search_ms_p50", "latency_ms_tail": "search_ms_tail"}

    def __init__(self, name: str, seed: int, layers):
        self.name = name
        self.tail_percentile = TAIL_PERCENTILE[name]
        self.layers = layers
        rng = np.random.default_rng(seed)
        if name == "search-certify":
            self.cfg = WitnessSearchConfig(restarts=64, seed=2024, success_threshold=THRESHOLD, stop_at_success=True)
            randoms = inputs.random_triples(rng, RANDOM_TRIPLES, incompatible=True)
            hesse = [
                ((h + 0.5) / len(inputs.HESSE_TRIPLES), ("hesse", "hesse-" + "".join(map(str, t)), inputs.HESSE_KETS[list(t)], 0.0))
                for h, t in enumerate(inputs.HESSE_TRIPLES)
            ]
            drawn = [((r + 0.5) / RANDOM_TRIPLES, ("random", f"random-{r}", kets, margin)) for r, (kets, margin) in enumerate(randoms)]
            specs = [("cfs", "cfs-example", inputs.CFS_KETS, 0.0)] + [spec for _, spec in sorted(hesse + drawn, key=lambda x: x[0])]
        else:
            self.cfg = WitnessSearchConfig(restarts=8, seed=2024, stop_at_success=False)
            specs = [
                ("compatible", f"compatible-{i}", kets, margin)
                for i, (kets, margin) in enumerate(inputs.random_triples(rng, EXHAUST_POOL, incompatible=False))
            ]
        make_states = layers.compat.StateSet
        self.ops = [Op(kind, label, kets, margin, make_states(dim=3, rhos=inputs.projectors(kets))) for kind, label, kets, margin in specs]
        self.searches = 0
        self.restarts = 0
        self.cycles = 0
        self.restarts_at_threshold = 0
        self.worst_certified = 0.0

    def stream(self):
        return itertools.cycle(self.ops)

    def warm_up(self) -> None:
        self.execute(self.ops[0])

    def can_stop(self, done: int) -> bool:
        return True

    def execute(self, op: Op):
        return self.layers.compat.witness_search(op.states, self.cfg)

    def check(self, op: Op, result) -> str | None:
        self.searches += 1
        self.restarts += len(result.history)
        self.cycles += sum(r.cycles for r in result.history)
        self.restarts_at_threshold += sum(r.final_value < THRESHOLD for r in result.history)
        basis = np.asarray(result.basis)
        value = inputs.pp_value(op.kets, basis)
        residual = inputs.orthonormality_residual(basis)
        if op.kind == "compatible":
            if residual > 1e-10 or abs(value - result.value) > 1e-12 + 1e-6 * value:
                return f"{op.label}: basis off by {residual:.1e}, or value {result.value:.3e} vs recomputed {value:.3e}"
            if op.margin >= CHECK_NOT_SUCCESS_MARGIN and result.success:
                return f"{op.label}: compatible triple certified (value {result.value:.3e}) at margin {op.margin:.2e}"
            if op.margin >= CHECK_ABOVE_1E8_MARGIN and value <= THRESHOLD:
                return f"{op.label}: value {value:.3e} <= 1e-8 at margin {op.margin:.2e}"
            if op.margin > 0.05 and value <= 1e-4:
                return f"{op.label}: value {value:.3e} <= 1e-4 at margin {op.margin:.3f}"
            return None
        if not result.success or residual > 1e-10 or value >= THRESHOLD:
            return f"{op.label}: not certified (value {result.value:.3e}, recomputed {value:.3e}, orthonormality {residual:.1e})"
        self.worst_certified = max(self.worst_certified, result.value)
        return None

    def layer_metrics(self, span_stats) -> dict:
        busy_us = span_stats["compat.witness_search"]["busy_ms"] * 1e3
        return {
            "compat.us_per_cycle": busy_us / self.cycles if self.cycles else 0.0,
            "compat.restarts_per_search": self.restarts / self.searches if self.searches else 0.0,
            "compat.cycles_per_restart": self.cycles / self.restarts if self.restarts else 0.0,
            "compat.restart_yield": self.restarts_at_threshold / self.restarts if self.restarts else 0.0,
            "compat.worst_certified_value": self.worst_certified,
        }

    def close(self) -> None:
        pass

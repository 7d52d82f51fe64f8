"""In-memory spans around the benchmark's calls into sicmub.

A span is ``(name, start_ns, end_ns, parent, op_id)``; ``parent`` is the
index of the enclosing span (-1 at top level).  Spans are recorded only
at the benchmark's own call sites, so a layer's self time is its span's
duration minus what its child spans cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

#: Public functions timed per layer; each becomes span ``<layer>.<function>``.
TIMED = {
    "qmath": ("validate_density_matrix",),
    "sicgen": ("hesse_sic", "is_sic", "sic_probabilities", "reconstruct_from_probabilities"),
    "compat": ("StateSet", "qutrit_triple_criterion", "witness_search"),
    "mub": ("build_mub_set", "verify_mub_set", "covering_table"),
    "purity": (
        "triple_product_table",
        "enumerate_min_entropy_pure_states",
        "quadratic_purity_check",
        "qbic_check_hesse",
        "qbic_check_general",
        "distribution_indices",
    ),
    "wigner": (
        "phase_point_operators",
        "wigner_from_sic_probabilities",
        "wigner_of_density",
        "line_marginals",
        "wigner_from_line_probs",
        "negativity",
    ),
    "contextuality": ("hesse_mub_graph", "chromatic_number", "cabello_criterion"),
}

TIMED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TIMED.items() for fn in fns)


class Tracer:
    """Records spans in memory; written out once the run ends."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = "setup"

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)

        return traced

    @contextmanager
    def span(self, name: str, op_id=None):
        if op_id is not None:
            self.op_id = op_id
        idx = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def self_times(self) -> list[int]:
        """Per span, its duration minus what its child spans cover (ns)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [end - start - child for (_, start, end, _, _), child in zip(self.spans, child_ns)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,op_id,name,start_ns,end_ns\n")
            fh.writelines(
                f"{i},{parent},{op},{name},{start},{end}\n"
                for i, (name, start, end, parent, op) in enumerate(self.spans)
            )


@contextmanager
def _untraced(name, op_id=None):
    yield


def bind_layers(tracer: Tracer | None) -> SimpleNamespace:
    """``layers.<layer>.<function>``: the public functions, wrapped in spans when tracing."""
    layers = {}
    for layer, names in TIMED.items():
        module = importlib.import_module(f"sicmub.{layer}")
        fns = {name: getattr(module, name) for name in names}
        if tracer is not None:
            fns = {name: tracer.wrap(f"{layer}.{name}", fn) for name, fn in fns.items()}
        layers[layer] = SimpleNamespace(**fns)
    ns = SimpleNamespace(**layers)
    ns.tracer = tracer
    ns.span = tracer.span if tracer is not None else _untraced
    return ns

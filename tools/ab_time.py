"""Time two source trees against each other in one process, op by op.

    python3 tools/ab_time.py --parent PARENT/src --change src --workload geometry

Loads the ``sicmub`` package of each tree twice, under four names
(``sicmub_parent_a``, ``sicmub_parent_b``, ``sicmub_change_a`` and
``sicmub_change_b``), builds the benchmark's geometry workload of
``perfbench/geometry.py`` once per copy from seed 5, so all four get the
same inputs, and replays one cycle of its stream (the rounds after which
the analysis cycle and the even/odd certification passes come round
again) ``--repeats`` times.  Each operation runs in all four copies back
to back: the parent first on even steps and the change first on odd
ones, and copy ``a`` first on every other pair of steps, so machine drift
falls on all alike.  Only ``execute`` is timed; the workload's checks do
not run.

Per op kind it prints, for each tree, the sum over operations of each
one's fastest run in a copy, averaged over the two copies; their ratio
(change over parent), a 95 % bootstrap interval of that ratio, and the
paired sign count: in how many of the side-by-side runs the change was
faster.  The interval resamples the copies of each tree as well as the
repeats of each operation, so it covers the gap between two loaded copies
of the same code, which has read up to about 3 % on the search code
(2 vCPUs).  The last line is the same as one JSON object.

Exits 0 when every operation gave the same output in both trees, bit for
bit (floats and arrays compared by their bytes), 1 naming the first
operation whose outputs differ, and 2 on bad arguments or a tree that
cannot run the workload.  Only ``geometry`` is offered: ``cli`` starts
processes and has no in-process stream, and ``tools/compare_searches.py``
checks the witness searches bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("geometry",)
SEED = 5
TREES = ("parent", "change")
#: Each tree is loaded this many times, as ``sicmub_<tree>_a``, ``_b``, ...
COPIES = 2
#: Bootstrap resamples, their generator's seed, and how many are drawn at once.
DRAWS = 2000
DRAW_SEED = 27
DRAW_CHUNK = 100


def load_tree(src: str, name: str) -> str:
    """Import ``src/sicmub`` as the package ``name`` and return ``name``.  The
    package imports its modules relatively, so they load as ``name.<module>``."""
    init = Path(src).resolve() / "sicmub" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no sicmub package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return name


def bind_layers(package: str) -> SimpleNamespace:
    """``layers.<layer>.<function>`` for the benchmark's timed functions, from
    ``package``, the shape ``perfbench/tracing.py`` binds untraced."""
    from tracing import TIMED

    return SimpleNamespace(
        **{
            layer: SimpleNamespace(**{fn: getattr(importlib.import_module(f"{package}.{layer}"), fn) for fn in fns})
            for layer, fns in TIMED.items()
        }
    )


def make_workload(package: str):
    """The benchmark's geometry workload over ``package``, seeded ``SEED``."""
    from geometry import GeometryWorkload

    return GeometryWorkload("geometry", SEED, bind_layers(package))


def canonical(value):
    """``value`` as nested tuples of plain values, equal exactly when the
    outputs are equal bit for bit: arrays by dtype, shape and bytes, floats by
    their hex form, dataclasses by class name and fields."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, complex):
        return ("complex", value.real.hex(), value.imag.hex())
    if isinstance(value, np.generic):
        return canonical(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple((f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value))
        return (type(value).__name__, fields)
    if isinstance(value, dict):
        return ("dict", tuple((canonical(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"cannot compare outputs of type {type(value).__name__}")


def run_order(step: int) -> list[tuple[int, int]]:
    """The ``(tree, copy)`` runs of one step, in order: the trees alternate
    every step and the copies every other step, each pair of trees running
    one copy back to back."""
    trees = (0, 1) if step % 2 == 0 else (1, 0)
    copies = tuple(range(COPIES)) if step // 2 % 2 == 0 else tuple(reversed(range(COPIES)))
    return [(t, c) for c in copies for t in trees]


def replay(workloads: list[list], ops: int, repeats: int) -> tuple[list[str], np.ndarray, str | None]:
    """Run the first ``ops`` operations of the stream ``repeats`` times in each
    copy ``workloads[tree][copy]`` of each tree, interleaved.  Returns each
    operation's kind, the times ``(tree, copy, repeat, op)`` in nanoseconds,
    and the label of the first operation whose outputs differ (``None`` if
    all match); the replay stops there."""
    times = np.zeros((len(TREES), COPIES, repeats, ops), dtype=np.int64)
    kinds: list[str] = []
    step = 0
    for repeat in range(repeats):
        streams = [[copy.stream() for copy in tree] for tree in workloads]
        for i in range(ops):
            batch = [[next(stream) for stream in tree] for tree in streams]
            if repeat == 0:
                kinds.append(batch[0][0].kind)
            outputs = [[None] * COPIES for _ in TREES]
            for t, c in run_order(step):
                start = perf_counter_ns()
                outputs[t][c] = workloads[t][c].execute(batch[t][c])
                times[t, c, repeat, i] = perf_counter_ns() - start
            step += 1
            first = canonical(outputs[0][0])
            if any(op.label != batch[0][0].label for tree in batch for op in tree) or any(
                canonical(out) != first for tree in outputs for out in tree
            ):
                return kinds, times, batch[0][0].label
    return kinds, times, None


def minima_sum(samples: np.ndarray) -> float:
    """Sum over operations of each one's fastest run in a copy, averaged over
    the copies; ``samples`` is ``(copy, repeat, op)``, or ``(repeat, op)``
    for one copy.  Each copy's minima come from the same number of runs, so
    a copy counts the same however its runs are pooled."""
    per_copy = samples.reshape(-1, *samples.shape[-2:]).min(axis=1).sum(axis=1)
    return float(per_copy.mean())


def sign_count(parent: np.ndarray, change: np.ndarray) -> dict[str, int]:
    """How many side-by-side runs the change was faster, slower or equal in."""
    return {
        "faster": int(np.count_nonzero(change < parent)),
        "slower": int(np.count_nonzero(change > parent)),
        "equal": int(np.count_nonzero(change == parent)),
    }


def bootstrap_interval(parent: np.ndarray, change: np.ndarray, draws: int = DRAWS, seed: int = DRAW_SEED) -> tuple[float, float]:
    """95 % interval of ``minima_sum(change) / minima_sum(parent)`` over
    ``draws`` two-level resamples.  ``parent`` and ``change`` are ``(copy,
    repeat, op)``.  Each draw picks, for each tree on its own, as many copies
    as there are, with replacement; then, per picked copy and operation, as
    many repeats as there are, with replacement, the same ones in both trees;
    and averages the picked copies' sums of per-op minima.  A draw that
    picks one copy twice reads that copy alone, so the interval spans the
    gap between the copies as well as the spread of the repeats."""
    copies, repeats, ops = parent.shape
    rng = np.random.default_rng(seed)
    columns = np.arange(ops)
    ratios = []
    for start in range(0, draws, DRAW_CHUNK):  # in chunks, so 50 repeats take a few MB, not hundreds
        n = min(DRAW_CHUNK, draws - start)
        copy_picks = rng.integers(0, copies, size=(2, n, copies, 1, 1))
        repeat_picks = rng.integers(0, repeats, size=(n, copies, repeats, ops))
        parent_sums, change_sums = (
            samples[picks, repeat_picks, columns].min(axis=2).sum(axis=2).mean(axis=1)
            for samples, picks in zip((parent, change), copy_picks)
        )
        ratios.append(change_sums / parent_sums)
    low, high = np.quantile(np.concatenate(ratios), [0.025, 0.975])
    return float(low), float(high)


def summarize(kinds: list[str], times: np.ndarray) -> dict[str, dict]:
    """Per op kind: the op count, each tree's sum of per-op minima (ms,
    averaged over copies), the ratio, its bootstrap interval over copies and repeats, and the paired
    sign count.  ``times`` is ``(tree, copy, repeat, op)``."""
    report = {}
    for kind in dict.fromkeys(kinds):
        columns = [i for i, k in enumerate(kinds) if k == kind]
        parent, change = times[0][..., columns], times[1][..., columns]
        report[kind] = {
            "ops": len(columns),
            "parent_ms": minima_sum(parent) / 1e6,
            "change_ms": minima_sum(change) / 1e6,
            "ratio": minima_sum(change) / minima_sum(parent),
            "interval": bootstrap_interval(parent, change),
            "pairs": sign_count(parent, change),
        }
    return report


def stream_period(workload) -> int:
    """Operations in one cycle of the geometry stream: the rounds after which
    both the analysis cycle and the even/odd certification passes come round
    again."""
    from geometry import ANALYSES_PER_ROUND

    analyses = len(workload.analyses)
    rounds = math.lcm(2, analyses // math.gcd(analyses, ANALYSES_PER_ROUND))
    return rounds * (1 + ANALYSES_PER_ROUND)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent tree's src directory")
    parser.add_argument("--change", required=True, help="the changed tree's src directory")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--repeats", type=int, default=5, help="times each operation runs in each copy of each tree (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = [
            [make_workload(load_tree(src, f"sicmub_{tree}_{chr(ord('a') + copy)}")) for copy in range(COPIES)]
            for tree, src in zip(TREES, (args.parent, args.change))
        ]
        for tree in workloads:
            for workload in tree:
                workload.warm_up()
    except Exception as failed:  # a tree that cannot build or warm up its workload
        print(f"error: {type(failed).__name__}: {failed}", file=sys.stderr)
        return 2
    ops = stream_period(workloads[0][0])
    try:
        kinds, times, differs = replay(workloads, ops, args.repeats)
    except Exception as failed:  # an operation that raises in either tree
        print(f"error: {type(failed).__name__}: {failed}", file=sys.stderr)
        return 2
    if differs is not None:
        print(f"differ: the outputs of {differs} are not bit for bit the same")
        return 1
    report = summarize(kinds, times)
    print(
        f"workload {args.workload} seed {SEED}: {ops} ops x {args.repeats} repeats in each of {COPIES} copies per tree, "
        "all outputs bit for bit the same"
    )
    for kind, r in report.items():
        low, high = r["interval"]
        pairs = r["pairs"]
        print(
            f"{kind}: {r['ops']} ops, sum of per-op minima {r['parent_ms']:.4f} -> {r['change_ms']:.4f} ms, "
            f"ratio {r['ratio']:.4f} (interval over copies and repeats [{low:.4f}, {high:.4f}]), change faster in "
            f"{pairs['faster']} of {sum(pairs.values())} pairs"
        )
    print(json.dumps({"workload": args.workload, "seed": SEED, "ops": ops, "repeats": args.repeats, "copies": COPIES, "kinds": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

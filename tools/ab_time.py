"""Time two source trees against each other in one process, op by op.

    python3 tools/ab_time.py --parent PARENT/src --change src --workload geometry

Loads the ``sicmub`` package of each tree under its own name
(``sicmub_parent`` and ``sicmub_change``), builds the benchmark's geometry
workload of ``perfbench/geometry.py`` once per tree from seed 5, so both
get the same inputs, and replays one cycle of its stream (the rounds after
which the analysis cycle and the even/odd certification passes come round
again) ``--repeats`` times.  Each operation runs in both trees back to
back, the parent first on even steps and the change first on odd ones, so
machine drift falls on both alike.  Only ``execute`` is timed; the
workload's checks do not run.

Per op kind it prints the sum over operations of each one's fastest run
in each tree, their ratio (change over parent), and the paired sign
count: in how many of the side-by-side runs the change was faster.  The
last line is the same as one JSON object.  The printed line also gives a
repeat-only bootstrap interval of the ratio (the repeats of each operation
resampled, paired across the trees).  It does not cover a difference
between two loaded copies of the same code, which has read up to about
3 % on the search code (2 vCPUs), so it is no confidence interval for a
change and stays out of the JSON line.

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
#: Bootstrap resamples and their generator's seed.
DRAWS = 2000
DRAW_SEED = 27


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


def replay(workloads: dict, ops: int, repeats: int) -> tuple[list[str], np.ndarray, str | None]:
    """Run the first ``ops`` operations of the stream ``repeats`` times in each
    tree, interleaved.  Returns each operation's kind, the times ``(tree,
    repeat, op)`` in nanoseconds, and the label of the first operation whose
    outputs differ (``None`` if all match); the replay stops there."""
    times = np.zeros((len(TREES), repeats, ops), dtype=np.int64)
    kinds: list[str] = []
    step = 0
    for repeat in range(repeats):
        streams = [workloads[tree].stream() for tree in TREES]
        for i in range(ops):
            pair = [next(stream) for stream in streams]
            if repeat == 0:
                kinds.append(pair[0].kind)
            outputs = [None, None]
            order = (0, 1) if step % 2 == 0 else (1, 0)
            step += 1
            for t in order:
                start = perf_counter_ns()
                outputs[t] = workloads[TREES[t]].execute(pair[t])
                times[t, repeat, i] = perf_counter_ns() - start
            if pair[0].label != pair[1].label or canonical(outputs[0]) != canonical(outputs[1]):
                return kinds, times, pair[0].label
    return kinds, times, None


def minima_sum(samples: np.ndarray) -> float:
    """Sum over operations of each one's fastest run; ``samples`` is ``(repeat, op)``."""
    return float(samples.min(axis=0).sum())


def sign_count(parent: np.ndarray, change: np.ndarray) -> dict[str, int]:
    """How many side-by-side runs the change was faster, slower or equal in."""
    return {
        "faster": int(np.count_nonzero(change < parent)),
        "slower": int(np.count_nonzero(change > parent)),
        "equal": int(np.count_nonzero(change == parent)),
    }


def bootstrap_interval(parent: np.ndarray, change: np.ndarray, draws: int = DRAWS, seed: int = DRAW_SEED) -> tuple[float, float]:
    """Repeat-only 95 % interval of ``minima_sum(change) / minima_sum(parent)``
    over ``draws`` resamples: each draw picks, per operation, as many repeats
    as there are, with replacement, the same ones in both trees.  ``parent``
    and ``change`` are ``(repeat, op)``."""
    repeats, ops = parent.shape
    picks = np.random.default_rng(seed).integers(0, repeats, size=(draws, repeats, ops))
    columns = np.arange(ops)
    ratios = change[picks, columns].min(axis=1).sum(axis=1) / parent[picks, columns].min(axis=1).sum(axis=1)
    low, high = np.quantile(ratios, [0.025, 0.975])
    return float(low), float(high)


def summarize(kinds: list[str], times: np.ndarray) -> dict[str, dict]:
    """Per op kind: the op count, each tree's sum of per-op minima (ms), the
    ratio, its repeat-only bootstrap interval and the paired sign count."""
    report = {}
    for kind in dict.fromkeys(kinds):
        columns = [i for i, k in enumerate(kinds) if k == kind]
        parent, change = times[0][:, columns], times[1][:, columns]
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
    parser.add_argument("--repeats", type=int, default=5, help="times each operation runs per tree (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")

    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = {tree: make_workload(load_tree(src, f"sicmub_{tree}")) for tree, src in zip(TREES, (args.parent, args.change))}
        for workload in workloads.values():
            workload.warm_up()
    except Exception as failed:  # a tree that cannot build or warm up its workload
        print(f"error: {type(failed).__name__}: {failed}", file=sys.stderr)
        return 2
    ops = stream_period(workloads["parent"])
    try:
        kinds, times, differs = replay(workloads, ops, args.repeats)
    except Exception as failed:  # an operation that raises in either tree
        print(f"error: {type(failed).__name__}: {failed}", file=sys.stderr)
        return 2
    if differs is not None:
        print(f"differ: the outputs of {differs} are not bit for bit the same")
        return 1
    report = summarize(kinds, times)
    print(f"workload {args.workload} seed {SEED}: {ops} ops x {args.repeats} repeats per tree, all outputs bit for bit the same")
    for kind, r in report.items():
        low, high = r["interval"]
        pairs = r["pairs"]
        print(
            f"{kind}: {r['ops']} ops, sum of per-op minima {r['parent_ms']:.4f} -> {r['change_ms']:.4f} ms, "
            f"ratio {r['ratio']:.4f} (repeat-only interval [{low:.4f}, {high:.4f}]), change faster in "
            f"{pairs['faster']} of {sum(pairs.values())} pairs"
        )
    kinds_json = {kind: {key: value for key, value in r.items() if key != "interval"} for kind, r in report.items()}
    print(json.dumps({"workload": args.workload, "seed": SEED, "ops": ops, "repeats": args.repeats, "kinds": kinds_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

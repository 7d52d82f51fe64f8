"""Check that two source trees give the same witness searches, byte for byte.

    python3 tools/compare_searches.py --parent PARENT/src --change src

Runs three streams, once per tree in a fresh subprocess that imports
``sicmub`` from that tree:

- the benchmark's seed-5 search-certify stream (cfs-example, the 84 Hesse
  triples and 91 random incompatible triples: 176 searches) with its
  workload's config;
- its seed-5 search-exhaust pool (96 random compatible triples) with its
  workload's config;
- 36 seeded random state sets built here, three for each dimension 2-4
  and count of 2-5 states, pure and mixed in turn (a mixed set's states
  take ranks 1 to d), each searched under the certify, the exhaust and the
  default ``WitnessSearchConfig``: 108 searches.  The benchmark streams
  are qutrit triples only; this one reaches every dimension and state
  count the search's tables are built for.

The first two are built by the workloads of ``perfbench/search.py`` from
``perfbench/inputs.py``, so both trees get the same inputs.  Exits 0 when
every search's ``RestartRecord``s, ``best_restart``, ``success``, ``value``
and basis bytes match, 1 naming the first search that differs, and 2 when
a tree cannot run the streams.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("search-certify", "search-exhaust")
SEED = 5


def _exact(value):
    """Floats as their hex form, so equal text means equal bits."""
    return value.hex() if isinstance(value, float) else value


def random_sets(seed: int):
    """``(label, dim, rhos)`` of 36 random state sets drawn from the generator
    seeded ``seed``: three per dimension 2-4 and count of 2-5 states.  Set i
    is pure when i is even; otherwise its state a is a Dirichlet mixture of
    1 + (a + i) % d random kets."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sets = []
    for d in (2, 3, 4):
        for n in (2, 3, 4, 5):
            for _ in range(3):
                i = len(sets)
                ranks = [1] * n if i % 2 == 0 else [1 + (a + i) % d for a in range(n)]
                rhos = []
                for rank in ranks:
                    kets = rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
                    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
                    rhos.append(np.einsum("r,ra,rb->ab", rng.dirichlet(np.ones(rank)), kets, kets.conj()))
                sets.append((f"set-{i} d={d} ranks={ranks}", d, np.array(rhos)))
    return sets


def _record(search: str, result) -> str:
    return json.dumps(
        {
            "search": search,
            "best_restart": result.best_restart,
            "success": result.success,
            "value": _exact(result.value),
            "basis": result.basis.tobytes().hex(),
            "history": [[_exact(v) for v in dataclasses.astuple(r)] for r in result.history],
        }
    )


def dump(src: str) -> None:
    """Print one JSON line per search of the three streams, run with ``sicmub`` from ``src``."""
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    from types import SimpleNamespace

    import sicmub.compat
    from search import SearchWorkload

    layers = SimpleNamespace(compat=sicmub.compat)
    configs = {"default": sicmub.compat.WitnessSearchConfig()}
    for name in WORKLOADS:
        workload = SearchWorkload(name, SEED, layers)
        configs[name.removeprefix("search-")] = workload.cfg
        for op in workload.ops:
            print(_record(f"{name} {op.label}", workload.execute(op)))
    for label, dim, rhos in random_sets(SEED):
        states = sicmub.compat.StateSet(dim=dim, rhos=rhos)
        for config in ("certify", "exhaust", "default"):
            print(_record(f"random-sets {config} {label}", sicmub.compat.witness_search(states, configs[config])))


def searches(src: str) -> list[dict]:
    run = subprocess.run([sys.executable, __file__, "--dump", src], capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"the searches of {src} failed (exit {run.returncode}):\n{run.stderr}")
    return [json.loads(line) for line in run.stdout.splitlines()]


def first_difference(parent: list[dict], change: list[dict]) -> str | None:
    if len(parent) != len(change):
        return f"{len(parent)} searches against {len(change)}"
    for old, new in zip(parent, change):
        if old["search"] != new["search"]:
            return f"search {old['search']} against {new['search']}"
        for field in old:
            if field == "history" and len(old[field]) == len(new[field]):
                for restart, (a, b) in enumerate(zip(old[field], new[field])):
                    if a != b:
                        return f"{old['search']}: restart {restart} record {a} against {b}"
            elif old[field] != new[field]:
                return f"{old['search']}: {field} {old[field]} against {new[field]}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the parent tree's src directory")
    parser.add_argument("--change", help="the changed tree's src directory")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    try:
        parent, change = searches(args.parent), searches(args.change)
    except RuntimeError as failed:
        print(f"error: {failed}", file=sys.stderr)
        return 2
    difference = first_difference(parent, change)
    if difference is not None:
        print(f"differ: {difference}")
        return 1
    print(f"all {len(parent)} searches match byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())

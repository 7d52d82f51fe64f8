"""sicmub benchmark: search, geometry and CLI workloads timed per layer.

Run from the repository root:

    python3 perfbench/run.py --workload search-certify --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around every call into sicmub.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment, goes to ``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from cliwork import LABELS
from envinfo import environment
from reference import ImportReference, SpeedReference
from tracing import TIMED_NAMES, Tracer, bind_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-certify", "search-exhaust", "geometry", "cli")
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7

#: End-to-end metrics in the result line (BENCHMARK.json lists each with its bound).
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_mean": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed and written, but not bounded: search-certify's median falls where
#: its two latency classes meet, so across seeds it can jump between them.
UNBOUNDED_UNITS = {"latency_ms_p50": "ms"}


@dataclass(frozen=True)
class OpResult:
    kind: str
    label: str
    seconds: float
    error: str | None


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in TIMED_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.busy_ms": "ms", f"{name}.us_p50": "us"})
    units.update(
        {
            "compat.us_per_cycle": "us",
            "compat.restarts_per_search": "restarts/search",
            "compat.cycles_per_restart": "cycles/restart",
            "compat.restart_yield": "ratio",
            "compat.worst_certified_value": "pp_value",
            "cli.python_floor_ms": "ms",
            "cli.import_ms": "ms",
            "cli.handler_ms": "ms",
        }
    )
    units.update({f"cli.{label}.ms_p50": "ms" for label in LABELS})
    units.update({"bench.check.busy_ms": "ms", "bench.tracing_overhead_pct": "%"})
    return units


def make_workload(name: str, seed: int, layers):
    if name.startswith("search-"):
        from search import SearchWorkload

        return SearchWorkload(name, seed, layers)
    if name == "geometry":
        from geometry import GeometryWorkload

        return GeometryWorkload(name, seed, layers)
    from cliwork import CliWorkload

    return CliWorkload(name, seed, layers, ROOT)


def run_op(workload, layers, op, i: int) -> OpResult:
    with layers.span(f"bench.op.{op.kind}", op_id=i):
        error = None
        start = perf_counter()
        try:
            out = workload.execute(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = perf_counter() - start
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        else:
            elapsed = perf_counter() - start
            with layers.span("bench.check"):
                try:
                    error = workload.check(op, out)
                except Exception as exc:
                    error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    return OpResult(op.kind, op.label, elapsed, error)


def run_loop(lanes, seconds: float, reference) -> list[list[OpResult]]:
    """Closed loop, one client: the next operation starts when the previous one is checked.

    ``lanes`` are ``(workload, layers)`` pairs built from the same seed.
    With two lanes (untraced and traced) every operation runs once in
    each, in alternating order, so tracing overhead is a paired
    comparison that machine drift does not bias.  The speed reference
    is sampled between operations, outside the timed intervals.
    """
    results = [[] for _ in lanes]
    deadline = perf_counter() + seconds
    streams = [workload.stream() for workload, _ in lanes]
    for i, ops in enumerate(zip(*streams)):
        if perf_counter() >= deadline and lanes[0][0].can_stop(i):
            break
        order = range(len(lanes)) if i % 2 == 0 else reversed(range(len(lanes)))
        for k in order:
            results[k].append(run_op(*lanes[k], ops[k], i))
        reference.tick()
    return results


def tail(samples: list[float], percentile: float) -> tuple[float, float, int]:
    """Nearest-rank ``percentile`` of the samples: (value, percentile used, n).

    If fewer than ten samples would lie beyond it, the highest percentile
    that has ten beyond is used instead.  Each workload fixes its
    percentile (``tail_percentile``) low enough that a run at its usual
    length has ten or more beyond it.  Taking the 11th largest of every
    run instead let the percentile follow the run's speed (p81 to p88 on
    search-exhaust over five seeds), and with a heavy upper tail the
    value followed it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    index = min(math.ceil(percentile / 100.0 * n) - 1, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def setup_probe_seconds(workload: str, seed: int, reference: ImportReference) -> float:
    """Fresh interpreter to ready-for-the-first-operation, timed from outside."""
    reference.sample()
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed


def end_to_end(workload, results: list[OpResult], setup: list[float], setup_ref, ref, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics; times are divided by their reference's mean slowdown (see ``reference.py``)."""
    latency = [r.seconds for r in results if r.kind in workload.latency_kinds]
    work = [r.seconds for r in results if r.kind in workload.throughput_kinds]
    tail_value, tail_pct, n = tail(latency, workload.tail_percentile)
    raw = {
        "throughput_per_s": len(work) / sum(work),
        "latency_ms_mean": 1e3 * statistics.fmean(latency),
        "latency_ms_p50": 1e3 * statistics.median(latency),
        "latency_ms_tail": 1e3 * tail_value,
        "setup_s": statistics.median(setup),
    }
    slowdown = ref.mean_slowdown()
    values = {name: raw[name] / slowdown for name in ("latency_ms_mean", "latency_ms_p50", "latency_ms_tail")}
    values["throughput_per_s"] = raw["throughput_per_s"] * slowdown
    values["setup_s"] = raw["setup_s"] / setup_ref.mean_slowdown()
    values["peak_rss_mb"] = rss_mb
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    total = sum(r.seconds for r in results)
    detail = {
        "raw_wall_time_metrics": raw,
        "reference": type(ref).__name__,
        "reference_mean_slowdown": slowdown,
        "reference_samples": len(ref.samples),
        "latency_samples": n,
        "throughput_samples": len(work),
        "tail_percentile": tail_pct,
        "setup_reference_mean_slowdown": setup_ref.mean_slowdown(),
        "setup_samples_s": setup,
        "setup_reference_samples_s": setup_ref.samples,
        "kinds": {k: {"count": len(v), "raw_mean_ms": 1e3 * statistics.fmean(v), "time_share": sum(v) / total} for k, v in sorted(by_kind.items())},
        "aliases": workload.aliases,
    }
    return values, detail


def per_layer(workload, tracer, plain: list[OpResult], traced: list[OpResult]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced lane's spans; overhead from the paired lanes."""
    durations: dict[str, list[int]] = {}
    busy: Counter = Counter()
    for (name, _, _, _, op_id), self_ns in zip(tracer.spans, tracer.self_times()):
        if op_id != "warmup":
            durations.setdefault(name, []).append(self_ns)
            busy[name] += self_ns
    stats = {}
    for name in {*TIMED_NAMES, *(f"cli.{label}" for label in LABELS), "bench.check", *durations}:
        samples = durations.get(name, [])
        stats[name] = {
            "calls": len(samples),
            "busy_ms": busy[name] / 1e6,
            "us_p50": statistics.median(samples) / 1e3 if samples else 0.0,
        }
    values = {}
    for name, s in stats.items():
        if name.startswith("cli."):
            values[f"{name}.ms_p50"] = s["us_p50"] / 1e3
        else:
            values.update({f"{name}.{key}": value for key, value in s.items()})
    common = min(len(plain), len(traced))
    base = sum(r.seconds for r in plain[:common])
    values["bench.tracing_overhead_pct"] = 100.0 * (sum(r.seconds for r in traced[:common]) / base - 1.0) if base else 0.0
    values.update(workload.layer_metrics(stats))
    units = per_layer_units()
    return {name: values.get(name, 0.0) for name in units}, {"spans": {k: v for k, v in stats.items() if v["calls"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sicmub" / "__init__.py").is_file():
        print(f"error: no sicmub sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sicmub

    if Path(sicmub.__file__).resolve().parent != (src / "sicmub").resolve():
        print(f"error: imported sicmub from {sicmub.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload = make_workload(args.workload, args.seed, bind_layers(None))
        print("ready", flush=True)
        workload.close()
        return 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(ROOT, args.seed)
    if args.trace:
        tracer = Tracer()
        lanes = []
        try:
            for layers in (bind_layers(None), bind_layers(tracer)):
                lanes.append((make_workload(args.workload, args.seed, layers), layers))
            with tracer.span("bench.warmup", op_id="warmup"):
                for workload, _ in lanes:
                    workload.warm_up()
            plain, traced = run_loop(lanes, args.seconds, SpeedReference())
            values, detail = per_layer(lanes[1][0], tracer, plain, traced)
        finally:
            for workload, _ in lanes:
                workload.close()
        tracer.write(out_dir / f"{args.workload}.spans.csv")
        results = plain + traced
        units, unbounded = per_layer_units(), {}
    else:
        setup_reference = ImportReference()
        setup = [setup_probe_seconds(args.workload, args.seed, setup_reference) for _ in range(SETUP_PROBES)]
        layers = bind_layers(None)
        workload = make_workload(args.workload, args.seed, layers)
        reference = workload.reference()
        try:
            workload.warm_up()
            (results,) = run_loop([(workload, layers)], args.seconds, reference)
        finally:
            workload.close()
        rss_kb = getattr(workload, "max_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, detail = end_to_end(workload, results, setup, setup_reference, reference, rss_kb / 1024.0)
        units, unbounded = END_TO_END_UNITS, UNBOUNDED_UNITS

    failures = [r for r in results if r.error]
    failed_by_case = Counter(r.label for r in failures)
    attempted_by_case = Counter(r.label for r in results)
    malformed = sum(r.kind == "malformed" for r in results)
    correct = not any(r.kind != "malformed" for r in failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    unbounded_metrics = {name: {"value": values[name], "unit": unit} for name, unit in unbounded.items()}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "error_rate": len(failures) / len(results),
        "malformed_share": malformed / len(results),
        "failing_cases": {label: {"failed": n, "attempted": attempted_by_case[label]} for label, n in sorted(failed_by_case.items())},
        "first_errors": sorted({r.error for r in failures})[:20],
        "metrics": metrics,
        "unbounded_metrics": unbounded_metrics,
        "detail": detail,
        "environment": env,
    }
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']['name']} {env['blas']['version']}, {env['cpu_count']} CPUs")
    aliases = detail.get("aliases", {})
    for name, m in {**metrics, **unbounded_metrics}.items():
        note = f"  ({aliases[name]})" if name in aliases else ""
        if name == "latency_ms_tail":
            note += f"  p{detail['tail_percentile']:.4g} of {detail['latency_samples']} samples"
        print(f"{name}: {m['value']:.6g} {m['unit']}{note}")
    print(f"error_rate: {summary['error_rate']:.6g} ratio  (attempted {len(results)}, failed {len(failures)}, malformed share {summary['malformed_share']:.6g})")
    for label, counts in summary["failing_cases"].items():
        print(f"failing case {label}: {counts['failed']}/{counts['attempted']}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

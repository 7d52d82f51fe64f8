"""Smoke test for the benchmark; not part of the repository's test suite.

Runs every workload briefly, untraced and traced, and checks that the
result line and the result file carry every metric with its unit, that
the checks pass, and that the benchmark refuses to run without the
sources.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-workload names of the end-to-end metrics (README), printed as aliases.
ALIAS_NAMES = {
    "search-certify": ("triples_per_s", "search_ms_p50", "search_ms_tail"),
    "search-exhaust": ("triples_per_s", "search_ms_p50", "search_ms_tail"),
    "geometry": ("analyses_per_s", "certify_ms_p50", "certify_ms_tail"),
    "cli": ("cli_ms_p50", "cli_ms_tail"),
}
ENV_KEYS = ("python", "numpy", "blas", "blas_thread_env", "cpu_count", "sched_getaffinity", "git", "seed", "limits")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, spec: dict) -> None:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0, (workload, m["name"], got)
    result = json.loads((HERE / "out" / f"{workload}-trace{trace}.json").read_text())
    assert all(k in result["environment"] for k in ENV_KEYS), result["environment"].keys()
    assert "error_rate" in result and "failing_cases" in result
    if workload == "cli":
        assert result["error_rate"] == result["malformed_share"] > 0, result["failing_cases"]
    else:
        assert result["failed"] == 0, result["first_errors"]
    if not trace:
        assert result["unbounded_metrics"]["latency_ms_p50"]["unit"] == "ms"
        aliases = set(result["detail"]["aliases"].values())
        assert set(ALIAS_NAMES[workload]) <= aliases, aliases
        assert {"tail_percentile", "latency_samples"} <= result["detail"].keys()
    else:
        assert (HERE / "out" / f"{workload}.spans.csv").stat().st_size > 0
    print(f"ok {workload} trace {trace}: {line['attempted']} operations")


def check_refuses_without_sources(spec: dict) -> None:
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run("geometry", 0, cwd=bare)
        assert done.returncode != 0 and '"metrics"' not in done.stdout, (done.returncode, done.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without the sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ALIAS_NAMES)
    for workload in ALIAS_NAMES:
        for trace in (0, 1):
            check_run(workload, trace, spec)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The ``cli`` workload: cold ``sicmub`` processes, one at a time.

Each operation starts ``python -m sicmub.cli`` on one command of a fixed
mix and waits for it to end.  A run always finishes the mix cycle it is
in, so the share of malformed calls is exactly the share in the mix.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from reference import ImportReference

#: Seconds after which a hung child is killed.
CHILD_TIMEOUT_S = 60.0
#: Fresh interpreters per floor/import measurement in the traced run.
PROBES = 5
#: In-process passes over the well-formed commands for ``cli.handler_ms``.
HANDLER_PASSES = 3


#: Well-formed commands; ``{name}`` stands for a generated input file.
OK_COMMANDS = (
    ("verify-sic", ("verify-sic", "--builtin", "hesse")),
    ("compat-triple", ("compat", "triple", "--states", "cfs-example")),
    ("compat-search", ("compat", "search", "--states", "cfs-example")),
    ("mubs-build", ("mubs", "build")),
    ("mubs-verify", ("mubs", "verify")),
    ("mubs-cover", ("mubs", "cover")),
    ("wigner", ("wigner", "--state", "{state}")),
    ("purity", ("purity", "--probs", "{probs}")),
    ("min-entropy", ("min-entropy", "enumerate")),
    ("graph", ("graph", "--chromatic")),
)
#: Malformed input: each must exit 2 with an ``error:`` line and no traceback.
MALFORMED_COMMANDS = (
    ("bad-nan-ket", ("compat", "triple", "--states", "{nan_ket}")),
    ("bad-nan-prob", ("purity", "--probs", "{nan_probs}")),
    ("bad-tol-nan", ("verify-sic", "--builtin", "hesse", "--tol", "nan")),
    ("bad-restarts-0", ("compat", "search", "--states", "cfs-example", "--restarts", "0")),
)
#: Run once per mix cycle instead of twice.  ``compat search`` takes about 100 ms
#: longer than every other call.  At two per cycle a 25 s run would hold 8-12 of
#: them, the tail would fall on the edge between the two groups and jump between
#: them from run to run.  At one per cycle a run holds 3-4 of them, and the tail
#: falls inside the main group.
ONCE_PER_CYCLE = ("compat-search",)
LABELS = tuple(label for label, _ in OK_COMMANDS + MALFORMED_COMMANDS)


@dataclass(frozen=True)
class Op:
    kind: str  # "ok" or "malformed"
    label: str
    argv: tuple[str, ...]


def _json_ok(doc, **expected) -> bool:
    results = doc.get("results", {})
    return all(results.get(k) == v for k, v in expected.items())


class CliWorkload:
    #: Cold calls are process start and imports, which the numpy kernel does not follow.
    reference = ImportReference
    #: 69-92 calls per 25 s run (whole mix cycles of 23), so ten or more lie beyond p85.
    tail_percentile = 85.0
    latency_kinds = ("ok", "malformed")
    throughput_kinds = latency_kinds
    aliases = {"throughput_per_s": "cli_calls_per_s", "latency_ms_mean": "cli_ms_mean", "latency_ms_p50": "cli_ms_p50", "latency_ms_tail": "cli_ms_tail"}

    def __init__(self, name: str, seed: int, layers, root: Path):
        import sicmub.cli  # noqa: F401  (set-up includes importing the package)

        self.layers = layers
        self.root = root
        out = root / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        rng = np.random.default_rng(seed)
        self.rho = inputs.random_density(rng)
        pure_probs = inputs.sic_probs(inputs.projectors([inputs.random_ket(rng)])[0])
        nan_kets = [inputs.random_ket(rng) for _ in range(3)]
        nan_kets[0][1] = np.nan
        nan_probs = pure_probs.copy()
        nan_probs[int(rng.integers(9))] = np.nan
        files = {
            "state": {"dim": 3, "matrices": [[[[z.real, z.imag] for z in row] for row in self.rho]]},
            "probs": {"dim": 3, "probabilities": pure_probs.tolist()},
            "nan_ket": {"dim": 3, "kets": [[[z.real, z.imag] for z in k] for k in nan_kets]},
            "nan_probs": {"dim": 3, "probabilities": nan_probs.tolist()},
        }
        for name, doc in files.items():
            (self.tmp / f"{name}.json").write_text(json.dumps(doc))
        paths = {name: str(self.tmp / f"{name}.json") for name in files}

        def resolve(commands, kind):
            return [Op(kind, label, tuple(a.format(**paths) for a in argv) + ("--format", "json")) for label, argv in commands]

        self.ok_ops = resolve(OK_COMMANDS, "ok")
        bad_ops = resolve(MALFORMED_COMMANDS, "malformed")
        # Two passes over the well-formed commands, the second without the slow ones,
        # and one malformed call after every fifth well-formed call and at the end.
        well_formed = self.ok_ops + [op for op in self.ok_ops if op.label not in ONCE_PER_CYCLE]
        bad = iter(bad_ops)
        self.mix = []
        for i, op in enumerate(well_formed):
            self.mix.append(op)
            if i % 5 == 4 or i == len(well_formed) - 1:
                self.mix.append(next(bad))
        assert next(bad, None) is None
        self.first_output: dict[str, bytes] = {}
        self.max_rss_kb = 0
        self.call = {op.label: self._call if layers.tracer is None else layers.tracer.wrap(f"cli.{op.label}", self._call) for op in self.mix}

    def stream(self):
        while True:
            yield from self.mix

    def can_stop(self, done: int) -> bool:
        return done % len(self.mix) == 0

    def warm_up(self) -> None:
        self._call(self.ok_ops[0].argv)

    def _call(self, argv) -> tuple[int, bytes, bytes]:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "sicmub.cli", *argv], stdout=out, stderr=err, cwd=self.root, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it; tell Popen
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_bytes(), err_path.read_bytes()

    def execute(self, op: Op):
        return self.call[op.label](op.argv)

    def check(self, op: Op, out) -> str | None:
        code, stdout, stderr = out
        if op.kind == "malformed":
            err = stderr.decode(errors="replace")
            if code != 2 or not any(line.startswith("error:") for line in err.splitlines()) or "Traceback" in err:
                return f"{op.label}: exit {code}, expected 2 with an error: line and no traceback"
            return None
        if code != 0:
            return f"{op.label}: exit {code}: {stderr.decode(errors='replace')[-200:]}"
        first = self.first_output.setdefault(op.label, stdout)
        if first != stdout:
            return f"{op.label}: JSON differs from the first run of the same command"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"{op.label}: output is not JSON"
        return None if self._fields_ok(op.label, doc) else f"{op.label}: unexpected result fields"

    def _fields_ok(self, label: str, doc) -> bool:
        r = doc.get("results", {})
        if label == "verify-sic":
            return _json_ok(doc, is_sic=True) and r["max_gram_residual"] < 1e-12
        if label == "compat-triple":
            return _json_ok(doc, incompatible=True, saturated=True)
        if label == "compat-search":
            basis = np.array([[complex(*z) for z in ket] for ket in r["basis_kets"]])
            return (
                _json_ok(doc, success=True)
                and inputs.orthonormality_residual(basis) <= 1e-10
                and inputs.pp_value(inputs.CFS_KETS, basis) < doc["tolerances"]["success_threshold"]
            )
        if label == "mubs-build":
            return len(r["striations"]) == 4 and max(doc["residuals"].values()) <= 1e-10
        if label == "mubs-verify":
            return _json_ok(doc, passed=True)
        if label == "mubs-cover":
            covering = {row["triple"]: row["witnessing_striations"] for row in r["table"]}
            return _json_ok(doc, all_covered=True) and len(covering) == 84 and 4 in covering["014"]
        if label == "wigner":
            own = 1.0 / 3.0 - 2.0 * inputs.sic_probs(self.rho)
            return doc["residuals"]["phase_point_cross_check"] <= 1e-10 and np.max(np.abs(np.array(r["wigner"]) - own)) <= 1e-10
        if label == "purity":
            return _json_ok(doc, pure=True)
        if label == "min-entropy":
            return _json_ok(doc, count=12)
        if label == "graph":
            return _json_ok(doc, chromatic_number=4, n_edges=48, n_vertices=21, contextual=True)
        raise KeyError(label)

    def layer_metrics(self, span_stats) -> dict:
        floor = [self._wall([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
        code = "import time; t = time.perf_counter(); import sicmub.cli; print(time.perf_counter() - t)"
        imports = [float(self._run([sys.executable, "-c", code])) for _ in range(PROBES)]
        return {
            "cli.python_floor_ms": 1e3 * statistics.median(floor),
            "cli.import_ms": 1e3 * statistics.median(imports),
            "cli.handler_ms": self._handler_ms(),
        }

    def _wall(self, argv) -> float:
        start = perf_counter()
        self._run(argv)
        return perf_counter() - start

    def _run(self, argv) -> str:
        done = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        return done.stdout.decode()

    def _handler_ms(self) -> float:
        """Mean in-process ``sicmub.cli.main`` time per well-formed call, median over passes."""
        from sicmub.cli import main

        target = str(self.tmp / "handler.out")
        passes = []
        for _ in range(HANDLER_PASSES):
            start = perf_counter()
            for op in self.ok_ops:
                main([*op.argv, "--output", target])
            passes.append((perf_counter() - start) / len(self.ok_ops))
        return 1e3 * statistics.median(passes)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

"""Command-line front end.

Every subcommand assembles a run report carrying the command name, a
digest of its inputs, the tolerances it passed to the library, the seed
(when the command is stochastic), structured results, and residuals.
JSON output is canonical (sorted keys) and contains no timing, so reruns
with the same inputs and seed are byte-identical; wall time is reported
in the text format only.

One tolerance reaches every subcommand: ``--tol``, else the
``SICMUB_TOL`` environment variable, else ``DEFAULT_TOL``.  It must be
finite and positive.  A report's ``tolerances`` lists exactly the values
its command passed to the library, under the parameter names they were
passed as.

Exit codes: 0 for success or a positive verdict, 1 for a mathematically
valid negative verdict (state set compatible, set is not a SIC, purity
checks fail), 2 for usage or input errors, including malformed or
non-finite input, any input the library rejects and an ``--output``
file that cannot be written.

Handlers reach the library through the lazy package, as
``sm.hesse_sic`` or ``sm.compat.SATURATION_TOL``: a name loads its module
on first use, so a call loads only its own subcommand's modules:
``verify-sic`` loads ``qmath`` and ``sicgen``, ``compat`` loads
``compat``, and the other subcommands load ``sicgen`` and ``mub`` plus
their own module.  ``compat search`` takes the defaults of the flags it
is not given from ``WitnessSearchConfig``, and reports the config it ran
and the certificate check of the basis it found, at the success threshold.

JSON schemas (complex numbers are ``[re, im]`` pairs; every number must
be finite):

* state sets: ``{"dim": d, "kets": [[[re, im], ...], ...]}`` or
  ``{"dim": d, "matrices": [[[[re, im], ...], ...], ...]}`` (row-major)
* probability vectors: ``{"dim": d, "probabilities": [...]}``
* built-ins by name: ``hesse`` (SIC), ``cfs-example`` (state triple),
  ``hesse-mub`` (orthogonality graph)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

import sicmub as sm

#: Environment variable overriding the default tolerance.
TOL_ENV_VAR = "SICMUB_TOL"

#: Hilbert-space dimension of the only built-in graph (hesse-mub).
GRAPH_DIM = 3


class UsageError(Exception):
    """Bad input or usage; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, whose usage errors raise
    ``UsageError`` and so print one ``error:`` line like any bad input."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def encode_complex(array) -> list:
    """``array`` as nested lists of any shape, each complex entry an ``[re, im]`` pair."""
    array = np.asarray(array, dtype=complex)
    return np.stack([array.real, array.imag], axis=-1).tolist()


def decode_array(value: Any, shape: tuple[int | None, ...], what: str, *, pairs: bool = True) -> np.ndarray:
    """Decode nested JSON lists into a finite array of ``shape``.

    ``None`` in ``shape`` accepts any length on that axis.  With
    ``pairs`` the innermost lists are ``[re, im]`` pairs and the result
    is complex; otherwise it is real.  Anything that is not a
    rectangular array of finite numbers raises ``UsageError``.
    """
    full = shape + (2,) if pairs else shape
    try:
        arr = np.array(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != len(full) or any(n is not None and n != m for n, m in zip(full, arr.shape)):
        expected = "(" + ", ".join("n" if n is None else str(n) for n in full) + ")"
        raise UsageError(f"{what}: expected an array of shape {expected}" + (" ([re, im] pairs)" if pairs else ""))
    # numpy promotes a JSON true/false mixed with numbers to 1/0, so look for booleans explicitly
    if arr.dtype.kind not in "iuf" or any(isinstance(x, bool) for x in np.array(value, dtype=object).flat):
        raise UsageError(f"{what}: entries must be numbers")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise UsageError(f"{what}: entries must be finite")
    return arr.view(complex)[..., 0] if pairs else arr


def decode_dim(doc: dict, path: str, default: int | None = None) -> int:
    """The document's ``dim`` field as a positive integer."""
    dim = doc.get("dim", default)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise UsageError(f"{path}: 'dim' must be a positive integer, got {dim!r}")
    return dim


def _load_json(path: str) -> tuple[Any, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def load_state_file(path: str, tol: float) -> tuple[int, np.ndarray, bytes]:
    """Read a state-set file, kets of unit norm within ``tol``; returns
    (dim, density matrices, raw bytes).  Every caller then judges each state
    at ``tol``, and a ket's trace is its squared norm, so in effect a ket
    needs ``|norm² - 1| <= tol``."""
    doc, raw = _load_json(path)
    if not isinstance(doc, dict) or "dim" not in doc:
        raise UsageError(f"{path}: expected an object with a 'dim' field")
    dim = decode_dim(doc, path)
    if "kets" in doc:
        kets = decode_array(doc["kets"], (None, dim), f"{path}: kets")
        norms = np.linalg.norm(kets, axis=1)
        if np.any(np.abs(norms - 1.0) > tol):
            raise UsageError(f"{path}: ket is not normalized (norms {norms.tolist()!r})")
        rhos = np.einsum("na,nb->nab", kets, kets.conj())
    elif "matrices" in doc:
        rhos = decode_array(doc["matrices"], (None, dim, dim), f"{path}: matrices")
    else:
        raise UsageError(f"{path}: expected a 'kets' or 'matrices' field")
    return dim, rhos, raw


def _principal_ket(rho: np.ndarray, tol: float) -> np.ndarray:
    """Extract the ket of a rank-1 density matrix (error if mixed beyond ``tol``)."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if abs(w[-1] - 1.0) > tol:
        raise UsageError(f"state is not pure (largest eigenvalue {float(w[-1])!r}); the criterion needs pure states")
    return v[:, -1]


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


#: Digest of every report whose only input is the built-in Hesse SIC.
HESSE_DIGEST = _digest(b"builtin:hesse")


@dataclass
class RunReport:
    """Deterministic report body plus wall time (text output only).

    Handlers fill in their results; ``_run`` stamps ``command`` and, unless
    the handler set them, ``tolerances = {"tol": tol}``."""

    results: dict[str, Any]
    residuals: dict[str, float] = field(default_factory=dict)
    inputs_digest: str = HESSE_DIGEST
    tolerances: dict[str, float] | None = None
    seed: int | None = None
    csv_rows: list[list[Any]] | None = None
    command: str = ""
    wall_time_s: float | None = None

    def json_body(self) -> dict[str, Any]:
        # Wall time is intentionally excluded: JSON reports are
        # byte-identical across reruns with the same inputs and seed.
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "results": self.results,
            "residuals": self.residuals,
            "version": sm.__version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.json_body(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        for name, value in sorted(self.tolerances.items()):
            lines.append(f"tolerance {name}: {value!r}")
        lines.extend(_text_lines("", self.results))
        for name, value in sorted(self.residuals.items()):
            lines.append(f"residual {name}: {value:.3e}")
        lines.append(f"inputs digest: {self.inputs_digest}")
        if self.wall_time_s is not None:
            lines.append(f"wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines) + "\n"


def _is_number_grid(value: Any) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(isinstance(row, list) and row and all(isinstance(x, (int, float)) for x in row) for row in value)
    )


def _text_lines(prefix: str, value: Any) -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key in value:
            lines.extend(_text_lines(f"{prefix}{key}.", value[key]))
        return lines
    if _is_number_grid(value):
        header = prefix.rstrip(".")
        return [f"{header}:"] + ["  " + "  ".join(f"{x:+.6f}" for x in row) for row in value]
    return [f"{prefix.rstrip('.')}: {_short(value)}"]


def _short(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list) and len(value) > 12:
        return f"[{len(value)} entries]"
    return str(value)


def _resolve_tol(cli_tol: float | None) -> float:
    """``--tol``, else ``SICMUB_TOL``, else ``DEFAULT_TOL``; finite and > 0."""
    raw = os.environ.get(TOL_ENV_VAR) if cli_tol is None else cli_tol
    if raw is None:
        return sm.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"{TOL_ENV_VAR}={raw!r} is not a number") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"the tolerance (--tol or {TOL_ENV_VAR}) must be a finite positive number, got {raw!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sicmub",
        description="Qutrit SIC-POVM geometry: compatibility certificates, MUBs, Wigner functions, contextuality.",
    )
    parser.add_argument("--version", action="version", version=f"sicmub {sm.__version__}")
    sub = parser.add_subparsers(required=True)

    def leaf(p: argparse.ArgumentParser, handler, formats=("text", "json")) -> None:
        p.add_argument(
            "--tol", type=float, default=None, help=f"tolerance passed to every library check (default: {TOL_ENV_VAR}, else {sm.DEFAULT_TOL:g})"
        )
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="write the report to a file instead of stdout")
        p.set_defaults(handler=handler, report_command=p.prog.removeprefix(f"{parser.prog} "))

    p = sub.add_parser("verify-sic", help="check a projector set against the SIC overlap condition")
    p.add_argument("--builtin", default=None, help="built-in SIC id (hesse)")
    p.add_argument("--input", default=None, help="JSON file with dim and kets/matrices")
    p.add_argument("--emit-states", action="store_true", help="include the projectors in the results (reusable as an --input document)")
    leaf(p, _cmd_verify_sic, formats=("text", "json", "csv"))

    p = sub.add_parser("compat", help="post-Peierls compatibility")
    csub = p.add_subparsers(required=True)

    pt = csub.add_parser("triple", help="exact PP-ODOP criterion for three pure qutrit states")
    pt.add_argument("--states", required=True, help="'cfs-example' or a JSON state file")
    leaf(pt, _cmd_compat_triple)

    ps = csub.add_parser("search", help="seeded witness search over von Neumann bases")
    ps.add_argument("--states", required=True, help="'cfs-example' or a JSON state file")
    ps.add_argument("--restarts", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--threshold", type=float, default=None, help="success threshold on the PP functional")
    leaf(ps, _cmd_compat_search)

    p = sub.add_parser("mubs", help="mutually unbiased bases from the Hesse SIC")
    msub = p.add_subparsers(required=True)
    leaf(msub.add_parser("build", help="construct the four MUBs"), _cmd_mubs_build)
    leaf(msub.add_parser("verify", help="verify the MUB conditions"), _cmd_mubs_verify)
    pc = msub.add_parser("cover", help="witnessing striations for SIC triples")
    pc.add_argument("--triple", default=None, help="comma-separated indices, e.g. 0,1,4 (default: all 84)")
    leaf(pc, _cmd_mubs_cover, formats=("text", "json", "csv"))

    p = sub.add_parser("wigner", help="discrete Wigner function of a state")
    p.add_argument("--state", required=True, help="JSON file with one ket or one density matrix")
    leaf(p, _cmd_wigner, formats=("text", "json", "csv"))

    p = sub.add_parser("purity", help="purity conditions on a SIC probability vector")
    p.add_argument("--probs", required=True, help="JSON file with dim and probabilities")
    p.add_argument("--bits", action="store_true", help="report Shannon entropy in bits instead of nats")
    leaf(p, _cmd_purity)

    p = sub.add_parser("min-entropy", help="minimal-entropy pure states")
    esub = p.add_subparsers(required=True)
    leaf(esub.add_parser("enumerate", help="enumerate the 12 three-zero pure states"), _cmd_min_entropy)

    p = sub.add_parser("graph", help="orthogonality graph and chromatic contextuality test")
    p.add_argument("--builtin", default="hesse-mub", help="built-in graph id (hesse-mub)")
    p.add_argument("--chromatic", action="store_true", help="compute the exact chromatic number and verdict")
    leaf(p, _cmd_graph, formats=("text", "json", "edges"))

    return parser


def _emit(report: RunReport, args) -> None:
    if args.format == "json":
        payload = report.to_json()
    elif args.format == "csv":
        payload = "\n".join(",".join(str(c) for c in row) for row in report.csv_rows) + "\n"
    elif args.format == "edges":
        # plain edge-list export: one "label label" line per edge
        payload = "\n".join(f"{a} {b}" for a, b in report.results["edges"]) + "\n"
    else:
        payload = report.to_text()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _load_states_arg(source: str, tol: float) -> tuple[sm.StateSet, str]:
    """Resolve --states, a built-in name or a file path, to (state set,
    digest).  A file's states are judged at ``tol``; the built-in keeps
    the ``StateSet`` default, since its kets are exact up to rounding."""
    if source == "cfs-example":
        return sm.cfs_example_states(), _digest(b"builtin:cfs-example")
    dim, rhos, raw = load_state_file(source, tol)
    return sm.StateSet(dim=dim, rhos=rhos, tol=tol), _digest(raw)


def _cmd_verify_sic(args, tol: float) -> tuple[int, RunReport]:
    if (args.builtin is None) == (args.input is None):
        raise UsageError("verify-sic needs exactly one of --builtin or --input")
    if args.builtin is not None:
        if args.builtin != "hesse":
            raise UsageError(f"unknown built-in SIC {args.builtin!r}; available: hesse")
        sic = sm.hesse_sic()
        digest = HESSE_DIGEST
    else:
        dim, rhos, raw = load_state_file(args.input, tol)
        sic = sm.SicSet(dim=dim, projectors=rhos, tol=tol)
        digest = _digest(raw)
    check = sm.is_sic(sic, tol=tol)
    gram = np.einsum("iab,jba->ij", np.asarray(sic.projectors), np.asarray(sic.projectors)).real
    results: dict[str, Any] = {"dim": sic.dim, "is_sic": check.passed, "max_gram_residual": check.residuals["max_gram_residual"]}
    if args.emit_states:
        results["sic"] = {"dim": sic.dim, "matrices": encode_complex(sic.projectors)}
    report = RunReport(
        inputs_digest=digest,
        results=results,
        residuals=check.residuals,
        csv_rows=[[f"{x:.17g}" for x in row] for row in gram],
    )
    return (0 if check.passed else 1), report


def _cmd_compat_triple(args, tol: float) -> tuple[int, RunReport]:
    states, digest = _load_states_arg(args.states, tol)
    if len(states) != 3:
        raise UsageError(f"the ternary criterion needs exactly 3 states, got {len(states)}")
    kets = [_principal_ket(rho, states.tol) for rho in states.rhos]
    verdict = sm.qutrit_triple_criterion(*kets, tol=tol, norm_tol=states.tol)
    label = verdict.verdict + (" (saturated)" if verdict.saturated else "")
    report = RunReport(
        inputs_digest=digest,
        tolerances={"tol": tol, "saturation_tol": sm.compat.SATURATION_TOL},
        results={
            "verdict": label,
            "incompatible": verdict.incompatible,
            "saturated": verdict.saturated,
            "overlaps_squared": [float(x) for x in verdict.overlaps],
            "overlap_sum": verdict.overlap_sum,
            "boundary_lhs": verdict.boundary_lhs,
            "boundary_rhs": verdict.boundary_rhs,
        },
        residuals={"saturation_gap": abs(verdict.boundary_lhs - verdict.boundary_rhs)},
    )
    return (0 if verdict.incompatible else 1), report


def _cmd_compat_search(args, tol: float) -> tuple[int, RunReport]:
    given = {"restarts": args.restarts, "seed": args.seed, "success_threshold": args.threshold}
    cfg = sm.WitnessSearchConfig(**{name: value for name, value in given.items() if value is not None})
    states, digest = _load_states_arg(args.states, tol)
    result = sm.witness_search(states, cfg)
    check, matching = sm.verify_certificate(states, result.basis, cfg.success_threshold)
    tolerances = {"success_threshold": cfg.success_threshold}
    if args.states != "cfs-example":
        tolerances["tol"] = tol
    report = RunReport(
        inputs_digest=digest,
        tolerances=tolerances,
        seed=cfg.seed,
        results={
            "value": result.value,
            "success": result.success,
            "best_restart": result.best_restart,
            "restarts_run": len(result.history),
            "cycles": sum(r.cycles for r in result.history),
            "probes": sum(r.probes for r in result.history),
            "newton_iters": sum(r.newton_iters for r in result.history),
            "polish_iters": sum(r.polish_iters for r in result.history),
            "polish_accepted": sum(r.polish_accepted for r in result.history),
            "basis_kets": encode_complex(result.basis),
            "matching": list(matching),
            "history": [asdict(r) for r in result.history],
        },
        residuals=check.residuals,
    )
    return (0 if result.success and check.passed else 1), report


def _cmd_mubs_build(args, tol: float) -> tuple[int, RunReport]:
    mubs = sm.build_mub_set(sm.hesse_sic())
    check = sm.verify_mub_set(mubs, tol=tol)
    report = RunReport(
        results={
            "striations": [["".join(map(str, t)) for t in striation] for striation in sm.mub.LINES.reshape(4, 3, 3).tolist()],
            "prob_vectors": [[list(map(float, v)) for v in block] for block in np.asarray(mubs.prob_vectors)],
            "projectors": encode_complex(mubs.projectors),
        },
        residuals=check.residuals,
    )
    return (0 if check.passed else 1), report


def _cmd_mubs_verify(args, tol: float) -> tuple[int, RunReport]:
    check = sm.verify_mub_set(sm.build_mub_set(sm.hesse_sic()), tol=tol)
    return (0 if check.passed else 1), RunReport(results={"passed": check.passed}, residuals=check.residuals)


def _cmd_mubs_cover(args, tol: float) -> tuple[int, RunReport]:
    sic = sm.hesse_sic()
    mubs = sm.build_mub_set(sic)
    if args.triple is not None:
        try:
            triple = tuple(int(x) for x in args.triple.split(","))
        except ValueError as exc:
            raise UsageError(f"--triple must be comma-separated integers, got {args.triple!r}") from exc
        table = [(triple, sm.covering_witness(triple, mubs, sic, tol=tol))]
        results = {"triple": list(triple), "witnessing_striations": table[0][1]}
    else:
        table = sm.covering_table(mubs, sic, tol=tol)
        results = {
            "table": [
                {"triple": "".join(map(str, t)), "witnessing_striations": w} for t, w in table
            ],
            "all_covered": all(w for _, w in table),
        }
    rows = [["triple", "witnessing_striations"]] + [["".join(map(str, t)), " ".join(map(str, w))] for t, w in table]
    return (0 if all(w for _, w in table) else 1), RunReport(results=results, csv_rows=rows)


def _cmd_wigner(args, tol: float) -> tuple[int, RunReport]:
    _, rhos, raw = load_state_file(args.state, tol)
    if len(rhos) != 1:
        raise UsageError(f"wigner expects exactly one state, got {len(rhos)}")
    rho = rhos[0]
    check = sm.validate_density_matrix(rho, tol=tol)
    if not check.passed:
        raise UsageError(f"input is not a valid density matrix: {check.residuals}")
    sic = sm.hesse_sic()
    mubs = sm.build_mub_set(sic)
    probs = sm.sic_probabilities(rho, sic, tol=tol)
    w = sm.wigner_from_sic_probabilities(probs)
    ops = sm.phase_point_operators(mubs)
    w_ops = sm.wigner_of_density(rho, ops)
    cross_residual = float(np.max(np.abs(w - w_ops)))
    marginals = sm.line_marginals(w)
    report = RunReport(
        inputs_digest=_digest(raw),
        results={
            "wigner": [float(x) for x in w],
            "grid": [[float(x) for x in w[3 * r : 3 * r + 3]] for r in range(3)],
            "negativity": sm.negativity(w),
            "line_probabilities": {"".join(map(str, line)): q for line, q in sorted(marginals.items())},
            "sic_probabilities": [float(x) for x in probs],
        },
        residuals={"phase_point_cross_check": cross_residual},
        csv_rows=[[f"{w[3 * r + c]:.17g}" for c in range(3)] for r in range(3)],
    )
    return 0, report


def _cmd_purity(args, tol: float) -> tuple[int, RunReport]:
    doc, raw = _load_json(args.probs)
    if not isinstance(doc, dict) or "probabilities" not in doc:
        raise UsageError(f"{args.probs}: expected an object with a 'probabilities' field")
    dim = decode_dim(doc, args.probs, default=3)
    probs = decode_array(doc["probabilities"], (dim * dim,), f"{args.probs}: probabilities", pairs=False)
    quadratic = sm.quadratic_purity_check(probs, tol=tol)
    results: dict[str, Any] = {
        "quadratic": {"passed": quadratic.passed, "value": quadratic.value, "target": quadratic.target},
    }
    residuals = {"quadratic": quadratic.residual}
    pure = quadratic.passed
    if dim == 3:
        hesse_form = sm.qbic_check_hesse(probs, tol=tol)
        general = sm.qbic_check_general(probs, sm.triple_product_table(sm.hesse_sic()), tol=tol)
        results["qbic_hesse"] = {"passed": hesse_form.passed, "value": hesse_form.value}
        results["qbic_general"] = {"passed": general.passed, "value": general.value, "target": general.target}
        residuals["qbic_hesse"] = hesse_form.residual
        residuals["qbic_general"] = general.residual
        pure = pure and hesse_form.passed and general.passed
    indices = sm.distribution_indices(probs, zero_tol=tol)
    entropy = indices.shannon_entropy_nats / np.log(2.0) if args.bits else indices.shannon_entropy_nats
    results["indices"] = {
        "effective_number": indices.effective_number,
        "shannon_entropy_" + ("bits" if args.bits else "nats"): float(entropy),
        "zero_count": indices.zero_count,
        "zero_bound": indices.zero_bound,
        "zero_bound_satisfied": indices.zero_bound_satisfied,
    }
    results["pure"] = pure
    return (0 if pure else 1), RunReport(inputs_digest=_digest(raw), results=results, residuals=residuals)


def _cmd_min_entropy(args, tol: float) -> tuple[int, RunReport]:
    survivors = sm.enumerate_min_entropy_pure_states(tol=tol)
    report = RunReport(
        results={
            "count": len(survivors),
            "states": [
                {"triple": "".join(map(str, t)), "probabilities": [float(x) for x in p]} for t, p in survivors
            ],
        },
    )
    return 0, report


def _cmd_graph(args, tol: float) -> tuple[int, RunReport]:
    if args.builtin != "hesse-mub":
        raise UsageError(f"unknown built-in graph {args.builtin!r}; available: hesse-mub")
    graph = sm.hesse_mub_graph(tol=tol)
    edges = graph.edges()
    results: dict[str, Any] = {
        "labels": list(graph.labels),
        "edges": [[graph.labels[i], graph.labels[j]] for i, j in edges],
        "n_vertices": graph.n,
        "n_edges": len(edges),
    }
    exit_code = 0
    if args.chromatic:
        verdict = sm.cabello_criterion(graph, GRAPH_DIM)
        results["chromatic_number"] = verdict.chromatic_number
        results["dim"] = GRAPH_DIM
        results["contextual"] = verdict.contextual
        results["coloring"] = {graph.labels[i]: c for i, c in enumerate(verdict.coloring.assignment)}
        exit_code = 0 if verdict.contextual else 1
    return exit_code, RunReport(inputs_digest=_digest(f"builtin:{args.builtin}".encode()), results=results)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    tol = _resolve_tol(args.tol)
    code, report = args.handler(args, tol)
    report.wall_time_s = time.perf_counter() - start
    report.command = args.report_command
    if report.tolerances is None:
        report.tolerances = {"tol": tol}
    _emit(report, args)
    return code


def main(argv=None) -> int:
    """Console entry point; returns the process exit code.

    Bad usage, malformed input and any input the library rejects
    (``ValueError``, ``LinAlgError``) print one ``error:`` line and exit
    with code 2, never with a traceback.
    """
    try:
        return _run(argv)
    except (UsageError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and --version
        return exc.code or 0
    except BrokenPipeError:  # pragma: no cover
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

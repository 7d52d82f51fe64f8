import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sicmub
from sicmub import WitnessSearchConfig, build_mub_set, cfs_example_kets, hesse_kets, hesse_sic, is_sic, verify_mub_set
from sicmub.cli import UsageError, _load_json, decode_array, encode_complex, main

#: Golden reports, written by the CLI and compared byte for byte (JSON reports carry no wall time).
GOLDEN = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_states(path, dim, kets=None, matrices=None):
    doc = {"dim": dim}
    if kets is not None:
        doc["kets"] = encode_complex(kets)
    if matrices is not None:
        doc["matrices"] = encode_complex(matrices)
    path.write_text(json.dumps(doc))
    return str(path)


class TestVerifySic:
    def test_hesse_builtin_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--tol", "1e-10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["is_sic"] is True
        assert doc["results"]["max_gram_residual"] < 1e-12
        assert doc["command"] == "verify-sic"

    def test_non_sic_input_exits_one(self, capsys, tmp_path, kets):
        bad = np.array(kets)
        bad[0] = np.array([1.0, 0.0, 0.0])
        states = write_states(tmp_path / "bad.json", 3, kets=bad)
        code, out, _ = run_cli(capsys, "verify-sic", "--input", states, "--format", "json")
        assert code == 1
        assert json.loads(out)["results"]["is_sic"] is False

    def test_csv_emits_gram_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 9 and all(len(r) == 9 for r in rows)
        assert float(rows[0][0]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0][1]) == pytest.approx(0.25, abs=1e-12)

    def test_unknown_builtin_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-sic", "--builtin", "wat")
        assert code == 2
        assert "unknown built-in" in err

    def test_emit_states_round_trips_through_input(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--emit-states", "--format", "json")
        assert code == 0
        exported = json.loads(out)["results"]["sic"]
        assert exported["dim"] == 3 and len(exported["matrices"]) == 9
        path = tmp_path / "exported.json"
        path.write_text(json.dumps(exported))
        code, out, _ = run_cli(capsys, "verify-sic", "--input", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["is_sic"] is True

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "verify-sic")
        assert code == 2

    def test_projector_structure_is_checked_at_tol(self, capsys, tmp_path, kets):
        # trace residual 1e-7: within --tol 1e-6, outside the default 1e-10
        path = write_states(tmp_path / "long.json", 3, kets=np.asarray(kets) * (1.0 + 5e-8))
        code, out, _ = run_cli(capsys, "verify-sic", "--input", path, "--tol", "1e-6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["is_sic"] is True and doc["tolerances"] == {"tol": 1e-6}
        code, _, err = run_cli(capsys, "verify-sic", "--input", path)
        assert code == 2 and err.startswith("error:")


class TestCompatTriple:
    def test_cfs_example_is_saturated_incompatible(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "triple", "--states", "cfs-example", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["verdict"] == "incompatible (saturated)"
        assert doc["results"]["saturated"] is True

    def test_compatible_triple_exits_one(self, capsys, tmp_path):
        kets = np.array(
            [
                [1, 0, 0],
                [1 / math.sqrt(2), 1 / math.sqrt(2), 0],
                [1 / math.sqrt(2), 0, 1 / math.sqrt(2)],
            ],
            dtype=complex,
        )
        states = write_states(tmp_path / "compat.json", 3, kets=kets)
        code, out, _ = run_cli(capsys, "compat", "triple", "--states", states, "--format", "json")
        assert code == 1
        assert json.loads(out)["results"]["verdict"] == "compatible"

    def test_density_matrix_input_works(self, capsys, tmp_path, kets):
        rhos = [np.outer(k, k.conj()) for k in kets[[0, 1, 4]]]
        states = write_states(tmp_path / "rho.json", 3, matrices=rhos)
        code, out, _ = run_cli(capsys, "compat", "triple", "--states", states, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["saturated"] is True

    def test_wrong_count_exits_two(self, capsys, tmp_path, kets):
        states = write_states(tmp_path / "two.json", 3, kets=kets[[0, 1]])
        code, _, err = run_cli(capsys, "compat", "triple", "--states", states)
        assert code == 2
        assert "exactly 3" in err


class TestCompatSearch:
    def test_search_on_cfs_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compat", "search", "--states", "cfs-example",
            "--restarts", "8", "--seed", "5", "--threshold", "1e-9", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["success"] is True
        assert doc["results"]["value"] < 1e-9
        assert doc["seed"] == 5
        assert len(doc["results"]["basis_kets"]) == 3
        history = doc["results"]["history"]
        assert history[-1]["phase"] == "polish" and history[-1]["polish_accepted"] > 0
        for key in ("cycles", "probes", "newton_iters", "polish_iters", "polish_accepted"):
            assert doc["results"][key] == sum(record[key] for record in history)
        # the certificate check of the basis, at the threshold: each state zeroes one outcome
        assert sorted(doc["results"]["matching"]) == [0, 1, 2]
        residuals = doc["residuals"]
        assert set(residuals) == {"orthonormality_residual", "pp_functional", "max_matched_probability"}
        assert residuals["orthonormality_residual"] <= 1e-9 and residuals["pp_functional"] <= 1e-9

    def test_text_report_prints_the_matching(self, capsys):
        code, out, _ = run_cli(capsys, "compat", "search", "--states", "cfs-example")
        assert code == 0
        assert "matching: [1, 2, 0]" in out.splitlines()
        assert any(line.startswith("residual max_matched_probability: ") for line in out.splitlines())

    def test_a_success_whose_certificate_fails_exits_one(self, capsys):
        # below the basis's own rounding no certificate can pass its orthonormality check
        code, out, _ = run_cli(capsys, "compat", "search", "--states", "cfs-example", "--threshold", "1e-20", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["success"] is True
        assert doc["residuals"]["orthonormality_residual"] > 1e-20
        assert code == 1

    def test_reports_are_byte_identical_across_runs(self, capsys):
        args = ("compat", "search", "--states", "cfs-example", "--restarts", "4", "--seed", "9", "--format", "json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bare_search_reports_the_config_defaults(self, capsys):
        defaults = WitnessSearchConfig()
        code, out, _ = run_cli(capsys, "compat", "search", "--states", "cfs-example", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == defaults.seed
        assert doc["tolerances"] == {"success_threshold": defaults.success_threshold}
        assert doc["results"]["restarts_run"] <= defaults.restarts

    def test_failure_exits_one(self, capsys, tmp_path):
        rho = np.eye(3) / 3.0
        states = write_states(tmp_path / "mixed.json", 3, matrices=[rho, rho])
        code, out, _ = run_cli(
            capsys, "compat", "search", "--states", states, "--restarts", "2", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["results"]["success"] is False


class TestMubs:
    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_report_matches_the_golden_file(self, capsys, command):
        code, out, _ = run_cli(capsys, "mubs", command, "--format", "json")
        assert code == 0
        assert out == (GOLDEN / f"mubs_{command}.json").read_text()

    def test_build_reports_striations(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "build", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["striations"][1] == ["036", "147", "258"]
        assert len(doc["results"]["projectors"]) == 4

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "verify", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["passed"] is True

    def test_build_exits_one_where_verify_fails(self, capsys):
        # the within-basis residual (~9e-16) exceeds this tol: build and verify agree on the verdict
        verify_code, _, _ = run_cli(capsys, "mubs", "verify", "--tol", "1e-16", "--format", "json")
        build_code, _, _ = run_cli(capsys, "mubs", "build", "--tol", "1e-16", "--format", "json")
        assert verify_code == build_code == 1

    def test_cover_single_triple(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "cover", "--triple", "0,1,4", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["witnessing_striations"] == [4]

    def test_cover_full_table_csv(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "cover", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "triple,witnessing_striations"
        assert len(rows) == 85

    def test_cover_full_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "cover", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["all_covered"] is True
        assert len(doc["results"]["table"]) == 84


class TestWigner:
    def test_sic_state_grid(self, capsys, tmp_path, kets):
        state = write_states(tmp_path / "state.json", 3, kets=[kets[0]])
        code, out, _ = run_cli(capsys, "wigner", "--state", state, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        w = doc["results"]["wigner"]
        assert w[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert w[1] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert doc["results"]["negativity"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["residuals"]["phase_point_cross_check"] < 1e-10

    def test_stabilizer_state_has_positive_zero_negativity(self, capsys, tmp_path):
        state = write_states(tmp_path / "zero.json", 3, kets=[[1, 0, 0]])
        code, out, _ = run_cli(capsys, "wigner", "--state", state, "--format", "json")
        assert code == 0
        assert math.copysign(1.0, json.loads(out)["results"]["negativity"]) == 1.0

    def test_text_grid(self, capsys, tmp_path):
        state = write_states(tmp_path / "zero.json", 3, kets=[[1, 0, 0]])
        code, out, _ = run_cli(capsys, "wigner", "--state", state)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("grid:")
        assert lines[start + 1 : start + 4] == ["  +0.333333  +0.000000  +0.000000"] * 3
        assert "negativity: 0" in lines

    def test_csv_grid(self, capsys, tmp_path):
        state = write_states(tmp_path / "mixed.json", 3, matrices=[np.eye(3) / 3.0])
        code, out, _ = run_cli(capsys, "wigner", "--state", state, "--format", "csv")
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()]
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        assert float(rows[1][1]) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_invalid_state_exits_two(self, capsys, tmp_path):
        state = write_states(tmp_path / "bad.json", 3, matrices=[np.eye(3)])
        code, _, err = run_cli(capsys, "wigner", "--state", state)
        assert code == 2
        assert "density matrix" in err


class TestPurity:
    def test_pure_vector_passes(self, capsys, tmp_path):
        p = [0.0, 0.0, 0.0] + [1.0 / 6.0] * 6
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": p}))
        code, out, _ = run_cli(capsys, "purity", "--probs", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["pure"] is True
        assert doc["results"]["indices"]["zero_count"] == 3

    def test_uniform_fails_with_exit_one(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": [1.0 / 9.0] * 9}))
        code, out, _ = run_cli(capsys, "purity", "--probs", str(path), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["results"]["pure"] is False
        assert doc["results"]["indices"]["effective_number"] == pytest.approx(9.0)

    def test_bits_flag(self, capsys, tmp_path):
        p = [0.0, 0.0, 0.0] + [1.0 / 6.0] * 6
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": p}))
        code, out, _ = run_cli(capsys, "purity", "--probs", str(path), "--bits", "--format", "json")
        doc = json.loads(out)
        assert doc["results"]["indices"]["shannon_entropy_bits"] == pytest.approx(math.log2(6.0), abs=1e-12)

    def test_zero_count_follows_tol(self, capsys, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": [0.0, 0.0, 5e-10] + [(1.0 - 5e-10) / 6.0] * 6}))
        for tol, zeros in (("1e-9", 3), ("1e-10", 2)):
            _, out, _ = run_cli(capsys, "purity", "--probs", str(path), "--tol", tol, "--format", "json")
            assert json.loads(out)["results"]["indices"]["zero_count"] == zeros

    def test_point_mass_entropy_is_positive_zero(self, capsys, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": [1.0] + [0.0] * 8}))
        for flags, key in (((), "shannon_entropy_nats"), (("--bits",), "shannon_entropy_bits")):
            code, out, _ = run_cli(capsys, "purity", "--probs", str(path), *flags, "--format", "json")
            assert code == 1
            assert f'"{key}": 0.0,' in out

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "purity", "--probs", str(path))
        assert code == 2
        assert "JSON" in err


class TestMinEntropy:
    def test_enumerate_report_matches_the_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "min-entropy", "enumerate", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "min_entropy_enumerate.json").read_text()

    def test_enumerate_returns_twelve(self, capsys):
        code, out, _ = run_cli(capsys, "min-entropy", "enumerate", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["count"] == 12
        triples = {entry["triple"] for entry in doc["results"]["states"]}
        assert "012" in triples and "048" in triples


class TestGraph:
    def test_chromatic_report_matches_the_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--builtin", "hesse-mub", "--chromatic", "--format", "json")
        assert code == 0
        assert out == (GOLDEN / "graph_hesse_mub_chromatic.json").read_text()

    def test_chromatic_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--builtin", "hesse-mub", "--chromatic", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["chromatic_number"] == 4
        assert doc["results"]["contextual"] is True
        assert doc["results"]["n_edges"] == 48

    def test_edge_export_without_chromatic(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]["edges"]) == 48
        assert "chromatic_number" not in doc["results"]

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "graph", "--chromatic", "--format", "json")
        _, out2, _ = run_cli(capsys, "graph", "--chromatic", "--format", "json")
        assert out1 == out2

    def test_edge_list_export(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "--format", "edges")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 48
        assert all(len(line.split()) == 2 for line in lines)
        assert "0 036" in lines


#: Golden file, then the command that writes it; ``{data}`` names a committed input in the golden folder.
GOLDEN_REPORTS = [
    ("compat_search_cfs_example.json", ("compat", "search", "--states", "cfs-example", "--format", "json")),
    ("compat_triple_cfs_example.json", ("compat", "triple", "--states", "cfs-example", "--format", "json")),
    ("verify_sic_hesse.json", ("verify-sic", "--builtin", "hesse", "--format", "json")),
    ("verify_sic_hesse.csv", ("verify-sic", "--builtin", "hesse", "--format", "csv")),
    ("verify_sic_hesse_kets.json", ("verify-sic", "--input", "{data}/sic_hesse_kets.json", "--format", "json")),
    ("verify_sic_hesse_kets.csv", ("verify-sic", "--input", "{data}/sic_hesse_kets.json", "--format", "csv")),
    ("mubs_cover_014.json", ("mubs", "cover", "--triple", "0,1,4", "--format", "json")),
    ("mubs_cover.csv", ("mubs", "cover", "--format", "csv")),
    ("wigner_strange.json", ("wigner", "--state", "{data}/state_strange.json", "--format", "json")),
    ("wigner_strange.csv", ("wigner", "--state", "{data}/state_strange.json", "--format", "csv")),
    ("purity_sic_ket.json", ("purity", "--probs", "{data}/probs_sic_ket.json", "--format", "json")),
    ("graph_hesse_mub.edges", ("graph", "--format", "edges")),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_REPORTS, ids=[name for name, _ in GOLDEN_REPORTS])
def test_report_matches_its_golden_file(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *(arg.format(data=GOLDEN) for arg in argv))
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--format", "json", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]["is_sic"] is True

    def test_env_var_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("SICMUB_TOL", "1e-6")
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--format", "json")
        assert json.loads(out)["tolerances"]["tol"] == 1e-6

    def test_text_format_mentions_wall_time(self, capsys):
        code, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse")
        assert code == 0
        assert "wall time" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("mubs", "verify", "--tol", "1.23456789e-10"), "tolerance tol: 1.23456789e-10"),
            (("mubs", "verify"), "tolerance tol: 1e-10"),
            (("compat", "search", "--states", "cfs-example", "--threshold", "2.5e-9"), "tolerance success_threshold: 2.5e-09"),
        ],
        ids=["nine-digits", "default", "threshold"],
    )
    def test_text_format_prints_each_tolerance_as_applied(self, capsys, monkeypatch, argv, line):
        monkeypatch.delenv("SICMUB_TOL", raising=False)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert line in out.splitlines()

    def test_json_format_has_no_wall_time(self, capsys):
        _, out, _ = run_cli(capsys, "verify-sic", "--builtin", "hesse", "--format", "json")
        assert "wall_time" not in out

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "sicmub" in out

    @pytest.mark.parametrize(
        "argv, choices",
        [
            ((), "{verify-sic,compat,mubs,wigner,purity,min-entropy,graph}"),
            (("compat",), "{triple,search}"),
            (("mubs",), "{build,verify,cover}"),
            (("min-entropy",), "{enumerate}"),
        ],
        ids=["sicmub", "compat", "mubs", "min-entropy"],
    )
    def test_missing_subcommand_error_names_the_choices(self, capsys, argv, choices):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line == f"error: {' '.join(('sicmub',) + argv)}: the following arguments are required: {choices}"


#: (argv, the library check a command reports, called with the run's tolerance)
CHECK_COMMANDS = [
    (("verify-sic", "--builtin", "hesse"), lambda tol: is_sic(hesse_sic(), tol=tol)),
    (("mubs", "verify"), lambda tol: verify_mub_set(build_mub_set(hesse_sic()), tol=tol)),
]


class TestReportsPrintTheCheck:
    # at 1e-16 both checks fail on rounding, so both verdicts are covered
    @pytest.mark.parametrize("tol", [1e-10, 1e-16])
    @pytest.mark.parametrize("argv, check", CHECK_COMMANDS, ids=["verify-sic", "mubs-verify"])
    def test_residuals_are_the_library_check_residuals(self, capsys, argv, check, tol):
        code, out, _ = run_cli(capsys, *argv, "--tol", repr(tol), "--format", "json")
        expected = check(tol)
        assert code == (0 if expected.passed else 1)
        assert json.loads(out)["residuals"] == expected.residuals


def replaced(doc, path, value):
    """Copy of ``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


CFS_DOC = {"dim": 3, "kets": encode_complex(cfs_example_kets())}
ONE_KET_DOC = {"dim": 3, "kets": encode_complex(cfs_example_kets()[:1])}
#: One ket of norm 1 + 3e-9: off by more than the default tolerance 1e-10, within 1e-8.
LONG_KET_DOC = {"dim": 3, "kets": encode_complex(cfs_example_kets()[:1] * (1.0 + 3e-9))}
#: Two valid one-dimensional kets: well-formed, but no search runs below dimension 2.
DIM_ONE_DOC = {"dim": 1, "kets": [[[1.0, 0.0]], [[0.0, 1.0]]]}
#: Well-formed, but the ternary criterion needs pure states.
MIXED_TRIPLE_DOC = {"dim": 3, "matrices": encode_complex([np.eye(3) / 3.0] * 3)}
#: Three orthonormal kets in dimension 4: well-formed, but the ternary criterion is for qutrits.
DIM_FOUR_DOC = {"dim": 4, "kets": encode_complex(np.eye(4)[:3])}
#: The Hesse SIC as a ket file.
HESSE_KETS_DOC = {"dim": 3, "kets": encode_complex(hesse_kets())}
#: One short of a qutrit SIC.
EIGHT_KETS_DOC = {"dim": 3, "kets": encode_complex(hesse_kets()[:8])}
#: The Hermitian part of each matrix has largest eigenvalue 1 with eigenvector |0>,
#: orthogonal to the first cfs-example state: only the density-matrix check keeps
#: ``compat triple`` from calling a triple holding one of them incompatible.
NOT_PSD = np.diag([1.0, 0.5, -0.5])
NOT_HERMITIAN = np.array([[1.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
TRACE_TWO = np.diag([1.0, 1.0, 0.0])


def cfs_with_second_state(matrix):
    """cfs-example as density matrices, its second state replaced by ``matrix``."""
    kets = cfs_example_kets()
    rhos = np.einsum("na,nb->nab", kets, kets.conj())
    rhos[1] = matrix
    return {"dim": 3, "matrices": encode_complex(rhos)}


#: A valid qubit state: the discrete Wigner function is for qutrits.
QUBIT_DOC = {"dim": 2, "kets": [[[1.0, 0.0], [0.0, 0.0]]]}
PURE_PROBS_DOC = {"dim": 3, "probabilities": [0.0, 0.0, 0.0] + [1.0 / 6.0] * 6}
#: Sums to 1, but one entry is far below -tol.
NEGATIVE_PROBS_DOC = {"dim": 3, "probabilities": [-0.1, 0.1] + [1.0 / 7.0] * 7}
#: A pure-state vector scaled to sum 1 + 5e-9: not a probability vector at the default tolerance.
HEAVY_PROBS_DOC = {"dim": 3, "probabilities": [0.0, 0.0, 0.0] + [(1.0 + 5e-9) / 6.0] * 6}
#: Vectors within a loose tol of sum 1 whose squares sum to 0: nine zeros, nine
#: entries whose squares underflow, and nine negative zeros.
ZERO_PROBS_DOC = {"dim": 3, "probabilities": [0.0] * 9}
TINY_PROBS_DOC = {"dim": 3, "probabilities": [1e-170] * 9}
NEGATIVE_ZERO_PROBS_DOC = {"dim": 3, "probabilities": [-0.0] * 9}
#: Finite entries whose sum overflows.
HUGE_PROBS_DOC = {"dim": 3, "probabilities": [1e308] * 9}
TRIPLE = ("compat", "triple", "--states", "{file}")
PURITY = ("purity", "--probs", "{file}")
HESSE = ("verify-sic", "--builtin", "hesse")
SEARCH = ("compat", "search", "--states", "cfs-example", "--restarts", "2")
SEARCH_FILE = ("compat", "search", "--states", "{file}", "--restarts", "2")
WIGNER = ("wigner", "--state", "{file}")

#: (id, argv with "{file}" for the input path, input file text or None for no file, environment)
MALFORMED = [
    ("nan-ket", TRIPLE, json.dumps(replaced(CFS_DOC, ("kets", 0, 1, 0), math.nan)), {}),
    ("nan-prob", PURITY, json.dumps(replaced(PURE_PROBS_DOC, ("probabilities", 4), math.nan)), {}),
    ("infinity-prob", PURITY, json.dumps(replaced(PURE_PROBS_DOC, ("probabilities", 4), math.inf)), {}),
    ("overflow-prob", PURITY, json.dumps(replaced(PURE_PROBS_DOC, ("probabilities", 4), "BIG")).replace('"BIG"', "1e400"), {}),
    ("nan-wigner-ket", WIGNER, json.dumps(replaced(ONE_KET_DOC, ("kets", 0, 2, 1), math.nan)), {}),
    ("wigner-ket-off-norm", WIGNER, json.dumps(LONG_KET_DOC), {}),
    ("non-numeric-ket-entry", TRIPLE, json.dumps(replaced(CFS_DOC, ("kets", 1, 0, 0), "abc")), {}),
    ("boolean-ket-entry", TRIPLE, json.dumps(replaced(CFS_DOC, ("kets", 1, 0, 0), True)), {}),
    ("kets-not-an-array", TRIPLE, json.dumps(replaced(CFS_DOC, ("kets",), 5)), {}),
    ("ragged-kets", TRIPLE, json.dumps(replaced(CFS_DOC, ("kets", 1), CFS_DOC["kets"][1][:2])), {}),
    ("dim-not-an-integer", TRIPLE, json.dumps(replaced(CFS_DOC, ("dim",), "abc")), {}),
    ("purity-negative-dim", PURITY, json.dumps(replaced(PURE_PROBS_DOC, ("dim",), -3)), {}),
    ("purity-sum-off-tol", PURITY + ("--tol", "1e-10"), json.dumps(HEAVY_PROBS_DOC), {}),
    ("purity-all-zero", PURITY + ("--tol", "1"), json.dumps(ZERO_PROBS_DOC), {}),
    ("purity-squares-underflow", PURITY + ("--tol", "1"), json.dumps(TINY_PROBS_DOC), {}),
    ("purity-negative-zeros", PURITY + ("--tol", "2"), json.dumps(NEGATIVE_ZERO_PROBS_DOC), {}),
    ("purity-deep-nesting", PURITY, "[" * 100_000, {}),
    ("compat-triple-deep-nesting", TRIPLE, "[" * 100_000, {}),
    ("missing-file", PURITY, None, {}),
    ("tol-nan", HESSE + ("--tol", "nan"), None, {}),
    ("tol-zero", HESSE + ("--tol", "0"), None, {}),
    ("tol-negative", HESSE + ("--tol", "-1"), None, {}),
    ("env-tol-nan", HESSE, None, {"SICMUB_TOL": "nan"}),
    ("threshold-nan", SEARCH + ("--threshold", "nan"), None, {}),
    ("restarts-zero", SEARCH + ("--restarts", "0"), None, {}),
    # the settings are checked before the missing state file is read
    ("seed-negative", SEARCH_FILE + ("--seed", "-1"), None, {}),
    ("threshold-zero", SEARCH + ("--threshold", "0"), None, {}),
    ("restarts-not-an-integer", SEARCH + ("--restarts", "abc"), None, {}),
    ("tol-not-a-number", HESSE + ("--tol", "abc"), None, {}),
    ("graph-format-csv", ("graph", "--format", "csv"), None, {}),
    ("unknown-flag", HESSE + ("--frobnicate",), None, {}),
    ("triple-criterion-flag", ("compat", "triple", "--states", "cfs-example", "--criterion"), None, {}),
    ("search-dim-one", SEARCH_FILE, json.dumps(DIM_ONE_DOC), {}),
    ("search-one-state", SEARCH_FILE, json.dumps(ONE_KET_DOC), {}),
    ("states-no-dim", TRIPLE, json.dumps({"kets": CFS_DOC["kets"]}), {}),
    ("states-no-kets-or-matrices", TRIPLE, json.dumps({"dim": 3}), {}),
    ("triple-mixed-state", TRIPLE, json.dumps(MIXED_TRIPLE_DOC), {}),
    ("triple-dim-four", TRIPLE, json.dumps(DIM_FOUR_DOC), {}),
    ("triple-state-not-psd", TRIPLE, json.dumps(cfs_with_second_state(NOT_PSD)), {}),
    ("triple-state-not-hermitian", TRIPLE, json.dumps(cfs_with_second_state(NOT_HERMITIAN)), {}),
    ("triple-state-trace-two", TRIPLE, json.dumps(cfs_with_second_state(TRACE_TWO)), {}),
    ("env-tol-not-a-number", HESSE, None, {"SICMUB_TOL": "abc"}),
    ("verify-sic-eight-kets", ("verify-sic", "--input", "{file}"), json.dumps(EIGHT_KETS_DOC), {}),
    ("cover-triple-not-integers", ("mubs", "cover", "--triple", "0,x,4"), None, {}),
    ("wigner-two-states", WIGNER, json.dumps({"dim": 3, "kets": CFS_DOC["kets"][:2]}), {}),
    ("wigner-dim-two", WIGNER, json.dumps(QUBIT_DOC), {}),
    ("purity-no-probabilities", PURITY, json.dumps({"dim": 3}), {}),
    ("purity-negative-entry", PURITY, json.dumps(NEGATIVE_PROBS_DOC), {}),
    ("purity-sum-overflows", PURITY, json.dumps(HUGE_PROBS_DOC), {}),
    ("graph-unknown-builtin", ("graph", "--builtin", "wat"), None, {}),
    # the input file exists, so no directory of that name can be created beneath it
    ("output-unwritable", HESSE + ("--output", "{file}/report.json"), "{}", {}),
]


#: What the error line of some MALFORMED cases says, by case id.
MALFORMED_ERRORS = {
    "ragged-kets": "expected an array of shape (n, 3, 2)",
    "purity-all-zero": "error: probability vector has no weight: its squares sum to 0.0",
    "purity-squares-underflow": "error: probability vector has no weight: its squares sum to 0.0",
    "purity-negative-zeros": "error: probability vector has no weight: its squares sum to 0.0",
    "purity-deep-nesting": "is not valid JSON: maximum recursion depth exceeded",
    "compat-triple-deep-nesting": "is not valid JSON: maximum recursion depth exceeded",
    "seed-negative": "seed must be non-negative, got -1",
    "threshold-zero": "error: success_threshold must be finite and positive, got 0.0",
    "purity-negative-entry": "error: probability vector entries must be at least -1e-10, got -0.1",
    "purity-sum-overflows": "error: probability vector must sum to 1 within 1e-10, got an entry of 1e+308",
}


class TestMalformedInput:
    @pytest.mark.parametrize("case, argv, text, env", MALFORMED, ids=[case[0] for case in MALFORMED])
    def test_exits_two_with_error_line(self, capsys, monkeypatch, tmp_path, case, argv, text, env):
        monkeypatch.delenv("SICMUB_TOL", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        code, _, err = run_cli(capsys, *(arg.format(file=path) for arg in argv), "--format", "json")
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith("error:")
        assert MALFORMED_ERRORS.get(case, "") in line


#: (argv with "{file}" for the input path, input file text or None, the report's tolerances at --tol 1e-9)
LEAF_COMMANDS = [
    (HESSE, None, {"tol": 1e-9}),
    (("compat", "triple", "--states", "cfs-example"), None, {"tol": 1e-9, "saturation_tol": 1e-9}),
    (SEARCH, None, {"success_threshold": 1e-10}),
    (SEARCH_FILE, json.dumps(CFS_DOC), {"success_threshold": 1e-10, "tol": 1e-9}),
    (("mubs", "build"), None, {"tol": 1e-9}),
    (("mubs", "verify"), None, {"tol": 1e-9}),
    (("mubs", "cover", "--triple", "0,1,4"), None, {"tol": 1e-9}),
    (WIGNER, json.dumps(ONE_KET_DOC), {"tol": 1e-9}),
    (PURITY, json.dumps(PURE_PROBS_DOC), {"tol": 1e-9}),
    (("min-entropy", "enumerate"), None, {"tol": 1e-9}),
    (("graph",), None, {"tol": 1e-9}),
]


def command_words(argv):
    return list(itertools.takewhile(lambda arg: not arg.startswith("--"), argv))


class TestReportPlumbing:
    @pytest.mark.parametrize(
        "argv, text, tolerances",
        LEAF_COMMANDS,
        ids=["-".join(command_words(argv)) + ("-file" if text else "") for argv, text, _ in LEAF_COMMANDS],
    )
    def test_command_is_the_subcommand_words_and_tolerances_are_documented(self, capsys, monkeypatch, tmp_path, argv, text, tolerances):
        monkeypatch.delenv("SICMUB_TOL", raising=False)
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, *(arg.format(file=path) for arg in argv), "--tol", "1e-9", "--format", "json")
        assert code in (0, 1) and err == ""
        doc = json.loads(out)
        assert doc["command"] == " ".join(command_words(argv))
        assert doc["tolerances"] == tolerances


def near_saturated_kets(eps):
    """Real unit kets with equal squared overlaps 1/4 + eps, just on the
    compatible side of the saturation boundary (gap about 9 eps / 4)."""
    gram = np.full((3, 3), math.sqrt(0.25 + eps))
    np.fill_diagonal(gram, 1.0)
    return np.linalg.cholesky(gram).astype(complex)


class TestToleranceHonesty:
    def test_compat_triple_applies_tol(self, capsys, tmp_path):
        states = write_states(tmp_path / "near.json", 3, kets=near_saturated_kets(1e-7))
        for tol, expected_code, verdict in (("1e-6", 0, "incompatible"), ("1e-8", 1, "compatible")):
            code, out, _ = run_cli(capsys, "compat", "triple", "--states", states, "--tol", tol, "--format", "json")
            doc = json.loads(out)
            assert code == expected_code
            assert doc["results"]["verdict"] == verdict
            assert doc["tolerances"] == {"tol": float(tol), "saturation_tol": 1e-9}

    def test_compat_triple_judges_purity_at_tol(self, capsys, tmp_path):
        states = write_states(tmp_path / "long.json", 3, kets=cfs_example_kets() * (1.0 + 1e-7))
        code, out, _ = run_cli(capsys, "compat", "triple", "--states", states, "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["verdict"] == "incompatible (saturated)"
        code, _, err = run_cli(capsys, "compat", "triple", "--states", states, "--tol", "1e-8")
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.parametrize(
        "argv, count_key, expected",
        [
            (("min-entropy", "enumerate"), "count", 12),
            (("compat", "triple", "--states", "cfs-example"), "verdict", "incompatible (saturated)"),
        ],
        ids=["min-entropy", "compat-triple"],
    )
    def test_builtins_are_not_held_to_a_tol_below_rounding(self, capsys, argv, count_key, expected):
        # built-in inputs are exact up to rounding: only a state file's input checks apply --tol
        code, out, err = run_cli(capsys, *argv, "--tol", "1e-16", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["results"][count_key] == expected
        assert doc["tolerances"]["tol"] == 1e-16

    def test_graph_honours_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("SICMUB_TOL", "0.3")
        code, out, _ = run_cli(capsys, "graph", "--format", "json")
        doc = json.loads(out)
        assert doc["tolerances"] == {"tol": 0.3}
        # the 36 SIC pairs (overlap 1/4) now count as orthogonal too
        assert doc["results"]["n_edges"] == 48 + 36

    def test_compat_search_reports_only_its_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "compat", "search", "--states", "cfs-example", "--restarts", "2",
            "--threshold", "1e-9", "--tol", "1e-6", "--format", "json",
        )
        assert json.loads(out)["tolerances"] == {"success_threshold": 1e-9}

    def test_compat_search_on_a_file_applies_tol_to_ket_norms(self, capsys, tmp_path):
        states = write_states(tmp_path / "long.json", 3, kets=cfs_example_kets() * (1.0 + 3e-9))
        argv = ("compat", "search", "--states", states, "--restarts", "2", "--threshold", "1e-9", "--format", "json")
        code, _, err = run_cli(capsys, *argv, "--tol", "1e-10")
        assert code == 2
        assert "not normalized" in err
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-8")
        assert code == 0
        assert json.loads(out)["tolerances"] == {"success_threshold": 1e-9, "tol": 1e-8}

    @pytest.mark.parametrize("command", [("compat", "triple"), ("compat", "search", "--restarts", "2")], ids=["triple", "search"])
    @pytest.mark.parametrize(
        "excess, code, message",
        [(0.4e-10, 0, ""), (0.7e-10, 2, "is not a valid density matrix"), (1.5e-10, 2, "ket is not normalized")],
        ids=["both-pass", "trace-fails", "norm-fails"],
    )
    def test_a_ket_needs_its_squared_norm_within_tol(self, capsys, tmp_path, command, excess, code, message):
        # at the default tol 1e-10 the norm check passes 1 + 0.7e-10, but the trace, its square, fails
        states = write_states(tmp_path / "long.json", 3, kets=cfs_example_kets() * (1.0 + excess))
        got, _, err = run_cli(capsys, *command, "--states", states, "--format", "json")
        assert got == code
        assert message in err

    def test_compat_search_judges_states_at_tol(self, capsys, tmp_path):
        states = write_states(tmp_path / "long.json", 3, kets=cfs_example_kets() * math.sqrt(1.0 + 1e-7))
        argv = ("compat", "search", "--states", states, "--restarts", "2", "--threshold", "1e-9")
        code, out, _ = run_cli(capsys, *argv, "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerances"] == {"success_threshold": 1e-9, "tol": 1e-6}
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err

    def test_purity_judges_the_sum_at_tol(self, capsys, tmp_path):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({"dim": 3, "probabilities": [0.0, 0.0, 0.0] + [(1.0 + 1e-7) / 6.0] * 6}))
        code, out, _ = run_cli(capsys, "purity", "--probs", str(path), "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["pure"] is True
        code, _, err = run_cli(capsys, "purity", "--probs", str(path))
        assert code == 2
        assert "got 1.0000001" in err and "np.float64" not in err

    def test_mubs_cover_reports_and_applies_tol(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "cover", "--triple", "0,1,4", "--tol", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["tolerances"] == {"tol": 1.0}
        # the PP functional never exceeds 1, so at tol 1 every striation witnesses
        assert doc["results"]["witnessing_striations"] == [1, 2, 3, 4]

    def test_wigner_reports_and_applies_tol(self, capsys, tmp_path):
        state = write_states(tmp_path / "trace.json", 3, matrices=[np.eye(3) / 3.0 * (1.0 + 5e-9)])
        code, _, err = run_cli(capsys, "wigner", "--state", state, "--tol", "1e-10")
        assert code == 2
        assert "density matrix" in err
        code, out, _ = run_cli(capsys, "wigner", "--state", state, "--tol", "1e-8", "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerances"] == {"tol": 1e-8}


finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def state_arrays(draw):
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (n, dim) if draw(st.booleans()) else (n, dim, dim)
    arr = np.empty(shape, dtype=complex)
    arr.real = draw(arrays(float, shape, elements=finite))
    arr.imag = draw(arrays(float, shape, elements=finite))
    return arr


class TestCodecProperties:
    @settings(deadline=None)
    @given(arr=state_arrays(), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
    def test_round_trip_and_non_finite_rejection(self, tmp_path_factory, arr, bad, data):
        field = "kets" if arr.ndim == 2 else "matrices"
        encoded = encode_complex(arr)
        path = tmp_path_factory.mktemp("codec") / "doc.json"
        path.write_text(json.dumps({"dim": arr.shape[1], field: encoded}))
        doc, _ = _load_json(str(path))
        decoded = decode_array(doc[field], (None,) + arr.shape[1:], field)
        np.testing.assert_array_equal(decoded, arr)

        corrupted = np.array(encoded)
        corrupted.flat[data.draw(st.integers(0, corrupted.size - 1))] = bad
        path.write_text(json.dumps({"dim": arr.shape[1], field: corrupted.tolist()}))
        doc, _ = _load_json(str(path))
        with pytest.raises(UsageError, match="finite"):
            decode_array(doc[field], (None,) + arr.shape[1:], field)


#: (argv with "{file}" for the input path, input document or None, the ``sicmub.*`` modules
#: beside ``sicmub.cli`` and ``sicmub.qmath`` that a fresh interpreter holds after the call)
IMPORT_COMMANDS = [
    (HESSE, None, {"sicmub.sicgen"}),
    (("verify-sic", "--input", "{file}"), HESSE_KETS_DOC, {"sicmub.sicgen"}),
    (("compat", "triple", "--states", "cfs-example"), None, {"sicmub.compat"}),
    (TRIPLE, CFS_DOC, {"sicmub.compat"}),
    (SEARCH, None, {"sicmub.compat"}),
    (("mubs", "build"), None, {"sicmub.sicgen", "sicmub.mub"}),
    (("mubs", "verify"), None, {"sicmub.sicgen", "sicmub.mub"}),
    (("mubs", "cover"), None, {"sicmub.sicgen", "sicmub.mub"}),
    (("mubs", "cover", "--triple", "0,1,4"), None, {"sicmub.sicgen", "sicmub.mub"}),
    (WIGNER, ONE_KET_DOC, {"sicmub.sicgen", "sicmub.mub", "sicmub.wigner"}),
    (PURITY, PURE_PROBS_DOC, {"sicmub.sicgen", "sicmub.mub", "sicmub.purity"}),
    (("min-entropy", "enumerate"), None, {"sicmub.sicgen", "sicmub.mub", "sicmub.purity"}),
    (("graph",), None, {"sicmub.sicgen", "sicmub.mub", "sicmub.contextuality"}),
    (("graph", "--chromatic"), None, {"sicmub.sicgen", "sicmub.mub", "sicmub.contextuality"}),
]


def fresh_modules(code: str) -> tuple[str, set[str]]:
    """Run ``code`` in a fresh interpreter; return what it printed and the
    ``sicmub.*`` modules it then holds."""
    src = str(Path(sicmub.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("SICMUB_TOL", None)
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('sicmub.')))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    *printed, modules = done.stdout.splitlines()
    return "\n".join(printed), set(modules.split())


class TestImports:
    """``import sicmub`` loads no module, and each subcommand loads only the
    modules it uses, so a cold call does not pay for the others."""

    def test_importing_the_package_loads_no_module(self):
        assert fresh_modules("import sicmub") == ("", set())
        assert fresh_modules("import sicmub; print(set(sicmub.__all__) <= set(dir(sicmub)))") == ("True", set())

    def test_a_name_loads_only_its_module_and_what_that_imports(self):
        assert fresh_modules("from sicmub import hesse_sic") == ("", {"sicmub.qmath", "sicmub.sicgen"})
        assert fresh_modules("import sicmub; sicmub.StateSet") == ("", {"sicmub.qmath", "sicmub.compat"})
        assert fresh_modules("import sicmub; sicmub.mub") == ("", {"sicmub.qmath", "sicmub.sicgen", "sicmub.mub"})

    @pytest.mark.parametrize(
        "argv, doc, modules", IMPORT_COMMANDS, ids=["-".join(command_words(argv)) for argv, _, _ in IMPORT_COMMANDS]
    )
    def test_a_subcommand_loads_only_its_modules(self, tmp_path, argv, doc, modules):
        path = tmp_path / "input.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        argv = [arg.format(file=path) for arg in argv] + ["--format", "json", "--output", str(tmp_path / "report.json")]
        printed, loaded = fresh_modules(f"from sicmub.cli import main\nprint(main({argv!r}))")
        assert printed == "0"
        assert loaded == {"sicmub.cli", "sicmub.qmath"} | modules

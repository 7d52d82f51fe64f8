import importlib.util
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_time", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Synthetic timings ``(repeat, op)``: three repeats of four operations.
PARENT = np.array([[10, 20, 30, 40], [12, 18, 33, 41], [11, 22, 29, 45]])


def test_minima_sum_adds_each_operations_fastest_run(tool):
    assert tool.minima_sum(PARENT) == 10 + 18 + 29 + 40


def test_sign_count_counts_each_side_by_side_run(tool):
    change = np.array([[9, 20, 31, 39], [12, 17, 34, 40], [10, 23, 28, 45]])
    assert tool.sign_count(PARENT, change) == {"faster": 6, "slower": 3, "equal": 3}


def test_minima_sum_averages_the_copies(tool):
    copies = np.stack([PARENT, PARENT - np.array([0, 0, 0, 6])])  # copy b runs op 3 faster
    assert tool.minima_sum(copies) == 10 + 18 + 29 + 37


def test_bootstrap_of_identical_timings_is_exactly_one(tool):
    assert tool.bootstrap_interval(PARENT[None], PARENT.copy()[None]) == (1.0, 1.0)
    assert tool.bootstrap_interval(np.stack([PARENT, PARENT]), np.stack([PARENT, PARENT])) == (1.0, 1.0)


def test_bootstrap_of_a_uniform_speed_up_is_that_ratio(tool):
    low, high = tool.bootstrap_interval(np.stack([PARENT, PARENT]) * 4, np.stack([PARENT, PARENT]) * 3)
    assert low == pytest.approx(0.75) and high == pytest.approx(0.75)


def test_bootstrap_is_seeded_and_holds_the_spread_of_the_repeats(tool):
    change = np.array([[5, 20, 30, 40], [12, 18, 33, 41], [11, 22, 29, 45]])  # one fast run of op 0
    low, high = tool.bootstrap_interval(PARENT[None], change[None])
    assert (low, high) == tool.bootstrap_interval(PARENT[None], change[None])
    assert low == pytest.approx(92 / 97) and high == pytest.approx(1.0)


def test_bootstrap_spans_the_gap_between_two_copies(tool):
    # the change's copy a runs every op in 9/10 of the time and its copy b in
    # the parent's time; both trees resample the same repeats, so a
    # repeat-only interval would read 0.9 alone
    parent = np.stack([PARENT * 10, PARENT * 10])
    change = np.stack([PARENT * 9, PARENT * 10])
    low, high = tool.bootstrap_interval(parent, change)
    assert low == pytest.approx(0.9) and high == pytest.approx(1.0)
    assert tool.minima_sum(change) / tool.minima_sum(parent) == pytest.approx(0.95)


def test_run_order_alternates_trees_and_copies(tool):
    orders = [tool.run_order(step) for step in range(4)]
    assert all(sorted(order) == [(0, 0), (0, 1), (1, 0), (1, 1)] for order in orders)
    assert [order[0] for order in orders] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert orders[0] == [(0, 0), (1, 0), (0, 1), (1, 1)]  # each copy of the two trees back to back
    assert tool.run_order(4) == orders[0]


def test_summary_splits_by_kind(tool):
    times = np.stack([PARENT, PARENT * 2])[:, None]
    report = tool.summarize(["a", "b", "a", "b"], times)
    assert list(report) == ["a", "b"]
    assert report["a"]["ops"] == 2 and report["a"]["parent_ms"] == (10 + 29) / 1e6
    assert report["b"]["ratio"] == 2.0 and report["b"]["pairs"] == {"faster": 0, "slower": 6, "equal": 0}
    assert report["b"]["interval"] == (2.0, 2.0)


@dataclass
class Record:
    value: float
    basis: np.ndarray


def test_canonical_form_sees_one_bit(tool):
    record = Record(0.1, np.eye(2))
    assert tool.canonical((record, {"k": [1, True]})) == tool.canonical((Record(0.1, np.eye(2)), {"k": [1, True]}))
    assert tool.canonical(record) != tool.canonical(Record(np.nextafter(0.1, 1.0), np.eye(2)))
    flipped = np.eye(2)
    flipped[0, 1] = -0.0
    assert tool.canonical(record) != tool.canonical(Record(0.1, flipped))
    assert tool.canonical(np.float64(0.5)) == tool.canonical(0.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["--parent", "src", "--change", "src", "--workload", "cli"],
        ["--parent", "src", "--change", "src", "--workload", "search-certify"],
        ["--parent", "src", "--change", "src", "--workload", "geometry", "--repeats", "0"],
        ["--change", "src", "--workload", "geometry"],
    ],
    ids=["cli-workload", "search-workload", "no-repeats", "no-parent"],
)
def test_bad_arguments_exit_2(tool, argv):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2


def run(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True, cwd=ROOT, timeout=300)


def test_a_tree_without_sicmub_exits_2(tmp_path):
    result = run("--parent", str(tmp_path), "--change", "src", "--workload", "geometry", "--repeats", "1")
    assert result.returncode == 2 and "no sicmub package" in result.stderr


def test_a_tree_against_itself_matches(tmp_path):
    result = run("--parent", "src", "--change", "src", "--workload", "geometry", "--repeats", "2")
    assert result.returncode == 0, result.stderr
    assert "all outputs bit for bit the same" in result.stdout
    assert "interval over copies and repeats" in result.stdout
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["ops"] == 196 and summary["repeats"] == 2 and summary["copies"] == 2
    assert list(summary["kinds"]) == ["certify", "pure", "mixed", "triple"]
    for kind in summary["kinds"].values():
        assert set(kind) == {"ops", "parent_ms", "change_ms", "ratio", "interval", "pairs"}
        assert len(kind["interval"]) == 2 and sum(kind["pairs"].values()) == kind["ops"] * 2 * 2


def test_a_last_bit_changed_in_one_tree_exits_1(tmp_path):
    changed = tmp_path / "src" / "sicmub"
    changed.mkdir(parents=True)
    for source in (ROOT / "src" / "sicmub").glob("*.py"):
        (changed / source.name).write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    with open(changed / "wigner.py", "a", encoding="utf-8") as fh:
        fh.write("\n_negativity = negativity\n\n\ndef negativity(w):\n    return _negativity(w) * (1.0 + 2.0**-52)\n")
    result = run("--parent", "src", "--change", str(tmp_path / "src"), "--workload", "geometry", "--repeats", "1")
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("differ: the outputs of pure-0 ")
